(* Tracing for the traced run: spans recorded around every library call
   the harness makes, and a SIGPROF sampler that splits the opaque ones
   ([Serve.run], [Gridapp.run_resilient], [Cluster.move]) across the
   repository's layers.  Both are off outside [traced], so an untraced
   iteration pays one boolean test per span. *)

type span = {
  sp_id : int;
  sp_parent : int;  (* -1 at top level *)
  sp_name : string;
  sp_start : float;
  mutable sp_end : float;
}

let enabled = ref false
let spans : span list ref = ref []
let open_spans : span list ref = ref []
let next_id = ref 0

let span name f =
  if not !enabled then f ()
  else begin
    let parent = match !open_spans with s :: _ -> s.sp_id | [] -> -1 in
    let s =
      { sp_id = !next_id; sp_parent = parent; sp_name = name;
        sp_start = Unix.gettimeofday (); sp_end = nan }
    in
    incr next_id;
    open_spans := s :: !open_spans;
    Fun.protect
      ~finally:(fun () ->
        s.sp_end <- Unix.gettimeofday ();
        open_spans := List.tl !open_spans;
        spans := s :: !spans)
      f
  end

(* A span's self time: its duration minus the part its children cover. *)
let self_times () =
  let child = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.sp_parent >= 0 then
        Hashtbl.replace child s.sp_parent
          ((s.sp_end -. s.sp_start)
          +. Option.value ~default:0.0 (Hashtbl.find_opt child s.sp_parent)))
    !spans;
  let acc = Hashtbl.create 16 in
  List.iter
    (fun s ->
      let self =
        s.sp_end -. s.sp_start
        -. Option.value ~default:0.0 (Hashtbl.find_opt child s.sp_id)
      in
      Hashtbl.replace acc s.sp_name
        (self +. Option.value ~default:0.0 (Hashtbl.find_opt acc s.sp_name)))
    !spans;
  Hashtbl.fold (fun k v l -> (k, v) :: l) acc [] |> List.sort compare

let spanned_s () =
  List.fold_left
    (fun acc s -> if s.sp_parent < 0 then acc +. (s.sp_end -. s.sp_start) else acc)
    0.0 !spans

let write_spans path =
  let oc = open_out path in
  List.iter
    (fun s ->
      Printf.fprintf oc
        "{\"id\":%d,\"parent\":%d,\"name\":%S,\"start_s\":%.6f,\"end_s\":%.6f}\n"
        s.sp_id s.sp_parent s.sp_name s.sp_start s.sp_end)
    (List.rev !spans);
  close_out oc

(* ---- layer attribution ------------------------------------------- *)

let layers =
  [ "vm.emulator"; "vm.codegen"; "fir.typecheck"; "net.mpi"; "net.cluster";
    "net.dspec"; "spec.engine"; "migrate.pack"; "migrate.wire";
    "fir.serial"; "migrate.server"; "runtime.heap"; "runtime.gc" ]

(* Source file -> layer.  Files not listed (front ends, [Mcc.Gridapp],
   [Obs], the stdlib) are transparent: a sample in them is charged to
   the nearest listed caller. *)
let layer_of_file = function
  | "lib/vm/emulator.ml" | "lib/vm/process.ml" | "lib/vm/extern.ml"
  | "lib/vm/interp.ml" | "lib/vm/arch.ml" ->
    Some "vm.emulator"
  | "lib/vm/codegen.ml" | "lib/vm/link.ml" | "lib/vm/masm.ml" ->
    Some "vm.codegen"
  | "lib/fir/typecheck.ml" | "lib/fir/opt.ml" -> Some "fir.typecheck"
  | "lib/net/mpi.ml" -> Some "net.mpi"
  | "lib/net/cluster.ml" | "lib/net/registry.ml" | "lib/net/simnet.ml"
  | "lib/net/faults.ml" | "lib/net/balance.ml" | "lib/net/detector.ml"
  | "lib/net/storage.ml" ->
    Some "net.cluster"
  | "lib/net/dspec.ml" -> Some "net.dspec"
  | "lib/spec/engine.ml" -> Some "spec.engine"
  | "lib/migrate/pack.ml" -> Some "migrate.pack"
  | "lib/migrate/wire.ml" -> Some "migrate.wire"
  | "lib/fir/serial.ml" | "lib/fir/digest.ml" -> Some "fir.serial"
  | "lib/migrate/server.ml" | "lib/migrate/codecache.ml"
  | "lib/migrate/protocol.ml" ->
    Some "migrate.server"
  | "lib/runtime/heap.ml" | "lib/runtime/pointer_table.ml"
  | "lib/runtime/value.ml" | "lib/runtime/function_table.ml" ->
    Some "runtime.heap"
  | "lib/runtime/gc.ml" -> Some "runtime.gc"
  | _ -> None

let file_of slot =
  match Printexc.Slot.location slot with
  | Some loc -> loc.Printexc.filename
  | None -> ""

(* Innermost listed frame wins.  [Vm.Compile] closures are the compiled
   emulator's code: under an [Emulator] frame they are execution; with
   no [Emulator] frame outside them they are compilation. *)
let classify slots =
  let n = Array.length slots in
  let under_emulator i =
    let rec go j =
      j < n && (file_of slots.(j) = "lib/vm/emulator.ml" || go (j + 1))
    in
    go (i + 1)
  in
  let rec go i =
    if i >= n then "unattributed"
    else
      match file_of slots.(i) with
      | "lib/vm/compile.ml" ->
        if under_emulator i then "vm.emulator" else "vm.codegen"
      | f -> ( match layer_of_file f with Some l -> l | None -> go (i + 1))
  in
  go 0

let samples : (string, int) Hashtbl.t = Hashtbl.create 16
let total_samples = ref 0
let interval_s = 0.001

(* Only samples taken inside a harness span count: the sampled time is
   then exactly the top-level spans' time ([spanned_s]). *)
let on_sigprof _ =
  if !open_spans <> [] then begin
    let layer =
      match Printexc.backtrace_slots (Printexc.get_callstack 96) with
      | Some slots -> classify slots
      | None -> "unattributed"
    in
    incr total_samples;
    Hashtbl.replace samples layer
      (1 + Option.value ~default:0 (Hashtbl.find_opt samples layer))
  end

let timer v =
  ignore
    (Unix.setitimer Unix.ITIMER_PROF
       { Unix.it_interval = v; Unix.it_value = v })

(* Run [f] with spans recorded and the sampler armed. *)
let traced f =
  enabled := true;
  Sys.set_signal Sys.sigprof (Sys.Signal_handle on_sigprof);
  timer interval_s;
  Fun.protect
    ~finally:(fun () ->
      timer 0.0;
      Sys.set_signal Sys.sigprof Sys.Signal_ignore;
      enabled := false)
    f

let sample_share layer =
  if !total_samples = 0 then 0.0
  else
    float_of_int (Option.value ~default:0 (Hashtbl.find_opt samples layer))
    /. float_of_int !total_samples
