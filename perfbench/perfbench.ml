(* perfbench: one workload, one seed, one JSON line.

     perfbench --workload serve|serve-spec|migrate|grid --seed N
               --seconds S --trace 0|1

   After one untimed warm-up iteration, the workload is run again and
   again from the same seed until [S] seconds have passed (at least
   three times).  With [--trace 0] it prints the end-to-end metrics:
   wall ones as the median over the timed iterations, simulated ones
   from the warm-up.  With [--trace 1] it alternates untraced and traced
   iterations and prints the per-layer metrics.  Every iteration is
   checked, and every one must reproduce the warm-up's simulated metrics
   and registry counts exactly; the last stdout line is the JSON result,
   and the exit code is 1 when any check failed. *)

let end_to_end =
  [ ("setup_s", "s"); ("ops_per_s", "1/s"); ("sim_s", "s");
    ("lat_mean_sim_ms", "ms"); ("move_p50_sim_ms", "ms");
    ("move_p90_sim_ms", "ms"); ("image_bytes", "bytes");
    ("peak_heap_mb", "MB") ]

let count_units =
  [ ("dspec.commit_ratio", "ratio"); ("net.cluster.node_busy_max", "ratio");
    ("migrate.bytes_full", "bytes"); ("migrate.bytes_delta", "bytes") ]

let per_layer_units =
  List.map (fun l -> (l ^ ".self_s", "s")) (Prof.layers @ [ "unattributed" ])
  @ [ ("vm.emulator.mips", "MIPS"); ("unattributed.share", "ratio");
      ("trace.ops_per_s_delta", "1/s"); ("wall.ops_per_s", "1/s");
      ("machine.ref_ms", "ms"); ("minic.compile_ms", "ms");
      ("fir.opt_ms", "ms"); ("vm.codegen_ms", "ms"); ("vm.link_ms", "ms");
      ("vm.compile_ms", "ms"); ("fir.bytes", "bytes");
      ("vm.masm_instrs", "count"); ("net.mpi.poll_ns", "ns");
      ("net.dspec.lookup_us", "us"); ("migrate.pack_mb_s", "MB/s");
      ("migrate.wire.decode_mb_s", "MB/s"); ("migrate.wire.diff_mb_s", "MB/s");
      ("lat_p99_sim_ms", "ms"); ("fail_ratio", "ratio") ]

let median l = Work.quantile 0.5 l

(* Machine-speed reference.  On a shared host, speed can drift by up
   to half over minutes, for every program alike.  A fixed loop that
   uses only the stdlib (hashing, small allocations, float-array stores,
   buffer writes) is timed twice after every timed iteration, and the
   wall metrics are scaled to the speed at which it takes
   [reference_nominal_s] (about its median on a shared 2-core x86-64
   host): [ops_per_s] and [setup_s] are what the run would read at that
   speed.  The loop uses no repository code, so a change to the
   repository cannot move the scale. *)
let reference_nominal_s = 0.065

let reference_s () =
  let t0 = Unix.gettimeofday () in
  let h = Hashtbl.create 4096 and acc = ref 0 in
  let a = Array.make 65536 0.0 and b = Buffer.create 4096 in
  for i = 0 to 400_000 do
    Hashtbl.replace h (i land 8191) [ i; i * 7 ];
    (match Hashtbl.find_opt h (i * 31 land 8191) with
    | Some (x :: _) -> acc := !acc + x
    | _ -> ());
    a.(i * 7919 land 65535) <- (a.(i land 65535) *. 0.5) +. float_of_int !acc;
    if i land 63 = 0 then begin
      Buffer.clear b;
      Buffer.add_string b (string_of_int !acc)
    end
  done;
  ignore (Sys.opaque_identity (a, b));
  Unix.gettimeofday () -. t0

let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else if Float.is_finite v then Printf.sprintf "%.17g" v
  else "null"

let print_result ~correct ~attempted ~failed metrics =
  let body =
    String.concat ","
      (List.map
         (fun (name, unit, v) ->
           Printf.sprintf "%S:{\"value\":%s,\"unit\":%S}" name (json_number v)
             unit)
         metrics)
  in
  Printf.printf
    "{\"correct\":%b,\"attempted\":%d,\"failed\":%d,\"metrics\":{%s}}\n%!"
    correct attempted failed body

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10
  and trace = ref 0 in
  Arg.parse
    [ ("--workload", Arg.Set_string workload, "NAME serve|serve-spec|migrate|grid");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_int seconds, "S measuring time");
      ("--trace", Arg.Set_int trace, "0|1 per-layer traced run") ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "perfbench --workload NAME --seed N --seconds S --trace 0|1";
  let w =
    match List.find_opt (fun w -> w.Work.name = !workload) Work.all with
    | Some w -> w
    | None ->
      prerr_endline ("perfbench: unknown workload " ^ !workload);
      exit 2
  in
  if (!trace <> 0 && !trace <> 1) || !seconds < 0 then begin
    prerr_endline "perfbench: --trace takes 0 or 1, --seconds a count >= 0";
    exit 2
  end;
  let traced = !trace = 1 in
  let seed = !seed in
  (* one warm-up iteration grows the heap and fills lazy state; it is
     checked like the others but not timed *)
  let warmup = w.Work.once ~seed in
  let t0 = Unix.gettimeofday () in
  let elapsed () = Unix.gettimeofday () -. t0 in
  (* (sample, traced?) newest first *)
  let runs = ref [] and refs = ref [] in
  let n_of b = List.length (List.filter (fun (_, t) -> t = b) !runs) in
  let enough () =
    elapsed () >= float_of_int !seconds
    && n_of false >= (if traced then 1 else 3)
    && n_of true >= if traced then 1 else 0
  in
  while not (enough ()) do
    let with_trace = traced && n_of true < n_of false in
    Gc.compact ();
    let s =
      if with_trace then Prof.traced (fun () -> w.Work.once ~seed)
      else w.Work.once ~seed
    in
    runs := (s, with_trace) :: !runs;
    refs := reference_s () :: reference_s () :: !refs
  done;
  (* > 1 when the host ran slower than nominal *)
  let slowdown = median !refs /. reference_nominal_s in
  let all = warmup :: List.rev_map fst !runs in
  (* determinism: every iteration repeats the warm-up exactly *)
  let deviant =
    List.filter
      (fun s -> s.Work.sim <> warmup.Work.sim || s.Work.counts <> warmup.Work.counts)
      all
  in
  (* the seed must reach the inputs: the next seed gives other figures *)
  let seed_ignored =
    traced && (w.Work.once ~seed:(seed + 1)).Work.sim = warmup.Work.sim
  in
  let attempted = List.fold_left (fun a s -> a + s.Work.attempted) 0 all in
  let failed =
    List.fold_left (fun a s -> a + s.Work.failed) 0 all
    + List.fold_left (fun a s -> a + s.Work.attempted) 0 deviant
    + if seed_ignored then warmup.Work.attempted else 0
  in
  List.iter
    (fun s ->
      if s.Work.failed > 0 then
        Printf.eprintf "perfbench: %d of %d operations failed their check\n"
          s.Work.failed s.Work.attempted)
    all;
  if deviant <> [] then
    prerr_endline "perfbench: an iteration did not repeat the warm-up exactly";
  if seed_ignored then
    prerr_endline "perfbench: seed+1 gave the same simulated metrics";
  let wall_ops_per_s b =
    median
      (List.filter_map
         (fun (s, t) ->
           if t = b then Some (float_of_int s.Work.ops /. s.Work.run_s)
           else None)
         !runs)
  in
  let ops_per_s b = wall_ops_per_s b *. slowdown in
  let metrics =
    if not traced then
      let value = function
        | "setup_s" ->
          median (List.map (fun (s, _) -> s.Work.setup_s) !runs) /. slowdown
        | "ops_per_s" -> ops_per_s false
        | "peak_heap_mb" -> median (List.map (fun s -> s.Work.live_mb) all)
        | name -> List.assoc name warmup.Work.sim
      in
      List.map (fun (name, unit) -> (name, unit, value name)) end_to_end
    else begin
      let traced_runs = List.filter snd !runs in
      let n_traced = float_of_int (List.length traced_runs) in
      let self l = Prof.sample_share l *. Prof.spanned_s () /. n_traced in
      let instrs = List.assoc "vm.emulator.instrs" warmup.Work.counts in
      let derived =
        List.map (fun l -> (l ^ ".self_s", self l)) (Prof.layers @ [ "unattributed" ])
        @ [ ( "vm.emulator.mips",
              if self "vm.emulator" > 0.0 then
                instrs /. self "vm.emulator" /. 1e6
              else 0.0 );
            ("unattributed.share", Prof.sample_share "unattributed");
            ("trace.ops_per_s_delta", ops_per_s true -. ops_per_s false);
            ("wall.ops_per_s", wall_ops_per_s false);
            ("machine.ref_ms", median !refs *. 1e3) ]
        @ Meters.compile_meters (w.Work.sources ~seed)
        @ [ ("net.mpi.poll_ns", Meters.poll_ns ~fanout:w.Work.senders);
            ( "net.dspec.lookup_us",
              Meters.dspec_lookup_us
                ~txns:(int_of_float (List.assoc "dspec.opened" warmup.Work.counts)) ) ]
        @ Meters.pack_meters (List.hd (Work.migrate_sources seed))
        @ [ ("lat_p99_sim_ms", warmup.Work.lat_p99_ms);
            ("fail_ratio", float_of_int failed /. float_of_int attempted) ]
      in
      (try Sys.mkdir ".perfbench" 0o755 with Sys_error _ -> ());
      Prof.write_spans
        (Printf.sprintf ".perfbench/spans-%s-%d.jsonl" w.Work.name seed);
      List.iter
        (fun (name, v) -> Printf.eprintf "span %-32s self %.4f s\n" name v)
        (Prof.self_times ());
      List.map
        (fun (name, v) ->
          let unit =
            match List.assoc_opt name count_units with
            | Some u -> u
            | None -> Option.value ~default:"count" (List.assoc_opt name per_layer_units)
          in
          (name, unit, v))
        (warmup.Work.counts @ derived)
    end
  in
  let correct = failed = 0 in
  print_result ~correct ~attempted ~failed metrics;
  exit (if correct then 0 else 1)
