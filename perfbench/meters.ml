(* Isolated meters for the traced run: each times one public call on the
   workload's own inputs, outside the cluster, so a layer's cost can be
   read without the rest of the run around it. *)

(* Median seconds per call: repeat [f] until 50 ms have passed (at least
   five times). *)
let time_per_call f =
  let times = ref [] and spent = ref 0.0 and reps = ref 0 in
  while !reps < 5 || !spent < 0.05 do
    let (), dt = Work.wall (fun () -> ignore (Sys.opaque_identity (f ()))) in
    times := dt :: !times;
    spent := !spent +. dt;
    incr reps
  done;
  Work.quantile 0.5 !times

(* Front end, optimizer and the three MASM passes over every program the
   workload deploys (times and sizes summed over the programs). *)
let compile_meters sources =
  let arch = Vm.Arch.cisc32 in
  let per_source src =
    let front () = Minic.Driver.compile_exn ~optimize:false src in
    let raw = front () in
    let fir = Fir.Opt.optimize raw in
    let masm = Vm.Codegen.compile ~arch fir in
    let linked = Vm.Link.link masm in
    [ ("minic.compile_ms", time_per_call front *. 1e3);
      ("fir.opt_ms", time_per_call (fun () -> Fir.Opt.optimize raw) *. 1e3);
      ( "vm.codegen_ms",
        time_per_call (fun () -> Vm.Codegen.compile ~arch fir) *. 1e3 );
      ("vm.link_ms", time_per_call (fun () -> Vm.Link.link masm) *. 1e3);
      ("vm.compile_ms", time_per_call (fun () -> Vm.Compile.compile linked) *. 1e3);
      ("fir.bytes", float_of_int (String.length (Fir.Serial.encode fir)));
      ("vm.masm_instrs", float_of_int (Vm.Masm.instr_count masm)) ]
  in
  match List.map per_source sources with
  | [] -> []
  | first :: rest ->
    List.map
      (fun (k, v) ->
        (k, List.fold_left (fun acc l -> acc +. List.assoc k l) v rest))
      first

(* One wildcard poll, as a serving loop makes it: [try_recv_any] plus the
   scheduler's [has_delivered_any] wake check, over a mailbox holding one
   not-yet-delivered message per (sender, tag) bucket. *)
let poll_ns ~fanout =
  let mb = Net.Mpi.create_mailbox () in
  let tag = Mcc.Gridapp.Serve.request_tag in
  for src = 0 to fanout - 1 do
    Net.Mpi.enqueue mb
      { Net.Mpi.msg_src_rank = src; msg_src_pid = src; msg_tag = tag;
        msg_payload = [| Runtime.Value.Vint src |]; msg_deliver_at = 1.0;
        msg_spec = None; msg_src_epoch = 0 }
  done;
  let polls = 10_000 in
  time_per_call (fun () ->
      for _ = 1 to polls do
        ignore (Net.Mpi.try_recv_any mb ~now:0.0 ~tag);
        ignore (Net.Mpi.has_delivered_any mb ~now:0.0 ~tag)
      done)
  /. float_of_int polls *. 1e9

(* [open_with_root] on a table holding [txns] decided transactions and
   one open one, as the stamped-send path meets it late in serve-spec. *)
let dspec_lookup_us ~txns =
  let t = Net.Dspec.create () in
  for i = 1 to txns do
    let x = Net.Dspec.open_txn t ~coord_pid:(i mod 12) ~root_uid:i ~coord_laddr:(-1) in
    x.Net.Dspec.x_state <- Net.Dspec.Committed
  done;
  ignore (Net.Dspec.open_txn t ~coord_pid:7 ~root_uid:(txns + 1) ~coord_laddr:(-1));
  let lookups = 100 in
  time_per_call (fun () ->
      for _ = 1 to lookups do
        ignore (Net.Dspec.open_with_root t ~coord_pid:7 ~root_uid:(txns + 1))
      done)
  /. float_of_int lookups *. 1e6

(* Pack, decode and diff throughput on a migrate-workload image, paced
   like one hop: the process runs past its heap initialisation, is
   packed, rewrites a few windows, and is packed again (the second
   pack's dirty set drives the diff). *)
let pack_meters src =
  let fir = Minic.Driver.compile_exn src in
  let arch = Vm.Arch.cisc32 in
  let proc = Vm.Process.create ~arch fir in
  let emu = Vm.Emulator.create (Vm.Codegen.compile ~arch fir) proc in
  ignore (Vm.Emulator.run ~max_steps:Work.migrate_warmup_steps emu);
  if proc.Vm.Process.status <> Vm.Process.Running then
    failwith "pack meter: the migrator finished before it was packed";
  let pack () = Migrate.Pack.pack_running ~with_binary:false proc in
  let p1 = pack () in
  ignore (Vm.Emulator.run ~max_steps:Work.migrate_steps_per_hop emu);
  let p2 = pack () in
  let mb = float_of_int (String.length p2.Migrate.Pack.p_bytes) /. 1e6 in
  let changed i p = Hashtbl.mem p2.Migrate.Pack.p_dirty (i, p) in
  let diff () =
    Migrate.Wire.diff ~baseline:p1.Migrate.Pack.p_image
      ~image:p2.Migrate.Pack.p_image ~changed
  in
  [ ("migrate.wire.decode_mb_s",
     mb /. time_per_call (fun () -> Migrate.Wire.decode p2.Migrate.Pack.p_bytes));
    ("migrate.wire.diff_mb_s", mb /. time_per_call diff);
    ("migrate.pack_mb_s", mb /. time_per_call pack) ]
