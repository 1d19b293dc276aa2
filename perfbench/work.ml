(* The four workloads.  Each [once ~seed] builds a fresh cluster from
   the seed, runs the workload to completion, checks its outputs and
   returns one [sample].  Everything in [sample.sim] and [sample.counts]
   is simulated or counted, so it must repeat exactly for one seed;
   [setup_s] and [run_s] are wall-clock. *)

open Mcc

type sample = {
  setup_s : float;
  run_s : float;
  ops : int;  (* completed units: requests, moves or rank-timesteps *)
  attempted : int;
  failed : int;
  sim : (string * float) list;
  counts : (string * float) list;
  lat_p99_ms : float;
  live_mb : float;
      (* OCaml heap still live after the run while the cluster is
         reachable: the state the run retained *)
}

let wall f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

let mean = function
  | [] -> 0.0
  | l -> List.fold_left ( +. ) 0.0 l /. float_of_int (List.length l)

(* Linear-interpolated quantile of exact samples (the same rule as
   Python's statistics.quantiles with method='inclusive'). *)
let quantile q = function
  | [] -> 0.0
  | l ->
    let a = Array.of_list l in
    Array.sort compare a;
    let pos = q *. float_of_int (Array.length a - 1) in
    let i = int_of_float pos in
    if i + 1 >= Array.length a then a.(i)
    else a.(i) +. ((pos -. float_of_int i) *. (a.(i + 1) -. a.(i)))

(* ---- per-layer counts read from the public registries ------------ *)

let gc_counts () =
  let m = Runtime.Gc.metrics in
  ( Obs.Metrics.counter_value m "gc.minor_collections",
    Obs.Metrics.counter_value m "gc.major_collections" )

let live_mb c =
  Gc.full_major ();
  let words = (Gc.stat ()).Gc.live_words in
  ignore (Sys.opaque_identity c);
  float_of_int (words * (Sys.word_size / 8)) /. 1e6

let entries c =
  List.filter_map
    (fun (pid, _, _, _) -> Net.Cluster.entry_of_pid c pid)
    (Net.Cluster.statuses c)

let cluster_counts c ~gc0 =
  let m = Net.Cluster.metrics c in
  let cv n = float_of_int (Obs.Metrics.counter_value m n) in
  let es = entries c in
  let instrs =
    List.fold_left
      (fun acc (e : Net.Cluster.entry) ->
        match e.Net.Cluster.engine with
        | Net.Cluster.Emu_engine em -> acc + Vm.Emulator.instructions em
        | Net.Cluster.Interp_engine -> acc)
      0 es
  in
  let spec name =
    List.fold_left
      (fun acc (e : Net.Cluster.entry) ->
        acc
        + Obs.Metrics.counter_value
            (Spec.Engine.metrics e.Net.Cluster.proc.Vm.Process.spec)
            name)
      0 es
  in
  let nodes = List.init (Net.Cluster.node_count c) (Net.Cluster.node c) in
  let daemon_sum f =
    List.fold_left
      (fun acc (n : Net.Cluster.node) -> acc + f n.Net.Cluster.daemon)
      0 nodes
  in
  let cache name d =
    match Migrate.Server.cache d with
    | Some cc -> Obs.Metrics.counter_value (Migrate.Codecache.metrics cc) name
    | None -> 0
  in
  let busy_max =
    List.fold_left
      (fun acc (n : Net.Cluster.node) ->
        if n.Net.Cluster.clock > 0.0 then
          Float.max acc (n.Net.Cluster.busy_seconds /. n.Net.Cluster.clock)
        else acc)
      0.0 nodes
  in
  let opened = Obs.Metrics.counter_value m "dspec.opened" in
  let ds = Net.Cluster.dspec c in
  let table_txns = ref 0 in
  for id = 1 to opened do
    if Net.Dspec.find ds id <> None then incr table_txns
  done;
  let minor0, major0 = gc0 in
  let minor1, major1 = gc_counts () in
  let tr = Net.Cluster.trace c in
  [ ("sched.rounds", cv "sched.rounds");
    ("sched.quanta", cv "sched.quanta");
    ("registry.forwarded", cv "registry.forwarded");
    ("registry.rebinds", cv "registry.rebinds");
    ("dspec.opened", cv "dspec.opened");
    ("dspec.commits", cv "dspec.commits");
    ("dspec.aborts", cv "dspec.aborts");
    ("dspec.fence_rejections", cv "dspec.fence_rejections");
    ("dspec.compensated", cv "dspec.compensated");
    ( "dspec.commit_ratio",
      if opened = 0 then 0.0 else cv "dspec.commits" /. float_of_int opened );
    ("migrate.bytes_full", cv "migrate.bytes_full");
    ("migrate.bytes_delta", cv "migrate.bytes_delta");
    ("migrate.delta_hits", cv "migrate.delta_hits");
    ("migrate.delta_misses", cv "migrate.delta_misses");
    ("cluster.checkpoints", cv "cluster.checkpoints");
    ("cluster.resurrections", cv "cluster.resurrections");
    ("codecache.hits", float_of_int (daemon_sum (cache "codecache.hits")));
    ("codecache.misses", float_of_int (daemon_sum (cache "codecache.misses")));
    ( "server.recompilations",
      float_of_int
        (daemon_sum (fun d ->
             Obs.Metrics.counter_value (Migrate.Server.metrics d)
               "server.recompilations")) );
    ("vm.emulator.instrs", float_of_int instrs);
    ("spec.entered", float_of_int (spec "spec.entered"));
    ("spec.rolled_back", float_of_int (spec "spec.rolled_back"));
    ("spec.blocks_saved", float_of_int (spec "spec.blocks_saved"));
    ("runtime.gc.minor", float_of_int (minor1 - minor0));
    ("runtime.gc.major", float_of_int (major1 - major0));
    ("obs.trace.events", float_of_int (Obs.Trace.length tr));
    ("obs.trace.dropped", float_of_int (Obs.Trace.dropped tr));
    ("net.cluster.node_busy_max", busy_max);
    ("net.dspec.table_txns", float_of_int !table_txns) ]

(* Latency of every image the library itself shipped (service re-homes,
   checkpoints, resurrections): pack + transfer + compile, as charged. *)
let record_latencies_ms c =
  List.filter_map
    (fun (r : Net.Cluster.migration_record) ->
      if r.Net.Cluster.mr_ok then
        Some
          ((r.Net.Cluster.mr_pack_s +. r.mr_transfer_s +. r.mr_compile_s)
          *. 1e3)
      else None)
    (Net.Cluster.migrations c)

let mean_image_bytes c =
  mean
    (List.filter_map
       (fun (r : Net.Cluster.migration_record) ->
         if r.Net.Cluster.mr_ok then Some (float_of_int r.Net.Cluster.mr_bytes)
         else None)
       (Net.Cluster.migrations c))

let sim_metrics ~c ~lat_mean_ms ~moves_ms =
  [ ("sim_s", Net.Cluster.now c);
    ("lat_mean_sim_ms", lat_mean_ms);
    ("move_p50_sim_ms", quantile 0.5 moves_ms);
    ("move_p90_sim_ms", quantile 0.9 moves_ms);
    ("image_bytes", mean_image_bytes c) ]

(* ---- serve / serve-spec ------------------------------------------ *)

let serve_cfg ~speculative =
  { Gridapp.Serve.clients = 8; services = 4;
    requests_per_client = (if speculative then 300 else 5000); work_us = 5;
    skew = false; speculative }

(* T1's plan for serve, F5's (20% crash_in_commit) for serve-spec. *)
let serve_plan ~speculative seed =
  if speculative then
    { Net.Faults.none with
      Net.Faults.f_seed = seed; f_loss = 0.05; f_dup = 0.02;
      f_crash_in_commit = 0.2 }
  else
    { Net.Faults.none with
      Net.Faults.f_seed = seed; f_loss = 0.05; f_dup = 0.02;
      f_jitter_s = 0.000005; f_retransmit_s = 0.00005 }

let serve_sources ~speculative =
  let cfg = serve_cfg ~speculative in
  [ Gridapp.Serve.client_source cfg 0; Gridapp.Serve.service_source cfg 0 ]

let serve_once ~speculative ~seed =
  let cfg = serve_cfg ~speculative in
  let (c, d), setup_s =
    wall (fun () ->
        let c =
          Prof.span "Net.Cluster.create_cfg" (fun () ->
              Net.Cluster.create_cfg
                { Net.Cluster.Config.default with
                  node_count = 6; seed;
                  net = Some (Net.Simnet.create ~latency_us:5.0 ());
                  faults = serve_plan ~speculative seed })
        in
        let d =
          Prof.span "Mcc.Gridapp.Serve.deploy" (fun () ->
              Gridapp.Serve.deploy ~engine:`Masm c cfg)
        in
        (c, d))
  in
  let gc0 = gc_counts () in
  let r, run_s =
    wall (fun () ->
        Prof.span "Mcc.Gridapp.Serve.run" (fun () ->
            Gridapp.Serve.run ~migrate_every_s:0.004 ~migrations:10 d))
  in
  let counts = cluster_counts c ~gc0 in
  let attempted = cfg.clients * cfg.requests_per_client in
  let count n = List.assoc n counts in
  let ok =
    Prof.span "Mcc.Gridapp.Serve.exactly_once" (fun () ->
        Gridapp.Serve.exactly_once d r)
    && ((not speculative)
       || count "dspec.opened" = count "dspec.commits" +. count "dspec.aborts"
          && count "dspec.commits" = float_of_int r.Gridapp.Serve.rp_requests)
  in
  let h =
    Option.get
      (Obs.Metrics.find_histogram (Net.Cluster.metrics c)
         "app.latency_seconds")
  in
  { setup_s; run_s; ops = r.Gridapp.Serve.rp_requests; attempted;
    failed = (if ok then attempted - r.rp_requests else attempted);
    sim =
      sim_metrics ~c
        ~lat_mean_ms:
          (Obs.Metrics.hist_sum h /. float_of_int (Obs.Metrics.hist_count h)
          *. 1e3)
        ~moves_ms:(record_latencies_ms c);
    counts;
    lat_p99_ms = Obs.Metrics.quantile h 0.99 *. 1e3;
    live_mb = live_mb c }

(* ---- migrate ----------------------------------------------------- *)

let migrate_procs = 4
let migrate_rounds = 20  (* every process moves once per round *)
let migrate_window = 256
let migrate_passes = 240
let migrate_warmup_steps = 36_000  (* past the heap initialisation *)
let migrate_steps_per_hop = 1_500  (* about six windows rewritten *)

(* Each process owns a float heap of about 256 KB and rewrites a
   different [migrate_window]-cell window on every pass, so every hop
   finds dirty pages; its exit code is a checksum of the whole heap. *)
let migrator_source ~cells ~offset =
  Printf.sprintf
    {|
int main() {
  int n = %d;
  float *data = alloc_float(n);
  int i; int pass; int base;
  for (i = 0; i < n; i = i + 1) {
    data[i] = (float)(i %% 97) / 97.0;
  }
  for (pass = 0; pass < %d; pass = pass + 1) {
    base = (pass * %d + %d) %% n;
    for (i = 0; i < %d; i = i + 1) {
      data[(base + i) %% n] = data[(base + i) %% n] * 0.5 + (float)pass;
    }
  }
  float s = 0.0;
  for (i = 0; i < n; i = i + 1) s = s + data[i];
  return (int)(s * 16.0) %% 1000003;
}
|}
    cells migrate_passes (migrate_window * 7) offset migrate_window

let migrate_inputs seed =
  let rng = Random.State.make [| seed; 0x6d6967 |] in
  List.init migrate_procs (fun _ ->
      let cells = 32768 + Random.State.int rng 1024 in
      let offset = Random.State.int rng cells in
      migrator_source ~cells ~offset)

let migrate_sources seed = [ List.hd (migrate_inputs seed) ]

(* The migration-free answer: the reference interpreter runs each
   program to its exit code on one node. *)
let reference_exits = Hashtbl.create 8

let reference_exit src =
  match Hashtbl.find_opt reference_exits src with
  | Some code -> code
  | None ->
    let code =
      match Vm.Interp.run (Vm.Process.create (Minic.Driver.compile_exn src)) with
      | Vm.Process.Exited code -> code
      | _ -> failwith "migrate: reference run did not exit"
    in
    Hashtbl.replace reference_exits src code;
    code

let migrate_once ~seed =
  let srcs = migrate_inputs seed in
  let refs = List.map reference_exit srcs in
  let (c, pids), setup_s =
    wall (fun () ->
        let c =
          Prof.span "Net.Cluster.create_cfg" (fun () ->
              Net.Cluster.create_cfg
                { Net.Cluster.Config.default with
                  node_count = 4; seed;
                  arches = [| Vm.Arch.cisc32; Vm.Arch.risc64 |] })
        in
        let firs =
          List.map
            (fun s ->
              Prof.span "Minic.Driver.compile" (fun () ->
                  Minic.Driver.compile_exn s))
            srcs
        in
        let pids =
          List.mapi
            (fun i fir ->
              Prof.span "Net.Cluster.spawn" (fun () ->
                  Net.Cluster.spawn c ~engine:`Masm ~node_id:i fir))
            firs
        in
        (c, Array.of_list pids))
  in
  let gc0 = gc_counts () in
  let moves = ref [] and failed_moves = ref 0 in
  let entry p = Net.Cluster.entry_of_pid c pids.(p) in
  (* run until every process is done or has run [steps] blocks since it
     last resumed *)
  let run_until steps =
    ignore
      (Prof.span "Net.Cluster.run" (fun () ->
           Net.Cluster.run c ~stop:(fun () ->
               List.for_all
                 (fun p ->
                   match entry p with
                   | Some e ->
                     let pr = e.Net.Cluster.proc in
                     pr.Vm.Process.steps >= steps
                     || pr.Vm.Process.status <> Vm.Process.Running
                   | None -> true)
                 (List.init migrate_procs Fun.id))))
  in
  let (), run_s =
    wall (fun () ->
        run_until migrate_warmup_steps;
        for _ = 1 to migrate_rounds do
          run_until migrate_steps_per_hop;
          for p = 0 to migrate_procs - 1 do
            let node =
              match entry p with Some e -> e.Net.Cluster.node_id | None -> -1
            in
            (* ping-pong inside the pair (0,1) or (2,3): always Cisc32 <->
               Risc64 *)
            let req =
              Net.Cluster.Move.request ~reason:Net.Cluster.Move.Explicit
                (Net.Cluster.Move.Running pids.(p)) ~dest:(node lxor 1)
            in
            match
              Prof.span "Net.Cluster.move" (fun () -> Net.Cluster.move c req)
            with
            | Ok { Net.Cluster.Move.mv_pid; mv_report = Some rep } ->
              pids.(p) <- mv_pid;
              moves := (rep.Net.Cluster.rep_elapsed_s *. 1e3) :: !moves
            | Ok _ | Error _ -> incr failed_moves
          done
        done;
        ignore (Prof.span "Net.Cluster.run" (fun () -> Net.Cluster.run c)))
  in
  let wrong_exits =
    List.length
      (List.filter
         (fun (pid, want) ->
           match Net.Cluster.entry_of_pid c pid with
           | Some e -> e.Net.Cluster.proc.Vm.Process.status <> Vm.Process.Exited want
           | None -> true)
         (List.combine (Array.to_list pids) refs))
  in
  let moves_ms = !moves in
  { setup_s; run_s; ops = List.length moves_ms;
    attempted = (migrate_rounds * migrate_procs) + migrate_procs;
    failed = !failed_moves + wrong_exits;
    sim = sim_metrics ~c ~lat_mean_ms:(mean moves_ms) ~moves_ms;
    counts = cluster_counts c ~gc0;
    lat_p99_ms = quantile 0.99 moves_ms;
    live_mb = live_mb c }

(* ---- grid -------------------------------------------------------- *)

(* The seed picks the run length (112-128 timesteps), the row width
   (63-65 columns, so checkpoint images differ in size) and when node 1
   fails (55-65% of the fault-free completion time).  The failure is
   injected between scheduler rounds by [Gridapp.fail_and_recover]: a
   fault-plan crash at an arbitrary instant can leave a rank resurrected
   one checkpoint ahead of its neighbours and wedge the run (README). *)
let grid_inputs seed =
  let rng = Random.State.make [| seed; 0x67726964 |] in
  let timesteps = 112 + (2 * Random.State.int rng 9) in
  let cols = 63 + Random.State.int rng 3 in
  let cfg =
    { Gridapp.ranks = 4; rows_per_rank = 16; cols; timesteps; interval = 5;
      work_us_per_step = 0 }
  in
  let fault_free_s = 0.236 *. float_of_int timesteps /. 120.0 in
  (cfg, fault_free_s *. (0.55 +. Random.State.float rng 0.1))

let grid_sources seed = [ Gridapp.source (fst (grid_inputs seed)) 0 ]

(* Simulated time between consecutive checkpoints of one rank: the
   latency of a checkpoint interval, recovery gap included. *)
let checkpoint_intervals_ms c =
  let by_rank = Hashtbl.create 8 in
  List.iter
    (fun (ev : Obs.Trace.event) ->
      match ev.Obs.Trace.kind with
      | Obs.Trace.Checkpoint _ ->
        Hashtbl.replace by_rank ev.Obs.Trace.rank
          (ev.Obs.Trace.time
          :: Option.value ~default:[] (Hashtbl.find_opt by_rank ev.Obs.Trace.rank))
      | _ -> ())
    (Obs.Trace.timeline (Net.Cluster.trace c));
  Hashtbl.fold
    (fun _ times acc ->
      let rec gaps = function
        | a :: (b :: _ as rest) -> ((a -. b) *. 1e3) :: gaps rest
        | _ -> []
      in
      gaps times @ acc)
    by_rank []

let grid_once ~seed =
  let grid_cfg, fail_at = grid_inputs seed in
  let golden = Gridapp.golden_checksums grid_cfg in
  let (c, d), setup_s =
    wall (fun () ->
        let c =
          Prof.span "Net.Cluster.create_cfg" (fun () ->
              Net.Cluster.create_cfg
                { Net.Cluster.Config.default with
                  node_count = 5; seed;
                  arches = [| Vm.Arch.cisc32; Vm.Arch.risc64 |];
                  net = Some (Net.Simnet.create ~latency_us:5.0 ());
                  trace_capacity = Some (1 lsl 18) })
        in
        let d =
          Prof.span "Mcc.Gridapp.deploy" (fun () ->
              Gridapp.deploy ~engine:`Masm ~spare:true c grid_cfg)
        in
        (c, d))
  in
  let gc0 = gc_counts () in
  let (), run_s =
    wall (fun () ->
        ignore
          (Prof.span "Mcc.Gridapp.fail_and_recover" (fun () ->
               Gridapp.fail_and_recover ~after_time:fail_at d ~victim_node:1
                 ~spare_node:4));
        ignore
          (Prof.span "Mcc.Gridapp.run_resilient" (fun () ->
               Gridapp.run_resilient d)))
  in
  let sums = Gridapp.checksums d in
  let wrong =
    Array.fold_left ( + ) 0
      (Array.mapi (fun r g -> if sums.(r) = Some g then 0 else 1) golden)
  in
  let intervals = checkpoint_intervals_ms c in
  let counts = cluster_counts c ~gc0 in
  let dropped = List.assoc "obs.trace.dropped" counts in
  let attempted = grid_cfg.ranks * grid_cfg.timesteps in
  { setup_s; run_s; ops = attempted;
    attempted;
    failed =
      (wrong * grid_cfg.timesteps)
      + (if dropped > 0.0 then grid_cfg.timesteps else 0);
    sim =
      sim_metrics ~c ~lat_mean_ms:(mean intervals)
        ~moves_ms:(record_latencies_ms c);
    counts;
    lat_p99_ms = quantile 0.99 intervals;
    live_mb = live_mb c }

(* ---- registry ---------------------------------------------------- *)

type workload = {
  name : string;
  once : seed:int -> sample;
  sources : seed:int -> string list;  (* the mini-C programs it deploys *)
  senders : int;  (* (sender, tag) buckets one receiver polls over *)
}

let all =
  [ { name = "serve"; once = serve_once ~speculative:false;
      sources = (fun ~seed:_ -> serve_sources ~speculative:false);
      senders = 8 };
    { name = "serve-spec"; once = serve_once ~speculative:true;
      sources = (fun ~seed:_ -> serve_sources ~speculative:true);
      senders = 8 };
    { name = "migrate"; once = migrate_once;
      sources = (fun ~seed -> migrate_sources seed); senders = 1 };
    { name = "grid"; once = grid_once;
      sources = (fun ~seed -> grid_sources seed); senders = 2 } ]
