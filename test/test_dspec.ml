(* Tests for the distributed-speculation coordinator: 2PC commit over
   epoch-pinned participants, distributed rollback with mailbox
   compensation, coordinator-death and coordinator-rollback aborts, and
   the headline property — speculative exactly-once serving under
   loss + duplication + crash_in_commit fault plans with services
   migrating mid-region.

   Cluster-level tests take their fault seed from MCC_FAULT_SEED when
   set (CI rotates it); every faulty scenario runs TWICE under the same
   seed and the JSONL traces must be byte-identical. *)

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let env_seed =
  match Sys.getenv_opt "MCC_FAULT_SEED" with
  | Some s -> ( try int_of_string (String.trim s) with Failure _ -> 11)
  | None -> 11

let compile_c src =
  match Minic.Driver.compile src with
  | Ok fir -> fir
  | Error e -> Alcotest.failf "C compile: %s" (Minic.Driver.error_to_string e)

let mk_cluster ?(nodes = 3) ?(seed = 1) plan =
  Net.Cluster.create_cfg
    { Net.Cluster.Config.default with
      node_count = nodes;
      seed;
      net = Some (Net.Simnet.create ~latency_us:5.0 ());
      faults = plan }

let count cluster name =
  Obs.Metrics.counter_value (Net.Cluster.metrics cluster) name

let exit_code cluster pid =
  match Net.Cluster.entry_of_pid cluster pid with
  | Some e -> (
    match e.Net.Cluster.proc.Vm.Process.status with
    | Vm.Process.Exited n -> Some n
    | _ -> None)
  | None -> None

(* ------------------------------------------------------------------ *)
(* Trace audit: zero partial commits                                   *)
(* ------------------------------------------------------------------ *)

(* The audit the bench's F5 acceptance relies on (Net.Dspec.audit),
   exercised here at test scale. *)
let audit_no_partial_commits events =
  match Net.Dspec.audit events with
  | Ok () -> ()
  | Error msg -> Alcotest.fail msg

let abort_reasons events =
  List.filter_map
    (fun (ev : Obs.Trace.event) ->
      match ev.Obs.Trace.kind with
      | Obs.Trace.Dspec_abort { reason; _ } -> Some reason
      | _ -> None)
    events

(* ------------------------------------------------------------------ *)
(* Fault-free speculative serving                                      *)
(* ------------------------------------------------------------------ *)

let serve_cfg =
  { Mcc.Gridapp.Serve.clients = 3; services = 2; requests_per_client = 20;
    work_us = 20; skew = false; speculative = true }

let test_fault_free_speculative_serving () =
  let cluster = mk_cluster ~nodes:3 Net.Faults.none in
  let d = Mcc.Gridapp.Serve.deploy cluster serve_cfg in
  let r = Mcc.Gridapp.Serve.run d in
  let total =
    serve_cfg.Mcc.Gridapp.Serve.clients
    * serve_cfg.Mcc.Gridapp.Serve.requests_per_client
  in
  check "exactly-once" true (Mcc.Gridapp.Serve.exactly_once d r);
  check_int "one commit per unique request" total
    (count cluster "dspec.commits");
  check_int "no aborts without faults" 0 (count cluster "dspec.aborts");
  check_int "every opened txn resolved" (count cluster "dspec.opened")
    (count cluster "dspec.commits" + count cluster "dspec.aborts");
  check_int "one prepare round per txn" (count cluster "dspec.opened")
    (count cluster "dspec.prepares");
  audit_no_partial_commits (Obs.Trace.events (Net.Cluster.trace cluster))

(* ------------------------------------------------------------------ *)
(* Coordinator rollback: abort + mailbox compensation                  *)
(* ------------------------------------------------------------------ *)

(* The coordinator opens a txn, sends a stamped message, and aborts its
   region before the participant consumes it (the participant is pinned
   in work_us long past the abort): the txn must abort with
   "coordinator_rolled_back" and compensation must un-deliver the
   message.  The retry round then commits cleanly through the 2PC. *)
let coord_rollback_src =
  {|
int main() {
  float *buf = alloc_float(2);
  int specid; int txn; int rc; int tries;
  tries = 0;
  specid = speculate();
  if (specid < 0) { specid = 0 - specid; tries = 1; }
  buf[0] = 7.0;
  txn = dspec_open();
  msg_send(1, 5, buf, 1);
  if (tries == 0) { abort(specid); }
  rc = dspec_commit(txn);
  if (rc == 0) { commit(specid); }
  if (rc < 0) { return 0 - 1; }
  return txn;
}
|}

let part_consume_src =
  {|
int main() {
  float *buf = alloc_float(2);
  int got; int cs; int fin;
  work_us(1000);
  cs = speculate();
  if (cs < 0) { cs = 0 - cs; }
  got = msg_try_recv(0, 5, buf, 1);
  while (got == 0 - 1) { got = msg_try_recv(0, 5, buf, 1); }
  if (got == 0 - 2) { abort(cs); }
  fin = spec_pending();
  while (fin == 1) { fin = spec_pending(); }
  commit(cs);
  return (int)buf[0];
}
|}

let run_coord_rollback () =
  let cluster = mk_cluster ~nodes:2 Net.Faults.none in
  let coord =
    Net.Cluster.spawn cluster ~rank:0 ~node_id:0 (compile_c coord_rollback_src)
  in
  let part =
    Net.Cluster.spawn cluster ~rank:1 ~node_id:1 (compile_c part_consume_src)
  in
  ignore (Net.Cluster.run cluster ~max_rounds:200_000);
  cluster, coord, part

let test_coordinator_rollback_compensates () =
  let cluster, coord, part = run_coord_rollback () in
  check "coordinator exited with the retry txn" true
    (exit_code cluster coord = Some 2);
  check "participant saw the retried payload" true
    (exit_code cluster part = Some 7);
  check_int "first txn aborted" 1 (count cluster "dspec.aborts");
  check_int "retry txn committed" 1 (count cluster "dspec.commits");
  check_int "the stamped message was un-delivered" 1
    (count cluster "dspec.compensated");
  (match Net.Dspec.find (Net.Cluster.dspec cluster) 1 with
  | Some txn ->
    check "txn 1 state" true
      (txn.Net.Dspec.x_state = Net.Dspec.Aborted "coordinator_rolled_back")
  | None -> Alcotest.fail "txn 1 not found");
  (match Net.Dspec.find (Net.Cluster.dspec cluster) 2 with
  | Some txn ->
    check "txn 2 state" true (txn.Net.Dspec.x_state = Net.Dspec.Committed)
  | None -> Alcotest.fail "txn 2 not found");
  check "abort reason recorded" true
    (List.mem "coordinator_rolled_back"
       (abort_reasons (Obs.Trace.events (Net.Cluster.trace cluster))));
  audit_no_partial_commits (Obs.Trace.events (Net.Cluster.trace cluster))

(* ------------------------------------------------------------------ *)
(* Coordinator crash: the participant must not wait forever            *)
(* ------------------------------------------------------------------ *)

(* The coordinator opens a txn, the participant JOINS it by consuming
   the stamped message and spins on the pre-commit barrier; then the
   coordinator's node dies.  The txn must abort with
   "coordinator_dead" and the cascade must force-roll the joined
   participant off the doomed region. *)
let coord_crash_src =
  {|
int main() {
  float *buf = alloc_float(2);
  int specid; int txn; int got;
  specid = speculate();
  if (specid < 0) { specid = 0 - specid; }
  buf[0] = 42.0;
  txn = dspec_open();
  msg_send(1, 5, buf, 1);
  got = msg_try_recv(1, 9, buf, 1);
  while (got == 0 - 1) { got = msg_try_recv(1, 9, buf, 1); }
  commit(specid);
  return txn;
}
|}

let part_join_src =
  {|
int main() {
  float *buf = alloc_float(2);
  int got; int cs; int fin;
  cs = speculate();
  if (cs < 0) { cs = 0 - cs; }
  got = msg_try_recv(0, 5, buf, 1);
  while (got == 0 - 1) { got = msg_try_recv(0, 5, buf, 1); }
  if (got == 0 - 2) { abort(cs); }
  fin = spec_pending();
  while (fin == 1) { fin = spec_pending(); }
  commit(cs);
  return (int)buf[0];
}
|}

let run_coord_crash () =
  let cluster = mk_cluster ~nodes:2 Net.Faults.none in
  let coord =
    Net.Cluster.spawn cluster ~rank:0 ~node_id:0 (compile_c coord_crash_src)
  in
  let part =
    Net.Cluster.spawn cluster ~rank:1 ~node_id:1 (compile_c part_join_src)
  in
  (* run until the participant is spinning on the barrier (the
     coordinator parks on a tag that never arrives; the budget bounds
     the participant's spin) *)
  ignore (Net.Cluster.run cluster ~max_rounds:50_000);
  Net.Cluster.fail_node cluster 0;
  ignore (Net.Cluster.run cluster ~max_rounds:50_000);
  cluster, coord, part

let test_coordinator_crash_aborts () =
  let cluster, _coord, part = run_coord_crash () in
  check_int "txn aborted" 1 (count cluster "dspec.aborts");
  check_int "nothing committed" 0 (count cluster "dspec.commits");
  (match Net.Dspec.find (Net.Cluster.dspec cluster) 1 with
  | Some txn ->
    check "txn 1 state" true
      (txn.Net.Dspec.x_state = Net.Dspec.Aborted "coordinator_dead")
  | None -> Alcotest.fail "txn 1 not found");
  check "abort reason recorded" true
    (List.mem "coordinator_dead"
       (abort_reasons (Obs.Trace.events (Net.Cluster.trace cluster))));
  (* the joined participant was rolled off the doomed region *)
  let forced =
    List.exists
      (fun (ev : Obs.Trace.event) ->
        ev.Obs.Trace.pid = part
        &&
        match ev.Obs.Trace.kind with
        | Obs.Trace.Forced_rollback _ -> true
        | _ -> false)
      (Obs.Trace.events (Net.Cluster.trace cluster))
  in
  check "participant force-rolled" true forced

let trace_of_scenario run_scenario =
  let cluster, _, _ = run_scenario () in
  Obs.Trace.to_jsonl (Net.Cluster.trace cluster)

let test_crash_scenarios_reproducible () =
  Alcotest.(check string)
    "coordinator-rollback: byte-identical traces"
    (trace_of_scenario run_coord_rollback)
    (trace_of_scenario run_coord_rollback);
  Alcotest.(check string)
    "coordinator-crash: byte-identical traces"
    (trace_of_scenario run_coord_crash)
    (trace_of_scenario run_coord_crash)

(* ------------------------------------------------------------------ *)
(* Participant crash in the commit round, under full fault plans       *)
(* ------------------------------------------------------------------ *)

let f5_plan seed =
  { Net.Faults.none with
    f_seed = seed;
    f_loss = 0.05;
    f_dup = 0.05;
    f_crash_in_commit = 0.35 }

(* The headline: speculative exactly-once serving with services
   migrating mid-region while the commit round loses participants to
   crash_in_commit.  Every abort must replay to a clean commit; the
   dedup state must never double-serve. *)
let run_f5 seed =
  let cluster = mk_cluster ~nodes:3 (f5_plan seed) in
  let d = Mcc.Gridapp.Serve.deploy cluster serve_cfg in
  let r =
    Mcc.Gridapp.Serve.run ~migrate_every_s:0.002 ~migrations:4 d
  in
  cluster, d, r

let test_speculative_serving_under_faults () =
  let cluster, d, r = run_f5 env_seed in
  let total =
    serve_cfg.Mcc.Gridapp.Serve.clients
    * serve_cfg.Mcc.Gridapp.Serve.requests_per_client
  in
  check "exactly-once under faults" true (Mcc.Gridapp.Serve.exactly_once d r);
  check_int "one commit per unique request" total
    (count cluster "dspec.commits");
  check "commit rounds were crashed" true (count cluster "dspec.aborts" > 0);
  check "crashed acks were fenced" true
    (count cluster "dspec.fence_rejections" > 0);
  check_int "every opened txn resolved" (count cluster "dspec.opened")
    (count cluster "dspec.commits" + count cluster "dspec.aborts");
  audit_no_partial_commits (Obs.Trace.events (Net.Cluster.trace cluster))

let test_faulty_serving_reproducible () =
  let trace () =
    let cluster, _, _ = run_f5 env_seed in
    Obs.Trace.to_jsonl (Net.Cluster.trace cluster)
  in
  Alcotest.(check string) "same seed, byte-identical traces" (trace ())
    (trace ())

(* ------------------------------------------------------------------ *)
(* Bounded state: decided transactions leave the live table           *)
(* ------------------------------------------------------------------ *)

let test_live_table_drains () =
  let cluster, _, _ = run_f5 env_seed in
  check "the run aborted transactions" true (count cluster "dspec.aborts" > 0);
  check_int "every opened txn resolved" (count cluster "dspec.opened")
    (count cluster "dspec.commits" + count cluster "dspec.aborts");
  Alcotest.(check (float 0.0))
    "no live transactions once the run is over" 0.0
    (Obs.Metrics.gauge_read (Net.Cluster.metrics cluster) "dspec.live_txns")

(* ------------------------------------------------------------------ *)
(* Model-based property: the indexed table answers like a list scan    *)
(* ------------------------------------------------------------------ *)

(* The reference model is the table as a plain list of every
   transaction ever opened, each lookup a scan for the lowest matching
   id — the semantics the live indexes and decision records must keep.
   Transitions are applied only where the protocol applies them (commit
   and abort on an Open txn, compensation on an uncompensated abort);
   direct [x_state] writes hit any live txn, as a caller holding the
   record may do. *)

type mtxn = {
  m_id : int;
  mutable m_coord : int;
  mutable m_root : int;
  mutable m_state : Net.Dspec.state;
  mutable m_comp : bool;
  mutable m_parts : (int * int * int) list;  (* newest first *)
}

type dop =
  | D_open of int * int
  | D_register of int * int * int * int
  | D_commit of int
  | D_abort of int
  | D_compensate of int
  | D_write of int * Net.Dspec.state
  | D_rebind of int * int * (int * int) list * int * int

let pids = 5
let roots = 3

let dop_gen =
  let open QCheck.Gen in
  let pid = int_bound (pids - 1) and root = int_bound (roots - 1) in
  let txn = int_bound 30 and small = int_bound 9 in
  frequency
    [
      (5, map2 (fun c r -> D_open (c, r)) pid root);
      (3, map3 (fun i p (r, e) -> D_register (i, p, r, e)) txn pid
            (pair small small));
      (3, map (fun i -> D_commit i) txn);
      (3, map (fun i -> D_abort i) txn);
      (3, map (fun i -> D_compensate i) txn);
      (2, map2 (fun i s -> D_write (i, s)) txn
            (oneofl Net.Dspec.[ Open; Committed; Aborted "direct" ]));
      (2, map3 (fun o n (m, (r, e)) -> D_rebind (o, n, m, r, e)) pid pid
            (pair (list_size (int_bound 3) (pair root root))
               (pair small small)));
    ]

let show_state = function
  | Net.Dspec.Open -> "open"
  | Net.Dspec.Committed -> "committed"
  | Net.Dspec.Aborted r -> "aborted:" ^ r

let show_dop = function
  | D_open (c, r) -> Printf.sprintf "open(%d,%d)" c r
  | D_register (i, p, r, e) -> Printf.sprintf "reg%d(%d@%d/%d)" i p r e
  | D_commit i -> Printf.sprintf "commit%d" i
  | D_abort i -> Printf.sprintf "abort%d" i
  | D_compensate i -> Printf.sprintf "comp%d" i
  | D_write (i, st) -> Printf.sprintf "write%d=%s" i (show_state st)
  | D_rebind (o, n, m, r, e) ->
    Printf.sprintf "rebind(%d->%d,[%s]@%d/%d)" o n
      (String.concat ";"
         (List.map (fun (a, b) -> Printf.sprintf "%d:%d" a b) m))
      r e

let m_live m =
  match m.m_state with
  | Net.Dspec.Open -> true
  | Net.Dspec.Aborted _ -> not m.m_comp
  | Net.Dspec.Committed -> false

(* lowest id among model txns satisfying [p] (the list is id-ordered) *)
let m_lowest model p =
  Option.map (fun m -> m.m_id) (List.find_opt p model)

(* Run [ops] against the real table and the model; true when they agree
   after every step. *)
let dops_agree ops =
  let metrics = Obs.Metrics.create () in
  let t = Net.Dspec.create ~metrics () in
  let reals = Hashtbl.create 16 in
  let model = ref [] in
  let nth i = List.find_opt (fun m -> m.m_id = i) !model in
  let with_txn i f =
    match nth i with
    | Some m -> f m (Hashtbl.find reals i)
    | None -> ()
  in
  let apply = function
    | D_open (c, r) ->
      let x =
        Net.Dspec.open_txn t ~coord_pid:c ~root_uid:r ~coord_laddr:(-1)
      in
      Hashtbl.replace reals x.Net.Dspec.x_id x;
      model :=
        !model
        @ [ { m_id = x.Net.Dspec.x_id; m_coord = c; m_root = r;
              m_state = Net.Dspec.Open; m_comp = false; m_parts = [] } ]
    | D_register (i, pid, rank, epoch) ->
      with_txn i (fun m x ->
          if m_live m then begin
            Net.Dspec.register x ~pid ~rank ~epoch;
            m.m_parts <-
              (if List.exists (fun (p, _, _) -> p = pid) m.m_parts then
                 List.map
                   (fun ((p, _, _) as e) ->
                     if p = pid then (p, rank, epoch) else e)
                   m.m_parts
               else (pid, rank, epoch) :: m.m_parts)
          end)
    | D_commit i ->
      with_txn i (fun m x ->
          if m.m_state = Net.Dspec.Open then begin
            Net.Dspec.commit t x;
            m.m_state <- Net.Dspec.Committed
          end)
    | D_abort i ->
      with_txn i (fun m x ->
          if m.m_state = Net.Dspec.Open then begin
            Net.Dspec.abort t x ~reason:"test";
            m.m_state <- Net.Dspec.Aborted "test"
          end)
    | D_compensate i ->
      with_txn i (fun m x ->
          match m.m_state with
          | Net.Dspec.Aborted _ when not m.m_comp ->
            Net.Dspec.mark_compensated t x ~discarded:1;
            m.m_comp <- true
          | _ -> ())
    | D_write (i, st) ->
      with_txn i (fun m x ->
          if m_live m then begin
            x.Net.Dspec.x_state <- st;
            m.m_state <- st
          end)
    | D_rebind (old_pid, new_pid, uid_map, rank, epoch) ->
      Net.Dspec.rebind_pid t ~old_pid ~new_pid ~uid_map ~rank ~epoch;
      List.iter
        (fun m ->
          if m.m_coord = old_pid then begin
            m.m_coord <- new_pid;
            match List.assoc_opt m.m_root uid_map with
            | Some u -> m.m_root <- u
            | None -> ()
          end;
          (* one record per pid: old_pid's becomes new_pid's, in
             place, and replaces any record new_pid already had *)
          if List.exists (fun (p, _, _) -> p = old_pid) m.m_parts then
            m.m_parts <-
              List.filter_map
                (fun ((p, _, _) as e) ->
                  if p = old_pid then Some (new_pid, rank, epoch)
                  else if p = new_pid then None
                  else Some e)
                m.m_parts)
        !model
  in
  let id = Option.map (fun x -> x.Net.Dspec.x_id) in
  let agree () =
    let ms = !model in
    let lookups_ok =
      List.for_all
        (fun c ->
          List.for_all
            (fun r ->
              let at m = m.m_coord = c && m.m_root = r in
              id (Net.Dspec.open_with_root t ~coord_pid:c ~root_uid:r)
              = m_lowest ms (fun m -> at m && m.m_state = Net.Dspec.Open)
              && id
                   (Net.Dspec.aborted_with_root t ~coord_pid:c
                      ~root_uid:r)
                 = m_lowest ms (fun m ->
                       at m
                       && m_live m
                       && m.m_state <> Net.Dspec.Open))
            (List.init roots Fun.id)
          && List.map
               (fun x -> x.Net.Dspec.x_id)
               (Net.Dspec.open_coordinated_by t ~pid:c)
             = List.filter_map
                 (fun m ->
                   if m.m_coord = c && m.m_state = Net.Dspec.Open then
                     Some m.m_id
                   else None)
                 ms)
        (List.init pids Fun.id)
    in
    let find_ok =
      List.for_all
        (fun m ->
          match Net.Dspec.find t m.m_id with
          | None -> false
          | Some x ->
            x.Net.Dspec.x_coord_pid = m.m_coord
            && x.Net.Dspec.x_state = m.m_state
            && ((not (m_live m))
               || x.Net.Dspec.x_root_uid = m.m_root
                  && List.map
                       (fun p ->
                         Net.Dspec.(p.p_pid, p.p_rank, p.p_epoch))
                       x.Net.Dspec.x_parts
                     = m.m_parts))
        ms
      && Net.Dspec.find t (List.length ms + 1) = None
    in
    (* the lookups above retired every entry a direct write decided,
       so the gauge now counts exactly the model's live txns *)
    lookups_ok && find_ok
    && Obs.Metrics.gauge_read metrics "dspec.live_txns"
       = float_of_int (List.length (List.filter m_live ms))
  in
  List.for_all
    (fun op ->
      apply op;
      agree ())
    ops

let prop_dspec_matches_scan_model =
  QCheck.Test.make ~count:300 ~name:"indexed dspec table matches a list scan"
    (QCheck.make
       QCheck.Gen.(list_size (int_range 1 80) dop_gen)
       ~shrink:QCheck.Shrink.list
       ~print:(fun ops -> String.concat " " (List.map show_dop ops)))
    dops_agree

(* The shrunk counterexample of a rebind onto a pid that already
   participates: txn 3 held records for pids 3 and 1, and the rename
   left two records for pid 1, of which [register] refreshed one. *)
let test_rebind_merges_participants () =
  let ops =
    [
      D_open (1, 1);
      D_open (4, 1);
      D_open (2, 1);
      D_register (3, 3, 9, 6);
      D_register (3, 1, 9, 8);
      D_rebind (3, 1, [ (2, 2) ], 2, 2);
      D_register (3, 1, 5, 2);
    ]
  in
  check "table and model agree" true (dops_agree ops);
  let t = Net.Dspec.create () in
  let x = Net.Dspec.open_txn t ~coord_pid:2 ~root_uid:1 ~coord_laddr:(-1) in
  Net.Dspec.register x ~pid:3 ~rank:9 ~epoch:6;
  Net.Dspec.register x ~pid:1 ~rank:9 ~epoch:8;
  Net.Dspec.rebind_pid t ~old_pid:3 ~new_pid:1 ~uid_map:[] ~rank:2 ~epoch:2;
  Alcotest.(check (list (triple int int int)))
    "one record for the merged pid, with the rebind's rank and epoch"
    [ (1, 2, 2) ]
    (List.map
       (fun p -> Net.Dspec.(p.p_pid, p.p_rank, p.p_epoch))
       x.Net.Dspec.x_parts)

let suites =
  [
    ( "dspec",
      [
        Alcotest.test_case "fault-free speculative serving" `Quick
          test_fault_free_speculative_serving;
        Alcotest.test_case "coordinator rollback compensates mailboxes"
          `Quick test_coordinator_rollback_compensates;
        Alcotest.test_case "coordinator crash aborts the txn" `Quick
          test_coordinator_crash_aborts;
        Alcotest.test_case "crash scenarios: byte-identical traces" `Quick
          test_crash_scenarios_reproducible;
        Alcotest.test_case "exactly-once under crash_in_commit + migration"
          `Quick test_speculative_serving_under_faults;
        Alcotest.test_case "faulty serving: byte-identical traces" `Quick
          test_faulty_serving_reproducible;
        Alcotest.test_case "live table drains after a faulty run" `Quick
          test_live_table_drains;
        QCheck_alcotest.to_alcotest prop_dspec_matches_scan_model;
        Alcotest.test_case "rebind onto a participant keeps one record"
          `Quick test_rebind_merges_participants;
      ] );
  ]
