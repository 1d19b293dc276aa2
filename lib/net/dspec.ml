(* Distributed-speculation transaction table (see dspec.mli).

   Only bookkeeping lives here: the protocol itself — prepare fan-out,
   epoch fencing, the crash_in_commit draw, distributed rollback and
   mailbox compensation — is driven by Cluster, which owns the entries,
   mailboxes and the speculation engines the decisions act on.

   Only LIVE transactions (Open, or Aborted and not yet compensated)
   keep their full record, filed under three indexes: by id, by
   (coordinator pid, root uid) and by coordinator pid.  A decided
   transaction is retired to a compact per-id decision, so every lookup
   costs a constant per request instead of a scan of the whole
   history. *)

type part = {
  mutable p_pid : int;
  mutable p_rank : int;
  mutable p_epoch : int;
}

type state = Open | Committed | Aborted of string

type txn = {
  x_id : int;
  mutable x_coord_pid : int;
  mutable x_root_uid : int;
  mutable x_coord_laddr : int;
  mutable x_state : state;
  mutable x_parts : part list;
  mutable x_compensated : bool;
}

(* A coordinator identity shared by every decision it made, so
   [rebind_pid] renames it once instead of walking the history.  When
   the new pid already owns an identity, the old one forwards to it. *)
type coord = { mutable c_pid : int; mutable c_merged : coord option }

type decision = { d_coord : coord; d_state : state }

type t = {
  mutable next_id : int;
  live : (int, txn) Hashtbl.t;
  by_root : (int * int, txn list) Hashtbl.t;
      (** (coord pid, root uid) -> live txns, newest first *)
  by_coord : (int, txn list) Hashtbl.t;
      (** coord pid -> live txns, newest first *)
  decided : (int, decision) Hashtbl.t;
  coords : (int, coord) Hashtbl.t;
  g_live : Obs.Metrics.gauge;
  c_opened : Obs.Metrics.counter;
  c_prepares : Obs.Metrics.counter;
  c_prepare_acks : Obs.Metrics.counter;
  c_commits : Obs.Metrics.counter;
  c_aborts : Obs.Metrics.counter;
  c_fence_rejections : Obs.Metrics.counter;
  c_compensated : Obs.Metrics.counter;
}

let create ?metrics () =
  let metrics =
    match metrics with Some m -> m | None -> Obs.Metrics.create ()
  in
  {
    next_id = 1;
    live = Hashtbl.create 16;
    by_root = Hashtbl.create 16;
    by_coord = Hashtbl.create 16;
    decided = Hashtbl.create 64;
    coords = Hashtbl.create 16;
    g_live = Obs.Metrics.gauge metrics "dspec.live_txns";
    c_opened = Obs.Metrics.counter metrics "dspec.opened";
    c_prepares = Obs.Metrics.counter metrics "dspec.prepares";
    c_prepare_acks = Obs.Metrics.counter metrics "dspec.prepare_acks";
    c_commits = Obs.Metrics.counter metrics "dspec.commits";
    c_aborts = Obs.Metrics.counter metrics "dspec.aborts";
    c_fence_rejections =
      Obs.Metrics.counter metrics "dspec.fence_rejections";
    c_compensated = Obs.Metrics.counter metrics "dspec.compensated";
  }

let is_live txn =
  match txn.x_state with
  | Open -> true
  | Aborted _ -> not txn.x_compensated
  | Committed -> false

let root_key txn = txn.x_coord_pid, txn.x_root_uid

let bucket tbl k = Option.value (Hashtbl.find_opt tbl k) ~default:[]

let bucket_add tbl k txn = Hashtbl.replace tbl k (txn :: bucket tbl k)

let bucket_remove tbl k txn =
  match List.filter (fun x -> x != txn) (bucket tbl k) with
  | [] -> Hashtbl.remove tbl k
  | l -> Hashtbl.replace tbl k l

let file t txn =
  Hashtbl.replace t.live txn.x_id txn;
  bucket_add t.by_root (root_key txn) txn;
  bucket_add t.by_coord txn.x_coord_pid txn

let unfile t txn =
  Hashtbl.remove t.live txn.x_id;
  bucket_remove t.by_root (root_key txn) txn;
  bucket_remove t.by_coord txn.x_coord_pid txn

let set_live_gauge t =
  Obs.Metrics.set t.g_live (float_of_int (Hashtbl.length t.live))

let coord_of_pid t pid =
  match Hashtbl.find_opt t.coords pid with
  | Some c -> c
  | None ->
    let c = { c_pid = pid; c_merged = None } in
    Hashtbl.replace t.coords pid c;
    c

let rec resolve c =
  match c.c_merged with None -> c.c_pid | Some c' -> resolve c'

(* Move a no-longer-live transaction from the live indexes to its
   decision record. *)
let retire t txn =
  if Hashtbl.mem t.live txn.x_id then begin
    unfile t txn;
    Hashtbl.replace t.decided txn.x_id
      { d_coord = coord_of_pid t txn.x_coord_pid; d_state = txn.x_state };
    set_live_gauge t
  end

(* [x_state] is public and mutable, so an indexed entry may have been
   decided behind the table's back: re-check each hit, retiring the
   entries that are no longer live. *)
let live_of t txns =
  List.filter
    (fun txn ->
      is_live txn
      ||
      (retire t txn;
       false))
    txns

let open_txn t ~coord_pid ~root_uid ~coord_laddr =
  let txn =
    {
      x_id = t.next_id;
      x_coord_pid = coord_pid;
      x_root_uid = root_uid;
      x_coord_laddr = coord_laddr;
      x_state = Open;
      x_parts = [];
      x_compensated = false;
    }
  in
  t.next_id <- t.next_id + 1;
  file t txn;
  set_live_gauge t;
  Obs.Metrics.incr t.c_opened;
  txn

let find t id =
  match Hashtbl.find_opt t.live id with
  | Some _ as live -> live
  | None ->
    Option.map
      (fun d ->
        {
          x_id = id;
          x_coord_pid = resolve d.d_coord;
          x_root_uid = -1;
          x_coord_laddr = -1;
          x_state = d.d_state;
          x_parts = [];
          x_compensated =
            (match d.d_state with
            | Aborted _ -> true
            | Open | Committed -> false);
        })
      (Hashtbl.find_opt t.decided id)

let register txn ~pid ~rank ~epoch =
  match List.find_opt (fun p -> p.p_pid = pid) txn.x_parts with
  | Some p ->
    p.p_rank <- rank;
    p.p_epoch <- epoch
  | None ->
    txn.x_parts <- { p_pid = pid; p_rank = rank; p_epoch = epoch }
                   :: txn.x_parts

let open_coordinated_by t ~pid =
  live_of t (bucket t.by_coord pid)
  |> List.filter (fun txn -> txn.x_state = Open)
  |> List.sort (fun a b -> compare a.x_id b.x_id)

(* Lowest id among the live transactions rooted at this level whose
   state satisfies [want] (two opens in one level are legal). *)
let lowest_with_root t ~coord_pid ~root_uid want =
  List.fold_left
    (fun best txn ->
      match best with
      | Some b when b.x_id < txn.x_id -> best
      | _ -> if want txn.x_state then Some txn else best)
    None
    (live_of t (bucket t.by_root (coord_pid, root_uid)))

let open_with_root t ~coord_pid ~root_uid =
  lowest_with_root t ~coord_pid ~root_uid (fun s -> s = Open)

let aborted_with_root t ~coord_pid ~root_uid =
  lowest_with_root t ~coord_pid ~root_uid (function
    | Aborted _ -> true
    | Open | Committed -> false)

let rehome t txn ~coord_pid ~root_uid =
  let live = Hashtbl.mem t.live txn.x_id in
  if live then unfile t txn;
  txn.x_coord_pid <- coord_pid;
  txn.x_root_uid <- root_uid;
  if live then file t txn

let commit t txn =
  txn.x_state <- Committed;
  Obs.Metrics.incr t.c_commits;
  retire t txn

let abort t txn ~reason =
  txn.x_state <- Aborted reason;
  Obs.Metrics.incr t.c_aborts

let mark_compensated t txn ~discarded =
  txn.x_compensated <- true;
  Obs.Metrics.incr ~by:discarded t.c_compensated;
  retire t txn

let rebind_pid t ~old_pid ~new_pid ~uid_map ~rank ~epoch =
  List.iter
    (fun txn ->
      let root_uid =
        Option.value (List.assoc_opt txn.x_root_uid uid_map)
          ~default:txn.x_root_uid
      in
      rehome t txn ~coord_pid:new_pid ~root_uid)
    (live_of t (bucket t.by_coord old_pid));
  (* one record per pid: the renamed record takes the rebind's rank and
     epoch and absorbs any record [new_pid] already held *)
  Hashtbl.iter
    (fun _ txn ->
      match List.find_opt (fun p -> p.p_pid = old_pid) txn.x_parts with
      | None -> ()
      | Some moved ->
        moved.p_pid <- new_pid;
        moved.p_rank <- rank;
        moved.p_epoch <- epoch;
        txn.x_parts <-
          List.filter (fun p -> p == moved || p.p_pid <> new_pid) txn.x_parts)
    t.live;
  (* the decisions it made as coordinator follow the identity *)
  match Hashtbl.find_opt t.coords old_pid with
  | None -> ()
  | Some c -> (
    Hashtbl.remove t.coords old_pid;
    match Hashtbl.find_opt t.coords new_pid with
    | Some merged -> c.c_merged <- Some merged
    | None ->
      c.c_pid <- new_pid;
      Hashtbl.replace t.coords new_pid c)

let c_prepares t = t.c_prepares
let c_prepare_acks t = t.c_prepare_acks
let c_fence_rejections t = t.c_fence_rejections

(* A trace ring keeps the newest window; an abort whose evidence
   predates the window is dropped with the abort itself, so the audit
   stays sound under truncation.  One pass collects the evidence — per
   pid the latest rollback time, and the compensated txn ids — so the
   audit is linear in the trace. *)
let audit (events : Obs.Trace.event list) =
  let committed = Hashtbl.create 64 and compensated = Hashtbl.create 64 in
  let last_rollback = Hashtbl.create 16 and aborts = ref [] in
  List.iter
    (fun (ev : Obs.Trace.event) ->
      match ev.Obs.Trace.kind with
      | Obs.Trace.Dspec_commit { txn; _ } -> Hashtbl.replace committed txn ()
      | Obs.Trace.Dspec_abort { txn; reason; _ } ->
        aborts := (ev, txn, reason) :: !aborts
      | Obs.Trace.Spec_rollback _ ->
        let t = ev.Obs.Trace.time in
        (match Hashtbl.find_opt last_rollback ev.Obs.Trace.pid with
        | Some t0 when t0 >= t -> ()
        | _ -> Hashtbl.replace last_rollback ev.Obs.Trace.pid t)
      | Obs.Trace.Dspec_compensate { txn; _ } ->
        Hashtbl.replace compensated txn ()
      | _ -> ())
    events;
  let aborts = List.rev !aborts in
  let unresolved ((ev : Obs.Trace.event), txn, reason) =
    if not (reason = "fence" || reason = "crash_in_commit") then None
    else if
      match Hashtbl.find_opt last_rollback ev.Obs.Trace.pid with
      | Some t -> t < ev.Obs.Trace.time
      | None -> true
    then
      Some
        (Printf.sprintf
           "txn %d aborted (%s) but coordinator pid %d never rolled back" txn
           reason ev.Obs.Trace.pid)
    else if not (Hashtbl.mem compensated txn) then
      Some (Printf.sprintf "txn %d aborted without mailbox compensation" txn)
    else None
  in
  match List.find_opt (fun (_, txn, _) -> Hashtbl.mem committed txn) aborts with
  | Some (_, txn, _) ->
    Error
      (Printf.sprintf "partial commit: txn %d both committed and aborted" txn)
  | None -> (
    match List.find_map unresolved aborts with
    | Some msg -> Error msg
    | None -> Ok ())
