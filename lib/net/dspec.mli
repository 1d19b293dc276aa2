(** Distributed-speculation transactions: the coordinator-side state of
    the epoch-fenced two-phase commit over speculative regions (ISSUE
    10; the paper's Section 6 speculation extended across processes).

    A process that opened a speculative region may send messages from
    inside it; every receiver that consumes one JOINS the region (the
    engine's dependency tracking).  To fold such a region durably the
    coordinator must get every participant's agreement first — a
    participant may since have been superseded by a newer incarnation of
    its rank (its ack would come from a zombie), may have died, or may
    crash between its prepare-ack and the commit receipt.  {!Dspec}
    keeps the transaction table the cluster's commit protocol runs over:
    who coordinates, which root speculation level the transaction
    covers, and each participant's identity {e pinned to the incarnation
    epoch it had when it joined}.  At prepare time the recorded epoch is
    compared against the rank's current epoch; any mismatch voids the
    ack and forces an abort — a resurrected zombie can never speak for a
    dead incarnation.

    The table is cluster-global (it lives beside the registry, not
    inside any process image), so transactions survive the migration of
    their coordinator or participants; {!rebind_pid} re-keys the stored
    identities when a process is re-instantiated under a new pid.

    Only {e live} transactions — Open, or Aborted and not yet
    compensated — keep a full record, indexed by id, by
    (coordinator pid, root uid) and by coordinator pid.  A transaction
    that commits, or whose abort is compensated, is retired to a
    compact decision record (coordinator and decided state), so every
    lookup costs a constant per request however long the history.
    State changes go through {!commit}, {!abort}, {!mark_compensated}
    and {!rehome}, which keep the indexes right; a direct write to
    [x_state] is also honoured, because every index hit re-checks the
    entry's actual state and retires the ones no longer live. *)

type part = {
  mutable p_pid : int;
  mutable p_rank : int;
  mutable p_epoch : int;
      (** the participant rank's incarnation epoch when it joined; a
          prepare-ack is only valid while this is still current *)
}

type state =
  | Open
  | Committed
  | Aborted of string
      (** reason: "fence" | "crash_in_commit" | "coordinator_dead" |
          "participant_dead" *)

type txn = {
  x_id : int;
  mutable x_coord_pid : int;
  mutable x_root_uid : int;
      (** the coordinator's speculation level whose commit the protocol
          decides (stable unique id, survives migration via re-keying) *)
  mutable x_coord_laddr : int;
      (** logical address of the coordinating service, [-1] when it is
          not a registered service *)
  mutable x_state : state;
  mutable x_parts : part list;  (** newest first *)
  mutable x_compensated : bool;
      (** an abort's mailbox compensation has been accounted (the
          [Dspec_compensate] trace fires once per aborted txn) *)
}

type t

val create : ?metrics:Obs.Metrics.t -> unit -> t
(** [metrics] receives the protocol counters ([dspec.opened],
    [dspec.prepares], [dspec.prepare_acks], [dspec.commits],
    [dspec.aborts], [dspec.fence_rejections], [dspec.compensated]) and
    the [dspec.live_txns] gauge (full records held: the table's
    bounded state); a private registry is used when omitted. *)

val open_txn : t -> coord_pid:int -> root_uid:int -> coord_laddr:int -> txn
(** Allocate a fresh transaction (ids sequential from 1) rooted at the
    coordinator's current speculation level. *)

val find : t -> int -> txn option
(** A live transaction's record; for a decided one, a detached summary
    carrying its id, current coordinator pid and decided state
    ([x_compensated] set on an abort, no participants, [x_root_uid] and
    [x_coord_laddr] [-1]).  Writes to a summary do not reach the
    table. *)

val register : txn -> pid:int -> rank:int -> epoch:int -> unit
(** Record [pid] as a participant at its current incarnation epoch.
    Re-registering an existing participant updates its rank and epoch
    (a participant that migrated re-joins under its successor's
    identity). *)

val open_coordinated_by : t -> pid:int -> txn list
(** The still-open transactions coordinated by [pid], ascending id —
    what must abort when that process's node fails. *)

val open_with_root : t -> coord_pid:int -> root_uid:int -> txn option
(** The lowest-id open transaction rooted at exactly this coordinator
    level, if any (how the send path recognises traffic that must
    register its receiver as a participant). *)

val aborted_with_root : t -> coord_pid:int -> root_uid:int -> txn option
(** The lowest-id not-yet-compensated aborted transaction whose root
    level is [root_uid] — the rollback path claims it to account the
    mailbox compensation exactly once. *)

(** {2 Transitions} — each keeps the live indexes right. *)

val commit : t -> txn -> unit
(** Decide [Committed] (bumps [dspec.commits]) and retire the record. *)

val abort : t -> txn -> reason:string -> unit
(** Decide [Aborted reason] (bumps [dspec.aborts]); the record stays
    live until {!mark_compensated}. *)

val mark_compensated : t -> txn -> discarded:int -> unit
(** Account an abort's mailbox compensation ([dspec.compensated] grows
    by [discarded]) and retire the record. *)

val rehome : t -> txn -> coord_pid:int -> root_uid:int -> unit
(** Re-register a transaction under a new coordinator pid and root
    level (an image restored with its transaction context). *)

val rebind_pid :
  t -> old_pid:int -> new_pid:int -> uid_map:(int * int) list ->
  rank:int -> epoch:int -> unit
(** A process was re-instantiated (migration or resurrection):
    [old_pid] becomes [new_pid] everywhere in the table (live records
    are walked; decisions follow the coordinator identity).  Where it
    coordinates, the root uid is translated through [uid_map] (the
    old-engine → new-engine stable-uid correspondence).  Where it
    participates, its recorded rank AND epoch are refreshed — a
    deliberate re-home is not a zombie, so its ack stays valid.  A
    transaction keeps one record per pid: if [new_pid] already
    participates, its record is dropped and [old_pid]'s renamed record
    (in [old_pid]'s place, with the rebind's rank and epoch) stands for
    both. *)

(** {2 Counters} — bumped by the cluster's protocol driver (the
    transitions above bump their own). *)

val c_prepares : t -> Obs.Metrics.counter
val c_prepare_acks : t -> Obs.Metrics.counter
val c_fence_rejections : t -> Obs.Metrics.counter

(** {2 Audit} *)

val audit : Obs.Trace.event list -> (unit, string) result
(** The zero-partial-commit invariant over a trace, in one linear pass:
    no transaction both commits and aborts, and every abort decided by a
    live coordinator ("fence" / "crash_in_commit") is followed by that
    coordinator's own region rollback and by mailbox compensation for
    the transaction.  [Error] names the first violation. *)
