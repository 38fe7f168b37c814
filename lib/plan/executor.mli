(** The convergence executor: run a compiled plan against a live platform
    as dependency waves with bounded parallelism, classify per-step
    outcomes, and re-diff/re-plan on partial failure up to a bounded
    number of rounds.

    One round: read the leader's logical tree, diff against the goal,
    compile a plan, execute it wave by wave ([Planner.step.deps] gate
    readiness; ready steps are submitted in chunks of [parallelism]
    through {!Tropic.Platform.submit_batch}).  Steps whose dependencies
    did not commit are skipped for the round.  Any drift left after the
    round — aborts, sheds, skips, or faults that landed mid-plan — is
    picked up by the next round's fresh diff, so the executor is
    idempotent across controller fail-overs: already-converged resources
    produce no further transactions. *)

type outcome =
  | Committed
  | Shed  (** aborted by admission control; retried on the next round *)
  | Aborted of string
  | Failed of string
  | Skipped of string  (** a dependency did not commit this round *)

val outcome_to_string : outcome -> string

type executed = {
  ex_step : Planner.step;
  ex_round : int;
  ex_txn : int option;  (** [None] for skipped steps *)
  ex_outcome : outcome;
}

type config = {
  parallelism : int;    (** concurrent transactions per wave chunk *)
  max_rounds : int;     (** re-plan attempts before reporting Blocked *)
  round_delay : float;  (** simulated seconds between rounds *)
}

type status = Converged | Blocked

type report = {
  status : status;
  rounds : int;  (** rounds that submitted at least one transaction *)
  residual : Data.Diff.change list;  (** empty iff [Converged] *)
  unplannable : string list;
  history : executed list;  (** chronological, across all rounds *)
}

val steps_committed : report -> int
val steps_shed : report -> int
val steps_aborted : report -> int
val steps_skipped : report -> int

(** One-line result, e.g.
    ["converged after 2 round(s): 7 committed, 0 shed, 1 aborted, ..."]. *)
val summary : report -> string

(** Drive the system to the goal.  Must be called from inside a simulation
    process (it submits, awaits and sleeps).  Waits out leaderless spells
    (controller fail-over) rather than failing.  [ordered:false] is the
    chaos ablation: plans are compiled with every dependency edge dropped
    ({!Planner.compile}). *)
val converge :
  ?config:config ->
  ?ordered:bool ->
  Tropic.Platform.t ->
  Planner.context ->
  model:Model.t ->
  report

(** Pure variant for property tests: execute each plan step through
    {!Tropic.Logical.simulate} (no platform, no DES), re-planning until
    convergence.  [Ok (final_tree, steps_executed)], or [Error reason] if
    blocked or unplannable. *)
val converge_logical :
  ?max_rounds:int ->
  Tropic.Dsl.env ->
  Planner.context ->
  model:Model.t ->
  tree:Data.Tree.t ->
  (Data.Tree.t * int, string) result
