(** Inference engines: reconstruct unrecorded nondeterminism by searching
    the space of worlds for an execution satisfying the model's constraint.

    Three strategies:

    - {!random_restarts} — seeded random executions with streaming abort
      (PRES-style probabilistic replay). Scales to schedule nondeterminism;
      the paper's observation that ultra-relaxed models can need
      "prohibitively large post-factum analysis times" shows up directly as
      exhausted budgets here.
    - {!enumerate_inputs} — exhaustive odometer enumeration of input-value
      assignments under a deterministic schedule (ESD-style synthesis for
      input-dependent bugs). Complete for programs whose only
      nondeterminism is input data.
    - {!dfs_schedules} — systematic interleaving enumeration with
      state-hash pruning.

    All work is accounted in VM steps so debugging efficiency (DE) can be
    computed uniformly. The engines are sequential: attempts run one at a
    time, in attempt order, on the calling thread. *)

open Mvm

type budget = {
  max_attempts : int;  (** maximum executions tried *)
  max_steps_per_attempt : int;  (** step cap per execution *)
  base_seed : int;  (** seed of the first attempt; attempt k uses base+k *)
  deadline_s : float option;
      (** optional wall-clock allowance in seconds. Converted to an
          absolute instant when the engine starts; checked between
          attempts and — via the interpreter's coarse [cancel] poll —
          every 128 steps inside an attempt. On expiry the search
          degrades to its partial outcome with [stats.deadline_hit]
          set, the paper's graceful-degradation stance applied to time:
          DF falls to 1/n instead of the debugger hanging. *)
}

val default_budget : budget

(** An attempt mishap the search survived. A requeued incident
    ([poisoned = false]) means the retry succeeded; a poisoned one means
    the attempt was abandoned after [retries] retries. *)
type incident = {
  at_attempt : int;
  error : string;
  retries : int;
  poisoned : bool;
}

val pp_incident : Format.formatter -> incident -> unit

type stats = {
  attempts : int;  (** executions actually run and judged *)
  total_steps : int;  (** VM steps across all attempts (inference work) *)
  pruned : int;
      (** schedule prefixes skipped by the DFS pruner (state already
          covered, or a clamped digit); their probe steps are included in
          [total_steps], but they are not [attempts] *)
  success : bool;
  deadline_hit : bool;  (** the wall-clock deadline ended the search *)
  incidents : incident list;
      (** supervision report: requeued and poisoned attempts, in order *)
}

(** A best-effort reproduction: the highest-scoring rejected candidate
    when the budget ran out before any attempt was accepted. [closeness]
    is the caller's [score] of that run (for the replay drivers,
    {!Constraints.closeness} — how far it diverged from the recording). *)
type partial = { best : Interp.result; closeness : float; attempt : int }

type outcome = {
  result : Interp.result option;  (** first accepted execution *)
  partial : partial option;
      (** best rejected candidate — only when [result = None] and a
          [score] was supplied *)
  stats : stats;
}

(** [random_restarts ?score budget ~make ~spec ~accept labeled] runs up to
    [budget.max_attempts] executions. [make ~attempt] supplies the world
    and an optional streaming abort for each attempt (fresh state per
    attempt!). Each completed run is judged by [spec] before [accept].
    [score] ranks rejected runs for the {!partial} outcome (default:
    rank nothing).

    All three engines share the crash-tolerance conveniences:

    - [checkpoint] — a {!Checkpoint.sink} ticked once per judged attempt
      at iteration boundaries, so the file on disk always describes a
      consistent frontier ("everything before attempt [n] is done"); it
      is flushed when the search ends without a hit, which is what lets
      a deadline-killed search resume later.
    - [resume] — a loaded {!Checkpoint.t}; the engine validates its
      engine kind and base seed (raising [Invalid_argument] on a
      mismatch), restores the counters, frontier and best-candidate key,
      and continues. Because attempts are judged in order, a resumed
      search reaches the same first-hit outcome as an uninterrupted one.
    - supervision — an attempt whose execution raises is retried up to a
      bounded number of times, then poisoned (skipped) with an
      {!incident} in [stats.incidents]; the search itself survives. *)
val random_restarts :
  ?score:(Interp.result -> float) ->
  ?checkpoint:Checkpoint.sink ->
  ?resume:Checkpoint.t ->
  budget ->
  make:(attempt:int -> World.t * (Event.t -> string option) option) ->
  spec:Spec.t ->
  accept:(Interp.result -> bool) ->
  Label.labeled ->
  outcome

(** [enumerate_inputs ?score budget ~spec ~accept labeled] explores
    input-value assignments in lexicographic domain order under a
    round-robin schedule; complete up to the attempt budget. *)
val enumerate_inputs :
  ?score:(Interp.result -> float) ->
  ?checkpoint:Checkpoint.sink ->
  ?resume:Checkpoint.t ->
  budget ->
  spec:Spec.t ->
  accept:(Interp.result -> bool) ->
  Label.labeled ->
  outcome

(** [dfs_schedules ?prune budget ~spec ~accept labeled] systematically
    enumerates thread interleavings depth-first: each run follows a
    decision prefix and extends it with a default policy (lowest thread
    id), recording the fan-out at every scheduling point; backtracking
    bumps the {e shallowest} decision with room and resets everything
    below it, so the earliest interleaving choices — where races live —
    vary first. Inputs are fixed to each domain's first value, so the
    engine explores schedule nondeterminism only — ESD-style directed
    synthesis, complete for small programs, exponential in general (which
    is the point of the ABL-SEARCH comparison against random restarts).

    [prune] (default [true]) enables state-hash subtree pruning — a poor
    man's partial-order reduction: at the first decision past its prefix,
    a run whose canonical state digest (see {!State_hash}) was already
    reached by an explored subtree is cut short and its whole subtree
    skipped, since every continuation reproduces already-judged status,
    outputs and failure. Pruning assumes [accept] judges runs through
    those interleaving-invariant projections (every driver in this
    repository does); pass [~prune:false] for an accept that inspects raw
    global event order. Skipped prefixes are counted in [stats.pruned].
    A prefix digit that meets a smaller fan-out than it was generated
    against is treated as an exhausted branch (the schedule it denotes
    duplicates an already-enumerated one) and also counts as pruned.

    [on_prune] is a debug/test hook invoked with each state-hash-pruned
    prefix. *)
val dfs_schedules :
  ?score:(Interp.result -> float) ->
  ?prune:bool ->
  ?on_prune:(prefix:int array -> unit) ->
  ?checkpoint:Checkpoint.sink ->
  ?resume:Checkpoint.t ->
  budget ->
  spec:Spec.t ->
  accept:(Interp.result -> bool) ->
  Label.labeled ->
  outcome

(** [run_schedule_prefix ~prefix labeled] executes the single schedule
    denoted by [prefix] (default policy past it), with no pruning,
    returning the run and the discovered decision fan-outs — the tool
    tests use to check that a pruned prefix really was redundant. *)
val run_schedule_prefix :
  ?max_steps:int ->
  prefix:int array ->
  Label.labeled ->
  Interp.result * int list

(**/**)

(** A site-priority hint for attempt worlds: sids a static analysis
    flagged as race-candidate sites. Searches seeded with
    {!priority_world} schedule threads sitting at a suspect site first
    (biased, never exclusive), which tends to surface racy interleavings
    in fewer attempts. *)
type site_priority = { sids : int list }

(** [site_prefer p] is the candidate predicate ("next statement is a
    suspect site"). *)
val site_prefer : site_priority -> Mvm.World.cand -> bool

(** [priority_world p ~seed] is {!Mvm.World.prioritized} over [p]'s
    sites — a drop-in replacement for [World.random ~seed] in restart
    searches. *)
val priority_world : site_priority -> seed:int -> Mvm.World.t

(* deadlines are absolute monotonic instants (Obs.Clock ns), immune to
   wall-clock steps; tests drive them through Obs.Clock.set_source *)
val deadline_reason : string
val deadline_of : budget -> int64 option
val deadline_passed : int64 option -> bool
val wall_cancel : int64 option -> (unit -> string option) option

(* retries an attempt gets before it is poisoned *)
val max_job_retries : int
