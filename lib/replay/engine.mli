(** Shared machinery of the enumeration engines in {!Search}: decision
    odometers, instrumented worlds, and single-attempt executors. One
    attempt is a pure function of its decision prefix and the {!Seen}
    set it runs against. *)

open Mvm

(** Digest set of already-covered scheduling states. *)
module Seen : sig
  type t

  val create : unit -> t
  val mem : t -> int -> bool
  val add : t -> int -> unit

  (** [elements t] snapshots the digests (sorted) — what a checkpoint
      persists so a resumed DFS can replant its pruning state. *)
  val elements : t -> int list
end

(** [advance prefix sizes] steps the decision odometer: bump the
    shallowest digit with room, reset everything below it, [None] when
    the space is exhausted. [sizes] are the digit fan-outs discovered by
    running [prefix] (shallowest first); digits beyond [sizes] are
    dropped. Varying the earliest decisions first matters for schedule
    search — races live in the early interleaving. *)
val advance : int array -> int list -> int array option

type early =
  | Ran  (** the attempt ran to its natural end *)
  | Early_pruned  (** cut at the checkpoint: state already covered *)
  | Early_clamped  (** cut at a prefix digit whose fan-out shrank *)

type probe = {
  result : Interp.result;
  sizes : int list;
      (** discovered digit fan-outs, shallowest first, already truncated
          for the pruned/clamped cases so {!advance} skips the dead
          branch *)
  early : early;
}

(** Execution context — the arena of the search hot path. It holds the
    program compiled once ({!Interp.compile}), a reusable interpreter
    exec state, the pruner's hash tables and a warm trace capacity, all
    reused across every attempt executed with it: attempts stop paying
    compile cost, table allocation and trace regrowth. Attempts run
    through a ctx use {!Interp.run_compiled} — byte-identical results to
    the AST walker, substantially cheaper per step. A ctx serves one
    attempt at a time. *)
type ctx

(** [make_ctx labeled] compiles the program and allocates its arena. *)
val make_ctx : Label.labeled -> ctx

(** [run_attempt ~max_steps ~abort labeled world] executes one attempt:
    the AST walker without a [ctx], the compiled hot path with one
    (warm-starting the trace at the previous attempt's event count unless
    [trace_capacity] overrides it). The raw entry point for engines that
    build their own worlds — the odometer engines use {!exec_inputs} and
    {!exec_schedule} instead. *)
val run_attempt :
  ?ctx:ctx ->
  ?monitors:(Event.t -> unit) list ->
  max_steps:int ->
  abort:(Event.t -> string option) ->
  ?cancel:(unit -> string option) ->
  ?trace_capacity:int ->
  Label.labeled ->
  World.t ->
  Interp.result

(** [exec_inputs ~budget ~prefix labeled] runs one input-odometer attempt;
    [budget] is the step cap. [wall] is forwarded to {!Interp.run}'s
    [cancel] (polled every 128 steps): deadline budgets use it to cut a
    long attempt mid-run. [ctx] switches the attempt onto the compiled
    hot path (see {!ctx}). *)
val exec_inputs :
  ?ctx:ctx ->
  ?trace_capacity:int ->
  ?wall:(unit -> string option) ->
  budget:int ->
  prefix:int array ->
  Label.labeled ->
  probe

(** [exec_schedule ?seen ~budget ~prefix labeled] runs one
    schedule-odometer attempt. With [seen], the run is cut short at the
    first post-prefix decision if its canonical state digest is already
    in [seen]; otherwise the digest of every post-prefix decision is
    added to [seen]. *)
val exec_schedule :
  ?ctx:ctx ->
  ?trace_capacity:int ->
  ?seen:Seen.t ->
  ?wall:(unit -> string option) ->
  budget:int ->
  prefix:int array ->
  Label.labeled ->
  probe

type verdict =
  | Attempt of Interp.result * int list
      (** count and judge it; advance the odometer with these sizes *)
  | Skipped of { steps : int; sizes : int list }
      (** pruned or clamped: not an attempt; [steps] is the inference
          work spent before the run was cut short *)

(** [classify probe] rules whether a probe counts as an attempt. *)
val classify : probe -> verdict
