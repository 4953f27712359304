(** Workload drivers: finding production runs with the failure (and root
    cause) an experiment needs, and training runs for the analyses. *)

open Mvm

(** [find_failing_seed ?cause ?exclusive ?from ?max_seeds app] scans seeds
    for a production run whose failure matches the app's catalog. With
    [cause], the primary observed root cause must be that id; with
    [exclusive] (default false), it must be the *only* observed cause —
    clean attribution for the original execution of an experiment. With
    [faults], every scanned run executes under that fault plan.
    [checkpoint]/[resume] persist and restore the scan frontier so a
    killed scan continues where it stopped — see {!first_success}.
    Returns the lowest matching seed and its judged run. *)
val find_failing_seed :
  ?cause:string ->
  ?exclusive:bool ->
  ?from:int ->
  ?max_seeds:int ->
  ?faults:Fault.plan ->
  ?checkpoint:Ddet_replay.Checkpoint.sink ->
  ?resume:Ddet_replay.Checkpoint.t ->
  App.t ->
  (int * Interp.result) option

(** [first_success ~from ~count ~f ()] scans [f from], [f (from+1)], …
    up to [count] probes and returns the first index whose [f] is
    [Some], with its value. A probe that raises counts as [None]: it
    poisons only its own index, not the scan. [checkpoint]/[resume]
    persist the scan frontier under the ["scan"] checkpoint kind, with
    [from] as the identity check.

    @raise Invalid_argument when [resume] is not a scan checkpoint with
    the same [from]. *)
val first_success :
  ?checkpoint:Ddet_replay.Checkpoint.sink ->
  ?resume:Ddet_replay.Checkpoint.t ->
  from:int ->
  count:int ->
  f:(int -> 'a option) ->
  unit ->
  (int * 'a) option

(** [training_runs ?n ?from app] is [n] (default 5) seeded production runs
    — input for invariant inference and plane classification. Training
    runs are not filtered: like pre-release testing, they may or may not
    contain failures. *)
val training_runs : ?n:int -> ?from:int -> App.t -> Interp.result list

(** [failure_rate ?n ?from app] is the fraction of seeds whose run fails —
    workload characterisation for reports. [faults] runs the scan under a
    fault plan. *)
val failure_rate : ?n:int -> ?from:int -> ?faults:Fault.plan -> App.t -> float
