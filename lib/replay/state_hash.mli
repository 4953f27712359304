(** Incremental canonical hash of an in-flight execution's state, used by
    the schedule-DFS pruner as a poor man's partial-order reduction.

    The digest is built from interleaving-invariant projections of the
    run so far — per-thread event sequences (sites, kinds and values, but
    not global step numbers) — plus the components of machine state where
    interleaving order genuinely matters: current memory cell values,
    per-channel send/receive/output value sequences, and the lock table.

    Two runs with equal digests at a scheduling decision have (up to hash
    collision) equal per-thread histories and equal machine state, so
    every continuation of one has a continuation of the other with
    identical status, outputs and failure — which is what makes skipping
    the duplicate sound for accept functions that judge runs through
    those projections. *)

type t

val create : unit -> t

(** [feed t e] folds one trace event into the state summary. Feed every
    event, in emission order (a monitor does this). *)
val feed : t -> Mvm.Event.t -> unit

(** [digest t] is the canonical hash of everything fed so far. Cheap —
    callable at every scheduling decision. *)
val digest : t -> int

(** [reset t] forgets everything fed so far, returning [t] to the state
    of a fresh {!create} — the arena pattern: search engines feed one
    hash instance per search across millions of attempts instead of
    allocating the five tables anew for each. *)
val reset : t -> unit
