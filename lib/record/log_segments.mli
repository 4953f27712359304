(** Segmented log persistence: a finished recording saved as a sequence
    of small, independently checkable parts.

    {!save_via} splits the log into [segment_entries]-sized parts and
    writes each as an ordinary [ddet-log v2] log ({!Log_io}'s format,
    full header included) with one store write, in order, stopping at
    the first failure. Only then is the manifest written, atomically:
    the log header, each segment's entry count and byte CRC, and an
    [end N] trailer, every line CRC'd ({!Manifest}). The file set for
    base path [p] is:

    {v
    p.0000.seg        ddet-log v2: header, CRC'd entries, `end N`
    p.0001.seg        ...
    p.manifest        CRC'd lines: header, `segment I N CRC` per
                      segment, `end N` trailer (atomic, written last)
    v}

    Recovery without a trustworthy manifest walks the segments in
    order: every sealed segment (trailer agrees, no bad line) is
    recovered whole, and the first missing or damaged one contributes
    the entries before its first bad line and ends the walk. This
    prefix rule is deliberately stricter than {!Log_io}'s Salvage, which
    skips a bad line and reads on. *)

(** [save ?segment_entries base log] saves through {!Store.default}
    (default 64 entries per segment).
    @raise Sys_error on a permanent storage failure. *)
val save : ?segment_entries:int -> string -> Log.t -> unit

(** [save_via store ?segment_entries base log] is {!save} through a
    pluggable store, with the failure as a typed error. Stale segments
    and the manifest of an earlier recording under [base] are removed
    first. The segments written before a failure stay on disk for
    {!load} to recover, and the manifest is only written after every
    segment landed, so a failed save is never read back as complete.
    @raise Invalid_argument if [segment_entries < 1]. *)
val save_via :
  Store.t ->
  ?segment_entries:int ->
  string ->
  Log.t ->
  (unit, Store.error) result

(** What recovery found. [complete] means the manifest verified line by
    line, its trailer agrees, and every segment it lists is on disk,
    sealed, and matches its entry count and byte CRC — the load is the
    whole recording. Otherwise the load is the walked prefix:
    [segments_complete] sealed segments plus [tail_entries] from the
    first damaged one. *)
type recovery = {
  segments_found : int;
  segments_complete : int;
  entries : int;  (** total entries recovered *)
  tail_entries : int;  (** salvaged from a damaged tail segment *)
  complete : bool;
}

val is_damaged : recovery -> bool
val pp_recovery : Format.formatter -> recovery -> unit

(** [load base] reconstructs a log from the segment file set. With a
    trusted manifest this is exact (header included); otherwise it
    returns the walked prefix, with segment 0's header and the failure
    from a recovered [faildesc] entry when the header lacks one.
    [Error] only when neither a manifest nor segment 0 exists. *)
val load : string -> (Log.t * recovery, string) result

(** [exists base] — the manifest or the first segment is present; how
    the CLI distinguishes a segmented base path from a monolithic log
    file. *)
val exists : string -> bool
