(** The CRC-per-line manifest codec of the multi-file evidence sets: the
    segment manifest ({!Log_segments}) and the causal manifest
    ({!Sharded_log}).

    A manifest is a magic line, then the log's header lines, then the
    caller's payload lines. Each line after the magic is
    [<crc8hex> <payload>], checksummed on its own, so a truncated or
    bit-rotted manifest degrades to the lines that still verify and a
    reader never acts on a line it cannot vouch for. Callers decide
    completeness from their own trailer payload plus [corrupt]. *)

(** [to_string ~magic log payloads] — the magic line, [log]'s header
    lines ({!Log_io}'s header grammar; its entries are ignored), then
    [payloads] in order, every line after the magic CRC'd. *)
val to_string : magic:string -> Log.t -> string list -> string

type t = {
  header : Log_io.header;  (** from the CRC-valid header lines *)
  payloads : string list;  (** the other CRC-valid lines, in order *)
  corrupt : int;  (** lines whose CRC did not verify *)
}

(** [of_string ~magic s] reads a manifest back; [None] when the magic
    line is not exactly [magic]. *)
val of_string : magic:string -> string -> t option

(** [load ~magic path] is {!of_string} on the file's bytes; [None] when
    the file is missing or unreadable too. *)
val load : magic:string -> string -> t option
