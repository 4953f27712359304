(* Segmented persistence. Layout for base path [p]:

     p.NNNN.seg   ddet-log v2 logs, [segment_entries] entries each; every
                  one carries the full header           (in order)
     p.manifest   CRC'd lines: header, one line per segment with its
                  entry count and byte CRC, "end <nsegs>" (atomic, last)

   The manifest is the only completeness claim: it is written after
   every segment landed, and a load trusts it only when every line
   verifies and every segment it names matches. Anything less takes the
   prefix walk. *)

let seg_path base i = Printf.sprintf "%s.%04d.seg" base i
let manifest_path base = base ^ ".manifest"
let magic = "ddet-manifest v2"

let exists base =
  Sys.file_exists (manifest_path base) || Sys.file_exists (seg_path base 0)

let save_via store ?(segment_entries = 64) base (log : Log.t) =
  if segment_entries < 1 then
    invalid_arg "Log_segments.save_via: segment_entries";
  (* a previous recording's manifest or segments under this base would
     be taken for this one's: clear them first *)
  store.Store.remove (manifest_path base);
  let rec clean i =
    if store.Store.exists (seg_path base i) then begin
      store.Store.remove (seg_path base i);
      clean (i + 1)
    end
  in
  clean 0;
  (* an empty log still gets segment 0: it carries the header *)
  let parts =
    match Log_io.chunks segment_entries log.Log.entries with [] -> [ [] ] | ps -> ps
  in
  (* in order, stopping at the first failure: the loader walks segments
     as a prefix, so nothing past a failed write would be read *)
  let rec write i lines = function
    | [] -> Ok (List.rev lines)
    | entries :: rest -> (
      let bytes = Log_io.to_string { log with Log.entries } in
      match store.Store.write (seg_path base i) bytes with
      | Ok () ->
        let line =
          Printf.sprintf "segment %04d %d %s" i (List.length entries)
            (Log_io.crc_hex bytes)
        in
        write (i + 1) (line :: lines) rest
      | Error e -> Error e)
  in
  match write 0 [] parts with
  | Error e -> Error e
  | Ok lines ->
    Store.atomic_write store (manifest_path base)
      (Manifest.to_string ~magic log
         (lines @ [ Printf.sprintf "end %d" (List.length lines) ]))

let save ?segment_entries base (log : Log.t) =
  match save_via (Store.default ()) ?segment_entries base log with
  | Ok () -> ()
  | Error e -> raise (Sys_error (Store.error_to_string e))

(* ------------------------------------------------------------------ *)
(* recovery *)

type recovery = {
  segments_found : int;
  segments_complete : int;
  entries : int;
  tail_entries : int;
  complete : bool;
}

let is_damaged r = not r.complete

let pp_recovery ppf r =
  if r.complete then
    Format.fprintf ppf "segmented log intact: %d entries in %d segment(s)"
      r.entries r.segments_found
  else
    Format.fprintf ppf
      "recovered %d entries (%d complete segment(s)%s) from a damaged \
       recording of %d segment file(s)"
      r.entries r.segments_complete
      (if r.tail_entries > 0 then
         Printf.sprintf " + %d salvaged tail entries" r.tail_entries
       else "")
      r.segments_found

(* The bytes before 1-based line [n]. *)
let before_line s n =
  let rec go pos k =
    if k = 0 then pos else go (String.index_from s pos '\n' + 1) (k - 1)
  in
  String.sub s 0 (go 0 (n - 1))

type segment = { bytes : string; log : Log.t option; sealed : bool }

(* The prefix rule: a segment contributes the entries before its first
   bad line, and is sealed only when nothing was bad and its trailer
   agrees. Salvage skips a bad line and reads on, so a damaged segment
   is read again cut just before the first line Salvage reported. *)
let read_segment path =
  let bytes = try Log_io.read_file path with Sys_error _ -> "" in
  let salvage s =
    Result.to_option (Log_io.of_string_report ~mode:Log_io.Salvage s)
  in
  match salvage bytes with
  | None -> { bytes; log = None; sealed = false }
  | Some (log, d) -> (
    match d.Log_io.corrupt_lines with
    | [] -> { bytes; log = Some log; sealed = not d.Log_io.truncated }
    | (n, _, _) :: _ ->
      let log = Option.map fst (salvage (before_line bytes n)) in
      { bytes; log; sealed = false })

(* Segments in order from 0: every sealed one whole, and the first
   missing or unsealed one ends the walk — the save is sequential, so
   nothing after a torn segment belongs to this recording. *)
let walk base =
  let rec go i acc =
    let path = seg_path base i in
    if not (Sys.file_exists path) then List.rev acc
    else
      let s = read_segment path in
      if s.sealed then go (i + 1) (s :: acc) else List.rev (s :: acc)
  in
  go 0 []

let entries_of s = match s.log with Some l -> l.Log.entries | None -> []

(* The manifest's segment lines when it can be trusted: no corrupt line,
   every payload understood, and a trailer counting the segment lines. *)
let listed (m : Manifest.t) =
  let rec go segs = function
    | [ last ] -> (
      match String.split_on_char ' ' last with
      | [ "end"; n ] when int_of_string_opt n = Some (List.length segs) ->
        Some (List.rev segs)
      | _ -> None)
    | line :: rest -> (
      match String.split_on_char ' ' line with
      | [ "segment"; i; n; crc ] -> (
        match (int_of_string_opt i, int_of_string_opt n) with
        | Some i, Some n when i = List.length segs -> go ((n, crc) :: segs) rest
        | _ -> None)
      | _ -> None)
    | [] -> None
  in
  if m.Manifest.corrupt = 0 then go [] m.Manifest.payloads else None

let of_header (h : Log_io.header) entries =
  Log.make ?faults:h.Log_io.h_faults ~recorder:h.Log_io.h_recorder ~entries
    ~base_steps:h.Log_io.h_base_steps ~failure:h.Log_io.h_failure ()

let load base =
  let manifest = Manifest.load ~magic (manifest_path base) in
  let segs = walk base in
  let complete =
    match Option.bind manifest listed with
    | Some expected ->
      List.length expected = List.length segs
      && List.for_all2
           (fun (n, crc) s ->
             s.sealed
             && List.length (entries_of s) = n
             && String.equal crc (Log_io.crc_hex s.bytes))
           expected segs
    | None -> false
  in
  match (manifest, segs) with
  | None, [] -> Error (Printf.sprintf "no segmented recording at %s" base)
  | _ ->
    let entries = List.concat_map entries_of segs in
    (* the header: segment 0's as far as its prefix reaches (on a
       complete load it matches the manifest's byte CRC), else the
       manifest lines that verified *)
    let log =
      match (segs, manifest) with
      | { log = Some l; _ } :: _, _ -> { l with Log.entries }
      | _, Some m -> of_header m.Manifest.header entries
      | _, None -> of_header (Log_io.fresh_header ()) entries
    in
    (* a damaged load missing the failure takes it from a recovered
       [faildesc] entry *)
    let log =
      if complete || log.Log.failure <> None then log
      else
        {
          log with
          Log.failure =
            List.find_map
              (function Log.Failure_desc f -> Some f | _ -> None)
              entries;
        }
    in
    let tail =
      match List.rev segs with
      | s :: _ when not s.sealed -> entries_of s
      | _ -> []
    in
    Ok
      ( log,
        {
          segments_found = List.length segs;
          segments_complete = List.length (List.filter (fun s -> s.sealed) segs);
          entries = List.length entries;
          tail_entries = List.length tail;
          complete;
        } )
