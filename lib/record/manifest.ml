(* The CRC-per-line manifest codec shared by the multi-file evidence sets
   (segment manifests and causal manifests). A manifest is a magic line
   followed by "<crc8hex> <payload>" lines: the log header first, then
   the caller's payloads. Every line carries its own checksum, so a torn
   or bit-rotted manifest degrades to the lines that still verify. *)

let to_string ~magic (log : Log.t) payloads =
  let b = Buffer.create 1024 in
  Buffer.add_string b magic;
  Buffer.add_char b '\n';
  let line s =
    Buffer.add_string b (Log_io.crc_hex s);
    Buffer.add_char b ' ';
    Buffer.add_string b s;
    Buffer.add_char b '\n'
  in
  String.split_on_char '\n' (Log_io.header_lines log)
  |> List.iter (fun l -> if l <> "" then line l);
  List.iter line payloads;
  Buffer.contents b

type t = { header : Log_io.header; payloads : string list; corrupt : int }

let of_string ~magic content =
  match String.split_on_char '\n' content with
  | m :: rest when String.equal m magic ->
    let header = Log_io.fresh_header () in
    let payloads, corrupt =
      List.fold_left
        (fun (payloads, corrupt) l ->
          if l = "" then (payloads, corrupt)
          else
            match Log_io.split_crc_line l with
            | Some (crc, text) when String.equal crc (Log_io.crc_hex text) ->
              if try Log_io.parse_header_line header text with _ -> false
              then (payloads, corrupt)
              else (text :: payloads, corrupt)
            | Some _ | None -> (payloads, corrupt + 1))
        ([], 0) rest
    in
    Some { header; payloads = List.rev payloads; corrupt }
  | _ -> None

let load ~magic path =
  if not (Sys.file_exists path) then None
  else
    match Log_io.read_file path with
    | content -> of_string ~magic content
    | exception Sys_error _ -> None
