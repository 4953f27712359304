(* Layer self times from one session's trace ring. Only the spans the
   benchmark opens are layers; spans the library opens itself (named
   "session.*") are transparent, so their time stays with the enclosing
   benchmark span. A layer's self time is its span minus its child
   layer spans. *)

module Tracer = Ddet_obs.Tracer

let is_layer name =
  not (String.length name >= 8 && String.sub name 0 8 = "session.")

type frame = { name : string; start : int64; mutable child : int64 }

(* [self_times t] is (layer, self ns) summed over the ring, or [Error]
   when the ring holds an unbalanced span (overflow or a bug). *)
let self_times (t : Tracer.t) =
  let acc = Hashtbl.create 16 in
  let add name ns =
    Hashtbl.replace acc name
      (Int64.add ns (Option.value ~default:0L (Hashtbl.find_opt acc name)))
  in
  let rec walk stack = function
    | [] -> if stack = [] then Ok acc else Error "unclosed span"
    | (e : Tracer.ev) :: rest when not (is_layer e.name) -> walk stack rest
    | e :: rest -> (
      match e.kind with
      | Tracer.I -> walk stack rest
      | Tracer.B -> walk ({ name = e.name; start = e.ts; child = 0L } :: stack) rest
      | Tracer.E -> (
        match stack with
        | f :: up when String.equal f.name e.name ->
          let dur = Int64.sub e.ts f.start in
          add f.name (Int64.sub dur f.child);
          (match up with p :: _ -> p.child <- Int64.add p.child dur | [] -> ());
          walk up rest
        | _ -> Error ("unbalanced span " ^ e.name)))
  in
  walk [] (Tracer.events t)
