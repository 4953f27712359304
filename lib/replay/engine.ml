open Mvm

(* Shared machinery of the enumeration engines in Search: the decision
   odometers, instrumented worlds, and single-attempt executors. One
   attempt here is a pure function of its (prefix, budget, seen-set). *)

(* ------------------------------------------------------------------ *)
(* seen-set: digests of already-covered scheduling states *)

module Seen = struct
  type t = (int, unit) Hashtbl.t

  let create () : t = Hashtbl.create 256
  let mem = Hashtbl.mem
  let add t d = Hashtbl.replace t d ()

  (* snapshot for checkpointing; replant with [add] on resume *)
  let elements t =
    List.sort compare (Hashtbl.fold (fun d () acc -> d :: acc) t [])
end

(* ------------------------------------------------------------------ *)
(* odometer *)

let advance prefix sizes =
  (* little-endian counting over the decision digits: bump the shallowest
     digit with room and reset everything below it. Varying the earliest
     decisions first matters for schedule search — races live in the early
     interleaving, and a deepest-first order would only permute the tail
     of the run within any realistic budget. *)
  let sizes = Array.of_list sizes in
  let n = Array.length sizes in
  let digits = Array.make (max n 0) 0 in
  Array.blit prefix 0 digits 0 (min (Array.length prefix) n);
  let rec bump i =
    if i >= n then None
    else if digits.(i) + 1 < sizes.(i) then begin
      digits.(i) <- digits.(i) + 1;
      Array.fill digits 0 i 0;
      Some digits
    end
    else bump (i + 1)
  in
  bump 0

(* ------------------------------------------------------------------ *)
(* attempt results *)

type early = Ran | Early_pruned | Early_clamped

type probe = {
  result : Interp.result;
  sizes : int list;
      (* discovered digit fan-outs, shallowest first, already truncated
         for the pruned/clamped cases so [advance] skips the dead branch *)
  early : early;
}

let reason_pruned = "pruned: scheduling state already covered"
let reason_clamped = "clamped: decision fan-out shrank below prefix digit"

(* ------------------------------------------------------------------ *)
(* input odometer: the k-th input of the run takes the domain value at
   the position given by the prefix (0 beyond it); the sizes of visited
   domains are collected so the caller can advance the odometer. *)

let odometer_world prefix sizes =
  let base = World.round_robin () in
  let k = ref 0 in
  {
    base with
    World.name = "enumerate-inputs";
    pick_input =
      (fun ~step:_ ~tid:_ ~chan:_ ~domain ->
        let n = max 1 (List.length domain) in
        let pos = if !k < Array.length prefix then prefix.(!k) else 0 in
        sizes := n :: !sizes;
        incr k;
        match List.nth_opt domain pos with
        | Some v -> v
        | None -> ( match domain with [] -> Value.unit | v :: _ -> v));
  }

(* ------------------------------------------------------------------ *)
(* execution context (the arena): compile the program once, then reuse
   the interpreter exec state, the pruner's hash tables and a warm trace
   capacity across every attempt of one search. *)

type ctx = {
  ctx_compiled : Interp.compiled;
  ctx_state : Interp.state;
  ctx_hash : State_hash.t;
  mutable ctx_cap : int;
      (* last attempt's event count: the next trace starts at the size
         the previous one ended with, so appends almost never regrow *)
}

let make_ctx labeled =
  let compiled = Interp.compile labeled in
  {
    ctx_compiled = compiled;
    ctx_state = Interp.make_state compiled;
    ctx_hash = State_hash.create ();
    ctx_cap = 0;
  }

(* one attempt's interpreter run: the AST walker without a ctx, the
   compiled hot path with one. Explicit [trace_capacity] wins over the
   ctx's warm capacity. *)
let run_attempt ?ctx ?(monitors = []) ~max_steps ~abort ?cancel
    ?trace_capacity labeled world =
  match ctx with
  | None ->
    Interp.run ~max_steps ~monitors ~abort ?cancel ?trace_capacity labeled
      world
  | Some cx ->
    let trace_capacity =
      match trace_capacity with
      | Some _ as c -> c
      | None -> if cx.ctx_cap > 0 then Some cx.ctx_cap else None
    in
    let r =
      Interp.run_compiled ~max_steps ~monitors ~abort ?cancel ?trace_capacity
        ~state:cx.ctx_state cx.ctx_compiled world
    in
    cx.ctx_cap <- Trace.length r.Interp.trace;
    r

let exec_inputs ?ctx ?trace_capacity ?wall ~budget:(max_steps : int) ~prefix
    labeled =
  let sizes = ref [] in
  let world = odometer_world prefix sizes in
  let result =
    run_attempt ?ctx ~max_steps
      ~abort:(fun _ -> None)
      ?cancel:wall ?trace_capacity labeled world
  in
  { result; sizes = List.rev !sizes; early = Ran }

(* ------------------------------------------------------------------ *)
(* schedule odometer: decision k picks the prefix[k]-th candidate (sorted
   by tid); past the prefix, the first candidate. [sizes] collects the
   fan-out of every decision point of the run so [advance] can bump the
   shallowest digit with room. Decisions with a single candidate are not
   digits: they cannot be varied.

   Two instrumentation duties ride along:

   - clamping: if a prefix digit meets a smaller fan-out than when the
     prefix was generated, the schedule it denotes duplicates the one
     with digit [n-1]. The run is cut short and the digit's size is
     recorded as the *actual* fan-out, so [advance] carries past it
     instead of re-exploring the same schedule under two prefixes.

   - pruning: at the first decision past the prefix the canonical state
     digest is compared against [seen]; a hit means another explored
     subtree already covers every continuation of this state, so the run
     is cut short and its sizes end at the prefix — the whole subtree is
     skipped. On a miss, the digest of every post-prefix decision is
     planted into [seen]: those are the states this run's subtree now
     covers. *)

(* The interpreter builds its candidate list in ascending-tid order (both
   the AST walker and the compiled runner), so decisions index the
   candidate list directly — the old List.map |> List.sort here (and even
   a closure-free tid-list copy) was a measurable per-step allocation on
   schedule-heavy searches. *)
let nth_tid cands pos = (List.nth cands pos).World.tid

let schedule_world ?seen ?hash ~prefix ~sizes ~stop () =
  let k = ref 0 in
  let hash =
    match hash with
    | Some h ->
      State_hash.reset h;
      h
    | None -> State_hash.create ()
  in
  let plen = Array.length prefix in
  {
    World.name = "dfs-schedules";
    pick_thread =
      (fun ~step:_ cands ->
        match cands with
        | [ only ] -> only.World.tid
        | _ ->
          let n = List.length cands in
          let i = !k in
          incr k;
          if i < plen then begin
            sizes := n :: !sizes;
            let pos = prefix.(i) in
            if pos >= n then begin
              stop := Some (Early_clamped, reason_clamped);
              nth_tid cands 0
            end
            else nth_tid cands pos
          end
          else begin
            (match seen with
            | None -> sizes := n :: !sizes
            | Some seen ->
              let d = State_hash.digest hash in
              if i = plen && Seen.mem seen d then
                stop := Some (Early_pruned, reason_pruned)
              else begin
                Seen.add seen d;
                sizes := n :: !sizes
              end);
            nth_tid cands 0
          end);
    pick_input =
      (fun ~step:_ ~tid:_ ~chan:_ ~domain ->
        match domain with [] -> Value.unit | v :: _ -> v);
    on_read = (fun ~step:_ ~tid:_ ~sid:_ ~region:_ ~index:_ ~actual -> actual);
    on_recv = (fun ~step:_ ~tid:_ ~sid:_ ~chan:_ ~actual -> actual);
    on_try_recv = (fun ~step:_ ~tid:_ ~sid:_ ~chan:_ -> World.Default);
    passive_try_recv = true;
  }
  |> fun w -> (w, hash)

let exec_schedule ?ctx ?trace_capacity ?seen ?wall ~budget:(max_steps : int)
    ~prefix labeled =
  let sizes = ref [] in
  let stop = ref None in
  let world, hash =
    schedule_world ?seen
      ?hash:(Option.map (fun cx -> cx.ctx_hash) ctx)
      ~prefix ~sizes ~stop ()
  in
  let monitors =
    match seen with None -> [] | Some _ -> [ State_hash.feed hash ]
  in
  let result =
    run_attempt ?ctx ~monitors ~max_steps
      ~abort:(fun _ -> Option.map snd !stop)
      ?cancel:wall ?trace_capacity labeled world
  in
  let early = match !stop with Some (e, _) -> e | None -> Ran in
  { result; sizes = List.rev !sizes; early }

(* ------------------------------------------------------------------ *)
(* classification: a clamped or pruned probe is not an attempt *)

type verdict =
  | Attempt of Interp.result * int list  (** judge it; advance with sizes *)
  | Skipped of { steps : int; sizes : int list }
      (** pruned or clamped: uncounted, advance with the truncated sizes *)

let classify probe =
  match probe.early with
  | Early_clamped | Early_pruned ->
    Skipped { steps = probe.result.Interp.steps; sizes = probe.sizes }
  | Ran -> Attempt (probe.result, probe.sizes)
