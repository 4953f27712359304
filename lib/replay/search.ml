open Mvm

type budget = {
  max_attempts : int;
  max_steps_per_attempt : int;
  base_seed : int;
  deadline_s : float option;
}

let default_budget =
  {
    max_attempts = 2_000;
    max_steps_per_attempt = 50_000;
    base_seed = 1;
    deadline_s = None;
  }

type incident = {
  at_attempt : int;
  error : string;
  retries : int;
  poisoned : bool;
}

let pp_incident ppf i =
  Format.fprintf ppf "attempt %d: %s (%s after %d retr%s)" i.at_attempt
    i.error
    (if i.poisoned then "poisoned" else "requeued")
    i.retries
    (if i.retries = 1 then "y" else "ies")

type stats = {
  attempts : int;
  total_steps : int;
  pruned : int;
  success : bool;
  deadline_hit : bool;
  incidents : incident list;
}

type partial = { best : Interp.result; closeness : float; attempt : int }

type outcome = {
  result : Interp.result option;
  partial : partial option;
  stats : stats;
}

(* ------------------------------------------------------------------ *)
(* deadlines: the budget carries a relative wall-clock allowance; each
   engine converts it to an absolute instant once at start. Between
   attempts the check is a plain comparison; inside an attempt it rides
   the interpreter's coarse [cancel] poll (every 128 steps), so a single
   long run cannot blow through the deadline unchecked.

   The instant is monotonic (Obs.Clock, ns), not gettimeofday: an NTP
   step or a suspend would otherwise fire every pending deadline at
   once — or starve them forever if the clock stepped back. *)

let deadline_reason = "deadline"

let deadline_of budget =
  Option.map
    (fun s -> Int64.add (Ddet_obs.Clock.now ()) (Ddet_obs.Clock.ns_of_s s))
    budget.deadline_s

let deadline_passed = function
  | None -> false
  | Some t -> Int64.compare (Ddet_obs.Clock.now ()) t >= 0

let wall_cancel = function
  | None -> None
  | Some t ->
    Some
      (fun () ->
        if Int64.compare (Ddet_obs.Clock.now ()) t >= 0 then
          Some deadline_reason
        else None)

(* ------------------------------------------------------------------ *)
(* Best-effort tracking: when no attempt is accepted, the outcome still
   carries the highest-scoring candidate seen, so an exhausted budget
   degrades to a Partial reproduction instead of nothing.

   Checkpoints cannot afford to serialise the candidate's full
   Interp.result, so the tracker works in terms of a rerun key (the
   attempt index for seeded restarts, the decision prefix for odometer
   engines): a best candidate restored from a checkpoint is held as
   (closeness, attempt, key) and only rematerialised — by
   deterministically re-executing that one attempt — if the search ends
   without a hit. Ties keep the earlier candidate, which is also why a
   resumed tracker seeded with the stored best stays faithful: the stored
   candidate was the earliest of its score. *)

type ('k, 'r) cell =
  | B_none
  | B_live of 'r * 'k  (* a partial we have in memory, plus its key *)
  | B_stored of float * int * 'k  (* restored from a checkpoint *)

let track_best (type k) ?stored ~(rerun : k -> Interp.result) score =
  let best : (k, partial) cell ref =
    ref
      (match stored with
      | None -> B_none
      | Some (c, a, key) -> B_stored (c, a, key))
  in
  let note attempt key r =
    let c = score r in
    let keep =
      match !best with
      | B_none -> false
      | B_live (p, _) -> p.closeness >= c
      | B_stored (sc, _, _) -> sc >= c
    in
    if not keep then best := B_live ({ best = r; closeness = c; attempt }, key)
  in
  let get () =
    match !best with
    | B_none -> None
    | B_live (p, _) -> Some p
    | B_stored (c, a, key) ->
      Some { best = rerun key; closeness = c; attempt = a }
  in
  let peek () =
    match !best with
    | B_none -> None
    | B_live (p, key) -> Some (p.closeness, p.attempt, key)
    | B_stored (c, a, key) -> Some (c, a, key)
  in
  (note, get, peek)

(* every engine funnels its outcome through these two constructors, so
   this is the one place the tracer learns what a search cost *)
let observe (st : stats) =
  let module T = Ddet_obs.Tracer in
  match T.current () with
  | None -> ()
  | Some t ->
    T.bump (Some (T.counter t "search.attempts")) st.attempts;
    T.bump (Some (T.counter t "search.steps")) st.total_steps;
    T.bump (Some (T.counter t "search.pruned")) st.pruned;
    T.bump (Some (T.counter t "search.incidents")) (List.length st.incidents);
    if st.deadline_hit then T.bump (Some (T.counter t "search.deadline_hits")) 1;
    T.instant t "search.done"
      ~args:
        [
          ("attempts", T.Count st.attempts);
          ("accepted", T.Count (if st.success then 1 else 0));
        ]

let exhausted ~attempts ~total_steps ?(pruned = 0) ?(deadline_hit = false)
    ?(incidents = []) best =
  let stats =
    { attempts; total_steps; pruned; success = false; deadline_hit; incidents }
  in
  observe stats;
  { result = None; partial = best (); stats }

let accepted ~attempts ~total_steps ?(pruned = 0) ?(deadline_hit = false)
    ?(incidents = []) r =
  let stats =
    { attempts; total_steps; pruned; success = true; deadline_hit; incidents }
  in
  observe stats;
  { result = Some r; partial = None; stats }

let no_score : Interp.result -> float = fun _ -> 0.

(* ------------------------------------------------------------------ *)
(* site priority: a static analysis hands the search a set of suspect
   sids; attempts then use a biased world that prefers scheduling
   threads whose next statement is a suspect site. The hint only moves
   probability mass, never removes schedules (see World.prioritized). *)

type site_priority = { sids : int list }

let site_prefer { sids } =
  let tbl = Hashtbl.create (List.length sids) in
  List.iter (fun s -> Hashtbl.replace tbl s ()) sids;
  fun (c : World.cand) -> Hashtbl.mem tbl c.World.sid

let priority_world priority ~seed =
  World.prioritized ~seed ~prefer:(site_prefer priority)

(* ------------------------------------------------------------------ *)
(* supervision: one attempt's execution may raise (a hostile world
   callback, a resource blip). The search survives it: the attempt is
   retried a bounded number of times, then poisoned — recorded as an
   incident and skipped — instead of tearing the whole search down. *)

let max_job_retries = 1

let supervised ~attempt incidents f =
  let rec go ~retries ~last_error =
    match f () with
    | v ->
      (match last_error with
      | Some error ->
        incidents :=
          { at_attempt = attempt; error; retries; poisoned = false }
          :: !incidents
      | None -> ());
      Some v
    | exception e ->
      let error = Printexc.to_string e in
      if retries < max_job_retries then
        go ~retries:(retries + 1) ~last_error:(Some error)
      else begin
        incidents :=
          { at_attempt = attempt; error; retries; poisoned = true }
          :: !incidents;
        None
      end
  in
  go ~retries:0 ~last_error:None

(* ------------------------------------------------------------------ *)
(* checkpointing plumbing shared by the engines *)

let check_resume ~engine budget = function
  | None -> None
  | Some (ck : Checkpoint.t) ->
    if not (String.equal ck.Checkpoint.engine engine) then
      invalid_arg
        (Printf.sprintf
           "Search: cannot resume a %S checkpoint with the %S engine"
           ck.Checkpoint.engine engine);
    if ck.Checkpoint.base_seed <> budget.base_seed then
      invalid_arg
        (Printf.sprintf
           "Search: checkpoint base seed %d does not match budget base seed \
            %d — a resumed search must re-walk the same attempt sequence"
           ck.Checkpoint.base_seed budget.base_seed);
    Some ck

(* the best-candidate key is the attempt index for seeded restarts and
   the decision prefix for the odometer engines, hence two monomorphic
   codecs between the tracker's peek and the checkpoint record *)

let ckpt_best_attempt peek =
  match peek () with
  | None -> None
  | Some (c, a, (_ : int)) ->
    Some { Checkpoint.b_closeness = c; b_attempt = a; b_prefix = None }

let ckpt_best_prefix peek =
  match peek () with
  | None -> None
  | Some (c, a, p) ->
    Some { Checkpoint.b_closeness = c; b_attempt = a; b_prefix = Some p }

let stored_attempt = function
  | Some { Checkpoint.best = Some b; _ } ->
    Some (b.Checkpoint.b_closeness, b.b_attempt, b.Checkpoint.b_attempt)
  | _ -> None

let stored_prefix = function
  | Some { Checkpoint.best = Some b; _ } ->
    Option.map
      (fun p -> (b.Checkpoint.b_closeness, b.Checkpoint.b_attempt, p))
      b.Checkpoint.b_prefix
  | _ -> None

(* ------------------------------------------------------------------ *)
(* engines *)

let random_restarts ?(score = no_score) ?checkpoint ?resume budget ~make ~spec
    ~accept labeled =
  let resume = check_resume ~engine:"restarts" budget resume in
  let total_steps =
    ref (match resume with Some c -> c.Checkpoint.total_steps | None -> 0)
  in
  let incidents = ref [] in
  let deadline = deadline_of budget in
  (* the search's arena: program compiled once, interpreter state, hash
     tables and warm trace capacity reused across every attempt *)
  let ctx = Engine.make_ctx labeled in
  let rerun attempt =
    let world, abort = make ~attempt in
    let r =
      Interp.run ~max_steps:budget.max_steps_per_attempt ?abort labeled world
    in
    Spec.apply spec r
  in
  let note, best, peek =
    track_best ?stored:(stored_attempt resume) ~rerun score
  in
  let frontier attempt () =
    {
      Checkpoint.engine = "restarts";
      base_seed = budget.base_seed;
      attempt;
      total_steps = !total_steps;
      pruned = 0;
      prefix = None;
      best = ckpt_best_attempt peek;
      seen = [];
    }
  in
  let tick attempt =
    Option.iter (fun s -> Checkpoint.tick s (frontier attempt)) checkpoint
  in
  let flush attempt =
    Option.iter (fun s -> Checkpoint.flush s (frontier attempt)) checkpoint
  in
  let fail ~attempts ?deadline_hit () =
    flush attempts;
    exhausted ~attempts ~total_steps:!total_steps ?deadline_hit
      ~incidents:(List.rev !incidents) best
  in
  let exec attempt =
    let world, abort = make ~attempt in
    let abort = match abort with Some a -> a | None -> fun _ -> None in
    Engine.run_attempt ~ctx ~max_steps:budget.max_steps_per_attempt ~abort
      ?cancel:(wall_cancel deadline) labeled world
  in
  let rec go attempt =
    if attempt > budget.max_attempts then fail ~attempts:(attempt - 1) ()
    else if deadline_passed deadline then
      fail ~attempts:(attempt - 1) ~deadline_hit:true ()
    else
      match supervised ~attempt incidents (fun () -> exec attempt) with
      | None ->
        (* poisoned: this attempt is lost, the search is not *)
        tick attempt;
        go (attempt + 1)
      | Some r ->
        total_steps := !total_steps + r.Interp.steps;
        let r = Spec.apply spec r in
        if accept r then
          accepted ~attempts:attempt ~total_steps:!total_steps
            ~incidents:(List.rev !incidents) r
        else begin
          note attempt attempt r;
          tick attempt;
          go (attempt + 1)
        end
  in
  go (match resume with Some c -> c.Checkpoint.attempt + 1 | None -> 1)

(* The two odometer engines share one driver: they differ only in the
   executor that runs a prefix, and in pruning, which only the schedule
   executor does. [exec ~ctx ~seen ~wall prefix] runs one attempt. *)
let odometer ~engine ~exec ~seen ?on_prune ~score ?checkpoint ?resume budget
    ~spec ~accept labeled =
  let resume = check_resume ~engine budget resume in
  (match (seen, resume) with
  | Some s, Some c -> List.iter (Engine.Seen.add s) c.Checkpoint.seen
  | _ -> ());
  let total_steps =
    ref (match resume with Some c -> c.Checkpoint.total_steps | None -> 0)
  in
  let pruned =
    ref (match resume with Some c -> c.Checkpoint.pruned | None -> 0)
  in
  let incidents = ref [] in
  let deadline = deadline_of budget in
  let ctx = Some (Engine.make_ctx labeled) in
  let rerun prefix =
    (* a candidate judged by the search was a completed, unpruned run, so
       re-executing its prefix without pruning reproduces it exactly *)
    Spec.apply spec (exec ~ctx:None ~seen:None ~wall:None prefix).Engine.result
  in
  let note, best, peek =
    track_best ?stored:(stored_prefix resume) ~rerun score
  in
  let frontier attempt prefix () =
    {
      Checkpoint.engine;
      base_seed = budget.base_seed;
      attempt;
      total_steps = !total_steps;
      pruned = !pruned;
      prefix;
      best = ckpt_best_prefix peek;
      seen = (match seen with Some s -> Engine.Seen.elements s | None -> []);
    }
  in
  let tick attempt prefix =
    Option.iter
      (fun s -> Checkpoint.tick s (frontier attempt prefix))
      checkpoint
  in
  let fail ~attempts ~prefix ?deadline_hit () =
    Option.iter
      (fun s -> Checkpoint.flush s (frontier attempts prefix))
      checkpoint;
    exhausted ~attempts ~total_steps:!total_steps ~pruned:!pruned
      ?deadline_hit ~incidents:(List.rev !incidents) best
  in
  let rec go attempt prefix =
    match prefix with
    | None -> fail ~attempts:(attempt - 1) ~prefix:None ()
    | Some prefix ->
      if attempt > budget.max_attempts then
        fail ~attempts:(attempt - 1) ~prefix:(Some prefix) ()
      else if deadline_passed deadline then
        fail ~attempts:(attempt - 1) ~prefix:(Some prefix) ~deadline_hit:true
          ()
      else (
        match
          supervised ~attempt incidents (fun () ->
              exec ~ctx ~seen ~wall:(wall_cancel deadline) prefix)
        with
        | None ->
          (* poisoned: without the probe's sizes the odometer cannot
             advance past this prefix, so the search ends gracefully
             instead of spinning on a doomed attempt *)
          fail ~attempts:attempt ~prefix:(Some prefix) ()
        | Some p -> (
          match Engine.classify p with
          | Engine.Skipped { steps; sizes } ->
            incr pruned;
            total_steps := !total_steps + steps;
            (match on_prune with
            | Some f when p.Engine.early = Engine.Early_pruned -> f ~prefix
            | _ -> ());
            let next = Engine.advance prefix sizes in
            tick (attempt - 1) next;
            go attempt next
          | Engine.Attempt (r, sizes) ->
            total_steps := !total_steps + r.Interp.steps;
            let r = Spec.apply spec r in
            if accept r then
              accepted ~attempts:attempt ~total_steps:!total_steps
                ~pruned:!pruned
                ~incidents:(List.rev !incidents)
                r
            else begin
              note attempt prefix r;
              let next = Engine.advance prefix sizes in
              tick attempt next;
              go (attempt + 1) next
            end))
  in
  match resume with
  | None -> go 1 (Some [||])
  | Some c -> go (c.Checkpoint.attempt + 1) c.Checkpoint.prefix

let enumerate_inputs ?(score = no_score) ?checkpoint ?resume budget ~spec
    ~accept labeled =
  odometer ~engine:"inputs" ~seen:None ~score ?checkpoint ?resume budget ~spec
    ~accept labeled
    ~exec:(fun ~ctx ~seen:_ ~wall prefix ->
      Engine.exec_inputs ?ctx ?wall ~budget:budget.max_steps_per_attempt
        ~prefix labeled)

let dfs_schedules ?(score = no_score) ?(prune = true) ?on_prune ?checkpoint
    ?resume budget ~spec ~accept labeled =
  let seen = if prune then Some (Engine.Seen.create ()) else None in
  odometer ~engine:"dfs" ~seen ?on_prune ~score ?checkpoint ?resume budget
    ~spec ~accept labeled
    ~exec:(fun ~ctx ~seen ~wall prefix ->
      Engine.exec_schedule ?ctx ?seen ?wall
        ~budget:budget.max_steps_per_attempt ~prefix labeled)

let run_schedule_prefix ?(max_steps = 50_000) ~prefix labeled =
  let p = Engine.exec_schedule ~budget:max_steps ~prefix labeled in
  (p.Engine.result, p.Engine.sizes)
