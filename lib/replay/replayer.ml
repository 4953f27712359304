open Mvm
open Ddet_record

type outcome = {
  model : string;
  result : Interp.result option;
  partial : Search.partial option;
  attempts : int;
  total_steps : int;
  deadline_hit : bool;
  incidents : Search.incident list;
}

let of_search model (o : Search.outcome) =
  {
    model;
    result = o.Search.result;
    partial = o.Search.partial;
    attempts = o.Search.stats.attempts;
    total_steps = o.Search.stats.total_steps;
    deadline_hit = o.Search.stats.deadline_hit;
    incidents = o.Search.stats.incidents;
  }

(* The CLI's exit-code contract, kept in the library so it can be tested
   without forking the binary:
     0  the failure was reproduced (full-fidelity replay)
     3  budget exhausted, degraded to a partial candidate (DF 1/n)
     4  the log arrived damaged and was salvaged (replay is best-effort,
        whatever its outcome short of success)
     5  nothing to show: deadline or budget ran out with no candidate *)
let exit_ok = 0
let exit_partial = 3
let exit_salvaged = 4
let exit_deadline = 5

let exit_code ?(damaged = false) o =
  match o.result with
  | Some _ -> if damaged then exit_salvaged else exit_ok
  | None ->
    if damaged then exit_salvaged
    else if o.deadline_hit then exit_deadline
    else if o.partial <> None then exit_partial
    else exit_deadline

(* The recorded run may have executed under a fault plan; replay must
   re-create that adversarial environment or the schedule and deliveries
   diverge immediately. The plan ships inside the log, and its decisions
   are pure hashes of (seed, step, ...), so wrapping the replay world in
   the same plan reproduces the same faults at the same steps. Oracles
   that force poll outcomes from the log themselves (value and sync
   determinism) must NOT be wrapped: their forced decisions already embed
   the recorded faults, and injecting on top would corrupt them. *)
let env_world (log : Log.t) w =
  match log.Log.faults with None -> w | Some plan -> Fault.inject plan w

let perfect labeled ~spec log =
  let handle = Oracle.perfect log in
  let world = env_world log handle.Oracle.world in
  let r = Interp.run ~abort:handle.Oracle.abort labeled world in
  let r = Spec.apply spec r in
  let ok = (not (handle.Oracle.violated ())) && Constraints.failure_matches log r in
  {
    model = "perfect";
    result = (if ok then Some r else None);
    partial =
      (if ok then None
       else
         Some
           {
             Search.best = r;
             closeness = Constraints.closeness log r;
             attempt = 1;
           });
    attempts = 1;
    total_steps = r.steps;
    deadline_hit = false;
    incidents = [];
  }

let small_budget =
  {
    Search.max_attempts = 10;
    max_steps_per_attempt = 100_000;
    base_seed = 1;
    deadline_s = None;
  }

let value_det ?(budget = small_budget) ?checkpoint ?resume labeled ~spec log =
  Search.random_restarts ?checkpoint ?resume budget
    ~score:(Constraints.closeness log)
    ~make:(fun ~attempt ->
      let handle = Oracle.value_det ~seed:(budget.base_seed + attempt) log in
      (handle.Oracle.world, Some handle.Oracle.abort))
    ~spec
    ~accept:(Constraints.failure_matches log)
    labeled
  |> of_search "value"

let output_det ?(budget = Search.default_budget) ?(exhaustive = true)
    ?checkpoint ?resume labeled ~spec log =
  let accept = Constraints.outputs_match log in
  let score = Constraints.closeness log in
  let o =
    if exhaustive then
      Search.enumerate_inputs ?checkpoint ?resume budget ~score ~spec ~accept labeled
    else
      Search.random_restarts ?checkpoint ?resume budget ~score
        ~make:(fun ~attempt ->
          ( env_world log (World.random ~seed:(budget.base_seed + attempt)),
            Some (Constraints.output_prefix_abort log) ))
        ~spec ~accept labeled
  in
  of_search "output" o

let failure_det ?(budget = Search.default_budget) ?checkpoint ?resume
    ?priority labeled ~spec log =
  let attempt_world =
    match priority with
    | None -> fun ~seed -> World.random ~seed
    | Some p ->
      let prefer = Search.site_prefer p in
      fun ~seed -> World.prioritized ~seed ~prefer
  in
  Search.random_restarts ?checkpoint ?resume budget
    ~score:(Constraints.closeness log)
    ~make:(fun ~attempt ->
      (env_world log (attempt_world ~seed:(budget.base_seed + attempt)), None))
    ~spec
    ~accept:(Constraints.failure_matches log)
    labeled
  |> of_search "failure"

let sync_det ?(budget = Search.default_budget) ?checkpoint ?resume labeled
    ~spec log =
  Search.random_restarts ?checkpoint ?resume budget
    ~score:(Constraints.closeness log)
    ~make:(fun ~attempt ->
      let handle = Oracle.sync ~seed:(budget.base_seed + attempt) log in
      ( handle.Oracle.world,
        Some
          (Constraints.both handle.Oracle.abort
             (Constraints.output_prefix_abort log)) ))
    ~spec
    ~accept:(Constraints.outputs_match log)
    labeled
  |> of_search "sync"

let rcse ?(budget = Search.default_budget) ?(strict = true)
    ?checkpoint ?resume labeled ~spec log =
  Search.random_restarts ?checkpoint ?resume budget
    ~score:(Constraints.closeness log)
    ~make:(fun ~attempt ->
      let handle = Oracle.rcse ~strict ~seed:(budget.base_seed + attempt) log in
      (env_world log handle.Oracle.world, Some handle.Oracle.abort))
    ~spec
    ~accept:(Constraints.failure_matches log)
    labeled
  |> of_search "rcse"

(* A governed log has windows where the governor dialled fidelity down
   and entries are missing by design. The deterministic oracles (value,
   sync) would misalign against those gaps — their forced decisions
   assume a complete stream — so governed logs replay by search: random
   restarts under the recorded fault plan, accepted when the original
   failure reproduces, closeness-scored so budget exhaustion still
   yields the best partial. The degraded windows are exactly the search
   regions; everything outside them is pinned by the surviving entries
   through the closeness score. *)
let governed ?(budget = Search.default_budget) ?checkpoint ?resume labeled
    ~spec log =
  Search.random_restarts ?checkpoint ?resume budget
    ~score:(Constraints.closeness log)
    ~make:(fun ~attempt ->
      (env_world log (World.random ~seed:(budget.base_seed + attempt)), None))
    ~spec
    ~accept:(Constraints.failure_matches log)
    labeled
  |> of_search "governed"

(* Partial-evidence replay over a stitched shard merge. When the stitch
   is complete this is never the right driver (use the model's own); when
   evidence is missing, the merged order and surviving inputs steer each
   attempt through Oracle.partial, the lost nodes' threads and inputs
   are searched by random restarts under the recorded fault plan, and
   acceptance is the recorded failure — reproduced from partial
   evidence. *)
let stitched ?(budget = Search.default_budget) ?checkpoint ?resume ?steer
    labeled ~spec (st : Stitch.t) =
  let log = st.Stitch.log in
  Search.random_restarts ?checkpoint ?resume budget
    ~score:(Constraints.closeness log)
    ~make:(fun ~attempt ->
      (* the first attempt replays the surviving projection unbiased —
         identical to the uninformed search — so steering can only speed
         up later shots, never cost a first-try reproduction *)
      let steer = if attempt <= 2 then None else steer in
      let handle =
        Oracle.partial ?steer ~seed:(budget.base_seed + attempt) log
      in
      (env_world log handle.Oracle.world, Some handle.Oracle.abort))
    ~spec
    ~accept:(Constraints.failure_matches log)
    labeled
  |> of_search "stitched"

let pp_outcome ppf o =
  Format.fprintf ppf "%s: %s after %d attempt(s), %d inference steps" o.model
    (match o.result with Some _ -> "replayed" | None -> "NOT replayed")
    o.attempts o.total_steps;
  (match o.result, o.partial with
  | None, Some p ->
    Format.fprintf ppf "; best partial candidate: closeness %.2f (attempt %d)"
      p.Search.closeness p.Search.attempt
  | _ -> ());
  if o.deadline_hit then Format.fprintf ppf "; deadline hit";
  match o.incidents with
  | [] -> ()
  | incs ->
    Format.fprintf ppf "; %d worker incident(s):" (List.length incs);
    List.iter (fun i -> Format.fprintf ppf "@ [%a]" Search.pp_incident i) incs
