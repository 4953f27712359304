open Mvm
open Ddet_metrics
open Ddet_replay

(* the scan's frontier persists under the "scan" checkpoint kind, with
   [from] as its identity check *)
let scan_engine = "scan"

let check_scan_resume ~from = function
  | None -> None
  | Some (ck : Checkpoint.t) ->
    if not (String.equal ck.Checkpoint.engine scan_engine) then
      invalid_arg
        (Printf.sprintf
           "first_success: cannot resume a %S checkpoint in a seed scan"
           ck.Checkpoint.engine);
    if ck.Checkpoint.base_seed <> from then
      invalid_arg
        (Printf.sprintf
           "first_success: checkpoint scan origin %d does not match from=%d"
           ck.Checkpoint.base_seed from);
    Some ck

let first_success ?checkpoint ?resume ~from ~count ~f () =
  let resume = check_scan_resume ~from resume in
  let last = from + count - 1 in
  let frontier i () =
    {
      Checkpoint.engine = scan_engine;
      base_seed = from;
      attempt = i;
      total_steps = 0;
      pruned = 0;
      prefix = None;
      best = None;
      seen = [];
    }
  in
  let rec go i =
    if i > last then begin
      Option.iter (fun s -> Checkpoint.flush s (frontier last)) checkpoint;
      None
    end
    else
      (* a raising probe poisons only its seed, not the scan *)
      match (try f i with _ -> None) with
      | Some v -> Some (i, v)
      | None ->
        Option.iter (fun s -> Checkpoint.tick s (frontier i)) checkpoint;
        go (i + 1)
  in
  go (match resume with Some c -> c.Checkpoint.attempt + 1 | None -> from)

let find_failing_seed ?cause ?(exclusive = false) ?(from = 1) ?(max_seeds = 500)
    ?faults ?checkpoint ?resume (app : App.t) =
  let matches r =
    match Root_cause.observed app.App.catalog r with
    | [] -> false
    | primary :: _ as all -> (
      ((not exclusive) || List.length all = 1)
      &&
      match cause with
      | None -> true
      | Some id -> String.equal primary.Root_cause.id id)
  in
  first_success ?checkpoint ?resume ~from ~count:max_seeds
    ~f:(fun seed ->
      let r = App.production_run ?faults app ~seed in
      if matches r then Some r else None)
    ()

let training_runs ?(n = 5) ?(from = 1000) (app : App.t) =
  List.init n (fun k -> App.production_run app ~seed:(from + k))

let failure_rate ?(n = 100) ?(from = 1) ?faults (app : App.t) =
  let failures =
    List.init n (fun k ->
        match (App.production_run ?faults app ~seed:(from + k)).Interp.failure with
        | Some _ -> 1
        | None -> 0)
  in
  float_of_int (List.fold_left ( + ) 0 failures) /. float_of_int (max 1 n)
