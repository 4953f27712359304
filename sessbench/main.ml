(* Incident-session benchmark.

   One process runs complete debugging sessions through the public API of
   [ddet] in one closed loop. Each incident is a production run (app,
   model, production seed, fault plan) drawn from the workload seed. The
   session records it and persists the evidence through a [Store]; when
   the run failed, it reloads the evidence, replays it and assesses the
   result. The loop runs whole rounds of its workload's slots until
   [--seconds] have passed.

   With [--trace 0] the run reports the end-to-end metrics; with
   [--trace 1] it reports the per-layer metrics, taken from a second pass
   over the incidents of the first third of the rounds with a tracer
   installed. Both modes check the outputs (see [check]) and exit 1 when
   a check fails. End-to-end numbers come only from the untraced pass.

   Usage:
     main.exe --workload capture|search|partial --seed N --seconds S
              --trace 0|1 --nproc P --work DIR *)

open Ddet
open Ddet_apps
open Ddet_record
module Replayer = Ddet_replay.Replayer
module Search = Ddet_replay.Search
module Stitch = Ddet_replay.Stitch
module Constraints = Ddet_replay.Constraints
module Tracer = Ddet_obs.Tracer
module Clock = Ddet_obs.Clock
module Utility = Ddet_metrics.Utility

let now = Clock.now
let since t0 = Int64.to_int (Clock.elapsed_ns t0)
let ms ns = float_of_int ns /. 1e6

(* ------------------------------------------------------------------ *)
(* Fixed settings *)

(* Every searched replay gets this budget and no deadline, so outcomes
   depend only on the incident. It reproduces every shipped (app, model)
   pair except msg_server under rcse-code, whose search exhausts it. *)
let budget =
  { Search.max_attempts = 60; max_steps_per_attempt = 10_000; base_seed = 1;
    deadline_s = None }

(* A reproduction slower than this counts as not reproduced. The latency
   median takes every reproduction at the time it took, misses included:
   the developer waits that long either way. *)
let latency_limit_ns = 500_000_000

(* The governed slice's recording-overhead SLO. *)
let governed_budget = 1.3

(* About this many set-ups are timed per run, spread evenly over the
   measured loop. The host's CPU speed shifts by up to 1.7x for seconds
   at a time, so a plain median of the set-ups flips between two modes
   from run to run: [setup_median] reports the median of the means of
   consecutive groups of [setup_group] set-ups instead. *)
let setup_reps = 25
let setup_group = 5

(* Attribution: in every traced session the time no layer span covers
   must stay within this share of the session's wall time, or within
   [attribution_floor_ns], whichever is larger. *)
let attribution_tolerance = 0.05
let attribution_floor_ns = 50_000

(* ------------------------------------------------------------------ *)
(* Workloads *)

type persist = Whole | Segmented | Sharded

type variant = {
  label : string;
  model : Model.t;
  overhead_budget : float option;
}

type slot = {
  app : App.t;
  variant : variant;
  persist : persist;
  faults : Random.State.t -> Mvm.Fault.plan;
}

type workload = {
  wname : string;
  slots : slot list;  (** one round, in order *)
  failing_only : bool;  (** draw seeds until the production run fails *)
}

let variant label model = { label; model; overhead_budget = None }
let no_faults _ = Mvm.Fault.none

(* A partition of [groups] that starts in [0, from_max) and lasts
   [len_min, len_min + len_span) steps, under a fresh fault seed. *)
let partition groups ~from_max ~len_min ~len_span rng =
  let from_step = Random.State.int rng from_max in
  let len = len_min + Random.State.int rng len_span in
  Mvm.Fault.make ~seed:(Random.State.int rng 1_000_000)
    [ Mvm.Fault.partition ~groups ~from_step ~until_step:(from_step + len) ]

let workload name =
  let miniht = Miniht.app ()
  and cloudstore = Cloudstore.app ()
  and msg = Msg_server.app () in
  let slot ?(faults = no_faults) persist app variant =
    { app; variant; persist; faults }
  in
  match name with
  | "capture" ->
    let variants =
      [
        variant "perfect" Model.Perfect;
        variant "value" Model.Value;
        variant "rcse" (Model.Rcse Model.Combined);
        { label = "perfect-governed"; model = Model.Perfect;
          overhead_budget = Some governed_budget };
      ]
    in
    Ok
      {
        wname = name;
        failing_only = false;
        slots =
          List.concat_map
            (fun app ->
              List.concat_map
                (fun v -> [ slot Whole app v; slot Segmented app v ])
                variants)
            [ miniht; cloudstore; msg ];
      }
  | "search" ->
    let models =
      [
        variant "failure" Model.Failure_det;
        variant "output" Model.Output;
        variant "sync" Model.Sync;
        variant "rcse-code" (Model.Rcse Model.Code_based);
      ]
    in
    (* One failing run per (app, model) and round. msg_server's
       rcse-code slot is the designed miss: code-based selection does not
       record its data-plane race, and the search exhausts the budget. *)
    Ok
      {
        wname = name;
        failing_only = true;
        slots =
          List.concat_map
            (fun app -> List.map (slot Whole app) models)
            [ miniht; cloudstore; msg ];
      }
  | "partial" ->
    let perfect = variant "perfect" Model.Perfect in
    let msg_cut groups =
      slot Sharded msg perfect
        ~faults:(partition groups ~from_max:40 ~len_min:40 ~len_span:80)
    in
    let cloud_cut groups =
      slot Sharded cloudstore perfect
        ~faults:(partition groups ~from_max:100 ~len_min:200 ~len_span:250)
    in
    (* Failing runs only: every incident exercises the read side. Each
       msg_server cut appears twice, so msg_server's fast incidents are
       two thirds of the reproductions and the medians fall inside them
       rather than on the edge between the two apps. *)
    let msg_cuts =
      List.map msg_cut
        [
          [ [ "server"; "p0" ]; [ "p1" ] ];
          [ [ "server"; "p1" ]; [ "p0" ] ];
          [ [ "server" ]; [ "p0"; "p1" ] ];
        ]
    in
    Ok
      {
        wname = name;
        failing_only = true;
        slots =
          msg_cuts
          @ [
              cloud_cut
                [ [ "coord"; "primary"; "client0"; "client1" ]; [ "secondary" ] ];
            ]
          @ msg_cuts
          @ [
              cloud_cut
                [ [ "coord"; "secondary"; "client0"; "client1" ]; [ "primary" ] ];
            ];
      }
  | other -> Error ("unknown workload " ^ other)

(* ------------------------------------------------------------------ *)
(* Set-up: Session.prepare for every (app, variant) of the workload, and
   the static shard priority for every app that shards its evidence. *)

type setup = {
  sessions : (string * string, Session.prepared) Hashtbl.t;
  priority : (string, string list) Hashtbl.t;
}

let config_for ~jobs v =
  { Config.default with Config.jobs; budget; overhead_budget = v.overhead_budget }

let setup ~jobs w =
  let sessions = Hashtbl.create 16 and priority = Hashtbl.create 4 in
  List.iter
    (fun s ->
      let key = (s.app.App.name, s.variant.label) in
      if not (Hashtbl.mem sessions key) then begin
        let p =
          Session.prepare ~config:(config_for ~jobs s.variant) s.variant.model
            s.app
        in
        Hashtbl.replace sessions key p;
        if s.persist = Sharded && not (Hashtbl.mem priority s.app.App.name)
        then Hashtbl.replace priority s.app.App.name (Session.shard_priority p)
      end)
    w.slots;
  { sessions; priority }

(* ------------------------------------------------------------------ *)
(* Incidents *)

type incident = {
  id : int;
  slot : slot;
  prepared : Session.prepared;
  priority : string list;
  seed : int;
  plan : Mvm.Fault.plan;
  path : string;  (** evidence base path, reused by the slot *)
}

(* The next round of incidents. Drawing failing seeds runs the app
   unrecorded; that is the generator's own work and is not timed. *)
let next_round ~rng ~dir ~setup ~first_id w =
  List.mapi
    (fun i s ->
      let plan = s.faults rng in
      let draw () = Random.State.int rng 0x3FFFFFFF in
      let rec failing tries =
        let seed = draw () in
        let r = App.production_run ~faults:plan s.app ~seed in
        if r.Mvm.Interp.failure <> None then seed
        else if tries > 10_000 then failwith "no failing seed"
        else failing (tries + 1)
      in
      let seed = if w.failing_only then failing 0 else draw () in
      {
        id = first_id + i;
        slot = s;
        prepared = Hashtbl.find setup.sessions (s.app.App.name, s.variant.label);
        priority =
          Option.value ~default:[] (Hashtbl.find_opt setup.priority s.app.App.name);
        seed;
        plan;
        path = Filename.concat dir (Printf.sprintf "slot%02d" i);
      })
    w.slots

(* ------------------------------------------------------------------ *)
(* One session *)

type env = { store : Store.t; totals : Counting_store.totals }

let span name id f = Tracer.span_ ~args:[ ("incident", Tracer.Count id) ] name f

(* One reproduction: load + stitch + replay + assess. *)
type repro = {
  lost : string list;
  found : bool;
      (** the replay produced an execution with the recorded failure *)
  latency_ns : int;
  attempts : int;
  rsteps : int;
  exhausted : bool;  (** the search ended without an accepted execution *)
  df : float;
  du : float;
  cause : string option;
  orig_cause : string option;
  intact : bool;  (** the evidence reloaded whole *)
  elog : Log.t option;
      (** the reloaded log, kept until the outputs are checked *)
  steered : bool;
  enforced : int;
  dropped : int;
  rerror : string option;
}

let reproduced r =
  r.found && r.rerror = None && r.latency_ns <= latency_limit_ns

type evidence = { elog : Log.t; intact : bool; stitch : Stitch.t option }

let load inc ~lost =
  let id = inc.id in
  match inc.slot.persist with
  | Whole -> (
    match span "record.log_io.load" id (fun () -> Log_io.load inc.path) with
    | Ok l -> Ok { elog = l; intact = true; stitch = None }
    | Error e -> Error e)
  | Segmented -> (
    match span "record.log_segments.load" id (fun () -> Log_segments.load inc.path) with
    | Ok (l, r) when r.Log_segments.complete ->
      Ok { elog = l; intact = true; stitch = None }
    | Ok (_, r) -> Error (Format.asprintf "%a" Log_segments.pp_recovery r)
    | Error e -> Error e)
  | Sharded -> (
    match
      span "record.sharded_log.load" id (fun () ->
          Sharded_log.load ~lose:lost inc.path)
    with
    | Error e -> Error e
    | Ok loaded ->
      let st = span "replay.stitch" id (fun () -> Stitch.stitch loaded) in
      Ok { elog = st.Stitch.log; intact = st.Stitch.complete; stitch = Some st })

let reproduce inc ~original ~log ~lost =
  let p = inc.prepared and id = inc.id in
  let t0 = now () in
  let miss rerror =
    { lost; found = false; latency_ns = 0; attempts = 0; rsteps = 0;
      exhausted = false; df = 0.; du = 0.; cause = None; orig_cause = None;
      intact = false; elog = None; steered = false; enforced = 0;
      dropped = 0; rerror = Some rerror }
  in
  let r =
    match load inc ~lost with
    | exception e -> miss (Printexc.to_string e)
    | Error e -> miss e
    | Ok ev ->
      let o =
        span "replay.search" id (fun () ->
            match ev.stitch with
            | Some st -> Session.replay_stitched ~static_steer:true p st
            | None -> Session.replay p ev.elog)
      in
      let a =
        span "metrics.assess" id (fun () ->
            Session.assess
              ?evidence:(Option.map (fun st -> st.Stitch.evidence) ev.stitch)
              p ~original ~log:ev.elog o)
      in
      let edges f = match ev.stitch with Some st -> List.length (f st) | None -> 0 in
      {
        lost;
        found =
          (match o.Replayer.result with
           | Some r -> Constraints.failure_matches log r
           | None -> false);
        latency_ns = 0;
        attempts = o.Replayer.attempts;
        rsteps = o.Replayer.total_steps;
        exhausted = o.Replayer.result = None;
        df = a.Utility.df;
        du = a.Utility.du;
        cause = a.Utility.replay_cause;
        orig_cause = a.Utility.original_cause;
        intact = ev.intact;
        elog = Some ev.elog;
        steered = (match ev.stitch with Some st -> not st.Stitch.complete | None -> false);
        enforced = edges (fun st -> st.Stitch.edges_enforced);
        dropped = edges (fun st -> st.Stitch.edges_dropped);
        rerror = None;
      }
  in
  { r with latency_ns = since t0 }

type captured = {
  original : Mvm.Interp.result;
  log : Log.t;
  causal_edges : int;
  save_error : string option;
  capture_ns : int;
  repros : repro list;
}

let session env inc =
  let p = inc.prepared and id = inc.id and faults = inc.plan and seed = inc.seed in
  let c0 = now () in
  let original, log, causal_edges, save_error =
    let err = function Ok () -> None | Error e -> Some (Store.error_to_string e) in
    match inc.slot.persist with
    | (Whole | Segmented) as persist ->
      let original, log =
        span "record.recorder" id (fun () -> Session.record ~faults p ~seed)
      in
      let r =
        if persist = Whole then
          span "record.log_io.save" id (fun () -> Log_io.save_via env.store inc.path log)
        else
          span "record.log_segments.save" id (fun () ->
              Log_segments.save_via env.store inc.path log)
      in
      (original, log, 0, err r)
    | Sharded ->
      let original, log, causal =
        span "record.recorder" id (fun () -> Session.record_dist ~faults p ~seed)
      in
      let rep =
        span "record.sharded_log.save" id (fun () ->
            Sharded_log.save_via ~priority:inc.priority env.store ~base:inc.path
              ~causal log)
      in
      ( original, log, List.length causal.Causal.edges,
        if Sharded_log.save_ok rep then None
        else Some (Format.asprintf "%a" Sharded_log.pp_save_report rep) )
  in
  let capture_ns = since c0 in
  let repros =
    if original.Mvm.Interp.failure = None || save_error <> None then []
    else
      let losses =
        match (inc.slot.persist, inc.slot.app.App.nodes) with
        | Sharded, Some map -> [] :: List.map (fun n -> [ n ]) (Mvm.Node.nodes map)
        | _ -> [ [] ]
      in
      List.map (fun lost -> reproduce inc ~original ~log ~lost) losses
  in
  { original; log; causal_edges; save_error; capture_ns; repros }

(* ------------------------------------------------------------------ *)
(* Outcomes and output checks *)

type outcome = {
  inc : incident;
  base_ns : int;  (** unrecorded App.production_run of the same incident *)
  base_steps : int;
  session_ns : int;
  capture_ns : int;
  steps : int;
  failing : bool;
  entries : int;
  payload : int;
  cost_x : float;
  windows : int;
  causal_edges : int;
  store : Counting_store.totals;
  repros : repro list;
  error : string option;  (** an operation of the session failed *)
  mismatches : string list;  (** failed output checks *)
}

let catalog_ids (app : App.t) =
  List.map (fun c -> c.Ddet_metrics.Root_cause.id) app.App.catalog.Ddet_metrics.Root_cause.causes

(* The checks on one incident's outputs:
   - the unrecorded run and the recorded run agree (steps, failure);
   - a failing-only workload's incident fails;
   - evidence that reloads intact equals the recorded log;
   - perfect and value replays of intact, ungoverned logs reproduce with
     DF 1;
   - every cause the assessment names is in the app's catalog. *)
let check inc (base : Mvm.Interp.result) ~failing_only (c : captured) =
  let errs = ref [] in
  let fail fmt = Printf.ksprintf (fun s -> errs := s :: !errs) fmt in
  let tag = Printf.sprintf "incident %d (%s/%s seed %d)" inc.id inc.slot.app.App.name
      inc.slot.variant.label inc.seed in
  if base.Mvm.Interp.steps <> c.original.Mvm.Interp.steps
     || base.Mvm.Interp.failure <> c.original.Mvm.Interp.failure
  then fail "%s: recorded run differs from the unrecorded run" tag;
  if failing_only && c.original.Mvm.Interp.failure = None then
    fail "%s: drawn as failing but the recorded run passed" tag;
  let ids = catalog_ids inc.slot.app in
  let known = function None -> true | Some id -> List.mem id ids in
  let exact =
    (inc.slot.variant.model = Model.Perfect || inc.slot.variant.model = Model.Value)
    && inc.slot.variant.overhead_budget = None
  in
  List.iter
    (fun (r : repro) ->
      if r.rerror = None then begin
        let same () =
          match r.elog with
          | Some l -> Log_io.to_string l = Log_io.to_string c.log
          | None -> false
        in
        if r.intact && not (same ()) then
          fail "%s: reloaded evidence differs from the recorded log" tag;
        if exact && r.intact && not (r.found && r.df = 1.0) then
          fail "%s: intact %s replay did not reproduce with DF 1 (df %.3f)" tag
            inc.slot.variant.label r.df;
        if not (known r.cause && known r.orig_cause) then
          fail "%s: cause outside the %s catalog" tag inc.slot.app.App.name
      end)
    c.repros;
  List.rev !errs

let run_incident env ~failing_only inc =
  let b0 = now () in
  let base =
    span "mvm.interp" inc.id (fun () ->
        App.production_run ~faults:inc.plan inc.slot.app ~seed:inc.seed)
  in
  let base_ns = since b0 in
  Counting_store.reset env.totals;
  let s0 = now () in
  let c =
    match span "session" inc.id (fun () -> session env inc) with
    | c -> Ok c
    | exception e -> Error (Printexc.to_string e)
  in
  let session_ns = since s0 in
  let store = Counting_store.copy env.totals in
  let blank =
    { inc; base_ns; base_steps = base.Mvm.Interp.steps; session_ns;
      capture_ns = session_ns; steps = 0; failing = false; entries = 0;
      payload = 0; cost_x = 0.; windows = 0; causal_edges = 0; store;
      repros = []; error = None; mismatches = [] }
  in
  match c with
  | Error e -> { blank with error = Some e }
  | Ok c ->
    let repro_error =
      List.find_map (fun r -> r.rerror) c.repros
    in
    {
      blank with
      capture_ns = c.capture_ns;
      steps = c.original.Mvm.Interp.steps;
      failing = c.original.Mvm.Interp.failure <> None;
      entries = Log.entry_count c.log;
      payload = Log.payload_bytes c.log;
      cost_x = Cost_model.overhead inc.prepared.Session.config.Config.cost_model c.log;
      windows = List.length (Log.governed_windows c.log);
      causal_edges = c.causal_edges;
      repros = List.map (fun (r : repro) -> { r with elog = None }) c.repros;
      error = (match c.save_error with Some e -> Some e | None -> repro_error);
      mismatches = check inc base ~failing_only c;
    }

(* What must not change when a tracer is installed. *)
let verdict o =
  ( o.steps, o.failing, o.entries, o.store.Counting_store.bytes, o.error,
    List.map (fun r -> (r.lost, r.found, r.attempts, r.rsteps, r.cause, r.df)) o.repros )

(* ------------------------------------------------------------------ *)
(* Statistics *)

let sum f l = List.fold_left (fun acc x -> acc + f x) 0 l
let sumf f l = List.fold_left (fun acc x -> acc +. f x) 0. l

(* Nearest-rank percentile of a non-empty list. *)
let percentile q l =
  let a = Array.of_list l in
  Array.sort compare a;
  let n = Array.length a in
  a.(max 0 (min (n - 1) (int_of_float (ceil (q *. float_of_int n)) - 1)))

let median l = percentile 0.5 l

let setup_median ns =
  let rec groups acc cur k = function
    | [] -> List.rev (if cur = [] then acc else cur :: acc)
    | x :: rest ->
      if k = setup_group then groups (cur :: acc) [ x ] 1 rest
      else groups acc (x :: cur) (k + 1) rest
  in
  median
    (List.map
       (fun g -> float_of_int (sum Fun.id g) /. float_of_int (List.length g))
       (groups [] [] 0 ns))

let ratio a b = if b = 0. then 0. else a /. b

(* ------------------------------------------------------------------ *)
(* Output *)

type metric = { name : string; value : float; unit_ : string }

let json_of_metrics l =
  String.concat ", "
    (List.map
       (fun m ->
         Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" m.name m.value m.unit_)
       l)

let print_metrics title l =
  Printf.printf "%s\n" title;
  List.iter (fun m -> Printf.printf "  %-34s %14.6g %s\n" m.name m.value m.unit_) l

let end_to_end ~setup_s outcomes =
  let repros = List.concat_map (fun o -> o.repros) outcomes in
  let n_repro = List.length repros in
  let score f r = if reproduced r then f r else 0. in
  let mean f = ratio (sumf (score f) repros) (float_of_int n_repro) in
  let m name value unit_ = { name; value; unit_ } in
  [
    m "setup_s" setup_s "s";
    m "incidents_per_s"
      (float_of_int (List.length outcomes)
      /. (float_of_int (sum (fun o -> o.session_ns) outcomes) /. 1e9))
      "1/s";
    m "capture_ms_p50" (ms (median (List.map (fun o -> o.capture_ns) outcomes))) "ms";
    m "record_overhead_x"
      (ratio
         (float_of_int (sum (fun o -> o.capture_ns) outcomes))
         (float_of_int (sum (fun o -> o.base_ns) outcomes)))
      "x";
    m "evidence_bytes_per_kstep"
      (ratio
         (float_of_int (sum (fun o -> o.store.Counting_store.bytes) outcomes))
         (float_of_int (sum (fun o -> o.steps) outcomes) /. 1000.))
      "B";
    m "reproduce_ms_p50"
      (if repros = [] then 0. else ms (median (List.map (fun r -> r.latency_ns) repros)))
      "ms";
    m "reproduced_frac"
      (ratio (float_of_int (List.length (List.filter reproduced repros))) (float_of_int n_repro))
      "ratio";
    m "df_mean" (mean (fun r -> r.df)) "ratio";
    m "du_mean" (mean (fun r -> r.du)) "ratio";
  ]

(* Per app and model: the modelled recording overhead next to the
   measured one, and how many reproductions succeeded. *)
let print_models outcomes =
  Printf.printf "%-11s %-17s %9s %8s %13s %11s %11s\n" "app" "model" "incidents"
    "failing" "cost_model_x" "measured_x" "reproduced";
  let key o = (o.inc.slot.app.App.name, o.inc.slot.variant.label) in
  List.iter
    (fun ((app, label) as k) ->
      let os = List.filter (fun o -> key o = k) outcomes in
      let repros = List.concat_map (fun o -> o.repros) os in
      Printf.printf "%-11s %-17s %9d %8d %13.3f %11.3f %7d/%-4d\n" app label
        (List.length os)
        (List.length (List.filter (fun o -> o.failing) os))
        (sumf (fun o -> o.cost_x) os /. float_of_int (List.length os))
        (ratio
           (float_of_int (sum (fun o -> o.capture_ns) os))
           (float_of_int (sum (fun o -> o.base_ns) os)))
        (List.length (List.filter reproduced repros))
        (List.length repros))
    (List.sort_uniq compare (List.map key outcomes))

(* ------------------------------------------------------------------ *)
(* Traced pass *)

type traced = {
  outcomes : outcome list;
  self_ns : (string, int64) Hashtbl.t;
  counters : (string, int) Hashtbl.t;
  dropped : int;
  attribution : string list;  (** sessions outside the tolerance *)
}

let traced_pass env ~failing_only incidents untraced =
  let self_ns = Hashtbl.create 32 and counters = Hashtbl.create 32 in
  let dropped = ref 0 and attribution = ref [] in
  let outcomes =
    List.map2
      (fun inc (u : outcome) ->
        (* two ring slots per store call plus room for the fixed spans and
           the library's own spans and instants *)
        let t = Tracer.create ~capacity:((2 * u.store.Counting_store.calls) + 1024) () in
        let o = Tracer.with_current t (fun () -> run_incident env ~failing_only inc) in
        dropped := !dropped + Tracer.dropped t;
        List.iter
          (fun (n, v) ->
            Hashtbl.replace counters n
              (v + Option.value ~default:0 (Hashtbl.find_opt counters n)))
          (Tracer.counters t);
        (match Spans.self_times t with
         | Error e -> attribution := Printf.sprintf "incident %d: %s" inc.id e :: !attribution
         | Ok tbl ->
           Hashtbl.iter
             (fun n v ->
               Hashtbl.replace self_ns n
                 (Int64.add v (Option.value ~default:0L (Hashtbl.find_opt self_ns n))))
             tbl;
           let wall = o.session_ns in
           let residual = Int64.to_int (Option.value ~default:0L (Hashtbl.find_opt tbl "session")) in
           let allowed =
             max attribution_floor_ns
               (int_of_float (attribution_tolerance *. float_of_int wall))
           in
           if residual > allowed then
             attribution :=
               Printf.sprintf "incident %d: %d of %d ns unattributed" inc.id residual wall
               :: !attribution);
        o)
      incidents untraced
  in
  { outcomes; self_ns; counters; dropped = !dropped; attribution = List.rev !attribution }

(* Set-up layers, measured from outside in the traced run: one pass of
   the training each workload's models use, and one static analysis per
   app whose evidence is sharded. *)
let setup_layers ~jobs w =
  let t = Tracer.create ~capacity:4096 () in
  Tracer.with_current t (fun () ->
      List.iter
        (fun (app : App.t) ->
          let models =
            List.filter_map
              (fun s -> if s.app == app then Some s.variant.model else None)
              w.slots
          in
          let uses m = List.exists (fun x -> List.mem x m) models in
          let plane = uses [ Model.Rcse Model.Code_based; Model.Rcse Model.Combined ] in
          let inv = uses [ Model.Rcse Model.Data_based; Model.Rcse Model.Combined ] in
          if plane || inv then begin
            let config = config_for ~jobs (variant "" Model.Perfect) in
            let runs =
              Tracer.span_ "analysis.training" (fun () -> Session.training_runs config app)
            in
            if plane then
              Tracer.span_ "analysis.plane" (fun () ->
                  ignore
                    (Ddet_analysis.Plane.classify
                       (Ddet_analysis.Taint_profile.of_results runs)
                       ~threshold:config.Config.plane_threshold));
            if inv then
              Tracer.span_ "analysis.invariants" (fun () ->
                  ignore (Ddet_analysis.Invariants.infer runs))
          end;
          match app.App.nodes with
          | Some nodes when List.exists (fun s -> s.app == app && s.persist = Sharded) w.slots ->
            Tracer.span_ "static.analyze" (fun () ->
                ignore (Ddet_static.Static_report.analyze ~nodes app.App.labeled))
          | _ -> ())
        (List.fold_left
           (fun acc s -> if List.memq s.app acc then acc else acc @ [ s.app ])
           [] w.slots));
  let prof = Tracer.profile t in
  let total name =
    match List.find_opt (fun s -> s.Tracer.sname = name) prof with
    | Some s -> (ms (Int64.to_int s.Tracer.total_ns), s.Tracer.calls)
    | None -> (0., 0)
  in
  total

let per_layer ~setup_total ~untraced (tr : traced) =
  let outcomes = tr.outcomes in
  let n = float_of_int (List.length outcomes) in
  let repros = List.concat_map (fun o -> o.repros) outcomes in
  let self name = Int64.to_float (Option.value ~default:0L (Hashtbl.find_opt tr.self_ns name)) in
  let per_inc_ms names = List.fold_left (fun a s -> a +. self s) 0. names /. 1e6 /. n in
  let counter name = float_of_int (Option.value ~default:0 (Hashtbl.find_opt tr.counters name)) in
  let per_inc x = x /. n in
  let isum f = float_of_int (sum f outcomes) in
  let rsum f = float_of_int (sum f repros) in
  let store f = isum (fun o -> f o.store) in
  let m name value unit_ = { name; value; unit_ } in
  let setup_ms name = fst (setup_total name) in
  let static_ms, static_n = setup_total "static.analyze" in
  let base_steps = isum (fun o -> o.base_steps) in
  let search_ns = self "replay.search" in
  let session_ns = isum (fun o -> o.session_ns) in
  [
    m "mvm.interp.run_ms" (per_inc_ms [ "mvm.interp" ]) "ms/run";
    m "mvm.interp.steps" (per_inc base_steps) "steps/run";
    m "mvm.interp.ns_per_step" (ratio (self "mvm.interp") base_steps) "ns";
    m "analysis.training_ms" (setup_ms "analysis.training") "ms";
    m "analysis.plane_ms" (setup_ms "analysis.plane") "ms";
    m "analysis.invariants_ms" (setup_ms "analysis.invariants") "ms";
    m "static.analyze_ms" (if static_n = 0 then 0. else static_ms /. float_of_int static_n) "ms";
    m "static.calls" (per_inc (float_of_int (List.length (List.filter (fun r -> r.steered) repros)))) "count/incident";
    m "record.recorder_ms" (per_inc_ms [ "record.recorder" ]) "ms/incident";
    m "record.entries" (per_inc (isum (fun o -> o.entries))) "count/incident";
    m "record.payload_bytes" (per_inc (isum (fun o -> o.payload))) "B/incident";
    m "record.cost_model_x" (sumf (fun o -> o.cost_x) outcomes /. n) "x";
    m "record.governor.windows" (per_inc (isum (fun o -> o.windows))) "count/incident";
    m "record.governor.entries_dropped" (per_inc (counter "govern.dropped")) "count/incident";
    m "record.log_io.save_ms" (per_inc_ms [ "record.log_io.save" ]) "ms/incident";
    m "record.log_io.load_ms" (per_inc_ms [ "record.log_io.load" ]) "ms/incident";
    m "record.log_segments.save_ms" (per_inc_ms [ "record.log_segments.save" ]) "ms/incident";
    m "record.log_segments.load_ms" (per_inc_ms [ "record.log_segments.load" ]) "ms/incident";
    m "record.sharded_log.save_ms" (per_inc_ms [ "record.sharded_log.save" ]) "ms/incident";
    m "record.sharded_log.load_ms" (per_inc_ms [ "record.sharded_log.load" ]) "ms/incident";
    m "record.causal.edges" (per_inc (isum (fun o -> o.causal_edges))) "count/incident";
    m "record.bytes" (per_inc (store (fun s -> s.Counting_store.bytes))) "B/incident";
    m "record.store.io_ms"
      (per_inc_ms
         [ "store.write"; "store.append"; "store.seal"; "store.fsync"; "store.rename";
           "store.remove"; "store.exists" ])
      "ms/incident";
    m "record.store.syncs" (per_inc (store (fun s -> s.Counting_store.syncs))) "count/incident";
    m "record.store.sync_ms" (per_inc (store (fun s -> s.Counting_store.sync_ns)) /. 1e6) "ms/incident";
    m "record.store.renames" (per_inc (store (fun s -> s.Counting_store.renames))) "count/incident";
    m "record.store.errors" (per_inc (store (fun s -> s.Counting_store.errors))) "count/incident";
    m "replay.stitch_ms" (per_inc_ms [ "replay.stitch" ]) "ms/incident";
    m "replay.stitch.edges_enforced" (per_inc (rsum (fun r -> r.enforced))) "count/incident";
    m "replay.stitch.edges_dropped" (per_inc (rsum (fun r -> r.dropped))) "count/incident";
    m "replay.search_ms" (per_inc_ms [ "replay.search" ]) "ms/incident";
    m "replay.attempts" (per_inc (rsum (fun r -> r.attempts))) "count/incident";
    m "replay.steps" (per_inc (rsum (fun r -> r.rsteps))) "count/incident";
    m "replay.ns_per_step" (ratio search_ns (rsum (fun r -> r.rsteps))) "ns";
    m "replay.useful_ratio"
      (ratio (float_of_int (List.length (List.filter (fun r -> r.found) repros))) (rsum (fun r -> r.attempts)))
      "ratio";
    m "replay.budget_exhausted"
      (ratio (float_of_int (List.length (List.filter (fun r -> r.exhausted && r.rerror = None) repros)))
         (float_of_int (List.length repros)))
      "ratio";
    m "search.pruned" (per_inc (counter "search.pruned")) "count/incident";
    m "search.deadline_hits" (per_inc (counter "search.deadline_hits")) "count/incident";
    m "par.chunk_claims" (per_inc (counter "par.chunk_claims")) "count/incident";
    m "par.chain_misspec" (per_inc (counter "par.chain_misspec")) "count/incident";
    m "par.worker_idle_ns" (per_inc (counter "par.worker_idle_ns")) "ns/incident";
    m "oracle.cursor_stalls" (per_inc (counter "oracle.cursor_stalls")) "count/incident";
    m "oracle.steer_hot_picks" (per_inc (counter "oracle.steer_hot_picks")) "count/incident";
    m "metrics.assess_ms" (per_inc_ms [ "metrics.assess" ]) "ms/incident";
    m "session.ms" (per_inc session_ns /. 1e6) "ms/incident";
    m "session.unattributed_ms" (per_inc_ms [ "session" ]) "ms/incident";
    m "obs.trace_overhead"
      (ratio session_ns (float_of_int (sum (fun o -> o.session_ns) untraced)) -. 1.)
      "ratio";
    m "obs.dropped" (float_of_int tr.dropped) "count";
  ]

(* ------------------------------------------------------------------ *)
(* Main *)

let usage () =
  prerr_endline
    "usage: main.exe --workload capture|search|partial --seed N --seconds S \
     --trace 0|1 --nproc P --work DIR";
  exit 2

let () =
  let args = Hashtbl.create 8 in
  let rec parse = function
    | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
      Hashtbl.replace args (String.sub k 2 (String.length k - 2)) v;
      parse rest
    | [] -> ()
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  let get k = match Hashtbl.find_opt args k with Some v -> v | None -> usage () in
  let int k = match int_of_string_opt (get k) with Some i -> i | None -> usage () in
  let w = match workload (get "workload") with Ok w -> w | Error e -> prerr_endline e; exit 2 in
  let seed = int "seed" and seconds = int "seconds" and trace = int "trace" in
  let nproc = int "nproc" and dir = get "work" in
  if seconds < 1 || nproc < 1 || (trace <> 0 && trace <> 1) then usage ();
  let jobs = max 1 (min nproc (Domain.recommended_domain_count ())) in
  Printf.printf
    "host: {\"nproc\": %d, \"recommended_domain_count\": %d, \"ocaml\": %S, \
     \"jobs\": %d, \"workload\": %S, \"workload_seed\": %d, \"seconds\": %d, \
     \"trace\": %d}\n%!"
    nproc (Domain.recommended_domain_count ()) Sys.ocaml_version jobs w.wname seed
    seconds trace;
  let su = setup ~jobs w in
  let store, totals = Counting_store.create () in
  let env = { store; totals } in
  let failing_only = w.failing_only in
  let rng = Random.State.make [| seed; Hashtbl.hash w.wname |] in
  (* one untimed round lets caches fill and the heap grow first *)
  List.iter
    (fun inc -> ignore (run_incident env ~failing_only inc))
    (next_round ~rng ~dir ~setup:su ~first_id:0 w);
  (* untraced pass: whole rounds until the time is up, with a timed
     set-up between rounds at most once per interval *)
  let deadline = Int64.add (now ()) (Clock.ns_of_s (float_of_int seconds)) in
  let setup_every = Clock.ns_of_s (float_of_int seconds /. float_of_int setup_reps) in
  let setups = ref [] and next_setup = ref (now ()) in
  let rec loop rounds acc_inc acc_out =
    if Int64.compare (now ()) !next_setup >= 0 then begin
      Gc.full_major ();
      let t0 = now () in
      ignore (setup ~jobs w);
      setups := since t0 :: !setups;
      next_setup := Int64.add (now ()) setup_every
    end;
    let round =
      next_round ~rng ~dir ~setup:su ~first_id:(List.length acc_inc) w
    in
    let outs = List.map (run_incident env ~failing_only) round in
    let acc_inc = List.rev_append round acc_inc and acc_out = List.rev_append outs acc_out in
    if Int64.compare (now ()) deadline < 0 then loop (rounds + 1) acc_inc acc_out
    else (rounds + 1, List.rev acc_inc, List.rev acc_out)
  in
  let rounds, incidents, outcomes = loop 0 [] [] in
  (* traced pass: the first third of the rounds with --trace 1, the first
     round only otherwise (to check that tracing changes no outcome) *)
  let n_traced = List.length w.slots * if trace = 1 then max 1 (rounds / 3) else 1 in
  let take l = List.filteri (fun i _ -> i < n_traced) l in
  let tr = traced_pass env ~failing_only (take incidents) (take outcomes) in
  let mismatches =
    List.concat_map (fun o -> o.mismatches) (outcomes @ tr.outcomes)
    @ List.concat
        (List.map2
           (fun (u : outcome) (t : outcome) ->
             if verdict u = verdict t then []
             else [ Printf.sprintf "incident %d: traced outcome differs" u.inc.id ])
           (take outcomes) tr.outcomes)
    @ (if tr.dropped > 0 then [ Printf.sprintf "tracer dropped %d events" tr.dropped ] else [])
    @ tr.attribution
  in
  let setup_s = setup_median (List.rev !setups) /. 1e9 in
  let failed = List.length (List.filter (fun o -> o.error <> None) outcomes) in
  List.iter
    (fun o -> Option.iter (Printf.printf "error: incident %d: %s\n" o.inc.id) o.error)
    outcomes;
  List.iter (Printf.printf "check failed: %s\n") mismatches;
  let repros = List.concat_map (fun o -> o.repros) outcomes in
  Printf.printf "rounds %d, set-ups %d, incidents %d, failing %d, reproductions %d\n"
    rounds (List.length !setups) (List.length outcomes)
    (List.length (List.filter (fun o -> o.failing) outcomes))
    (List.length repros);
  print_models outcomes;
  let metrics =
    if trace = 0 then end_to_end ~setup_s outcomes
    else
      per_layer ~setup_total:(setup_layers ~jobs w) ~untraced:(take outcomes) tr
  in
  print_metrics (if trace = 0 then "end-to-end:" else "per-layer:") metrics;
  let correct = mismatches = [] in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct (List.length outcomes) failed (json_of_metrics metrics);
  exit (if correct then 0 else 1)
