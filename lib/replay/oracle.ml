open Mvm
open Ddet_record

type handle = {
  world : World.t;
  abort : Event.t -> string option;
  violated : unit -> bool;
}

(* Per-thread value queues (inputs, logged reads). *)
let queues_of pairs =
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun (tid, v) ->
      match Hashtbl.find_opt tbl tid with
      | Some r -> r := !r @ [ v ]
      | None -> Hashtbl.replace tbl tid (ref [ v ]))
    pairs;
  tbl

let pop tbl tid =
  match Hashtbl.find_opt tbl tid with
  | Some ({ contents = v :: tl } as r) ->
    r := tl;
    Some v
  | Some { contents = [] } | None -> None

let input_queues log tids_of =
  queues_of
    (List.filter_map
       (function
         | Log.Input { tid; value; _ } when tids_of = `All -> Some (tid, value)
         | Log.Cp_input { tid; value; _ } when tids_of = `Cp -> Some (tid, value)
         | _ -> None)
       log.Log.entries)

let abort_of violated = fun _ -> if !violated then Some "log-divergence" else None

let perfect log =
  let remaining = ref (Log.sched_points log) in
  let inputs = input_queues log `All in
  let violated = ref false in
  let world =
    {
      World.name = "replay:perfect";
      pick_thread =
        (fun ~step:_ cands ->
          match !remaining with
          | (t, s) :: tl -> (
            match
              List.find_opt
                (fun c -> c.World.tid = t && c.World.sid = s)
                cands
            with
            | Some _ ->
              remaining := tl;
              t
            | None ->
              violated := true;
              (List.hd cands).World.tid)
          | [] -> (List.hd cands).World.tid);
      pick_input =
        (fun ~step:_ ~tid ~chan:_ ~domain ->
          match pop inputs tid with
          | Some v -> v
          | None -> (
            violated := true;
            match domain with [] -> Value.unit | v :: _ -> v));
      on_read = (fun ~step:_ ~tid:_ ~sid:_ ~region:_ ~index:_ ~actual -> actual);
      on_recv = (fun ~step:_ ~tid:_ ~sid:_ ~chan:_ ~actual -> actual);
      on_try_recv = (fun ~step:_ ~tid:_ ~sid:_ ~chan:_ -> World.Default);
      passive_try_recv = true;
    }
  in
  { world; abort = abort_of violated; violated = (fun () -> !violated) }

let value_det ~seed log =
  let rng = Prng.create seed in
  (* per-thread per-instruction observation log: (site, kind, value) in the
     thread's observation order *)
  let reads =
    queues_of
      (List.filter_map
         (function
           | Log.Read_val { tid; sid; kind; value } -> Some (tid, (sid, kind, value))
           | _ -> None)
         log.Log.entries)
  in
  let peek tbl tid =
    match Hashtbl.find_opt tbl tid with
    | Some { contents = v :: _ } -> Some v
    | Some { contents = [] } | None -> None
  in
  let inputs = input_queues log `All in
  let world =
    {
      World.name = Printf.sprintf "replay:value(seed=%d)" seed;
      pick_thread = (fun ~step:_ cands -> (Prng.pick rng cands).World.tid);
      pick_input =
        (fun ~step:_ ~tid ~chan:_ ~domain ->
          match pop inputs tid with
          | Some v -> v
          | None -> ( match domain with [] -> Value.unit | v :: _ -> v));
      on_read =
        (fun ~step:_ ~tid ~sid ~region:_ ~index:_ ~actual ->
          match peek reads tid with
          | Some (s, _, v) when s = sid ->
            ignore (pop reads tid);
            Value.untainted v
          | Some _ | None -> actual);
      on_recv =
        (fun ~step:_ ~tid ~sid ~chan:_ ~actual ->
          match peek reads tid with
          | Some (s, _, v) when s = sid ->
            ignore (pop reads tid);
            Value.untainted v
          | Some _ | None -> actual);
      on_try_recv =
        (fun ~step:_ ~tid ~sid ~chan:_ ->
          (* pure peek: the poll outcome is part of the thread's observed
             values — a logged Msg entry at this site means the original
             receive succeeded here; the log advances in on_recv. An
             exhausted log means the thread observed nothing more in its
             recorded life, so later polls miss rather than drain backlog
             the original never saw *)
          match peek reads tid with
          | Some (s, Log.Msg, v) when s = sid -> World.Force_value (Value.untainted v)
          | Some _ | None -> World.Force_fail);
      passive_try_recv = false;
    }
  in
  let never = ref false in
  { world; abort = abort_of never; violated = (fun () -> !never) }

(* Generic partial-schedule enforcement shared by RCSE and sync replay:
   the recorded (tid, sid) subsequence must occur in order. The log cursor
   advances on *observed events* (via the abort hook, which sees every
   event), not on scheduling decisions — a forced try_recv that finds an
   empty queue emits nothing and must not consume a log entry. An event
   matching a *later* entry means this interleaving cannot match the log:
   the attempt is flagged and aborted.

   Scheduling is tiered: (1) a candidate at the head entry is forced;
   (2) otherwise candidates whose next site appears nowhere in the pending
   log are safe (a statement only emits events carrying its own site id,
   so they cannot produce an out-of-order logged event); (3) otherwise a
   risky candidate runs — either harmlessly (a poll that emits nothing)
   or producing the violation that aborts the attempt. Tier 3 prevents
   livelock when the replay has genuinely diverged. *)
let subsequence ~name ~seed ~points ~event_matches ~marked_inputs ~strict log =
  let rng = Prng.create seed in
  let remaining = ref points in
  let pending : (int * int, int) Hashtbl.t = Hashtbl.create 32 in
  List.iter
    (fun p ->
      Hashtbl.replace pending p
        (1 + Option.value ~default:0 (Hashtbl.find_opt pending p)))
    points;
  let take_pending p =
    match Hashtbl.find_opt pending p with
    | Some 1 -> Hashtbl.remove pending p
    | Some n -> Hashtbl.replace pending p (n - 1)
    | None -> ()
  in
  let is_pending p = Hashtbl.mem pending p in
  let violated = ref false in
  let cp_inputs =
    if marked_inputs then
      queues_of
        (List.filter_map
           (function
             | Log.Cp_input { tid; sid; value; _ } -> Some (tid, (sid, value))
             | _ -> None)
           log.Log.entries)
    else
      queues_of
        (List.filter_map
           (function
             | Log.Input { tid; value; _ } -> Some (tid, (0, value))
             | _ -> None)
           log.Log.entries)
  in
  (* the site each thread is currently executing, set at pick time: input
     forcing aligns logged input sites against it *)
  let cur_sid : (int, int) Hashtbl.t = Hashtbl.create 8 in
  let advance (e : Event.t) =
    if event_matches e then
      let p = (e.Event.tid, e.Event.sid) in
      match !remaining with
      | h :: tl when h = p ->
        remaining := tl;
        take_pending p
      | _ -> if strict && is_pending p then violated := true
  in
  let abort e =
    advance e;
    if !violated then Some "log-divergence" else None
  in
  let pick_thread ~step:_ cands =
    let head = match !remaining with p :: _ -> Some p | [] -> None in
    let forced =
      match head with
      | Some (t, s) ->
        List.find_opt (fun c -> c.World.tid = t && c.World.sid = s) cands
      | None -> None
    in
    match forced with
    | Some c ->
      Hashtbl.replace cur_sid c.World.tid c.World.sid;
      c.World.tid
    | None -> (
      let safe =
        List.filter (fun c -> not (is_pending (c.World.tid, c.World.sid))) cands
      in
      let c =
        match safe with [] -> Prng.pick rng cands | _ -> Prng.pick rng safe
      in
      Hashtbl.replace cur_sid c.World.tid c.World.sid;
      c.World.tid)
  in
  let pick_input ~step:_ ~tid ~chan:_ ~domain =
    let head =
      match Hashtbl.find_opt cp_inputs tid with
      | Some { contents = v :: _ } -> Some v
      | Some { contents = [] } | None -> None
    in
    let forced =
      match head with
      | Some (s, v)
        when (not marked_inputs)
             || Hashtbl.find_opt cur_sid tid = Some s ->
        ignore (pop cp_inputs tid);
        Some v
      | Some _ | None -> None
    in
    match forced with
    | Some v -> v
    | None -> ( match domain with [] -> Value.unit | _ -> Prng.pick rng domain)
  in
  let world =
    {
      World.name = Printf.sprintf "replay:%s(seed=%d)" name seed;
      pick_thread;
      pick_input;
      on_read = (fun ~step:_ ~tid:_ ~sid:_ ~region:_ ~index:_ ~actual -> actual);
      on_recv = (fun ~step:_ ~tid:_ ~sid:_ ~chan:_ ~actual -> actual);
      on_try_recv = (fun ~step:_ ~tid:_ ~sid:_ ~chan:_ -> World.Default);
      passive_try_recv = true;
    }
  in
  { world; abort; violated = (fun () -> !violated) }

let rcse ?(strict = true) ~seed log =
  (* windowed (trigger/invariant) logs record a time slice whose sites also
     execute legitimately outside the window, so schedule enforcement is
     only meaningful for statically selected (code-based) logs; windowed
     replay pins the recorded inputs by site and searches the schedule *)
  let points = if strict then Log.cp_sched_points log else [] in
  subsequence ~name:"rcse" ~seed ~points
    ~event_matches:(fun (e : Event.t) ->
      match e.Event.kind with Event.Step -> true | _ -> false)
    ~marked_inputs:true ~strict log

(* Sync-schedule replay enforces *per-object* operation orders, which is
   what an ODR-style logger records: per-channel send and consume orders,
   the global spawn order (it assigns thread ids) and per-lock acquisition
   orders. A try_recv whose thread is not the next recorded consumer of its
   channel is forced to miss (harmless poll); a send or spawn is only
   scheduled when it is next in its object's order; an event that still
   comes out of order (or was never recorded at all) aborts the attempt.
   Plain shared-memory access order is deliberately unconstrained: data-race
   outcomes are what this scheme must infer (searched by restarts). *)
let sync ~seed log =
  let rng = Prng.create seed in
  let orders : (string, (int * int) list ref) Hashtbl.t = Hashtbl.create 16 in
  let key_of_op = function
    | Log.Op_send c -> Some ("s:" ^ c)
    | Log.Op_recv c -> Some ("r:" ^ c)
    | Log.Op_spawn -> Some "spawn"
    | Log.Op_lock m -> Some ("l:" ^ m)
    | Log.Op_unlock _ -> None
  in
  (* site -> object key: lets the scheduler hold back a send/spawn/lock
     statement until it is next in its object's order *)
  let site_key : (int, string) Hashtbl.t = Hashtbl.create 32 in
  let blocking_site : (int, unit) Hashtbl.t = Hashtbl.create 32 in
  List.iter
    (fun (tid, sid, op) ->
      match key_of_op op with
      | None -> ()
      | Some key ->
        (match Hashtbl.find_opt orders key with
        | Some r -> r := !r @ [ (tid, sid) ]
        | None -> Hashtbl.replace orders key (ref [ (tid, sid) ]));
        (match op with
        | Log.Op_send _ | Log.Op_spawn | Log.Op_lock _ ->
          Hashtbl.replace site_key sid key;
          Hashtbl.replace blocking_site sid ()
        | Log.Op_recv _ | Log.Op_unlock _ -> ()))
    (Log.sync_entries log);
  let head key =
    match Hashtbl.find_opt orders key with
    | Some { contents = p :: _ } -> Some p
    | Some { contents = [] } | None -> None
  in
  let violated_set = ref false in
  let advance key p ok_unlogged =
    match Hashtbl.find_opt orders key with
    | Some ({ contents = h :: tl } as r) when h = p -> r := tl
    | Some _ -> violated_set := true
    | None -> if not ok_unlogged then violated_set := true
  in
  let abort (e : Event.t) =
    (match e.Event.kind with
    | Event.Msg_send io -> advance ("s:" ^ io.Event.chan) (e.Event.tid, e.Event.sid) false
    | Event.Msg_recv io -> advance ("r:" ^ io.Event.chan) (e.Event.tid, e.Event.sid) false
    | Event.Spawned _ -> advance "spawn" (e.Event.tid, e.Event.sid) false
    | Event.Lock_acq m -> advance ("l:" ^ m) (e.Event.tid, e.Event.sid) false
    | Event.Step | Event.Read _ | Event.Write _ | Event.In _ | Event.Out _
    | Event.Lock_rel _ | Event.Crashed _ ->
      ());
    if !violated_set then Some "sync-order-divergence" else None
  in
  let inputs = input_queues log `All in
  let allowed (c : World.cand) =
    if not (Hashtbl.mem blocking_site c.World.sid) then true
    else
      match Hashtbl.find_opt site_key c.World.sid with
      | None -> true
      | Some key -> (
        match head key with
        | Some (t, s) -> t = c.World.tid && s = c.World.sid
        | None -> false)
  in
  let world =
    {
      World.name = Printf.sprintf "replay:sync(seed=%d)" seed;
      pick_thread =
        (fun ~step:_ cands ->
          match List.filter allowed cands with
          | [] ->
            violated_set := true;
            (Prng.pick rng cands).World.tid
          | ok -> (Prng.pick rng ok).World.tid);
      pick_input =
        (fun ~step:_ ~tid ~chan:_ ~domain ->
          match pop inputs tid with
          | Some v -> v
          | None -> ( match domain with [] -> Value.unit | v :: _ -> v));
      on_read = (fun ~step:_ ~tid:_ ~sid:_ ~region:_ ~index:_ ~actual -> actual);
      on_recv = (fun ~step:_ ~tid:_ ~sid:_ ~chan:_ ~actual -> actual);
      on_try_recv =
        (fun ~step:_ ~tid ~sid:_ ~chan ->
          match head ("r:" ^ chan) with
          | Some (t, _) when t = tid -> World.Default
          | Some _ -> World.Force_fail
          | None -> World.Force_fail);
      passive_try_recv = false;
    }
  in
  { world; abort; violated = (fun () -> !violated_set) }

(* Partial-evidence replay over a stitched shard merge. The merged log
   is dense for surviving threads (a perfect recorder logs every one of
   their steps), so the subsequence scheduler above would starve them:
   all their sites are "pending", only lost-node threads ever look safe,
   and one stalled head wedges the run. Instead the partial oracle
   steers softly — when the merged order's head is an eligible
   candidate it runs, otherwise the pick is uniform over ALL candidates
   — and the cursor simply stops advancing past a head the execution
   never reaches (the lost node's altered timing makes that legitimate,
   not divergence, so there is no abort). Surviving threads' inputs are
   fed back per thread; lost threads fall back to seeded-random domain
   picks: the lost evidence is exactly the search dimension. *)
type steer = {
  lost_tids : int list;
  hot_sids : int list;
  cold_input_tids : int list;
}

let no_steer = { lost_tids = []; hot_sids = []; cold_input_tids = [] }

let partial ?(steer = no_steer) ~seed log =
  let rng = Prng.create seed in
  let remaining = ref (Log.sched_points log) in
  let inputs = input_queues log `All in
  let mem_tbl xs =
    let t = Hashtbl.create (List.length xs + 1) in
    List.iter (fun x -> Hashtbl.replace t x ()) xs;
    t
  in
  let lost = mem_tbl steer.lost_tids in
  let hot = mem_tbl steer.hot_sids in
  let cold = mem_tbl steer.cold_input_tids in
  (* handles resolved once per oracle, not once per pick *)
  let c_stalls = Ddet_obs.Tracer.handle "oracle.cursor_stalls" in
  let c_hot = Ddet_obs.Tracer.handle "oracle.steer_hot_picks" in
  let c_cold = Ddet_obs.Tracer.handle "oracle.cold_pins" in
  (* on a cursor stall, prefer a lost thread sitting at a statically hot
     site: those are the only decision points whose order the search
     actually needs to explore *)
  let pick_free ~stalled cands =
    (* a stall (merged-order head present but not eligible) is expected
       under partial evidence, not divergence — but its frequency is
       exactly the cost of the lost node, so the trace counts it *)
    if stalled then Ddet_obs.Tracer.bump c_stalls 1;
    let hot_cands =
      List.filter
        (fun (c : World.cand) ->
          Hashtbl.mem lost c.World.tid && Hashtbl.mem hot c.World.sid)
        cands
    in
    match hot_cands with
    | [] -> (Prng.pick rng cands).World.tid
    | hc ->
      Ddet_obs.Tracer.bump c_hot 1;
      (Prng.pick rng hc).World.tid
  in
  let advance (e : Event.t) =
    match e.Event.kind with
    | Event.Step -> (
      match !remaining with
      | (t, s) :: tl when t = e.Event.tid && s = e.Event.sid -> remaining := tl
      | _ -> ())
    | _ -> ()
  in
  let abort e =
    advance e;
    None
  in
  let world =
    {
      World.name = Printf.sprintf "replay:partial(seed=%d)" seed;
      pick_thread =
        (fun ~step:_ cands ->
          match !remaining with
          | (t, s) :: _ -> (
            match
              List.find_opt
                (fun c -> c.World.tid = t && c.World.sid = s)
                cands
            with
            | Some c -> c.World.tid
            | None -> pick_free ~stalled:true cands)
          | [] -> pick_free ~stalled:false cands);
      pick_input =
        (fun ~step:_ ~tid ~chan:_ ~domain ->
          match pop inputs tid with
          | Some v -> v
          | None -> (
            match domain with
            | [] -> Value.unit
            | v :: _ when Hashtbl.mem cold tid ->
              (* statically cold: this thread's inputs provably never
                 reached a survivor, so pin them instead of searching *)
              Ddet_obs.Tracer.bump c_cold 1;
              v
            | _ -> Prng.pick rng domain));
      on_read = (fun ~step:_ ~tid:_ ~sid:_ ~region:_ ~index:_ ~actual -> actual);
      on_recv = (fun ~step:_ ~tid:_ ~sid:_ ~chan:_ ~actual -> actual);
      on_try_recv = (fun ~step:_ ~tid:_ ~sid:_ ~chan:_ -> World.Default);
      passive_try_recv = true;
    }
  in
  { world; abort; violated = (fun () -> false) }

let free ~seed =
  let never = ref false in
  {
    world = World.random ~seed;
    abort = abort_of never;
    violated = (fun () -> !never);
  }
