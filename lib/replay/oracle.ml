open Mvm
open Ddet_record

type handle = {
  world : World.t;
  abort : Event.t -> string option;
  violated : unit -> bool;
}

(* Per-thread value queues (inputs, logged reads), each in log order. *)
let queues_of pairs =
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun (tid, v) ->
      match Hashtbl.find_opt tbl tid with
      | Some r -> r := v :: !r
      | None -> Hashtbl.replace tbl tid (ref [ v ]))
    pairs;
  Hashtbl.iter (fun _ r -> r := List.rev !r) tbl;
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

(* Candidate scans for the per-step scheduling hooks. They walk the
   candidate list in place: no filtered list, no closure, no option. *)

(* some candidate is thread [tid] about to execute site [sid] *)
let rec has_cand tid sid = function
  | [] -> false
  | (c : World.cand) :: tl ->
    (c.World.tid = tid && c.World.sid = sid) || has_cand tid sid tl

(* the site thread [tid] is about to execute, or -1 when it is not a
   candidate *)
let rec cand_sid tid = function
  | [] -> -1
  | (c : World.cand) :: tl ->
    if c.World.tid = tid then c.World.sid else cand_sid tid tl

let rec count_where ok n = function
  | [] -> n
  | c :: tl -> count_where ok (if ok c then n + 1 else n) tl

let rec nth_where ok k = function
  | [] -> invalid_arg "Oracle.nth_where"
  | c :: tl ->
    if not (ok c) then nth_where ok k tl
    else if k = 0 then c
    else nth_where ok (k - 1) tl

(* The seeded pick of the schedule oracles: the same single draw as
   [Prng.pick rng (List.filter ok cands)] when some candidate is [ok], and
   as [Prng.pick rng cands] when none is. The result is [ok] iff some
   candidate is. *)
let pick_eligible rng ok cands =
  match count_where ok 0 cands with
  | 0 -> Prng.pick rng cands
  | n -> nth_where ok (Prng.int rng n) cands

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
          | (t, s) :: tl ->
            if has_cand t s cands then (
              remaining := tl;
              t)
            else (
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

(* RCSE replay: the recorded [Cp_sched] (tid, sid) subsequence must occur
   in order. The points sit in two int arrays behind a cursor, which
   advances on *observed events* (via the abort hook, which sees every
   event), not on scheduling decisions — a forced try_recv that finds an
   empty queue emits nothing and must not consume a log entry. A site is
   *pending* while it still occurs at or after the cursor, i.e. iff its
   last log index is at or after the cursor; a dense (tid, sid) table of
   last indices, built once per handle, answers that with one load. A
   Step at a pending site other than the head means this interleaving
   cannot match the log: the attempt is flagged and aborted.

   Scheduling is tiered: (1) a candidate at the head point is forced;
   (2) otherwise candidates whose next site is not pending are safe (a
   statement only emits events carrying its own site id, so they cannot
   produce an out-of-order logged event); (3) otherwise a risky
   candidate runs — either harmlessly (a poll that emits nothing) or
   producing the violation that aborts the attempt. Tier 3 prevents
   livelock when the replay has genuinely diverged.

   A strict attempt is cut once its cursor is frozen: the head point's
   thread is a candidate whose next site is pending but is not the head
   site, and the recording has no failure or a spec violation. The cut
   ends the attempt as [Aborted "rcse-stall"] on the next event, because
   no continuation can be accepted:
   - the head thread's next statement stays fixed until that thread runs,
     and the cursor cannot move before it does. When it runs, it emits a
     Step at a pending site that is not the head, which is a violation;
   - so the run can never end [Done], which needs every thread's frames
     empty. Fault plans only deschedule threads, never remove one;
   - a passing recording is matched only by a [Done] run (an aborted one
     never matches it), and a spec violation only comes from [Spec.apply]
     on a [Done] run.
   A crash or a hang can still happen while the head thread waits, so
   such recordings are never cut. The picks ignore the cut, and a
   violation still wins over it as the abort reason: an attempt whose
   [abort] ignores "rcse-stall" runs exactly as it would without the
   rule.

   Windowed (trigger/invariant) logs record a time slice whose sites also
   execute legitimately outside the window, so schedule enforcement is
   only meaningful for statically selected (code-based) logs: without
   [strict] no point is enforced, and replay pins the recorded inputs by
   site and searches the schedule. *)
let rcse ?(strict = true) ~seed log =
  let rng = Prng.create seed in
  let points = if strict then Array.of_list (Log.cp_sched_points log) else [||] in
  let n = Array.length points in
  let pt = Array.map fst points and ps = Array.map snd points in
  let pos = ref 0 in
  let dim xs = 1 + Array.fold_left max (-1) xs in
  let rows = dim pt and width = dim ps in
  (* last.(tid * width + sid): the last log index of (tid, sid), or -1 *)
  let last = Array.make (rows * width) (-1) in
  Array.iteri
    (fun i t -> if t >= 0 && ps.(i) >= 0 then last.((t * width) + ps.(i)) <- i)
    pt;
  let pending t s =
    t >= 0 && s >= 0 && t < rows && s < width && last.((t * width) + s) >= !pos
  in
  let safe (c : World.cand) = not (pending c.World.tid c.World.sid) in
  let violated = ref false in
  (* whether a frozen cursor cuts this attempt, and whether it has *)
  let cuttable =
    n > 0
    &&
    match Log.recorded_failure log with
    | None | Some (Failure.Spec_violation _) -> true
    | Some (Failure.Crash _ | Failure.Hang) -> false
  in
  let stalled = ref false in
  let c_cuts = Ddet_obs.Tracer.handle "oracle.rcse_stall_cuts" in
  let cp_inputs =
    queues_of
      (List.filter_map
         (function
           | Log.Cp_input { tid; sid; value; _ } -> Some (tid, (sid, value))
           | _ -> None)
         log.Log.entries)
  in
  (* the site each thread is currently executing, set at pick time: input
     forcing aligns logged input sites against it. Only threads with
     logged inputs are ever asked, so the array stops at the last of them *)
  let cur_sid =
    Array.make (1 + Hashtbl.fold (fun t _ m -> max t m) cp_inputs (-1)) (-1)
  in
  let note tid sid = if tid < Array.length cur_sid then cur_sid.(tid) <- sid in
  let abort (e : Event.t) =
    (match e.Event.kind with
    | Event.Step ->
      let p = !pos and t = e.Event.tid and s = e.Event.sid in
      if p < n && pt.(p) = t && ps.(p) = s then pos := p + 1
      else if pending t s then violated := true
    | _ -> ());
    if !violated then Some "log-divergence"
    else if !stalled then (
      Ddet_obs.Tracer.bump c_cuts 1;
      Some "rcse-stall")
    else None
  in
  let pick_thread ~step:_ cands =
    let p = !pos in
    if p < n && has_cand pt.(p) ps.(p) cands then (
      note pt.(p) ps.(p);
      pt.(p))
    else begin
      if cuttable && p < n && pending pt.(p) (cand_sid pt.(p) cands) then
        stalled := true;
      let c = pick_eligible rng safe cands in
      note c.World.tid c.World.sid;
      c.World.tid
    end
  in
  let pick_input ~step:_ ~tid ~chan:_ ~domain =
    match Hashtbl.find_opt cp_inputs tid with
    | Some ({ contents = (s, v) :: tl } as r) when cur_sid.(tid) = s ->
      r := tl;
      v
    | Some _ | None -> (
      match domain with [] -> Value.unit | _ -> Prng.pick rng domain)
  in
  let world =
    {
      World.name = Printf.sprintf "replay:rcse(seed=%d)" seed;
      pick_thread;
      pick_input;
      on_read = (fun ~step:_ ~tid:_ ~sid:_ ~region:_ ~index:_ ~actual -> actual);
      on_recv = (fun ~step:_ ~tid:_ ~sid:_ ~chan:_ ~actual -> actual);
      on_try_recv = (fun ~step:_ ~tid:_ ~sid:_ ~chan:_ -> World.Default);
      passive_try_recv = true;
    }
  in
  { world; abort; violated = (fun () -> !violated) }

(* Sync-schedule replay enforces *per-object* operation orders, which is
   what an ODR-style logger records: per-channel send and consume orders,
   the global spawn order (it assigns thread ids) and per-lock acquisition
   orders. A try_recv whose thread is not the next recorded consumer of its
   channel is forced to miss (harmless poll); a send, spawn or lock is only
   scheduled when it is next in its object's order; an event that still
   comes out of order (or was never recorded at all) aborts the attempt.
   Plain shared-memory access order is deliberately unconstrained: data-race
   outcomes are what this scheme must infer (searched by restarts).

   Each object's recorded order is a pair of int arrays behind a cursor.
   Events and polls find their object by name in a short array scan of
   their kind (no key string is built or hashed), and the scheduler finds
   a statement's object through an array indexed by its site. *)
type order = {
  name : string;  (** channel or lock; "" for the spawn order *)
  tids : int array;
  sids : int array;
  mutable next : int;  (** cursor: the index of the next expected operation *)
}

let heads o tid sid =
  o.next < Array.length o.tids && o.tids.(o.next) = tid && o.sids.(o.next) = sid

(* the order named [name] in [os], or [absent] (an empty order) *)
let rec find_order absent os name i =
  if i = Array.length os then absent
  else if String.equal os.(i).name name then os.(i)
  else find_order absent os name (i + 1)

let sync ~seed log =
  let rng = Prng.create seed in
  let entries = Log.sync_entries log in
  let orders_of select =
    Hashtbl.fold
      (fun name q acc ->
        let q = Array.of_list !q in
        { name; tids = Array.map fst q; sids = Array.map snd q; next = 0 } :: acc)
      (queues_of (List.filter_map select entries))
      []
    |> Array.of_list
  in
  let sends = orders_of (function t, s, Log.Op_send c -> Some (c, (t, s)) | _ -> None)
  and recvs = orders_of (function t, s, Log.Op_recv c -> Some (c, (t, s)) | _ -> None)
  and locks = orders_of (function t, s, Log.Op_lock m -> Some (m, (t, s)) | _ -> None)
  and spawns = orders_of (function t, s, Log.Op_spawn -> Some ("", (t, s)) | _ -> None) in
  let absent = { name = ""; tids = [||]; sids = [||]; next = 0 } in
  let spawn = find_order absent spawns "" 0 in
  (* site -> the order of the send, spawn or lock statement there
     ([absent] for any other site): the scheduler holds such a statement
     back until it is next in its object's order *)
  let site_order =
    Array.make (1 + List.fold_left (fun m (_, s, _) -> max m s) (-1) entries) absent
  in
  List.iter
    (fun (_, sid, op) ->
      match op with
      | _ when sid < 0 -> ()
      | Log.Op_send c -> site_order.(sid) <- find_order absent sends c 0
      | Log.Op_spawn -> site_order.(sid) <- spawn
      | Log.Op_lock m -> site_order.(sid) <- find_order absent locks m 0
      | Log.Op_recv _ | Log.Op_unlock _ -> ())
    entries;
  let violated = ref false in
  let advance o (e : Event.t) =
    if heads o e.Event.tid e.Event.sid then o.next <- o.next + 1
    else violated := true
  in
  let abort (e : Event.t) =
    (match e.Event.kind with
    | Event.Msg_send io -> advance (find_order absent sends io.Event.chan 0) e
    | Event.Msg_recv io -> advance (find_order absent recvs io.Event.chan 0) e
    | Event.Spawned _ -> advance spawn e
    | Event.Lock_acq m -> advance (find_order absent locks m 0) e
    | Event.Step | Event.Read _ | Event.Write _ | Event.In _ | Event.Out _
    | Event.Lock_rel _ | Event.Crashed _ ->
      ());
    if !violated then Some "sync-order-divergence" else None
  in
  let inputs = input_queues log `All in
  let allowed (c : World.cand) =
    let s = c.World.sid in
    s < 0
    || s >= Array.length site_order
    || site_order.(s) == absent
    || heads site_order.(s) c.World.tid s
  in
  let world =
    {
      World.name = Printf.sprintf "replay:sync(seed=%d)" seed;
      pick_thread =
        (fun ~step:_ cands ->
          let c = pick_eligible rng allowed cands in
          if not (allowed c) then violated := true;
          c.World.tid);
      pick_input =
        (fun ~step:_ ~tid ~chan:_ ~domain ->
          match pop inputs tid with
          | Some v -> v
          | None -> ( match domain with [] -> Value.unit | v :: _ -> v));
      on_read = (fun ~step:_ ~tid:_ ~sid:_ ~region:_ ~index:_ ~actual -> actual);
      on_recv = (fun ~step:_ ~tid:_ ~sid:_ ~chan:_ ~actual -> actual);
      on_try_recv =
        (fun ~step:_ ~tid ~sid:_ ~chan ->
          let o = find_order absent recvs chan 0 in
          if o.next < Array.length o.tids && o.tids.(o.next) = tid then
            World.Default
          else World.Force_fail);
      passive_try_recv = false;
    }
  in
  { world; abort; violated = (fun () -> !violated) }

(* Partial-evidence replay over a stitched shard merge. The merged log
   is dense for surviving threads (a perfect recorder logs every one of
   their steps), so the RCSE scheduler above would starve them:
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
  let hot_lost (c : World.cand) =
    Hashtbl.mem lost c.World.tid && Hashtbl.mem hot c.World.sid
  in
  let pick_free ~stalled cands =
    (* a stall (merged-order head present but not eligible) is expected
       under partial evidence, not divergence — but its frequency is
       exactly the cost of the lost node, so the trace counts it *)
    if stalled then Ddet_obs.Tracer.bump c_stalls 1;
    let c = pick_eligible rng hot_lost cands in
    if hot_lost c then Ddet_obs.Tracer.bump c_hot 1;
    c.World.tid
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
          | (t, s) :: _ ->
            if has_cand t s cands then t else pick_free ~stalled:true cands
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
