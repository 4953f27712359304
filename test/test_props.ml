(* Property-based tests (qcheck): record/replay round-trip laws over
   randomly generated concurrent programs, cost-model algebra, PRNG and
   data-structure invariants. *)

open Mvm
open Ddet_record
open Ddet_replay

(* ------------------------------------------------------------------ *)
(* generators *)

(* A generated scenario: a random program plus a production seed. The
   qcheck generator draws two ints and proggen does the heavy lifting;
   shrinking the ints shrinks toward small seeds, which is good enough for
   diagnosis (the program is reconstructible from pseed). *)
let scenario_gen =
  QCheck2.Gen.(
    map2
      (fun pseed wseed -> (pseed, wseed))
      (int_range 1 5_000) (int_range 1 5_000))

let program_of pseed = Proggen.generate Proggen.default (Prng.create pseed)

let print_scenario (pseed, wseed) =
  Printf.sprintf "program seed %d, world seed %d" pseed wseed

let record_run recorder labeled wseed =
  Recorder.record recorder labeled ~spec:Spec.accept_all
    ~world:(World.random ~seed:wseed)

(* ------------------------------------------------------------------ *)
(* round-trip laws *)

(* Perfect determinism: replaying the full log reproduces the execution
   event-for-event (schedules, outputs, final status). *)
let prop_perfect_roundtrip =
  QCheck2.Test.make ~name:"perfect record/replay reproduces the schedule"
    ~count:60 ~print:print_scenario scenario_gen (fun (pseed, wseed) ->
      let labeled = program_of pseed in
      let original, log = record_run (Full_recorder.create ()) labeled wseed in
      let outcome = Replayer.perfect labeled ~spec:Spec.accept_all log in
      match outcome.Replayer.result with
      | None -> false
      | Some replay ->
        Trace.sched_points original.Interp.trace
        = Trace.sched_points replay.Interp.trace
        && original.Interp.outputs = replay.Interp.outputs)

(* Value determinism: each thread's observed read values replay exactly,
   whatever schedule the replayer picks. *)
let prop_value_thread_projection =
  QCheck2.Test.make ~name:"value replay preserves per-thread read projections"
    ~count:60 ~print:print_scenario scenario_gen (fun (pseed, wseed) ->
      let labeled = program_of pseed in
      let original, log = record_run (Value_recorder.create ()) labeled wseed in
      let handle = Oracle.value_det ~seed:(wseed + 1) log in
      let replay =
        Interp.run ~max_steps:100_000 labeled handle.Oracle.world
      in
      (* generated programs always terminate; a hung replay is a bug *)
      replay.Interp.status = Interp.Done
      && List.for_all
           (fun tid ->
             Trace.reads_by original.Interp.trace tid
             = Trace.reads_by replay.Interp.trace tid)
           [ 0; 1; 2 ])

(* Value determinism pins each thread's outputs — but not their global
   interleaving across threads: that is precisely iDNA's relaxation (no
   cross-CPU causal order), and qcheck found the counterexample that keeps
   this property honest. *)
let outputs_by_thread (r : Interp.result) tid =
  Trace.fold
    (fun acc (e : Event.t) ->
      match e.Event.kind with
      | Event.Out io when e.Event.tid = tid ->
        (io.Event.chan, io.Event.value.Value.v) :: acc
      | _ -> acc)
    [] r.Interp.trace
  |> List.rev

let prop_value_outputs =
  QCheck2.Test.make ~name:"value replay reproduces per-thread outputs"
    ~count:60 ~print:print_scenario scenario_gen (fun (pseed, wseed) ->
      let labeled = program_of pseed in
      let original, log = record_run (Value_recorder.create ()) labeled wseed in
      let handle = Oracle.value_det ~seed:(wseed + 7) log in
      let replay = Interp.run ~max_steps:100_000 labeled handle.Oracle.world in
      List.for_all
        (fun tid -> outputs_by_thread original tid = outputs_by_thread replay tid)
        [ 0; 1; 2 ])

(* RCSE at always-high fidelity is perfect determinism. *)
let prop_rcse_full_fidelity_roundtrip =
  QCheck2.Test.make ~name:"always-high rcse replays like perfect determinism"
    ~count:40 ~print:print_scenario scenario_gen (fun (pseed, wseed) ->
      let labeled = program_of pseed in
      let recorder =
        Rcse_recorder.create (Fidelity_level.always Fidelity_level.High)
      in
      let original, log = record_run recorder labeled wseed in
      let handle = Oracle.rcse ~seed:1 log in
      let replay =
        Interp.run ~max_steps:100_000 ~abort:handle.Oracle.abort labeled
          handle.Oracle.world
      in
      (not (handle.Oracle.violated ()))
      && original.Interp.outputs = replay.Interp.outputs)

(* The same production seed always yields the same log (recording is a
   pure function of program and world). *)
let prop_recording_deterministic =
  QCheck2.Test.make ~name:"recording is deterministic" ~count:60
    ~print:print_scenario scenario_gen (fun (pseed, wseed) ->
      let labeled = program_of pseed in
      let _, log1 = record_run (Value_recorder.create ()) labeled wseed in
      let _, log2 = record_run (Value_recorder.create ()) labeled wseed in
      log1.Log.entries = log2.Log.entries)

(* Output-determinism acceptance: the original execution trivially
   satisfies its own output constraint, and the streaming prefix check
   agrees with the final check on it. *)
let prop_output_constraint_reflexive =
  QCheck2.Test.make ~name:"output constraints accept the original run"
    ~count:60 ~print:print_scenario scenario_gen (fun (pseed, wseed) ->
      let labeled = program_of pseed in
      let original, log = record_run (Output_recorder.create ()) labeled wseed in
      let abort = Constraints.output_prefix_abort log in
      let streaming_ok = ref true in
      Trace.iter
        (fun e -> if abort e <> None then streaming_ok := false)
        original.Interp.trace;
      Constraints.outputs_match log original && !streaming_ok)

(* Serialization: parse (print log) = log, over logs produced by real
   recorders on random programs. *)
let prop_log_io_roundtrip =
  QCheck2.Test.make ~name:"log serialization round-trips" ~count:60
    ~print:print_scenario scenario_gen (fun (pseed, wseed) ->
      let labeled = program_of pseed in
      let recorder =
        match pseed mod 5 with
        | 0 -> Full_recorder.create ()
        | 1 -> Value_recorder.create ()
        | 2 -> Sync_recorder.create ()
        | 3 -> Output_recorder.create ()
        | _ -> Rcse_recorder.create (Fidelity_level.always Fidelity_level.High)
      in
      let _, log = record_run recorder labeled wseed in
      match Log_io.of_string (Log_io.to_string log) with
      | Ok log' ->
        log'.Log.entries = log.Log.entries
        && log'.Log.base_steps = log.Log.base_steps
        && log'.Log.failure = log.Log.failure
      | Error _ -> false)

(* Serialization survives arbitrary byte strings in payload positions:
   inputs, read values, marks and crash messages. *)
let prop_log_io_arbitrary_payloads =
  QCheck2.Test.make ~name:"log serialization survives arbitrary payloads"
    ~count:100 ~print:(fun ss -> String.concat "|" (List.map String.escaped ss))
    QCheck2.Gen.(list_size (int_range 1 8) string)
    (fun payloads ->
      let entries =
        List.concat_map
          (fun s ->
            [
              Log.Input { tid = 0; chan = "c"; value = Value.str s };
              Log.Read_val
                { tid = 1; sid = 2; kind = Log.Mem; value = Value.str s };
              Log.Mark s;
            ])
          payloads
      in
      let log =
        Log.make ~recorder:"prop" ~entries ~base_steps:1
          ~failure:(Some (Mvm.Failure.Crash { sid = 1; msg = List.hd payloads }))
          ()
      in
      match Log_io.of_string (Log_io.to_string log) with
      | Ok log' -> log'.Log.entries = entries && log'.Log.failure = log.Log.failure
      | Error _ -> false)

(* Graceful degradation: whatever single line of a valid v2 log is
   corrupted — magic, header, entry or trailer — salvage loading still
   returns a log, loses at most that one entry, keeps the survivors in
   order, and reports the damage. *)
let prop_salvage_single_line_corruption =
  QCheck2.Test.make ~name:"salvage survives any single-line corruption"
    ~count:80
    ~print:(fun ((pseed, wseed), line) ->
      Printf.sprintf "%s, corrupt line %d" (print_scenario (pseed, wseed)) line)
    QCheck2.Gen.(pair scenario_gen (int_range 0 10_000))
    (fun ((pseed, wseed), line) ->
      let labeled = program_of pseed in
      let _, log = record_run (Full_recorder.create ()) labeled wseed in
      let lines =
        String.split_on_char '\n' (Log_io.to_string log)
        |> List.filter (fun l -> String.length l > 0)
      in
      let ix = line mod List.length lines in
      let damaged =
        String.concat "\n"
          (List.mapi (fun k l -> if k = ix then "!!corrupted!!" else l) lines)
      in
      let rec subsequence xs ys =
        match (xs, ys) with
        | [], _ -> true
        | _, [] -> false
        | x :: xs', y :: ys' ->
          if x = y then subsequence xs' ys' else subsequence xs ys'
      in
      match Log_io.of_string_report ~mode:Log_io.Salvage damaged with
      | Ok (log', damage) ->
        Log_io.is_damaged damage
        && List.length log'.Log.entries >= List.length log.Log.entries - 1
        && subsequence log'.Log.entries log.Log.entries
      | Error _ -> false)

(* ------------------------------------------------------------------ *)
(* node-fault lowering *)

(* Node-granular faults are sugar, not new nondeterminism: lowering a
   merged plan (node faults + channel/thread primitives) yields exactly
   the plan a human would write by hand against the node map — and
   injecting either into the same world drives a step-for-step identical
   execution. The law quantifies over partition shapes, fault windows,
   which node faults ride along, and the production seed. *)
let node_law_app = Ddet_apps.Msg_server.app ()

let prop_node_faults_are_sugar =
  QCheck2.Test.make ~name:"node faults lower to their thread-level spelling"
    ~count:60
    ~print:(fun (shape, from, len, flags, wseed) ->
      Printf.sprintf "shape %d, window %d+%d, flags %d, world seed %d" shape
        from len flags wseed)
    QCheck2.Gen.(
      tup5 (int_range 0 2) (int_range 0 200) (int_range 1 200) (int_range 0 7)
        (int_range 1 1_000))
    (fun (shape, from, len, flags, wseed) ->
      let app = node_law_app in
      let map = Option.get app.Ddet_apps.App.nodes in
      let labeled = app.Ddet_apps.App.labeled in
      let prog = labeled.Label.prog in
      let groups =
        match shape with
        | 0 -> [ [ "server"; "p0" ]; [ "p1" ] ]
        | 1 -> [ [ "server" ]; [ "p0"; "p1" ] ]
        | _ -> [ [ "server" ]; [ "p0" ]; [ "p1" ] ]
      in
      let until = from + len in
      let crash_node = [| "server"; "p0"; "p1" |].(flags mod 3) in
      (* sugared spelling and its hand-desugared twin, built in lockstep:
         each (fault, expansion) pair keeps the two plans aligned *)
      let pieces =
        [ ( Fault.partition ~groups ~from_step:from ~until_step:until,
            List.map
              (fun chan -> Fault.delay ~chan ~from_step:from ~until_step:until)
              (Node.cut_channels map prog ~groups) ) ]
        @ (if flags land 1 = 1 then
             [ ( Fault.node_crash ~node:crash_node ~at_step:until,
                 List.map
                   (fun tid -> Fault.crash ~tid ~at_step:until)
                   (Node.members map prog crash_node) ) ]
           else [])
        @ (if flags land 2 = 2 then
             [ ( Fault.node_restart ~node:"p1" ~from_step:from ~until_step:until,
                 List.map
                   (fun tid -> Fault.stall ~tid ~from_step:from ~until_step:until)
                   (Node.members map prog "p1") ) ]
           else [])
        (* a channel primitive merged in: lowering must pass it through *)
        @ [ (Fault.drop ~prob:0.2 "done0", [ Fault.drop ~prob:0.2 "done0" ]) ]
      in
      let sugared = Fault.make ~seed:wseed (List.map fst pieces) in
      let by_hand = Fault.make ~seed:wseed (List.concat_map snd pieces) in
      let lowered = Fault.lower ~map ~prog sugared in
      (* data identity: lowering IS the hand spelling *)
      (not (Fault.has_node_faults lowered))
      && Fault.to_string lowered = Fault.to_string by_hand
      &&
      (* behavioral identity, step for step *)
      let run plan =
        Interp.run ~max_steps:5_000 labeled
          (Fault.inject plan (World.random ~seed:wseed))
      in
      let a = run lowered and b = run by_hand in
      Trace.events a.Interp.trace = Trace.events b.Interp.trace
      && a.Interp.outputs = b.Interp.outputs
      && a.Interp.failure = b.Interp.failure
      && a.Interp.steps = b.Interp.steps)

(* ------------------------------------------------------------------ *)
(* cost model algebra *)

let entry_gen =
  QCheck2.Gen.(
    oneof
      [
        return (Log.Sched { tid = 0; sid = 1 });
        return (Log.Sync { tid = 0; sid = 1; op = Log.Op_spawn });
        map (fun n -> Log.Input { tid = 0; chan = "c"; value = Value.int n }) small_int;
        map
          (fun s ->
            Log.Read_val { tid = 0; sid = 1; kind = Log.Mem; value = Value.str s })
          string_small;
        return (Log.Failure_desc Mvm.Failure.Hang);
        return (Log.Mark "m");
      ])

let prop_cost_nonnegative =
  QCheck2.Test.make ~name:"entry costs are non-negative" ~count:200 entry_gen
    (fun e -> Cost_model.entry_cost Cost_model.default e >= 0.0)

let prop_overhead_lower_bound =
  QCheck2.Test.make ~name:"overhead is at least 1.0" ~count:100
    QCheck2.Gen.(list_size (int_range 0 50) entry_gen)
    (fun entries ->
      let log = Log.make ~recorder:"t" ~entries ~base_steps:10 ~failure:None () in
      Cost_model.overhead Cost_model.default log >= 1.0)

let prop_cost_additive =
  QCheck2.Test.make ~name:"recording cost is additive over entries" ~count:100
    QCheck2.Gen.(pair (list_size (int_range 0 20) entry_gen) (list_size (int_range 0 20) entry_gen))
    (fun (e1, e2) ->
      let mk entries = Log.make ~recorder:"t" ~entries ~base_steps:1 ~failure:None () in
      let c l = Cost_model.recording_cost Cost_model.default l in
      abs_float (c (mk (e1 @ e2)) -. (c (mk e1) +. c (mk e2))) < 1e-9)

(* ------------------------------------------------------------------ *)
(* prng and containers *)

let prop_prng_range =
  QCheck2.Test.make ~name:"prng int stays in range" ~count:200
    QCheck2.Gen.(pair int (int_range 1 1_000_000))
    (fun (seed, bound) ->
      let rng = Prng.create seed in
      let v = Prng.int rng bound in
      v >= 0 && v < bound)

let prop_prng_deterministic =
  QCheck2.Test.make ~name:"prng streams are seed-deterministic" ~count:100
    QCheck2.Gen.int (fun seed ->
      let a = Prng.create seed and b = Prng.create seed in
      List.init 20 (fun _ -> Prng.int a 1000)
      = List.init 20 (fun _ -> Prng.int b 1000))

let prop_vec_models_list =
  QCheck2.Test.make ~name:"vec behaves like a list" ~count:200
    QCheck2.Gen.(list small_int)
    (fun xs ->
      let v = Vec.of_list xs in
      Vec.to_list v = xs
      && Vec.length v = List.length xs
      && Vec.fold (fun acc x -> acc + x) 0 v = List.fold_left ( + ) 0 xs
      && Vec.filter (fun x -> x mod 2 = 0) v = List.filter (fun x -> x mod 2 = 0) xs)

let prop_taint_union =
  QCheck2.Test.make ~name:"taint union is commutative and idempotent" ~count:200
    QCheck2.Gen.(pair (list_size (int_range 0 5) (string_size (int_range 1 3)))
                   (list_size (int_range 0 5) (string_size (int_range 1 3))))
    (fun (xs, ys) ->
      let of_list l = List.fold_left (fun t x -> Taint.union t (Taint.singleton x)) Taint.empty l in
      let a = of_list xs and b = of_list ys in
      Taint.equal (Taint.union a b) (Taint.union b a)
      && Taint.equal (Taint.union a a) a)

(* Trace.scalar_at agrees with a reference fold over writes. *)
let prop_scalar_reconstruction =
  QCheck2.Test.make ~name:"scalar_at agrees with the write history" ~count:60
    ~print:print_scenario scenario_gen (fun (pseed, wseed) ->
      let labeled = program_of pseed in
      let r = Interp.run labeled (World.random ~seed:wseed) in
      let writes = Trace.writes_to_scalar r.Interp.trace "s0" in
      let final = Trace.scalar_at r.Interp.trace "s0" ~init:(Value.int 0) ~step:max_int in
      match List.rev writes with
      | [] -> Value.equal final (Value.int 0)
      | (_, _, last) :: _ -> Value.equal final last)

(* ------------------------------------------------------------------ *)
(* DFS state-hash pruning *)

let print_pseed pseed = Printf.sprintf "program seed %d" pseed

let dfs_budget =
  { Search.max_attempts = 40; max_steps_per_attempt = 2_000; base_seed = 1; deadline_s = None }

(* Soundness: every prefix the pruner skips, re-run in full, reproduces
   the (status, outputs, failure) projection of a run the search had
   already evaluated — pruning never discards unseen behaviour. *)
let prop_pruning_sound =
  QCheck2.Test.make ~name:"dfs pruning only skips already-covered behaviour"
    ~count:40 ~print:print_pseed
    QCheck2.Gen.(int_range 1 5_000)
    (fun pseed ->
      let labeled = program_of pseed in
      let evaluated = ref [] in
      let score r =
        evaluated := r :: !evaluated;
        0.0
      in
      let pruned = ref [] in
      let (_ : Search.outcome) =
        Search.dfs_schedules ~score
          ~on_prune:(fun ~prefix -> pruned := Array.copy prefix :: !pruned)
          dfs_budget ~spec:Spec.accept_all
          ~accept:(fun _ -> false)
          labeled
      in
      let proj (r : Interp.result) =
        (r.Interp.status, r.Interp.outputs, r.Interp.failure)
      in
      let seen = List.map proj !evaluated in
      List.for_all
        (fun prefix ->
          let r, _ =
            Search.run_schedule_prefix
              ~max_steps:dfs_budget.Search.max_steps_per_attempt ~prefix
              labeled
          in
          List.mem (proj r) seen)
        !pruned)

(* Completeness is not traded away: whenever the unpruned DFS reproduces
   a schedule-dependent deviation within the budget, the pruned DFS does
   too, in at most as many attempts. *)
let prop_pruning_preserves_success =
  QCheck2.Test.make ~name:"dfs pruning preserves reproduction" ~count:40
    ~print:print_pseed
    QCheck2.Gen.(int_range 1 5_000)
    (fun pseed ->
      let labeled = program_of pseed in
      let base, _ =
        Search.run_schedule_prefix
          ~max_steps:dfs_budget.Search.max_steps_per_attempt ~prefix:[||]
          labeled
      in
      let accept r =
        r.Interp.outputs <> base.Interp.outputs
        || r.Interp.failure <> base.Interp.failure
      in
      let p =
        Search.dfs_schedules dfs_budget ~spec:Spec.accept_all ~accept labeled
      in
      let n =
        Search.dfs_schedules ~prune:false dfs_budget ~spec:Spec.accept_all
          ~accept labeled
      in
      (not n.Search.stats.Search.success || p.Search.stats.Search.success)
      && ((not (n.Search.stats.Search.success && p.Search.stats.Search.success))
         || p.Search.stats.Search.attempts <= n.Search.stats.Search.attempts))

(* ------------------------------------------------------------------ *)
(* checkpointed resumable search *)

(* Resume parity, the crash-tolerance contract as a law: kill a search at
   a random attempt boundary (simulated with a truncated budget plus a
   checkpoint sink at a random interval — the engines flush the frontier
   when the budget runs out, so the file on disk is exactly what a crash
   after the last atomic write leaves; test_crash.ml ties this to a real
   SIGKILL), then resume from that file. The resumed search must reach
   the uninterrupted search's outcome: same counters, same verdict, same
   reproduction. Randomizes the engine too. *)
let same_search_outcome (a : Search.outcome) (b : Search.outcome) =
  let proj (r : Interp.result) =
    (r.Interp.status, r.Interp.outputs, r.Interp.failure)
  in
  a.Search.stats.Search.attempts = b.Search.stats.Search.attempts
  && a.Search.stats.Search.total_steps = b.Search.stats.Search.total_steps
  && a.Search.stats.Search.pruned = b.Search.stats.Search.pruned
  && a.Search.stats.Search.success = b.Search.stats.Search.success
  && (match (a.Search.result, b.Search.result) with
     | None, None -> true
     | Some ra, Some rb -> proj ra = proj rb
     | _ -> false)
  &&
  match (a.Search.partial, b.Search.partial) with
  | None, None -> true
  | Some pa, Some pb ->
    pa.Search.attempt = pb.Search.attempt
    && abs_float (pa.Search.closeness -. pb.Search.closeness) < 1e-9
    && proj pa.Search.best = proj pb.Search.best
  | _ -> false

let prop_resume_parity =
  QCheck2.Test.make ~name:"resumed search equals the uninterrupted search"
    ~count:40
    ~print:(fun (pseed, every, kill, engine) ->
      Printf.sprintf "program seed %d, sink every %d, kill point %d, engine %s"
        pseed every kill
        [| "restarts"; "inputs"; "dfs" |].(engine))
    QCheck2.Gen.(
      quad (int_range 1 5_000) (int_range 1 8) (int_range 1 1_000)
        (int_range 0 2))
    (fun (pseed, every, kill, engine) ->
      let labeled = program_of pseed in
      let budget =
        {
          Search.max_attempts = 12;
          max_steps_per_attempt = 2_000;
          base_seed = pseed;
          deadline_s = None;
        }
      in
      let base, _ =
        Search.run_schedule_prefix
          ~max_steps:budget.Search.max_steps_per_attempt ~prefix:[||] labeled
      in
      let accept r =
        r.Interp.outputs <> base.Interp.outputs
        || r.Interp.failure <> base.Interp.failure
      in
      let score r =
        if accept r then 1.0
        else float_of_int (List.length r.Interp.outputs) /. 100.
      in
      let run :
          ?checkpoint:Checkpoint.sink ->
          ?resume:Checkpoint.t ->
          Search.budget ->
          Search.outcome =
        match engine with
        | 0 ->
          fun ?checkpoint ?resume b ->
            Search.random_restarts ~score ?checkpoint ?resume b
              ~make:(fun ~attempt ->
                (World.random ~seed:(b.Search.base_seed + attempt), None))
              ~spec:Spec.accept_all ~accept labeled
        | 1 ->
          fun ?checkpoint ?resume b ->
            Search.enumerate_inputs ~score ?checkpoint ?resume b
              ~spec:Spec.accept_all ~accept labeled
        | _ ->
          fun ?checkpoint ?resume b ->
            Search.dfs_schedules ~score ?checkpoint ?resume b
              ~spec:Spec.accept_all ~accept labeled
      in
      let full = run budget in
      (* kill points live strictly inside the search: after at least one
         judged attempt, before the attempt that decides it *)
      let last =
        if full.Search.stats.Search.success then
          full.Search.stats.Search.attempts - 1
        else full.Search.stats.Search.attempts
      in
      if last < 1 then true
      else begin
        let kill_at = 1 + (kill mod last) in
        let file = Stdlib.Filename.temp_file "ddet_prop" ".ckpt" in
        let sink = Checkpoint.sink ~every file in
        let (_ : Search.outcome) =
          run ~checkpoint:sink { budget with Search.max_attempts = kill_at }
        in
        let verdict =
          match Checkpoint.load file with
          | Error e ->
            QCheck2.Test.fail_reportf "killed search left no checkpoint: %s" e
          | Ok ckpt -> same_search_outcome full (run ~resume:ckpt budget)
        in
        Stdlib.Sys.remove file;
        verdict
      end)

(* ------------------------------------------------------------------ *)
(* supervision *)

(* Attempts that deterministically crash are retried and then poisoned:
   the search survives, and the poisoned attempts are exactly the
   crashing ones it reached. *)
let prop_poisoned_attempts_are_the_crashing_ones =
  QCheck2.Test.make
    ~name:"poisoned attempts are exactly the crashing ones" ~count:20
    ~print:(fun (pseed, modk) ->
      Printf.sprintf "program seed %d, crash every %d-th attempt" pseed modk)
    QCheck2.Gen.(pair (int_range 1 5_000) (int_range 2 5))
    (fun (pseed, modk) ->
      let labeled = program_of pseed in
      let budget =
        {
          Search.max_attempts = 12;
          max_steps_per_attempt = 2_000;
          base_seed = pseed;
          deadline_s = None;
        }
      in
      let base, _ =
        Search.run_schedule_prefix
          ~max_steps:budget.Search.max_steps_per_attempt ~prefix:[||] labeled
      in
      let accept (r : Interp.result) =
        r.Interp.outputs <> base.Interp.outputs
        || r.Interp.failure <> base.Interp.failure
      in
      let make ~attempt =
        if attempt mod modk = 0 then failwith "injected attempt crash"
        else (World.random ~seed:(budget.Search.base_seed + attempt), None)
      in
      let o =
        Search.random_restarts budget ~make ~spec:Spec.accept_all ~accept
          labeled
      in
      let poisoned =
        List.filter_map
          (fun (i : Search.incident) ->
            if i.Search.poisoned then Some i.Search.at_attempt else None)
          o.Search.stats.Search.incidents
      in
      let crashing =
        List.filter
          (fun a -> a mod modk = 0)
          (List.init o.Search.stats.Search.attempts (fun a -> a + 1))
      in
      poisoned = crashing)

let () =
  let to_alcotest = QCheck_alcotest.to_alcotest in
  Alcotest.run "props"
    [
      ( "roundtrip",
        List.map to_alcotest
          [
            prop_perfect_roundtrip;
            prop_value_thread_projection;
            prop_value_outputs;
            prop_rcse_full_fidelity_roundtrip;
            prop_recording_deterministic;
            prop_output_constraint_reflexive;
            prop_log_io_roundtrip;
            prop_log_io_arbitrary_payloads;
            prop_salvage_single_line_corruption;
          ] );
      ("node-faults", List.map to_alcotest [ prop_node_faults_are_sugar ]);
      ( "cost-model",
        List.map to_alcotest
          [ prop_cost_nonnegative; prop_overhead_lower_bound; prop_cost_additive ] );
      ( "foundations",
        List.map to_alcotest
          [
            prop_prng_range;
            prop_prng_deterministic;
            prop_vec_models_list;
            prop_taint_union;
            prop_scalar_reconstruction;
          ] );
      ( "pruning",
        List.map to_alcotest
          [ prop_pruning_sound; prop_pruning_preserves_success ] );
      ("crash-tolerance", List.map to_alcotest [ prop_resume_parity ]);
      ( "supervision",
        List.map to_alcotest [ prop_poisoned_attempts_are_the_crashing_ones ] );
    ]
