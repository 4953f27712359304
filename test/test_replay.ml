(* Unit tests for ddet_replay: oracles, constraints, search engines and the
   per-model replay drivers, on small purpose-built programs. *)

open Mvm
open Mvm.Dsl
open Ddet_record
open Ddet_replay

let value_testable = Alcotest.testable Value.pp Value.equal

(* Racy counter: the replay battleground. *)
let counter_prog ~iters =
  program ~name:"counter"
    ~regions:[ scalar "c" (Value.int 0) ]
    ~inputs:[] ~main:"main"
    [
      func "main" []
        [
          spawn "w" []; spawn "w" [];
          recv "d1" "done"; recv "d2" "done";
          output "out" (g "c");
        ];
      func "w" []
        [
          for_ "k" (i 0) (i iters)
            [ assign "t" (g "c"); store_g "c" (v "t" +: i 1) ];
          send "done" (i 1);
        ];
    ]

let adder_prog =
  program ~name:"adder" ~regions:[]
    ~inputs:[ ("a", List.init 6 Value.int); ("b", List.init 6 Value.int) ]
    ~main:"main"
    [
      func "main" []
        [ input "a" "a"; input "b" "b"; output "sum" (v "a" +: v "b") ];
    ]

let spec_out_20 =
  Spec.make "twenty" (fun r ->
      match Trace.outputs_on r.Interp.trace "out" with
      | [ Value.Vint 20 ] -> Ok ()
      | _ -> Error "lost-update")

let record_counter seed recorder =
  Recorder.record recorder (counter_prog ~iters:10) ~spec:spec_out_20
    ~world:(World.random ~seed)

let find_failing_seed () =
  let rec scan seed =
    if seed > 500 then failwith "no failing seed for counter"
    else
      let r, _ = record_counter seed (Output_recorder.create ()) in
      if r.Interp.failure <> None then seed else scan (seed + 1)
  in
  scan 1

(* ------------------------------------------------------------------ *)
(* perfect replay *)

let test_perfect_roundtrip () =
  let seed = find_failing_seed () in
  let original, log = record_counter seed (Full_recorder.create ()) in
  let outcome = Replayer.perfect (counter_prog ~iters:10) ~spec:spec_out_20 log in
  match outcome.Replayer.result with
  | None -> Alcotest.fail "perfect replay diverged"
  | Some replay ->
    Alcotest.(check bool) "identical outputs" true
      (replay.Interp.outputs = original.Interp.outputs);
    Alcotest.(check (list (pair int int)))
      "identical schedule"
      (Trace.sched_points original.Interp.trace)
      (Trace.sched_points replay.Interp.trace)

let test_perfect_detects_corrupt_log () =
  let _, log = record_counter 1 (Full_recorder.create ()) in
  (* corrupt the schedule: swap the first two entries *)
  let entries =
    match log.Log.entries with
    | a :: b :: rest -> b :: a :: rest
    | es -> es
  in
  let log = { log with Log.entries } in
  let handle = Oracle.perfect log in
  let r = Interp.run ~abort:handle.Oracle.abort (counter_prog ~iters:10) handle.Oracle.world in
  match r.Interp.status with
  | Interp.Aborted _ -> ()
  | _ -> Alcotest.fail "corrupted log should abort the replay"

(* ------------------------------------------------------------------ *)
(* value replay *)

let test_value_reproduces_failure () =
  let seed = find_failing_seed () in
  let original, log = record_counter seed (Value_recorder.create ()) in
  let outcome = Replayer.value_det (counter_prog ~iters:10) ~spec:spec_out_20 log in
  match outcome.Replayer.result with
  | None -> Alcotest.fail "value replay failed"
  | Some replay ->
    Alcotest.(check bool) "same failure" true
      (original.Interp.failure = replay.Interp.failure)

let test_value_preserves_thread_projection () =
  let seed = find_failing_seed () in
  let original, log = record_counter seed (Value_recorder.create ()) in
  let outcome = Replayer.value_det (counter_prog ~iters:10) ~spec:spec_out_20 log in
  match outcome.Replayer.result with
  | None -> Alcotest.fail "value replay failed"
  | Some replay ->
    (* per-thread shared-read projections must match the original *)
    for tid = 0 to 2 do
      Alcotest.(check (list value_testable))
        (Printf.sprintf "thread %d reads" tid)
        (Trace.reads_by original.Interp.trace tid)
        (Trace.reads_by replay.Interp.trace tid)
    done

let test_value_forces_try_recv_outcomes () =
  (* a consumer polling an initially empty channel: the poll pattern is
     part of the thread's observations and must replay *)
  let p =
    program ~name:"poll" ~regions:[] ~inputs:[] ~main:"main"
      [
        func "main" []
          [
            spawn "producer" [];
            assign "got" (i 0);
            while_ (v "got" =: i 0)
              [ try_recv "ok" "x" "ch";
                when_ (v "ok") [ assign "got" (i 1); output "out" (v "x") ] ];
          ];
        func "producer" [] [ yield; yield; send "ch" (i 42) ];
      ]
  in
  let original, log =
    Recorder.record (Value_recorder.create ()) p ~spec:Spec.accept_all
      ~world:(World.random ~seed:7)
  in
  let outcome = Replayer.value_det p ~spec:Spec.accept_all log in
  match outcome.Replayer.result with
  | None -> Alcotest.fail "value replay failed"
  | Some replay ->
    Alcotest.(check bool) "same outputs" true
      (original.Interp.outputs = replay.Interp.outputs)

(* ------------------------------------------------------------------ *)
(* constraints *)

let test_outputs_match () =
  let r, log = record_counter 1 (Output_recorder.create ()) in
  Alcotest.(check bool) "run matches own log" true (Constraints.outputs_match log r)

let test_output_prefix_abort_fires () =
  let _, log = record_counter 1 (Output_recorder.create ()) in
  let abort = Constraints.output_prefix_abort log in
  let bad =
    {
      Event.step = 0; tid = 0; sid = 1; fname = "main";
      kind = Event.Out { chan = "out"; value = Value.untainted (Value.int (-1)) };
    }
  in
  Alcotest.(check bool) "mismatching output aborts" true (abort bad <> None)

let test_output_prefix_accepts_match () =
  let r, log = record_counter 1 (Output_recorder.create ()) in
  let abort = Constraints.output_prefix_abort log in
  let ok = ref true in
  Trace.iter (fun e -> if abort e <> None then ok := false) r.Interp.trace;
  Alcotest.(check bool) "own trace passes" true !ok

let test_failure_matches () =
  let p =
    program ~name:"boom" ~regions:[] ~inputs:[] ~main:"main"
      [ func "main" [] [ fail "kaput" ] ]
  in
  let r, log =
    Recorder.record (Failure_recorder.create ()) p ~spec:Spec.accept_all
      ~world:(World.round_robin ())
  in
  Alcotest.(check bool) "matches itself" true (Constraints.failure_matches log r)

(* a passing recording is matched by a run that ends on its own, never by
   one an abort hook cut short, though neither carries a failure *)
let test_failure_matches_aborted () =
  let p =
    program ~name:"quiet" ~regions:[] ~inputs:[] ~main:"main"
      [ func "main" [] [ output "o" (i 1); output "o" (i 2) ] ]
  in
  let r, log =
    Recorder.record (Failure_recorder.create ()) p ~spec:Spec.accept_all
      ~world:(World.round_robin ())
  in
  Alcotest.(check bool) "passing run matches itself" true
    (Constraints.failure_matches log r);
  List.iter
    (fun reason ->
      let cut = Interp.run ~abort:(fun _ -> Some reason) p (World.round_robin ()) in
      Alcotest.(check bool) "no failure" true (cut.Interp.failure = None);
      Alcotest.(check bool) (reason ^ " does not match") false
        (Constraints.failure_matches log cut))
    [ "deadline"; "log-divergence"; "rcse-stall" ]

(* ------------------------------------------------------------------ *)
(* search *)

let test_enumerate_finds_assignment () =
  let spec = Spec.accept_all in
  let accept (r : Interp.result) =
    Trace.outputs_on r.Interp.trace "sum" = [ Value.int 7 ]
  in
  let o = Search.enumerate_inputs Search.default_budget ~spec ~accept adder_prog in
  match o.Search.result with
  | Some r -> (
    match Trace.inputs_on r.Interp.trace "a", Trace.inputs_on r.Interp.trace "b" with
    | [ (_, _, Value.Vint a) ], [ (_, _, Value.Vint b) ] ->
      Alcotest.(check int) "inputs sum to 7" 7 (a + b)
    | _ -> Alcotest.fail "malformed inputs")
  | None -> Alcotest.fail "enumeration missed a satisfiable goal"

let test_enumerate_exhausts () =
  let spec = Spec.accept_all in
  let accept (r : Interp.result) =
    Trace.outputs_on r.Interp.trace "sum" = [ Value.int 99 ]
  in
  let o = Search.enumerate_inputs Search.default_budget ~spec ~accept adder_prog in
  Alcotest.(check bool) "unsatisfiable goal fails" true (o.Search.result = None);
  Alcotest.(check int) "exactly the 36 assignments tried" 36 o.Search.stats.attempts

let test_enumerate_lexicographic () =
  let spec = Spec.accept_all in
  let o = Search.enumerate_inputs Search.default_budget ~spec
      ~accept:(fun _ -> true) adder_prog
  in
  match o.Search.result with
  | Some r ->
    Alcotest.(check (list value_testable)) "first assignment is all-zero"
      [ Value.int 0 ]
      (Trace.outputs_on r.Interp.trace "sum")
  | None -> Alcotest.fail "accept-all must succeed"

let test_restarts_budget_respected () =
  let o =
    Search.random_restarts
      { Search.max_attempts = 7; max_steps_per_attempt = 1000; base_seed = 1; deadline_s = None }
      ~make:(fun ~attempt -> (World.random ~seed:attempt, None))
      ~spec:Spec.accept_all
      ~accept:(fun _ -> false)
      adder_prog
  in
  Alcotest.(check int) "attempts capped" 7 o.Search.stats.attempts;
  Alcotest.(check bool) "no result" true (o.Search.result = None);
  Alcotest.(check bool) "steps accounted" true (o.Search.stats.total_steps > 0)

let test_restarts_stops_on_success () =
  let o =
    Search.random_restarts
      { Search.max_attempts = 100; max_steps_per_attempt = 1000; base_seed = 1; deadline_s = None }
      ~make:(fun ~attempt -> (World.random ~seed:attempt, None))
      ~spec:Spec.accept_all
      ~accept:(fun _ -> true)
      adder_prog
  in
  Alcotest.(check int) "first attempt accepted" 1 o.Search.stats.attempts

let small_counter = counter_prog ~iters:3

let spec_out_6 =
  Spec.make "six" (fun r ->
      match Trace.outputs_on r.Interp.trace "out" with
      | [ Value.Vint 6 ] -> Ok ()
      | _ -> Error "lost-update")

let test_dfs_finds_lost_update () =
  let budget =
    { Search.max_attempts = 3_000; max_steps_per_attempt = 5_000; base_seed = 1; deadline_s = None }
  in
  let o =
    Search.dfs_schedules budget ~spec:spec_out_6
      ~accept:(fun r -> r.Interp.failure <> None)
      small_counter
  in
  match o.Search.result with
  | Some r -> (
    match r.Interp.failure with
    | Some (Mvm.Failure.Spec_violation "lost-update") -> ()
    | _ -> Alcotest.fail "wrong failure")
  | None -> Alcotest.fail "systematic search missed the lost update"

let test_dfs_deterministic () =
  let budget =
    { Search.max_attempts = 3_000; max_steps_per_attempt = 5_000; base_seed = 1; deadline_s = None }
  in
  let run () =
    (Search.dfs_schedules budget ~spec:spec_out_6
       ~accept:(fun r -> r.Interp.failure <> None)
       small_counter)
      .Search.stats.attempts
  in
  Alcotest.(check int) "same attempt count" (run ()) (run ())

let test_dfs_exhausts_budget_on_unsatisfiable () =
  let budget =
    { Search.max_attempts = 50; max_steps_per_attempt = 5_000; base_seed = 1; deadline_s = None }
  in
  let o =
    Search.dfs_schedules budget ~spec:Spec.accept_all
      ~accept:(fun _ -> false)
      small_counter
  in
  Alcotest.(check bool) "no result" true (o.Search.result = None);
  Alcotest.(check int) "budget spent" 50 o.Search.stats.attempts

let test_dfs_fixed_inputs () =
  let o =
    Search.dfs_schedules
      { Search.max_attempts = 1; max_steps_per_attempt = 5_000; base_seed = 1; deadline_s = None }
      ~spec:Spec.accept_all
      ~accept:(fun _ -> true)
      adder_prog
  in
  match o.Search.result with
  | Some r ->
    Alcotest.(check (list value_testable)) "inputs pinned to first domain value"
      [ Value.int 0 ]
      (Trace.outputs_on r.Interp.trace "sum")
  | None -> Alcotest.fail "accept-all must succeed"

(* ------------------------------------------------------------------ *)
(* model drivers on the counter race *)

let test_failure_det_reproduces () =
  let seed = find_failing_seed () in
  let _, log = record_counter seed (Failure_recorder.create ()) in
  let outcome = Replayer.failure_det (counter_prog ~iters:10) ~spec:spec_out_20 log in
  match outcome.Replayer.result with
  | Some r ->
    Alcotest.(check bool) "failure reproduced" true
      (Constraints.failure_matches log r)
  | None -> Alcotest.fail "failure synthesis exhausted its budget"

let test_output_det_reproduces_outputs () =
  let seed = find_failing_seed () in
  let _, log = record_counter seed (Output_recorder.create ()) in
  let outcome =
    Replayer.output_det ~exhaustive:false (counter_prog ~iters:10)
      ~spec:spec_out_20 log
  in
  match outcome.Replayer.result with
  | Some r ->
    Alcotest.(check bool) "outputs reproduced" true (Constraints.outputs_match log r)
  | None -> Alcotest.fail "output inference exhausted its budget"

let test_sync_det_reproduces () =
  let seed = find_failing_seed () in
  let _, log = record_counter seed (Sync_recorder.create ()) in
  let outcome = Replayer.sync_det (counter_prog ~iters:10) ~spec:spec_out_20 log in
  match outcome.Replayer.result with
  | Some r ->
    Alcotest.(check bool) "outputs reproduced" true (Constraints.outputs_match log r)
  | None -> Alcotest.fail "sync inference exhausted its budget"

let test_rcse_empty_log_is_free_search () =
  let seed = find_failing_seed () in
  let _, log =
    record_counter seed
      (Rcse_recorder.create (Fidelity_level.always Fidelity_level.Low))
  in
  let outcome = Replayer.rcse (counter_prog ~iters:10) ~spec:spec_out_20 log in
  (* with nothing recorded, RCSE degenerates to failure-determinism search *)
  match outcome.Replayer.result with
  | Some r ->
    Alcotest.(check bool) "failure reproduced" true
      (Constraints.failure_matches log r)
  | None -> Alcotest.fail "search exhausted"

let test_rcse_full_log_replays_immediately () =
  let seed = find_failing_seed () in
  let original, log =
    record_counter seed
      (Rcse_recorder.create (Fidelity_level.always Fidelity_level.High))
  in
  let outcome = Replayer.rcse (counter_prog ~iters:10) ~spec:spec_out_20 log in
  Alcotest.(check int) "one attempt suffices" 1 outcome.Replayer.attempts;
  match outcome.Replayer.result with
  | Some r ->
    Alcotest.(check bool) "identical outputs" true
      (r.Interp.outputs = original.Interp.outputs)
  | None -> Alcotest.fail "full-fidelity rcse must replay"

(* ------------------------------------------------------------------ *)
(* restarts and the DFS pruner on the racy counter *)

let spec_out n =
  Spec.make "sum" (fun r ->
      match Trace.outputs_on r.Interp.trace "out" with
      | [ Value.Vint k ] when k = n -> Ok ()
      | _ -> Error "lost-update")

(* a recorded failing run of [labeled]: the lowest failing seed's log *)
let failure_log labeled spec =
  let rec scan s =
    if s > 500 then Alcotest.fail "no failing seed"
    else
      let r = Spec.apply spec (Interp.run labeled (World.random ~seed:s)) in
      if r.Interp.failure <> None then s else scan (s + 1)
  in
  let _, log =
    Recorder.record (Failure_recorder.create ()) labeled ~spec
      ~world:(World.random ~seed:(scan 1))
  in
  log

let test_pruning_shrinks_dfs () =
  let labeled = counter_prog ~iters:4 and spec = spec_out 8 in
  let accept = Constraints.failure_matches (failure_log labeled spec) in
  let budget =
    { Search.max_attempts = 300; max_steps_per_attempt = 5_000; base_seed = 1; deadline_s = None }
  in
  let pruned = Search.dfs_schedules budget ~spec ~accept labeled in
  let plain = Search.dfs_schedules ~prune:false budget ~spec ~accept labeled in
  Alcotest.(check bool) "both reproduce" true
    (pruned.Search.stats.Search.success && plain.Search.stats.Search.success);
  Alcotest.(check bool) "subtrees were pruned" true
    (pruned.Search.stats.Search.pruned > 0);
  Alcotest.(check bool) "pruning never needs more attempts" true
    (pruned.Search.stats.Search.attempts <= plain.Search.stats.Search.attempts);
  Alcotest.(check bool) "pruning never burns more steps" true
    (pruned.Search.stats.Search.total_steps
    <= plain.Search.stats.Search.total_steps)

let test_clamped_digit_is_exhausted () =
  let labeled = counter_prog ~iters:2 in
  (* digit 99 can never be a real branch index: the probe must stop at the
     clamped decision and report the true fan-out so the odometer carries
     past the dead branch instead of re-running its clamped duplicate *)
  let probe =
    Engine.exec_schedule ~budget:5_000 ~prefix:[| 99 |] labeled
  in
  (match probe.Engine.early with
  | Engine.Early_clamped -> ()
  | Engine.Ran | Engine.Early_pruned ->
    Alcotest.fail "out-of-range digit should clamp");
  (match Engine.classify probe with
  | Engine.Skipped _ -> ()
  | Engine.Attempt _ -> Alcotest.fail "clamped probe must not be an attempt");
  (match probe.Engine.sizes with
  | [ n ] -> Alcotest.(check bool) "fan-out recorded" true (n >= 1)
  | _ -> Alcotest.fail "clamped probe should report exactly the clamped digit");
  Alcotest.(check bool) "odometer treats the branch as exhausted" true
    (Engine.advance [| 99 |] probe.Engine.sizes = None)

(* ------------------------------------------------------------------ *)
(* parity: a search is a pure function of its inputs. Two fresh runs of
   an engine or driver agree byte for byte, the inert [Config.jobs] knob
   changes nothing, and the seed scans agree with a hand-written scan. *)

let check_same_result name (a : Interp.result option) (b : Interp.result option)
    =
  match (a, b) with
  | Some r1, Some r2 ->
    Alcotest.(check bool)
      (name ^ ": byte-identical accepted trace")
      true
      (Trace.events r1.Interp.trace = Trace.events r2.Interp.trace);
    Alcotest.(check bool)
      (name ^ ": same outputs")
      true
      (r1.Interp.outputs = r2.Interp.outputs);
    Alcotest.(check bool)
      (name ^ ": same failure")
      true
      (r1.Interp.failure = r2.Interp.failure)
  | None, None -> ()
  | _ -> Alcotest.fail (name ^ ": one run accepted, the other did not")

let check_same_outcome name (a : Search.outcome) (b : Search.outcome) =
  Alcotest.(check int) (name ^ ": attempts") a.Search.stats.Search.attempts
    b.Search.stats.Search.attempts;
  Alcotest.(check int)
    (name ^ ": total steps")
    a.Search.stats.Search.total_steps b.Search.stats.Search.total_steps;
  Alcotest.(check int) (name ^ ": pruned") a.Search.stats.Search.pruned
    b.Search.stats.Search.pruned;
  Alcotest.(check bool) (name ^ ": success") a.Search.stats.Search.success
    b.Search.stats.Search.success;
  check_same_result name a.Search.result b.Search.result

let check_same_replay name (a : Replayer.outcome) (b : Replayer.outcome) =
  Alcotest.(check int) (name ^ ": attempts") a.Replayer.attempts
    b.Replayer.attempts;
  Alcotest.(check int) (name ^ ": steps") a.Replayer.total_steps
    b.Replayer.total_steps;
  check_same_result name a.Replayer.result b.Replayer.result

let test_restarts_parity_counter () =
  let labeled = counter_prog ~iters:10 and spec = spec_out 20 in
  let accept = Constraints.failure_matches (failure_log labeled spec) in
  let budget =
    { Search.max_attempts = 200; max_steps_per_attempt = 5_000; base_seed = 1; deadline_s = None }
  in
  let make ~attempt = (World.random ~seed:attempt, None) in
  let run () = Search.random_restarts budget ~make ~spec ~accept labeled in
  let o = run () in
  Alcotest.(check bool) "restarts reproduce the race" true
    o.Search.stats.Search.success;
  check_same_outcome "restarts/counter" o (run ())

let test_dfs_parity_counter () =
  let labeled = counter_prog ~iters:4 and spec = spec_out 8 in
  let accept = Constraints.failure_matches (failure_log labeled spec) in
  let budget =
    { Search.max_attempts = 300; max_steps_per_attempt = 5_000; base_seed = 1; deadline_s = None }
  in
  let run () = Search.dfs_schedules budget ~spec ~accept labeled in
  let o = run () in
  Alcotest.(check bool) "dfs reproduces the race" true
    o.Search.stats.Search.success;
  Alcotest.(check bool) "pruning fired" true (o.Search.stats.Search.pruned > 0);
  check_same_outcome "dfs/counter" o (run ())

let test_enumerate_inputs_parity_adder () =
  let spec = Spec.accept_all in
  let accept r = Trace.outputs_on r.Interp.trace "sum" = [ Value.int 7 ] in
  let budget =
    { Search.max_attempts = 50; max_steps_per_attempt = 1_000; base_seed = 1; deadline_s = None }
  in
  let run () = Search.enumerate_inputs budget ~spec ~accept adder_prog in
  let o = run () in
  Alcotest.(check bool) "enumeration reaches sum=7" true
    o.Search.stats.Search.success;
  check_same_outcome "inputs/adder" o (run ())

(* miniht's issue-63 race, through the failure-determinism driver *)
let test_replayer_parity_miniht () =
  let app = Ddet_apps.Miniht.app () in
  let labeled = app.Ddet_apps.App.labeled and spec = app.Ddet_apps.App.spec in
  let log = failure_log labeled spec in
  let budget =
    { Search.max_attempts = 300; max_steps_per_attempt = 5_000; base_seed = 1; deadline_s = None }
  in
  let run () = Replayer.failure_det ~budget labeled ~spec log in
  let o = run () in
  Alcotest.(check bool) "miniht: reproduced" true (o.Replayer.result <> None);
  check_same_replay "miniht" o (run ())

(* a fault-injected world through the whole Session pipeline; searches
   are sequential, so [Config.jobs] must not move the outcome *)
let test_session_parity_faulted_cloudstore () =
  let open Ddet in
  let cloud = Ddet_apps.Cloudstore.app () in
  let drop_plan =
    Fault.make ~seed:11
      [
        Fault.drop ~prob:0.15 "ack_0";
        Fault.drop ~prob:0.15 "ack_1";
        Fault.drop ~prob:0.12 "repl";
      ]
  in
  match Ddet_apps.Workload.find_failing_seed ~faults:drop_plan cloud with
  | None -> Alcotest.fail "no failing cloudstore seed under the drop plan"
  | Some (seed, _) ->
    let outcome_at jobs =
      let config = { Config.default with Config.jobs } in
      let prepared = Session.prepare ~config Model.Failure_det cloud in
      let _, log = Session.record ~faults:drop_plan prepared ~seed in
      Session.replay prepared log
    in
    let o = outcome_at 1 in
    Alcotest.(check bool) "faulted: reproduced" true (o.Replayer.result <> None);
    check_same_replay "faulted" o (outcome_at 4)

let test_first_success_parity () =
  let f n = if n * n > 50 then Some (n * n) else None in
  let reference ~from ~count =
    List.find_map
      (fun k -> Option.map (fun v -> (k, v)) (f k))
      (List.init count (fun k -> from + k))
  in
  let s = Ddet_apps.Workload.first_success ~from:0 ~count:20 ~f () in
  Alcotest.(check (option (pair int int))) "lowest index wins" (Some (8, 64)) s;
  Alcotest.(check (option (pair int int))) "agrees with a plain scan"
    (reference ~from:0 ~count:20) s;
  let none = Ddet_apps.Workload.first_success ~from:0 ~count:5 ~f () in
  Alcotest.(check (option (pair int int))) "exhausted scan" None none

let test_find_failing_seed_parity () =
  let open Ddet_apps in
  let app = Miniht.app () in
  let rec reference seed =
    if seed > 500 then None
    else
      let r = App.production_run app ~seed in
      if Ddet_metrics.Root_cause.observed app.App.catalog r <> [] then Some (seed, r)
      else reference (seed + 1)
  in
  match (Workload.find_failing_seed app, reference 1) with
  | Some (s1, r1), Some (s2, r2) ->
    Alcotest.(check int) "same seed" s2 s1;
    Alcotest.(check bool) "same run" true
      (Trace.events r1.Interp.trace = Trace.events r2.Interp.trace)
  | None, None -> Alcotest.fail "miniht should have a failing seed"
  | _ -> Alcotest.fail "scan outcomes disagree"

(* ------------------------------------------------------------------ *)
(* oracle edges: the schedule oracles driven by hand-made candidates and
   events, one hook call at a time *)

let cand tid sid = { World.tid; sid; fname = "f" }
let ev ?(kind = Event.Step) tid sid = { Event.step = 0; tid; sid; fname = "f"; kind }
let sent chan = Event.Msg_send { Event.chan; value = Value.untainted (Value.int 1) }

let log_of entries =
  Log.make ~recorder:"hand" ~entries ~base_steps:0 ~failure:None ()

(* (1, 10) is logged twice, around (2, 20) *)
let twice_log =
  log_of
    [
      Log.Cp_sched { tid = 1; sid = 10 };
      Log.Cp_sched { tid = 2; sid = 20 };
      Log.Cp_sched { tid = 1; sid = 10 };
    ]

let picks (h : Oracle.handle) cands =
  h.Oracle.world.World.pick_thread ~step:0 cands

let test_rcse_repeated_site_pending () =
  for seed = 1 to 20 do
    let h = Oracle.rcse ~seed twice_log in
    Alcotest.(check (option string)) "head step runs" None
      (h.Oracle.abort (ev 1 10));
    (* (1, 10) occurs again after the cursor: still pending, so the only
       safe candidate is thread 3 *)
    Alcotest.(check int) "pending site held back" 3
      (picks h [ cand 1 10; cand 3 30 ])
  done

let test_rcse_out_of_order_violates () =
  let h = Oracle.rcse ~seed:1 twice_log in
  ignore (h.Oracle.abort (ev 1 10));
  Alcotest.(check (option string)) "pending site out of order"
    (Some "log-divergence") (h.Oracle.abort (ev 1 10));
  Alcotest.(check bool) "violated" true (h.Oracle.violated ())

let test_rcse_last_occurrence_consumed () =
  let consumed seed =
    let h = Oracle.rcse ~seed twice_log in
    List.iter
      (fun (t, s) ->
        Alcotest.(check (option string)) "in order" None
          (h.Oracle.abort (ev t s)))
      [ (1, 10); (2, 20); (1, 10) ];
    h
  in
  let h = consumed 1 in
  Alcotest.(check (option string)) "site runs again freely" None
    (h.Oracle.abort (ev 1 10));
  Alcotest.(check bool) "no violation" false (h.Oracle.violated ());
  let chosen =
    List.init 20 (fun seed -> picks (consumed seed) [ cand 1 10; cand 3 30 ])
  in
  Alcotest.(check bool) "no longer held back" true (List.mem 1 chosen)

let test_rcse_not_strict_never_violates () =
  let h = Oracle.rcse ~strict:false ~seed:1 twice_log in
  List.iter
    (fun (t, s) ->
      Alcotest.(check (option string)) "never aborts" None
        (h.Oracle.abort (ev t s)))
    [ (2, 20); (1, 10); (1, 10); (1, 10); (2, 20) ];
  Alcotest.(check bool) "never violated" false (h.Oracle.violated ())

(* thread 1 logs (1, 10) then (1, 11): a thread 1 sitting at site 11
   while (1, 10) heads the log can never run without diverging *)
let stall_entries =
  [
    Log.Cp_sched { tid = 1; sid = 10 };
    Log.Cp_sched { tid = 1; sid = 11 };
    Log.Cp_sched { tid = 2; sid = 20 };
  ]

(* one pick over [cands], then the Step of the thread it chose *)
let pick_then_step (h : Oracle.handle) cands =
  let tid = picks h cands in
  let c = List.find (fun (c : World.cand) -> c.World.tid = tid) cands in
  h.Oracle.abort (ev tid c.World.sid)

let test_rcse_stall_cuts () =
  for seed = 1 to 20 do
    let h = Oracle.rcse ~seed (log_of stall_entries) in
    Alcotest.(check (option string)) "frozen head cuts on the next event"
      (Some "rcse-stall")
      (pick_then_step h [ cand 1 11; cand 3 30 ]);
    Alcotest.(check bool) "a cut is not a violation" false
      (h.Oracle.violated ())
  done

let test_rcse_stall_violation_wins () =
  let h = Oracle.rcse ~seed:1 (log_of stall_entries) in
  Alcotest.(check (option string)) "the frozen head itself runs"
    (Some "log-divergence")
    (pick_then_step h [ cand 1 11 ]);
  Alcotest.(check bool) "violated" true (h.Oracle.violated ())

let test_rcse_stall_never_fires () =
  let uncut name make cands =
    for seed = 1 to 20 do
      let h = make ~seed in
      Alcotest.(check (option string)) name None (pick_then_step h cands)
    done
  in
  let strict ~seed = Oracle.rcse ~seed (log_of stall_entries) in
  uncut "head thread absent" strict [ cand 2 20; cand 3 30 ];
  uncut "head thread at the head site" strict [ cand 1 10; cand 3 30 ];
  uncut "not strict"
    (fun ~seed -> Oracle.rcse ~strict:false ~seed (log_of stall_entries))
    [ cand 1 11; cand 3 30 ];
  List.iter
    (fun f ->
      let log =
        Log.make ~recorder:"hand" ~entries:stall_entries ~base_steps:0
          ~failure:(Some f) ()
      in
      uncut
        ("recorded " ^ Failure.to_string f)
        (fun ~seed -> Oracle.rcse ~seed log)
        [ cand 1 11; cand 3 30 ])
    [ Failure.Crash { sid = 40; msg = "boom" }; Failure.Hang ]

let sync_log =
  log_of
    [
      Log.Sync { tid = 1; sid = 5; op = Log.Op_send "a" };
      Log.Sync { tid = 2; sid = 6; op = Log.Op_recv "a" };
    ]

let test_sync_unlogged_send_aborts () =
  let h = Oracle.sync ~seed:1 sync_log in
  Alcotest.(check (option string)) "send on a never-logged channel"
    (Some "sync-order-divergence")
    (h.Oracle.abort (ev ~kind:(sent "b") 1 5));
  Alcotest.(check bool) "violated" true (h.Oracle.violated ())

let test_sync_try_recv_forced_miss () =
  let h = Oracle.sync ~seed:1 sync_log in
  let poll tid chan =
    h.Oracle.world.World.on_try_recv ~step:0 ~tid ~sid:6 ~chan
  in
  let is_fail = function World.Force_fail -> true | _ -> false in
  Alcotest.(check bool) "not the next consumer: forced miss" true
    (is_fail (poll 3 "a"));
  Alcotest.(check bool) "the next consumer polls normally" true
    (poll 2 "a" = World.Default);
  Alcotest.(check bool) "never-logged channel: forced miss" true
    (is_fail (poll 2 "b"))

(* ------------------------------------------------------------------ *)
(* golden outcomes: the RCSE and sync searches, pinned to the outcomes an
   earlier build produced. Each row is "app model seed attempts
   total_steps status closeness md5", where md5 is the digest of the
   accepted trace (or of the best partial when none was accepted),
   rendered one [Event.pp] per line. A change to either oracle that moves
   a single pick, abort or trace shows up here. *)

let golden_rows =
  [
    "miniht sync 1 4 3299 reproduced 1 65cc4880157c3f9154ff58a6fdce1f76";
    "miniht sync 2 3 2177 reproduced 1 6fff3d80c239fb1ec70fe8f8795d356d";
    "miniht sync 3 1 822 reproduced 1 75bab8a49cde79d1042a794846f74258";
    "miniht sync 4 60 40806 partial 0 075374549b07b342966ffb9d881c4f3c";
    "miniht sync 5 1 888 reproduced 1 328fdc60052085aafa6ae352cf3c9d51";
    "miniht sync 6 2 1537 reproduced 1 6a16d3cfa02858b190c471ffddb1125a";
    "miniht sync 7 3 2200 reproduced 1 de883480819a3fe3e01cf551ff839646";
    "miniht sync 8 5 3561 reproduced 1 629027662eacd55fd4b622ef68b9139d";
    "miniht sync 9 60 42028 partial 0 a96a88ad55718b381765b6dd239bccc3";
    "miniht sync 10 47 33041 reproduced 1 c083c67ffe0218f2a137447377ce01ed";
    "miniht rcse-code 1 1 795 reproduced 1 486bac8757d19ee69730f0d4aa505877";
    "miniht rcse-code 2 1 766 reproduced 1 a98eb020de563ce9ac1a810b4adae179";
    "miniht rcse-code 3 1 780 reproduced 1 a1464f6f19b2368d7c419522ffbe2e3a";
    "miniht rcse-code 4 1 762 reproduced 1 977bda49b1f629c1e7cefa0101f57323";
    "miniht rcse-code 5 1 876 reproduced 1 4c963c151bc29296c05f19d69b7cb378";
    "miniht rcse-code 6 1 788 reproduced 1 9f9b93e981bd8e050e3986e63d6c638a";
    "miniht rcse-code 7 3 2092 reproduced 1 bd36d64e15cb71ed2bbd3aadde654b58";
    "miniht rcse-code 8 1 819 reproduced 1 bef1a0ba219dae402295e78854ee8c54";
    "miniht rcse-code 9 3 2081 reproduced 1 67e80d2c8b207843aa139547f7780471";
    "miniht rcse-code 10 5 3254 reproduced 1 4f9f5191f43e5059758fd44d8cf7d170";
    "miniht rcse-combined 1 2 1610 reproduced 1 1a7a72af08228195e61bd5d053ce5d96";
    "miniht rcse-combined 2 3 2414 reproduced 1 8f1ebb6e4cfa701ee7e8e1b249a1d2bb";
    "miniht rcse-combined 3 1 786 reproduced 1 44e831511d80be1e9376563366deb335";
    "miniht rcse-combined 4 1 786 reproduced 1 af167d018c27eee859c26a65fff4451f";
    "miniht rcse-combined 5 1 860 reproduced 0.75 bd0c913a6a560e51366e73a6b1d370af";
    "miniht rcse-combined 6 1 788 reproduced 1 fc6790e7a3aefa5b59bd0f195ce1e8ff";
    "miniht rcse-combined 7 1 802 reproduced 1 47238e05f08a05e6b354bbf40ed4fd70";
    "miniht rcse-combined 8 1 867 reproduced 0.75 624f7c9abbb891616ddd7e4a7594fe12";
    "miniht rcse-combined 9 3 2414 reproduced 1 04327be90c1bd4051b0b6f1715138cf7";
    "miniht rcse-combined 10 1 805 reproduced 1 2c635722973c3bff14e3fa3fd3fd00a2";
    "cloudstore sync 1 1 987 reproduced 1 958b30d3d278a6029acaf2521d2fb83e";
    "cloudstore sync 2 1 985 reproduced 1 38e9313266dff072fb834af3f32ed4e0";
    "cloudstore sync 3 1 995 reproduced 1 e7a98a733b3157b7da317630beff9921";
    "cloudstore sync 4 1 934 reproduced 1 ddc6b777b30853a1566e134bd046a9bc";
    "cloudstore sync 5 1 999 reproduced 1 b881f73b3ed590cf07febabe5dfdf669";
    "cloudstore sync 6 1 995 reproduced 1 ce2831a18c8f0a3d3b6ab571596bb9db";
    "cloudstore sync 7 1 995 reproduced 1 b0e4958cf73902511c1229b98393bb03";
    "cloudstore sync 8 1 999 reproduced 1 ac46f06902355134fefeb73e5c8f70df";
    "cloudstore sync 9 1 995 reproduced 1 71a631be661ef22352c96c8adb190e27";
    "cloudstore sync 10 1 940 reproduced 1 8e7c6f6e0712f745cfd1f7f05a671e98";
    "cloudstore rcse-code 1 1 983 reproduced 1 a7417dbcca14cbf5386617d38747cf89";
    "cloudstore rcse-code 2 1 969 reproduced 1 028775ad09808fcd684ef26ee4967674";
    "cloudstore rcse-code 3 1 961 reproduced 1 8a034711ffcf66ead041d7152fa2f177";
    "cloudstore rcse-code 4 2 1879 reproduced 1 8766ee75484c97b91d9351cdfdef45a8";
    "cloudstore rcse-code 5 1 1014 reproduced 1 813d9851bc8611796c418078e9967384";
    "cloudstore rcse-code 6 1 963 reproduced 1 dd3f992b01c55b0e182440486202cf57";
    "cloudstore rcse-code 7 1 961 reproduced 1 5a83b86d9f9ac55f8762a0edd21a9a89";
    "cloudstore rcse-code 8 1 987 reproduced 1 bc4840580f34458551e8c35adc0f816f";
    "cloudstore rcse-code 9 1 962 reproduced 1 a147b5d1f8f7501b7f417612f2bda6c8";
    "cloudstore rcse-code 10 1 982 reproduced 1 5e79df4c3daa3555f4cbc824bc26ab3e";
    "cloudstore rcse-combined 1 1 916 reproduced 1 1b7f05fb88e0c713c49dd382e7767804";
    "cloudstore rcse-combined 2 1 962 reproduced 1 715e1545607695984960b8bf4833fe03";
    "cloudstore rcse-combined 3 1 958 reproduced 1 72eb74c58f3e2720e3ac75125395a9a3";
    "cloudstore rcse-combined 4 1 934 reproduced 1 ddc6b777b30853a1566e134bd046a9bc";
    "cloudstore rcse-combined 5 1 938 reproduced 1 71304678975ed5174ddc8aee6a4de1db";
    "cloudstore rcse-combined 6 1 958 reproduced 1 4d3f600a53532b2298dbb8358fe457da";
    "cloudstore rcse-combined 7 1 958 reproduced 1 00984bd92d26086a67214fd44e7f74f6";
    "cloudstore rcse-combined 8 1 938 reproduced 1 0b7a78f3f7bd6ae76dd39348c8f94e44";
    "cloudstore rcse-combined 9 1 972 reproduced 1 d9392a5ae946b3ef71533a184faf27e1";
    "cloudstore rcse-combined 10 1 940 reproduced 1 8e7c6f6e0712f745cfd1f7f05a671e98";
    "msg_server sync 1 1 349 reproduced 1 410193885bf2f65cf7ff0a998f39f37d";
    "msg_server sync 2 1 358 reproduced 1 16b1f014f27bf3b14f184150820418d9";
    "msg_server sync 3 1 330 reproduced 1 deafe7eef47067890268f545a6c6ebc5";
    "msg_server sync 4 1 330 reproduced 1 d752cd9fdad18b860b3410ad4ff6222a";
    "msg_server sync 5 1 331 reproduced 1 98e256cb14a56766bb4c4a7a1f600b9c";
    "msg_server sync 6 1 331 reproduced 1 17195327c00c6b6639951c6a51d78ccb";
    "msg_server sync 7 1 358 reproduced 1 fe242884c37bbab42f045999bd48ebcb";
    "msg_server sync 8 1 329 reproduced 1 6053496001a8ad414640c2789663be4e";
    "msg_server sync 9 1 349 reproduced 1 4d1734f2f8254b039b4bf29364fbcc7c";
    "msg_server sync 10 1 330 reproduced 1 4c6f2ec5dc5d6143831b9e3c37e7af4a";
    "msg_server rcse-code 1 60 4440 partial 0 53460177fef912db517bca637ab4383a";
    "msg_server rcse-code 2 60 4440 partial 0 53460177fef912db517bca637ab4383a";
    "msg_server rcse-code 3 60 3960 partial 0 18e8527c7699e24d12785721833ebeb2";
    "msg_server rcse-code 4 60 3960 partial 0 18e8527c7699e24d12785721833ebeb2";
    "msg_server rcse-code 5 60 3480 partial 0 b70ce5d3296e86aac59a2b8d3b7a81b7";
    "msg_server rcse-code 6 60 3000 partial 0 9f55066716484040c1e27bdc4c610e37";
    "msg_server rcse-code 7 60 2520 partial 0 41a4a90ec1ba39e953b94f4c03b31bb9";
    "msg_server rcse-code 8 60 3960 partial 0 18e8527c7699e24d12785721833ebeb2";
    "msg_server rcse-code 9 60 3000 partial 0 9f55066716484040c1e27bdc4c610e37";
    "msg_server rcse-code 10 60 3960 partial 0 18e8527c7699e24d12785721833ebeb2";
    "msg_server rcse-combined 1 1 349 reproduced 1 410193885bf2f65cf7ff0a998f39f37d";
    "msg_server rcse-combined 2 1 358 reproduced 1 16b1f014f27bf3b14f184150820418d9";
    "msg_server rcse-combined 3 1 330 reproduced 1 deafe7eef47067890268f545a6c6ebc5";
    "msg_server rcse-combined 4 1 330 reproduced 1 d752cd9fdad18b860b3410ad4ff6222a";
    "msg_server rcse-combined 5 1 331 reproduced 1 98e256cb14a56766bb4c4a7a1f600b9c";
    "msg_server rcse-combined 6 1 331 reproduced 1 17195327c00c6b6639951c6a51d78ccb";
    "msg_server rcse-combined 7 1 358 reproduced 1 fe242884c37bbab42f045999bd48ebcb";
    "msg_server rcse-combined 8 1 329 reproduced 1 6053496001a8ad414640c2789663be4e";
    "msg_server rcse-combined 9 1 349 reproduced 1 4d1734f2f8254b039b4bf29364fbcc7c";
    "msg_server rcse-combined 10 1 330 reproduced 1 4c6f2ec5dc5d6143831b9e3c37e7af4a";
  ]

let render_md5 (r : Interp.result) =
  let b = Buffer.create 4096 in
  let ppf = Format.formatter_of_buffer b in
  List.iter (fun e -> Format.fprintf ppf "%a@." Event.pp e)
    (Trace.events r.Interp.trace);
  Format.pp_print_flush ppf ();
  Digest.to_hex (Digest.string (Buffer.contents b))

(* the soundness law of the RCSE stall cut. The oracle's picks ignore the
   cut, so an attempt whose abort hook maps "rcse-stall" to None runs
   exactly as it would without the rule: every such run the cut would
   have ended must still not be accepted at the search's step cap. A cut
   attempt also ends the same under the AST walker (the path that
   re-executes a checkpoint-restored best candidate) and the compiled
   runner. *)
let test_rcse_stall_cut_is_sound () =
  let open Ddet in
  let cap = 10_000 in
  let cuts = ref 0 in
  List.iter
    (fun (app : Ddet_apps.App.t) ->
      let p = Session.prepare (Model.Rcse Model.Code_based) app in
      let labeled = app.Ddet_apps.App.labeled and spec = app.Ddet_apps.App.spec in
      let compiled = Interp.compile labeled in
      let rec failing seed acc =
        if List.length acc = 20 || seed > 500 then List.rev acc
        else
          let r, log = Session.record p ~seed in
          failing (seed + 1) (if r.Interp.failure <> None then log :: acc else acc)
      in
      let logs =
        failing 1 [] @ List.init 20 (fun i -> snd (Session.record p ~seed:(i + 1)))
      in
      List.iter
        (fun log ->
          for seed = 2 to 4 do
            let h = Oracle.rcse ~seed log in
            let cut = ref false in
            let abort e =
              match h.Oracle.abort e with
              | Some "rcse-stall" ->
                cut := true;
                None
              | r -> r
            in
            let uncut =
              Spec.apply spec (Interp.run ~max_steps:cap ~abort labeled h.Oracle.world)
            in
            if !cut then begin
              incr cuts;
              Alcotest.(check bool)
                (Printf.sprintf "%s seed %d: the uncut run is not accepted"
                   app.Ddet_apps.App.name seed)
                false
                (Constraints.failure_matches log uncut);
              let run f =
                let h = Oracle.rcse ~seed log in
                f ~abort:h.Oracle.abort h.Oracle.world
              in
              let walked =
                run (fun ~abort w -> Interp.run ~max_steps:cap ~abort labeled w)
              and ran =
                run (fun ~abort w ->
                    Interp.run_compiled ~max_steps:cap ~abort compiled w)
              in
              Alcotest.(check string) "same status"
                (Interp.status_to_string walked.Interp.status)
                (Interp.status_to_string ran.Interp.status);
              Alcotest.(check bool) "aborted, no later than the uncut run" true
                ((match walked.Interp.status with
                  | Interp.Aborted _ -> true
                  | _ -> false)
                && walked.Interp.steps <= uncut.Interp.steps);
              Alcotest.(check bool) "same trace" true
                (Trace.events walked.Interp.trace = Trace.events ran.Interp.trace)
            end
          done)
        logs)
    Ddet_apps.[ Miniht.app (); Cloudstore.app (); Msg_server.app () ];
  Alcotest.(check bool) "the law is not vacuous" true (!cuts > 0)

let test_golden_outcomes () =
  let open Ddet in
  let budget =
    { Search.max_attempts = 60; max_steps_per_attempt = 10_000; base_seed = 1;
      deadline_s = None }
  in
  let models =
    [ ("sync", Model.Sync); ("rcse-code", Model.Rcse Model.Code_based);
      ("rcse-combined", Model.Rcse Model.Combined) ]
  in
  let apps =
    Ddet_apps.[ Miniht.app (); Cloudstore.app (); Msg_server.app () ]
  in
  let rows =
    List.concat_map
      (fun (app : Ddet_apps.App.t) ->
        List.concat_map
          (fun (name, model) ->
            let p =
              Session.prepare ~config:{ Config.default with Config.budget }
                model app
            in
            List.init 10 (fun i ->
                let seed = i + 1 in
                let _, log = Session.record p ~seed in
                let o = Session.replay p log in
                let status, closeness, md5 =
                  match (o.Replayer.result, o.Replayer.partial) with
                  | Some r, _ ->
                    ("reproduced", Constraints.closeness log r, render_md5 r)
                  | None, Some pa ->
                    ("partial", pa.Search.closeness, render_md5 pa.Search.best)
                  | None, None -> ("none", 0.0, "-")
                in
                Printf.sprintf "%s %s %d %d %d %s %.17g %s" app.Ddet_apps.App.name
                  name seed o.Replayer.attempts o.Replayer.total_steps status
                  closeness md5))
          models)
      apps
  in
  let rec print_diffs = function
    | o :: os, r :: rs ->
      if not (String.equal o r) then Printf.eprintf "%s -> %s\n" o r;
      print_diffs (os, rs)
    | os, rs ->
      List.iter (Printf.eprintf "%s -> (missing)\n") os;
      List.iter (Printf.eprintf "(missing) -> %s\n") rs
  in
  print_diffs (golden_rows, rows);
  Alcotest.(check (list string)) "outcomes match the pinned table" golden_rows
    rows

let () =
  Alcotest.run "replay"
    [
      ( "perfect",
        [
          Alcotest.test_case "roundtrip" `Quick test_perfect_roundtrip;
          Alcotest.test_case "detects corruption" `Quick test_perfect_detects_corrupt_log;
        ] );
      ( "value",
        [
          Alcotest.test_case "reproduces failure" `Quick test_value_reproduces_failure;
          Alcotest.test_case "thread projection" `Quick test_value_preserves_thread_projection;
          Alcotest.test_case "try_recv outcomes" `Quick test_value_forces_try_recv_outcomes;
        ] );
      ( "constraints",
        [
          Alcotest.test_case "outputs match" `Quick test_outputs_match;
          Alcotest.test_case "prefix abort fires" `Quick test_output_prefix_abort_fires;
          Alcotest.test_case "prefix accepts own trace" `Quick test_output_prefix_accepts_match;
          Alcotest.test_case "failure matches" `Quick test_failure_matches;
          Alcotest.test_case "an aborted run never matches a passing one" `Quick
            test_failure_matches_aborted;
        ] );
      ( "search",
        [
          Alcotest.test_case "enumerate finds" `Quick test_enumerate_finds_assignment;
          Alcotest.test_case "enumerate exhausts" `Quick test_enumerate_exhausts;
          Alcotest.test_case "enumerate order" `Quick test_enumerate_lexicographic;
          Alcotest.test_case "budget respected" `Quick test_restarts_budget_respected;
          Alcotest.test_case "stops on success" `Quick test_restarts_stops_on_success;
          Alcotest.test_case "dfs finds race" `Quick test_dfs_finds_lost_update;
          Alcotest.test_case "dfs deterministic" `Quick test_dfs_deterministic;
          Alcotest.test_case "dfs exhausts" `Quick test_dfs_exhausts_budget_on_unsatisfiable;
          Alcotest.test_case "dfs fixed inputs" `Quick test_dfs_fixed_inputs;
        ] );
      ( "parity",
        [
          Alcotest.test_case "restarts on the adder race" `Quick
            test_restarts_parity_counter;
          Alcotest.test_case "dfs on the adder race" `Quick
            test_dfs_parity_counter;
          Alcotest.test_case "input enumeration on adder" `Quick
            test_enumerate_inputs_parity_adder;
          Alcotest.test_case "failure-det driver on miniht" `Slow
            test_replayer_parity_miniht;
          Alcotest.test_case "session on fault-injected cloudstore" `Slow
            test_session_parity_faulted_cloudstore;
          Alcotest.test_case "first_success scan" `Quick
            test_first_success_parity;
          Alcotest.test_case "find_failing_seed scan" `Quick
            test_find_failing_seed_parity;
        ] );
      ( "pruning",
        [
          Alcotest.test_case "pruning shrinks the dfs" `Quick
            test_pruning_shrinks_dfs;
          Alcotest.test_case "clamped digit is exhausted" `Quick
            test_clamped_digit_is_exhausted;
        ] );
      ( "drivers",
        [
          Alcotest.test_case "failure det" `Quick test_failure_det_reproduces;
          Alcotest.test_case "output det" `Quick test_output_det_reproduces_outputs;
          Alcotest.test_case "sync det" `Quick test_sync_det_reproduces;
          Alcotest.test_case "rcse empty log" `Quick test_rcse_empty_log_is_free_search;
          Alcotest.test_case "rcse full log" `Quick test_rcse_full_log_replays_immediately;
        ] );
      ( "oracle edges",
        [
          Alcotest.test_case "repeated site stays pending" `Quick
            test_rcse_repeated_site_pending;
          Alcotest.test_case "pending site out of order violates" `Quick
            test_rcse_out_of_order_violates;
          Alcotest.test_case "last occurrence consumed frees the site" `Quick
            test_rcse_last_occurrence_consumed;
          Alcotest.test_case "non-strict never violates" `Quick
            test_rcse_not_strict_never_violates;
          Alcotest.test_case "frozen head cuts the attempt" `Quick
            test_rcse_stall_cuts;
          Alcotest.test_case "a violation wins over the cut" `Quick
            test_rcse_stall_violation_wins;
          Alcotest.test_case "the cut fires nowhere else" `Quick
            test_rcse_stall_never_fires;
          Alcotest.test_case "unlogged send aborts" `Quick
            test_sync_unlogged_send_aborts;
          Alcotest.test_case "try_recv of a non-consumer misses" `Quick
            test_sync_try_recv_forced_miss;
        ] );
      ( "golden",
        [
          Alcotest.test_case "sync and rcse outcomes pinned" `Slow
            test_golden_outcomes;
          Alcotest.test_case "the rcse stall cut never loses an acceptance"
            `Slow test_rcse_stall_cut_is_sound;
        ] );
    ]
