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
    ]
