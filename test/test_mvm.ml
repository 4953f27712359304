(* Unit tests for the mvm library: PRNG, vectors, taint, values, DSL,
   labelling, interpreter semantics, scheduling, failures and traces. *)

open Mvm
open Mvm.Dsl

let value_testable = Alcotest.testable Value.pp Value.equal

let run ?max_steps ?(world = World.round_robin ()) labeled =
  Interp.run ?max_steps labeled world

let outputs_on (r : Interp.result) chan =
  match List.assoc_opt chan r.outputs with Some vs -> vs | None -> []

let check_status expected (r : Interp.result) =
  Alcotest.(check string)
    "status" expected
    (match r.status with
    | Interp.Done -> "done"
    | Interp.Crashed _ -> "crashed"
    | Interp.Deadlock -> "deadlock"
    | Interp.Step_limit -> "step-limit"
    | Interp.Aborted _ -> "aborted")

(* ------------------------------------------------------------------ *)
(* Prng *)

let test_prng_determinism () =
  let a = Prng.create 42 and b = Prng.create 42 in
  let xs = List.init 100 (fun _ -> Prng.int a 1000) in
  let ys = List.init 100 (fun _ -> Prng.int b 1000) in
  Alcotest.(check (list int)) "same seed, same stream" xs ys

let test_prng_seeds_differ () =
  let a = Prng.create 1 and b = Prng.create 2 in
  let xs = List.init 50 (fun _ -> Prng.int a 1_000_000) in
  let ys = List.init 50 (fun _ -> Prng.int b 1_000_000) in
  Alcotest.(check bool) "different seeds diverge" false (xs = ys)

let test_prng_bounds () =
  let rng = Prng.create 7 in
  for _ = 1 to 1000 do
    let v = Prng.int rng 13 in
    if v < 0 || v >= 13 then Alcotest.fail "out of range"
  done

let test_prng_pick () =
  let rng = Prng.create 3 in
  for _ = 1 to 100 do
    let v = Prng.pick rng [ 1; 2; 3 ] in
    if not (List.mem v [ 1; 2; 3 ]) then Alcotest.fail "pick outside list"
  done;
  Alcotest.check_raises "empty pick" (Invalid_argument "Prng.pick: empty list")
    (fun () -> ignore (Prng.pick rng []))

let test_prng_copy () =
  let a = Prng.create 9 in
  ignore (Prng.int a 10);
  let b = Prng.copy a in
  Alcotest.(check int) "copy continues identically" (Prng.int a 1000)
    (Prng.int b 1000)

let test_prng_float () =
  let rng = Prng.create 11 in
  for _ = 1 to 1000 do
    let f = Prng.float rng in
    if f < 0.0 || f >= 1.0 then Alcotest.fail "float out of [0,1)"
  done

(* ------------------------------------------------------------------ *)
(* Vec *)

let test_vec_push_get () =
  let v = Vec.create () in
  for i = 0 to 99 do
    Vec.push v i
  done;
  Alcotest.(check int) "length" 100 (Vec.length v);
  Alcotest.(check int) "get 0" 0 (Vec.get v 0);
  Alcotest.(check int) "get 99" 99 (Vec.get v 99);
  Alcotest.check_raises "bounds" (Invalid_argument "Vec.get") (fun () ->
      ignore (Vec.get v 100))

let test_vec_list_roundtrip () =
  let xs = [ 3; 1; 4; 1; 5 ] in
  Alcotest.(check (list int)) "roundtrip" xs (Vec.to_list (Vec.of_list xs))

let test_vec_fold_filter () =
  let v = Vec.of_list [ 1; 2; 3; 4 ] in
  Alcotest.(check int) "fold sum" 10 (Vec.fold ( + ) 0 v);
  Alcotest.(check (list int)) "filter even" [ 2; 4 ] (Vec.filter (fun x -> x mod 2 = 0) v);
  Alcotest.(check bool) "exists" true (Vec.exists (fun x -> x = 3) v);
  Alcotest.(check int) "count" 2 (Vec.count (fun x -> x > 2) v)

(* ------------------------------------------------------------------ *)
(* Taint and values *)

let test_taint_ops () =
  let a = Taint.singleton "net" and b = Taint.singleton "disk" in
  let u = Taint.union a b in
  Alcotest.(check bool) "mem net" true (Taint.mem "net" u);
  Alcotest.(check bool) "mem disk" true (Taint.mem "disk" u);
  Alcotest.(check bool) "empty" true (Taint.is_empty Taint.empty);
  Alcotest.(check (list string)) "elements sorted" [ "disk"; "net" ] (Taint.elements u)

let test_value_sizes () =
  Alcotest.(check int) "int" 8 (Value.size_bytes (Value.int 5));
  Alcotest.(check int) "bool" 1 (Value.size_bytes (Value.bool true));
  Alcotest.(check int) "str" 5 (Value.size_bytes (Value.str "hello"));
  Alcotest.(check int) "unit" 0 (Value.size_bytes Value.unit)

let test_value_projections () =
  Alcotest.(check int) "as_int" 7 (Value.as_int (Value.int 7));
  Alcotest.check_raises "as_int of bool"
    (Value.Type_error "expected int, got true") (fun () ->
      ignore (Value.as_int (Value.bool true)))

(* ------------------------------------------------------------------ *)
(* Label / Dsl validation *)

let simple_prog body =
  program ~name:"t" ~regions:[ scalar "c" (Value.int 0) ] ~inputs:[]
    ~main:"main"
    [ func "main" [] body ]

let test_label_consecutive () =
  let labeled =
    simple_prog [ assign "x" (i 1); if_ (v "x" =: i 1) [ skip ] [ skip ] ]
  in
  let sids = List.map fst (Label.sites labeled.Label.table) in
  Alcotest.(check (list int)) "consecutive sids" [ 1; 2; 3; 4 ] sids

let test_label_table () =
  let labeled = simple_prog [ store_g "c" (i 5) ] in
  let site = Label.site labeled.Label.table 1 in
  Alcotest.(check string) "fname" "main" site.Label.fname;
  Alcotest.(check string) "kind" "store" site.Label.kind

let test_validate_undeclared_region () =
  Alcotest.(check bool) "raises" true
    (try
       ignore (simple_prog [ store_g "nope" (i 1) ]);
       false
     with Invalid_argument _ -> true)

let test_validate_unknown_main () =
  Alcotest.(check bool) "raises" true
    (try
       ignore
         (program ~name:"t" ~regions:[] ~inputs:[] ~main:"nope"
            [ func "main" [] [ skip ] ]);
       false
     with Invalid_argument _ -> true)

let test_validate_unknown_input () =
  Alcotest.(check bool) "raises" true
    (try
       ignore (simple_prog [ input "x" "mystery" ]);
       false
     with Invalid_argument _ -> true)

let test_validate_spawned_function () =
  Alcotest.(check bool) "raises" true
    (try
       ignore (simple_prog [ spawn "ghost" [] ]);
       false
     with Invalid_argument _ -> true)

(* ------------------------------------------------------------------ *)
(* Interpreter: sequential semantics *)

let test_arith () =
  let p = simple_prog [ output "out" ((i 2 +: i 3) *: i 4) ] in
  let r = run p in
  check_status "done" r;
  Alcotest.(check (list value_testable)) "out" [ Value.int 20 ] (outputs_on r "out")

let test_while_loop () =
  let p =
    simple_prog
      [
        assign "s" (i 0);
        assign "k" (i 0);
        while_ (v "k" <: i 5)
          [ assign "s" (v "s" +: v "k"); assign "k" (v "k" +: i 1) ];
        output "out" (v "s");
      ]
  in
  Alcotest.(check (list value_testable)) "sum 0..4" [ Value.int 10 ]
    (outputs_on (run p) "out")

let test_for_sugar () =
  let p =
    simple_prog
      [
        assign "s" (i 0);
        for_ "k" (i 1) (i 4) [ assign "s" (v "s" +: v "k") ];
        output "out" (v "s");
      ]
  in
  Alcotest.(check (list value_testable)) "sum 1..3" [ Value.int 6 ]
    (outputs_on (run p) "out")

let test_call_return () =
  let p =
    program ~name:"t" ~regions:[] ~inputs:[] ~main:"main"
      [
        func "main" []
          [ call ~dest:"r" "double" [ i 21 ]; output "out" (v "r") ];
        func "double" [ "n" ] [ return (v "n" *: i 2) ];
      ]
  in
  Alcotest.(check (list value_testable)) "call result" [ Value.int 42 ]
    (outputs_on (run p) "out")

let test_implicit_unit_return () =
  let p =
    program ~name:"t" ~regions:[ scalar "c" (Value.int 0) ] ~inputs:[]
      ~main:"main"
      [
        func "main" [] [ call ~dest:"r" "proc" []; output "out" (v "r") ];
        func "proc" [] [ store_g "c" (i 1) ];
      ]
  in
  Alcotest.(check (list value_testable)) "unit" [ Value.unit ]
    (outputs_on (run p) "out")

let test_string_ops () =
  let p =
    simple_prog
      [
        assign "a" (s "foo" ^: s "bar");
        output "out" (v "a");
        output "len" (str_len (v "a"));
      ]
  in
  let r = run p in
  Alcotest.(check (list value_testable)) "concat" [ Value.str "foobar" ]
    (outputs_on r "out");
  Alcotest.(check (list value_testable)) "len" [ Value.int 6 ] (outputs_on r "len")

let test_min_max_mod () =
  let p =
    simple_prog
      [
        output "out" (min_ (i 3) (i 5));
        output "out" (max_ (i 3) (i 5));
        output "out" (i 17 %: i 5);
      ]
  in
  Alcotest.(check (list value_testable)) "min/max/mod"
    [ Value.int 3; Value.int 5; Value.int 2 ]
    (outputs_on (run p) "out")

let test_output_order () =
  let p =
    simple_prog [ output "a" (i 1); output "b" (i 2); output "a" (i 3) ]
  in
  let r = run p in
  Alcotest.(check (list value_testable)) "a" [ Value.int 1; Value.int 3 ]
    (outputs_on r "a");
  Alcotest.(check (list value_testable)) "b" [ Value.int 2 ] (outputs_on r "b")

(* ------------------------------------------------------------------ *)
(* Interpreter: crashes *)

let test_div_by_zero () =
  let p = simple_prog [ output "out" (i 1 /: i 0) ] in
  let r = run p in
  check_status "crashed" r;
  match r.failure with
  | Some (Failure.Crash { msg; _ }) ->
    Alcotest.(check string) "msg" "division by zero" msg
  | _ -> Alcotest.fail "expected crash failure"

let test_array_bounds_crash () =
  let p =
    program ~name:"t" ~regions:[ array "a" 3 (Value.int 0) ] ~inputs:[]
      ~main:"main"
      [ func "main" [] [ store "a" (i 7) (i 1) ] ]
  in
  check_status "crashed" (run p)

let test_assert_failure () =
  let p = simple_prog [ assert_ (i 1 =: i 2) "one-is-two" ] in
  let r = run p in
  check_status "crashed" r;
  match r.failure with
  | Some (Failure.Crash { msg; _ }) ->
    Alcotest.(check string) "msg" "assertion failed: one-is-two" msg
  | _ -> Alcotest.fail "expected crash"

let test_fail_stmt () =
  let p = simple_prog [ fail "boom" ] in
  check_status "crashed" (run p)

let test_unbound_variable () =
  let p = simple_prog [ output "out" (v "ghost") ] in
  check_status "crashed" (run p)

(* a slot that really holds unit must not read as the compiled
   interpreter's unbound-variable sentinel, in either interpreter: an
   empty try_recv and an implicit unit return both store unit, and
   reading either must not crash *)
let test_unit_slot_is_bound () =
  let p =
    program ~name:"t" ~regions:[] ~inputs:[] ~main:"main"
      [
        func "main" []
          [
            try_recv "ok" "x" "ch";
            output "out" (v "x");
            call ~dest:"r" "proc" [];
            output "out" (v "r");
          ];
        func "proc" [] [ skip ];
      ]
  in
  List.iter
    (fun r ->
      check_status "done" r;
      Alcotest.(check (list value_testable)) "both read as unit"
        [ Value.unit; Value.unit ] (outputs_on r "out"))
    [ run p; Interp.run_compiled (Interp.compile p) (World.round_robin ()) ]

let test_crash_sid_stable () =
  let p = simple_prog [ skip; fail "boom" ] in
  let r1 = run p and r2 = run p in
  match r1.failure, r2.failure with
  | Some f1, Some f2 ->
    Alcotest.(check bool) "same failure identity" true (Failure.equal f1 f2)
  | _ -> Alcotest.fail "expected crashes"

let test_type_error_crashes () =
  let p = simple_prog [ output "out" (i 1 +: b true) ] in
  check_status "crashed" (run p)

(* ------------------------------------------------------------------ *)
(* Interpreter: concurrency *)

let counter_prog ~locked ~iters =
  let bump =
    if locked then
      [ lock "m"; assign "t" (g "c"); store_g "c" (v "t" +: i 1); unlock "m" ]
    else [ assign "t" (g "c"); store_g "c" (v "t" +: i 1) ]
  in
  program ~name:"counter" ~regions:[ scalar "c" (Value.int 0) ] ~inputs:[]
    ~main:"main"
    [
      func "main" []
        [
          spawn "w" []; spawn "w" [];
          (* wait for both workers *)
          recv "d1" "done"; recv "d2" "done";
          output "out" (g "c");
        ];
      func "w" []
        [ for_ "k" (i 0) (i iters) bump; send "done" (i 1) ];
    ]

let test_locked_counter_correct () =
  (* Under any schedule, lock-protected increments never lose updates. *)
  for seed = 1 to 20 do
    let r = run ~world:(World.random ~seed) (counter_prog ~locked:true ~iters:10) in
    check_status "done" r;
    Alcotest.(check (list value_testable))
      (Printf.sprintf "seed %d" seed)
      [ Value.int 20 ] (outputs_on r "out")
  done

let test_racy_counter_loses_updates () =
  (* The unlocked counter has a lost-update race; some schedule must expose
     it. This is the VM's raison d'etre, so fail loudly if no seed does. *)
  let lost =
    List.exists
      (fun seed ->
        let r = run ~world:(World.random ~seed) (counter_prog ~locked:false ~iters:10) in
        match outputs_on r "out" with
        | [ Value.Vint n ] -> n < 20
        | _ -> false)
      (List.init 50 (fun k -> k + 1))
  in
  Alcotest.(check bool) "some seed loses updates" true lost

let test_atomic_counter_correct () =
  let p =
    program ~name:"t" ~regions:[ scalar "c" (Value.int 0) ] ~inputs:[]
      ~main:"main"
      [
        func "main" []
          [
            spawn "w" []; spawn "w" [];
            recv "d1" "done"; recv "d2" "done";
            output "out" (g "c");
          ];
        func "w" []
          [
            for_ "k" (i 0) (i 10)
              [ atomic [ assign "t" (g "c"); store_g "c" (v "t" +: i 1) ] ];
            send "done" (i 1);
          ];
      ]
  in
  for seed = 1 to 20 do
    let r = run ~world:(World.random ~seed) p in
    Alcotest.(check (list value_testable))
      (Printf.sprintf "seed %d" seed)
      [ Value.int 20 ] (outputs_on r "out")
  done

let test_deadlock_detected () =
  let p =
    program ~name:"t" ~regions:[] ~inputs:[] ~main:"main"
      [ func "main" [] [ recv "x" "never" ] ]
  in
  let r = run p in
  check_status "deadlock" r;
  match r.failure with
  | Some Failure.Hang -> ()
  | _ -> Alcotest.fail "deadlock should be a Hang failure"

let test_abba_deadlock () =
  (* Classic lock-order inversion: some schedule deadlocks. *)
  let p =
    program ~name:"t" ~regions:[] ~inputs:[] ~main:"main"
      [
        func "main" [] [ spawn "a" []; spawn "b" []; recv "x" "never" ];
        func "a" [] [ lock "m1"; yield; lock "m2"; unlock "m2"; unlock "m1" ];
        func "b" [] [ lock "m2"; yield; lock "m1"; unlock "m1"; unlock "m2" ];
      ]
  in
  let deadlocked =
    List.exists
      (fun seed ->
        match (run ~world:(World.random ~seed) p).status with
        | Interp.Deadlock -> true
        | _ -> false)
      (List.init 50 (fun k -> k + 1))
  in
  Alcotest.(check bool) "some seed deadlocks" true deadlocked

let test_step_limit () =
  let p = simple_prog [ while_ (b true) [ skip ] ] in
  let r = run ~max_steps:100 p in
  check_status "step-limit" r;
  Alcotest.(check int) "steps" 100 r.steps

let test_relock_crashes () =
  let p = simple_prog [ lock "m"; lock "m" ] in
  check_status "crashed" (run p)

let test_unlock_not_held_crashes () =
  let p = simple_prog [ unlock "m" ] in
  check_status "crashed" (run p)

let test_try_recv_empty () =
  let p =
    simple_prog
      [
        try_recv "ok" "x" "ch";
        if_ (v "ok") [ output "out" (i 1) ] [ output "out" (i 0) ];
      ]
  in
  Alcotest.(check (list value_testable)) "no message" [ Value.int 0 ]
    (outputs_on (run p) "out")

let test_channel_fifo () =
  let p =
    program ~name:"t" ~regions:[] ~inputs:[] ~main:"main"
      [
        func "main" []
          [
            send "ch" (i 1); send "ch" (i 2); send "ch" (i 3);
            recv "a" "ch"; recv "b" "ch"; recv "c" "ch";
            output "out" (v "a"); output "out" (v "b"); output "out" (v "c");
          ];
      ]
  in
  Alcotest.(check (list value_testable)) "fifo"
    [ Value.int 1; Value.int 2; Value.int 3 ]
    (outputs_on (run p) "out")

let test_blocked_recv_wakes () =
  let p =
    program ~name:"t" ~regions:[] ~inputs:[] ~main:"main"
      [
        func "main" [] [ spawn "producer" []; recv "x" "ch"; output "out" (v "x") ];
        func "producer" [] [ send "ch" (i 99) ];
      ]
  in
  for seed = 1 to 10 do
    let r = run ~world:(World.random ~seed) p in
    Alcotest.(check (list value_testable))
      (Printf.sprintf "seed %d" seed)
      [ Value.int 99 ] (outputs_on r "out")
  done

(* ------------------------------------------------------------------ *)
(* Worlds, inputs, taint *)

let input_prog =
  program ~name:"t" ~regions:[] ~inputs:[ ("in0", List.init 5 Value.int) ]
    ~main:"main"
    [ func "main" [] [ input "x" "in0"; output "out" (v "x") ] ]

let test_input_from_domain () =
  for seed = 1 to 20 do
    match outputs_on (run ~world:(World.random ~seed) input_prog) "out" with
    | [ Value.Vint n ] ->
      if n < 0 || n > 4 then Alcotest.fail "input outside domain"
    | _ -> Alcotest.fail "expected one int output"
  done

let test_round_robin_picks_first () =
  Alcotest.(check (list value_testable)) "first domain value" [ Value.int 0 ]
    (outputs_on (run input_prog) "out")

let test_same_seed_same_trace () =
  let p = counter_prog ~locked:false ~iters:5 in
  let r1 = run ~world:(World.random ~seed:11) p in
  let r2 = run ~world:(World.random ~seed:11) p in
  Alcotest.(check (list (pair int int)))
    "identical schedules"
    (Trace.sched_points r1.trace)
    (Trace.sched_points r2.trace);
  Alcotest.(check bool) "identical outputs" true (r1.outputs = r2.outputs)

let test_taint_propagates_to_output () =
  let p =
    program ~name:"t" ~regions:[ scalar "c" (Value.int 0) ]
      ~inputs:[ ("net", [ Value.int 1; Value.int 2 ]) ]
      ~main:"main"
      [
        func "main" []
          [
            input "x" "net";
            store_g "c" (v "x" +: i 10);
            assign "y" (g "c");
            output "out" (v "y");
          ];
      ]
  in
  let r = run p in
  let tainted_out =
    Trace.exists
      (fun (e : Event.t) ->
        match e.kind with
        | Event.Out io -> Taint.mem "net" io.value.Value.taint
        | _ -> false)
      r.trace
  in
  Alcotest.(check bool) "output carries net taint" true tainted_out

let test_const_untainted () =
  let p = simple_prog [ output "out" (i 1) ] in
  let r = run p in
  let clean =
    Trace.exists
      (fun (e : Event.t) ->
        match e.kind with
        | Event.Out io -> Taint.is_empty io.value.Value.taint
        | _ -> false)
      r.trace
  in
  Alcotest.(check bool) "constant output untainted" true clean

(* ------------------------------------------------------------------ *)
(* Trace queries *)

let test_trace_writes_and_reconstruction () =
  let p =
    simple_prog
      [ store_g "c" (i 1); store_g "c" (i 2); store_g "c" (i 3) ]
  in
  let r = run p in
  let writes = Trace.writes_to_scalar r.trace "c" in
  Alcotest.(check int) "three writes" 3 (List.length writes);
  let steps = List.map (fun (s, _, _) -> s) writes in
  (* value as of just before the step of the second write *)
  let mid = Trace.scalar_at r.trace "c" ~init:(Value.int 0) ~step:(List.nth steps 1) in
  Alcotest.check value_testable "value before second write" (Value.int 1) mid;
  let final = Trace.scalar_at r.trace "c" ~init:(Value.int 0) ~step:max_int in
  Alcotest.check value_testable "final value" (Value.int 3) final

let test_trace_inputs_on () =
  let r = run input_prog in
  match Trace.inputs_on r.trace "in0" with
  | [ (_, _, v) ] -> Alcotest.check value_testable "input recorded" (Value.int 0) v
  | _ -> Alcotest.fail "expected exactly one input event"

let test_trace_steps_counted () =
  let p = simple_prog [ skip; skip; skip ] in
  let r = run p in
  Alcotest.(check int) "steps equal Step events" r.steps (Trace.steps r.trace);
  Alcotest.(check int) "three steps" 3 r.steps

let test_trace_reads_by () =
  let p =
    simple_prog [ store_g "c" (i 7); assign "x" (g "c"); output "out" (v "x") ]
  in
  let r = run p in
  Alcotest.(check (list value_testable)) "thread 0 reads" [ Value.int 7 ]
    (Trace.reads_by r.trace 0)

let test_sched_points_shape () =
  let p = simple_prog [ skip; skip ] in
  let r = run p in
  Alcotest.(check (list (pair int int)))
    "two steps by thread 0" [ (0, 1); (0, 2) ]
    (Trace.sched_points r.trace)

(* ------------------------------------------------------------------ *)
(* Spec *)

let test_spec_violation () =
  let p = simple_prog [ output "out" (i 5) ] in
  let spec =
    Spec.make "wants-four" (fun r ->
        match List.assoc_opt "out" r.Interp.outputs with
        | Some [ Value.Vint 4 ] -> Ok ()
        | _ -> Error "not-four")
  in
  let r = Spec.apply spec (run p) in
  match r.failure with
  | Some (Failure.Spec_violation "not-four") -> ()
  | _ -> Alcotest.fail "expected spec violation"

let test_spec_pass () =
  let p = simple_prog [ output "out" (i 5) ] in
  let r = Spec.apply Spec.accept_all (run p) in
  Alcotest.(check bool) "no failure" true (r.failure = None)

let test_spec_keeps_crash () =
  let p = simple_prog [ fail "boom" ] in
  let r = Spec.apply Spec.accept_all (run p) in
  match r.failure with
  | Some (Failure.Crash _) -> ()
  | _ -> Alcotest.fail "crash must survive spec application"

let test_outputs_equal_spec () =
  let p = simple_prog [ output "out" (i 1) ] in
  let r = run p in
  let good = Spec.outputs_equal ~expected:[ ("out", [ Value.int 1 ]) ] in
  let bad = Spec.outputs_equal ~expected:[ ("out", [ Value.int 2 ]) ] in
  Alcotest.(check bool) "accepts" true ((Spec.apply good r).failure = None);
  Alcotest.(check bool) "rejects" false ((Spec.apply bad r).failure = None)

(* ------------------------------------------------------------------ *)
(* Abort hook and monitors *)

let test_abort_hook () =
  let p = simple_prog [ skip; skip; skip; skip ] in
  let abort (e : Event.t) = if e.step >= 2 then Some "enough" else None in
  let r = Interp.run ~abort p (World.round_robin ()) in
  check_status "aborted" r

let test_monitors_see_all_events () =
  let p = simple_prog [ store_g "c" (i 1); output "out" (g "c") ] in
  let seen = ref 0 in
  let r = Interp.run ~monitors:[ (fun _ -> incr seen) ] p (World.round_robin ()) in
  Alcotest.(check int) "monitor saw every event" (Trace.length r.trace) !seen

(* ------------------------------------------------------------------ *)
(* Proggen *)

let test_proggen_deterministic () =
  let p1 = Proggen.generate Proggen.default (Prng.create 5) in
  let p2 = Proggen.generate Proggen.default (Prng.create 5) in
  let pp p = Format.asprintf "%a" Ast.pp_program p.Label.prog in
  Alcotest.(check string) "same seed, same program" (pp p1) (pp p2)

let test_proggen_runs_clean () =
  (* Generated programs must terminate without crashing under any seed. *)
  for pseed = 1 to 10 do
    let p = Proggen.generate Proggen.default (Prng.create pseed) in
    for wseed = 1 to 5 do
      let r = Interp.run ~max_steps:50_000 p (World.random ~seed:wseed) in
      match r.status with
      | Interp.Done -> ()
      | st ->
        Alcotest.fail
          (Printf.sprintf "program %d seed %d: %s" pseed wseed
             (Interp.status_to_string st))
    done
  done

(* ------------------------------------------------------------------ *)
(* Compiled interpreter parity: Interp.run_compiled must reproduce
   Interp.run byte for byte — same events, steps, outputs, failure —
   on every program and world, with the arena state reused across runs. *)

let same_result name (a : Interp.result) (b : Interp.result) =
  Alcotest.(check string)
    (name ^ ": status")
    (Interp.status_to_string a.status)
    (Interp.status_to_string b.status);
  Alcotest.(check int) (name ^ ": steps") a.steps b.steps;
  Alcotest.(check bool)
    (name ^ ": events")
    true
    (Trace.events a.trace = Trace.events b.trace);
  Alcotest.(check bool) (name ^ ": outputs") true (a.outputs = b.outputs);
  Alcotest.(check bool) (name ^ ": failure") true (a.failure = b.failure)

let check_parity ?(seeds = [ 1; 2; 3; 4; 5 ]) (labeled : Label.labeled) =
  let c = Interp.compile labeled in
  (* one arena for every run of this program: also exercises the reset *)
  let state = Interp.make_state c in
  let name = labeled.Label.prog.Ast.name in
  let go world_of =
    let r_ast = Interp.run ~max_steps:50_000 labeled (world_of ()) in
    let r_c = Interp.run_compiled ~max_steps:50_000 ~state c (world_of ()) in
    same_result name r_ast r_c
  in
  go (fun () -> World.round_robin ());
  List.iter
    (fun sd ->
      go (fun () -> World.random ~seed:sd);
      (* the uncached (non-passive) candidate path must agree too *)
      go (fun () ->
          { (World.random ~seed:sd) with World.passive_try_recv = false }))
    seeds

let sink_prog =
  program ~name:"sink"
    ~regions:[ scalar "acc" (Value.int 0); array "buf" 4 (Value.int 0) ]
    ~inputs:[ ("cfg", [ Value.int 1; Value.int 2 ]) ]
    ~main:"main"
    [
      func "add" [ "k" ]
        [ store_g "acc" (g "acc" +: v "k"); return (g "acc") ];
      func "worker" [ "n" ]
        [
          lock "m";
          store "buf" (v "n" %: i 4) (v "n" *: i 2);
          unlock "m";
          send "ch" (v "n");
        ];
      func "main" []
        [
          input "x" "cfg";
          spawn "worker" [ i 1 ];
          spawn "worker" [ i 2 ];
          call ~dest:"r" "add" [ v "x" ];
          call "add" [ i 3 ];
          assign "i" (i 0);
          while_
            (v "i" <: i 3)
            [
              store "buf" (v "i") (idx "buf" (v "i") +: v "r");
              assign "i" (v "i" +: i 1);
            ];
          atomic
            [
              assign "j" (i 0);
              while_
                (v "j" <: i 2)
                [ store_g "acc" (g "acc" +: i 1); assign "j" (v "j" +: i 1) ];
              if_ (g "acc" >: i 0) [ send "ch" (i 99) ] [ skip ];
            ];
          recv "a" "ch";
          recv "b" "ch";
          recv "c" "ch";
          try_recv "ok" "d" "ch";
          if_ (v "ok") [ output "out" (v "d") ] [ output "out" (i (-1)) ];
          output "out" (max_ (v "a") (min_ (v "b") (v "c")));
          output "out" (s "x=" ^: s "done");
          assert_ (g "acc" >=: i 0) "acc nonneg";
          yield;
        ];
    ]

let crash_progs =
  let one name body = simple_prog body |> fun l ->
    ({ l with Label.prog = { l.Label.prog with Ast.name } } : Label.labeled)
  in
  [
    one "div-zero" [ output "out" (i 1 /: i 0) ];
    one "mod-zero" [ output "out" (i 1 %: i 0) ];
    one "unbound" [ assign "x" (v "nope") ];
    one "type-error" [ output "out" (i 1 +: b true) ];
    one "assert-fail" [ assert_ (i 1 =: i 2) "boom" ];
    one "fail" [ fail "kaput" ];
    one "relock" [ lock "m"; lock "m" ];
    one "bad-unlock" [ unlock "m" ];
    one "deadlock" [ recv "x" "never" ];
    one "atomic-recv" [ atomic [ recv "x" "never" ] ];
    one "atomic-budget" [ atomic [ while_ (b true) [ skip ] ] ];
    program ~name:"oob-load"
      ~regions:[ array "buf" 4 (Value.int 0) ]
      ~inputs:[] ~main:"main"
      [ func "main" [] [ output "out" (idx "buf" (i 9)) ] ];
    program ~name:"oob-store"
      ~regions:[ array "buf" 4 (Value.int 0) ]
      ~inputs:[] ~main:"main"
      [ func "main" [] [ store "buf" (i (-1)) (i 5) ] ];
  ]

let arity_progs =
  (* Label.validate checks names, not arity: arity mismatches crash at
     call time and both interpreters must report them identically. *)
  let mk name stmts =
    program ~name
      ~regions:[ scalar "c" (Value.int 0) ]
      ~inputs:[] ~main:"main"
      [ func "f" [ "a"; "b" ] [ skip ]; func "main" [] stmts ]
  in
  [
    mk "arity-call" [ call "f" [ i 1 ] ];
    mk "arity-spawn" [ spawn "f" [ i 1; i 2; i 3 ] ];
    mk "atomic-call" [ atomic [ call "f" [ i 1; i 2 ] ] ];
    mk "atomic-spawn" [ atomic [ spawn "f" [ i 1; i 2 ] ] ];
  ]

let test_compiled_parity_sink () = check_parity sink_prog

let test_compiled_parity_crashes () =
  List.iter (fun p -> check_parity ~seeds:[ 1; 2 ] p) crash_progs;
  List.iter (fun p -> check_parity ~seeds:[ 1; 2 ] p) arity_progs

let test_compiled_parity_corpus () =
  for pseed = 1 to 10 do
    let p = Proggen.generate Proggen.default (Prng.create pseed) in
    check_parity p
  done

let test_compiled_state_isolation () =
  (* A reused arena must leak nothing between runs: running a mutating
     program twice on one state gives identical results. *)
  let c = Interp.compile sink_prog in
  let state = Interp.make_state c in
  let r1 = Interp.run_compiled ~state c (World.random ~seed:7) in
  let r2 = Interp.run_compiled ~state c (World.random ~seed:7) in
  same_result "state-isolation" r1 r2

let () =
  Alcotest.run "mvm"
    [
      ( "prng",
        [
          Alcotest.test_case "determinism" `Quick test_prng_determinism;
          Alcotest.test_case "seeds differ" `Quick test_prng_seeds_differ;
          Alcotest.test_case "bounds" `Quick test_prng_bounds;
          Alcotest.test_case "pick" `Quick test_prng_pick;
          Alcotest.test_case "copy" `Quick test_prng_copy;
          Alcotest.test_case "float range" `Quick test_prng_float;
        ] );
      ( "vec",
        [
          Alcotest.test_case "push/get" `Quick test_vec_push_get;
          Alcotest.test_case "list roundtrip" `Quick test_vec_list_roundtrip;
          Alcotest.test_case "fold/filter" `Quick test_vec_fold_filter;
        ] );
      ( "value",
        [
          Alcotest.test_case "taint ops" `Quick test_taint_ops;
          Alcotest.test_case "sizes" `Quick test_value_sizes;
          Alcotest.test_case "projections" `Quick test_value_projections;
        ] );
      ( "label",
        [
          Alcotest.test_case "consecutive sids" `Quick test_label_consecutive;
          Alcotest.test_case "site table" `Quick test_label_table;
          Alcotest.test_case "undeclared region" `Quick test_validate_undeclared_region;
          Alcotest.test_case "unknown main" `Quick test_validate_unknown_main;
          Alcotest.test_case "unknown input" `Quick test_validate_unknown_input;
          Alcotest.test_case "unknown spawn target" `Quick test_validate_spawned_function;
        ] );
      ( "sequential",
        [
          Alcotest.test_case "arithmetic" `Quick test_arith;
          Alcotest.test_case "while" `Quick test_while_loop;
          Alcotest.test_case "for sugar" `Quick test_for_sugar;
          Alcotest.test_case "call/return" `Quick test_call_return;
          Alcotest.test_case "implicit return" `Quick test_implicit_unit_return;
          Alcotest.test_case "strings" `Quick test_string_ops;
          Alcotest.test_case "min/max/mod" `Quick test_min_max_mod;
          Alcotest.test_case "output order" `Quick test_output_order;
        ] );
      ( "crashes",
        [
          Alcotest.test_case "div by zero" `Quick test_div_by_zero;
          Alcotest.test_case "array bounds" `Quick test_array_bounds_crash;
          Alcotest.test_case "assert" `Quick test_assert_failure;
          Alcotest.test_case "fail" `Quick test_fail_stmt;
          Alcotest.test_case "unbound var" `Quick test_unbound_variable;
          Alcotest.test_case "unit slot is bound" `Quick test_unit_slot_is_bound;
          Alcotest.test_case "crash identity stable" `Quick test_crash_sid_stable;
          Alcotest.test_case "type error" `Quick test_type_error_crashes;
        ] );
      ( "concurrency",
        [
          Alcotest.test_case "locked counter" `Quick test_locked_counter_correct;
          Alcotest.test_case "racy counter" `Quick test_racy_counter_loses_updates;
          Alcotest.test_case "atomic counter" `Quick test_atomic_counter_correct;
          Alcotest.test_case "recv deadlock" `Quick test_deadlock_detected;
          Alcotest.test_case "ABBA deadlock" `Quick test_abba_deadlock;
          Alcotest.test_case "step limit" `Quick test_step_limit;
          Alcotest.test_case "relock crash" `Quick test_relock_crashes;
          Alcotest.test_case "bad unlock crash" `Quick test_unlock_not_held_crashes;
          Alcotest.test_case "try_recv empty" `Quick test_try_recv_empty;
          Alcotest.test_case "channel fifo" `Quick test_channel_fifo;
          Alcotest.test_case "recv wakes" `Quick test_blocked_recv_wakes;
        ] );
      ( "worlds",
        [
          Alcotest.test_case "input domain" `Quick test_input_from_domain;
          Alcotest.test_case "round robin input" `Quick test_round_robin_picks_first;
          Alcotest.test_case "seed reproducibility" `Quick test_same_seed_same_trace;
          Alcotest.test_case "taint propagation" `Quick test_taint_propagates_to_output;
          Alcotest.test_case "const untainted" `Quick test_const_untainted;
        ] );
      ( "trace",
        [
          Alcotest.test_case "writes/reconstruction" `Quick test_trace_writes_and_reconstruction;
          Alcotest.test_case "inputs_on" `Quick test_trace_inputs_on;
          Alcotest.test_case "steps counted" `Quick test_trace_steps_counted;
          Alcotest.test_case "reads_by" `Quick test_trace_reads_by;
          Alcotest.test_case "sched points" `Quick test_sched_points_shape;
        ] );
      ( "spec",
        [
          Alcotest.test_case "violation" `Quick test_spec_violation;
          Alcotest.test_case "pass" `Quick test_spec_pass;
          Alcotest.test_case "keeps crash" `Quick test_spec_keeps_crash;
          Alcotest.test_case "outputs_equal" `Quick test_outputs_equal_spec;
        ] );
      ( "hooks",
        [
          Alcotest.test_case "abort" `Quick test_abort_hook;
          Alcotest.test_case "monitors" `Quick test_monitors_see_all_events;
        ] );
      ( "proggen",
        [
          Alcotest.test_case "deterministic" `Quick test_proggen_deterministic;
          Alcotest.test_case "runs clean" `Quick test_proggen_runs_clean;
        ] );
      ( "compiled",
        [
          Alcotest.test_case "kitchen-sink parity" `Quick
            test_compiled_parity_sink;
          Alcotest.test_case "crash parity" `Quick test_compiled_parity_crashes;
          Alcotest.test_case "proggen corpus parity" `Quick
            test_compiled_parity_corpus;
          Alcotest.test_case "arena isolation" `Quick
            test_compiled_state_isolation;
        ] );
    ]
