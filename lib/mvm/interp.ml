open Ast

type status =
  | Done
  | Crashed of Failure.t
  | Deadlock
  | Step_limit
  | Aborted of string

type result = {
  status : status;
  trace : Trace.t;
  steps : int;
  outputs : (string * Value.t list) list;
  failure : Failure.t option;
}

let status_to_string = function
  | Done -> "done"
  | Crashed f -> "crashed: " ^ Failure.to_string f
  | Deadlock -> "deadlock"
  | Step_limit -> "step-limit"
  | Aborted reason -> "aborted: " ^ reason

type frame = {
  fname : string;
  locals : (string, Value.tagged) Hashtbl.t;
  mutable rest : stmt list;
  dest : string option;
}

type thread = { tid : int; mutable frames : frame list }

exception Crash_exn of string
exception Crash_at of int * string
exception Abort_exn of string

let atomic_budget = 10_000

let binop_apply op (a : Value.tagged) (b : Value.tagged) =
  let taint = Taint.union a.Value.taint b.Value.taint in
  let open Value in
  let iv f = tag (int (f (as_int a.v) (as_int b.v))) taint in
  let bv f = tag (bool (f (as_int a.v) (as_int b.v))) taint in
  let lv f = tag (bool (f (as_bool a.v) (as_bool b.v))) taint in
  match op with
  | Add -> iv ( + )
  | Sub -> iv ( - )
  | Mul -> iv ( * )
  | Div ->
    if as_int b.v = 0 then raise (Crash_exn "division by zero") else iv ( / )
  | Mod ->
    if as_int b.v = 0 then raise (Crash_exn "modulo by zero") else iv ( mod )
  | Min -> iv min
  | Max -> iv max
  | Lt -> bv ( < )
  | Le -> bv ( <= )
  | Gt -> bv ( > )
  | Ge -> bv ( >= )
  | Eq -> tag (bool (equal a.v b.v)) taint
  | Ne -> tag (bool (not (equal a.v b.v))) taint
  | And -> lv ( && )
  | Or -> lv ( || )
  | Concat -> tag (str (as_str a.v ^ as_str b.v)) taint

let unop_apply op (a : Value.tagged) =
  let open Value in
  match op with
  | Not -> tag (bool (not (as_bool a.v))) a.taint
  | Neg -> tag (int (-as_int a.v)) a.taint
  | Str_len -> tag (int (String.length (as_str a.v))) a.taint

let run ?(max_steps = 200_000) ?(monitors = []) ?abort ?cancel ?trace_capacity
    (labeled : Label.labeled) (world : World.t) =
  let prog = labeled.Label.prog in
  let mem = Memory.create prog.regions in
  let chans = Channel.create () in
  let locks : (string, int) Hashtbl.t = Hashtbl.create 8 in
  let trace = Trace.create ?capacity:trace_capacity () in
  let threads : thread Vec.t = Vec.create () in
  let step_count = ref 0 in

  let emit ~tid ~sid ~fname kind =
    let e = { Event.step = !step_count; tid; sid; fname; kind } in
    Trace.append trace e;
    List.iter (fun m -> m e) monitors;
    match abort with
    | None -> ()
    | Some check -> (
      match check e with None -> () | Some reason -> raise (Abort_exn reason))
  in

  let make_frame fn_name dest argv =
    match find_func prog fn_name with
    | None -> raise (Crash_exn ("undefined function " ^ fn_name))
    | Some f ->
      if List.length f.params <> List.length argv then
        raise
          (Crash_exn
             (Printf.sprintf "%s expects %d arguments, got %d" fn_name
                (List.length f.params) (List.length argv)));
      let locals = Hashtbl.create 8 in
      List.iter2 (fun p a -> Hashtbl.replace locals p a) f.params argv;
      { fname = f.fname; locals; rest = f.body; dest }
  in

  let spawn_thread fn_name argv =
    let tid = Vec.length threads in
    let frame = make_frame fn_name None argv in
    Vec.push threads { tid; frames = [ frame ] };
    tid
  in

  ignore (spawn_thread prog.main []);

  (* Implicit returns: pop frames whose statements are exhausted, binding
     unit to the caller's destination variable, until the next statement (if
     any) is exposed. *)
  let rec normalize th =
    match th.frames with
    | [] -> ()
    | f :: callers -> (
      match f.rest with
      | _ :: _ -> ()
      | [] ->
        th.frames <- callers;
        (match callers, f.dest with
        | caller :: _, Some x ->
          Hashtbl.replace caller.locals x (Value.untainted Value.unit)
        | _, _ -> ());
        normalize th)
  in

  let next_stmt th =
    normalize th;
    match th.frames with
    | [] -> None
    | f :: _ -> ( match f.rest with [] -> None | s :: _ -> Some s)
  in

  let lock_owner m = Hashtbl.find_opt locks m in

  (* A thread is a scheduling candidate iff its next statement can execute
     now; this makes blocked threads invisible to the scheduler and turns
     "no candidates, live threads" into exact deadlock detection. *)
  let executable tid s =
    match s.node with
    | Recv (_, ch) ->
      not (Channel.is_empty chans ch)
      || (match
            world.World.on_try_recv ~step:!step_count ~tid ~sid:s.sid ~chan:ch
          with
         | World.Force_value _ -> true
         | World.Force_fail | World.Default -> false)
    | Lock m -> ( match lock_owner m with None -> true | Some o -> o = tid)
    | Skip | Assign _ | Store _ | Store_scalar _ | If _ | While _ | Input _
    | Output _ | Send _ | Try_recv _ | Unlock _ | Spawn _ | Call _ | Return _
    | Assert _ | Fail _ | Yield | Atomic _ ->
      true
  in

  let rebuild_candidates () =
    Vec.fold
      (fun acc th ->
        match next_stmt th with
        | Some s when executable th.tid s ->
          { World.tid = th.tid; sid = s.sid; fname = (List.hd th.frames).fname }
          :: acc
        | _ -> acc)
      [] threads
    |> List.rev
  in

  (* Candidate cache (the search fast path). A purely thread-local
     statement can only change the executing thread's own entry, so under
     a passive world (see World.passive_try_recv) the cached list is
     patched in place instead of being rebuilt — search engines execute
     this scheduler millions of times, and most steps are local. Any
     statement that touches channels, locks or the thread table
     invalidates the cache; non-passive worlds bypass it entirely, so
     replay oracles keep their exact per-step semantics. *)
  let cand_cache : World.cand list ref = ref [] in
  let cache_valid = ref false in
  let use_cache = world.World.passive_try_recv in
  let candidates () =
    if not use_cache then rebuild_candidates ()
    else if !cache_valid then !cand_cache
    else begin
      let cs = rebuild_candidates () in
      cand_cache := cs;
      cache_valid := true;
      cs
    end
  in

  (* Statements that cannot affect any OTHER thread's runnability: they
     touch no channel, no lock and spawn nothing. [Fail] ends the run, so
     its classification never matters; it is kept non-local for safety. *)
  let local_node = function
    | Skip | Assign _ | Store _ | Store_scalar _ | If _ | While _ | Input _
    | Output _ | Yield | Assert _ | Call _ | Return _ ->
      true
    | Send _ | Recv _ | Try_recv _ | Lock _ | Unlock _ | Spawn _ | Atomic _
    | Fail _ ->
      false
  in

  let patch_candidate th =
    match next_stmt th with
    | Some s when executable th.tid s ->
      let c =
        { World.tid = th.tid; sid = s.sid; fname = (List.hd th.frames).fname }
      in
      cand_cache :=
        List.map
          (fun (c0 : World.cand) -> if c0.World.tid = th.tid then c else c0)
          !cand_cache
    | _ ->
      cand_cache :=
        List.filter (fun (c0 : World.cand) -> c0.World.tid <> th.tid) !cand_cache
  in

  let rec eval th ~sid ~fname e =
    match e with
    | Const v -> Value.untainted v
    | Var x -> (
      match th.frames with
      | [] -> raise (Crash_exn "no frame")
      | f :: _ -> (
        match Hashtbl.find_opt f.locals x with
        | Some v -> v
        | None -> raise (Crash_exn ("unbound variable " ^ x))))
    | Load_scalar r ->
      let actual = Memory.load mem r in
      let v =
        world.World.on_read ~step:!step_count ~tid:th.tid ~sid ~region:r
          ~index:None ~actual
      in
      emit ~tid:th.tid ~sid ~fname (Event.Read { region = r; index = None; value = v });
      v
    | Load (r, ie) -> (
      let i = Value.as_int (eval th ~sid ~fname ie).Value.v in
      match Memory.load_arr mem r i with
      | actual ->
        let v =
          world.World.on_read ~step:!step_count ~tid:th.tid ~sid ~region:r
            ~index:(Some i) ~actual
        in
        emit ~tid:th.tid ~sid ~fname
          (Event.Read { region = r; index = Some i; value = v });
        v
      | exception Memory.Bounds { region; index; length } ->
        raise
          (Crash_exn
             (Printf.sprintf "array %s index %d out of bounds (length %d)" region
                index length)))
    | Arr_len r -> Value.untainted (Value.int (Memory.arr_length mem r))
    | Binop (op, a, b) ->
      let va = eval th ~sid ~fname a in
      let vb = eval th ~sid ~fname b in
      binop_apply op va vb
    | Unop (op, a) -> unop_apply op (eval th ~sid ~fname a)
  in

  let set_local th x v =
    match th.frames with
    | [] -> raise (Crash_exn "no frame")
    | f :: _ -> Hashtbl.replace f.locals x v
  in

  let pop_stmt th =
    match th.frames with
    | { rest = _ :: tail; _ } as f :: _ -> f.rest <- tail
    | _ -> assert false
  in

  let push_stmts th stmts =
    match th.frames with
    | f :: _ -> f.rest <- stmts @ f.rest
    | [] -> assert false
  in

  (* [atomic] (a step budget) forbids operations that could block or grow
     the frame stack mid-step; atomic blocks are for small read-modify-write
     sequences. *)
  let rec exec_node th ~atomic (s : stmt) =
    let in_atomic = Option.is_some atomic in
    (match atomic with
    | Some b ->
      decr b;
      if !b <= 0 then raise (Crash_exn "atomic budget exhausted")
    | None -> ());
    let sid = s.sid in
    let fname = match th.frames with f :: _ -> f.fname | [] -> "?" in
    let ev k = emit ~tid:th.tid ~sid ~fname k in
    let eval_ e = eval th ~sid ~fname e in
    match s.node with
    | Skip | Yield -> ()
    | Assign (x, e) -> set_local th x (eval_ e)
    | Store (r, ie, e) -> (
      let i = Value.as_int (eval_ ie).Value.v in
      let v = eval_ e in
      match Memory.store_arr mem r i v with
      | () -> ev (Event.Write { region = r; index = Some i; value = v })
      | exception Memory.Bounds { region; index; length } ->
        raise
          (Crash_exn
             (Printf.sprintf "array %s index %d out of bounds (length %d)" region
                index length)))
    | Store_scalar (r, e) ->
      let v = eval_ e in
      Memory.store mem r v;
      ev (Event.Write { region = r; index = None; value = v })
    | If (c, b1, b2) ->
      let cond = Value.as_bool (eval_ c).Value.v in
      if in_atomic then exec_block th ~atomic (if cond then b1 else b2)
      else push_stmts th (if cond then b1 else b2)
    | While (c, body) ->
      let cond = Value.as_bool (eval_ c).Value.v in
      if in_atomic then (
        if cond then (
          exec_block th ~atomic body;
          exec_node th ~atomic s))
      else if cond then push_stmts th (body @ [ s ])
    | Input (x, ch) ->
      let domain = Option.value ~default:[] (domain_of prog ch) in
      let v0 =
        world.World.pick_input ~step:!step_count ~tid:th.tid ~chan:ch ~domain
      in
      let v = Value.tag v0 (Taint.singleton ch) in
      set_local th x v;
      ev (Event.In { chan = ch; value = v })
    | Output (ch, e) ->
      let v = eval_ e in
      ev (Event.Out { chan = ch; value = v })
    | Send (ch, e) ->
      let v = eval_ e in
      Channel.send chans ch v;
      ev (Event.Msg_send { chan = ch; value = v })
    | Recv (x, ch) -> (
      match Channel.recv chans ch with
      | Some actual ->
        let v =
          world.World.on_recv ~step:!step_count ~tid:th.tid ~sid ~chan:ch
            ~actual
        in
        set_local th x v;
        ev (Event.Msg_recv { chan = ch; value = v })
      | None -> (
        (* empty queue: only runnable when an oracle feeds the value *)
        match
          world.World.on_try_recv ~step:!step_count ~tid:th.tid ~sid ~chan:ch
        with
        | World.Force_value forced ->
          let v =
            world.World.on_recv ~step:!step_count ~tid:th.tid ~sid ~chan:ch
              ~actual:forced
          in
          set_local th x v;
          ev (Event.Msg_recv { chan = ch; value = v })
        | World.Force_fail | World.Default ->
          raise (Crash_exn ("recv on empty channel " ^ ch ^ " inside atomic"))))
    | Try_recv (ok, x, ch) -> (
      let succeed v =
        set_local th ok (Value.untainted (Value.bool true));
        set_local th x v;
        ev (Event.Msg_recv { chan = ch; value = v })
      in
      let miss () =
        set_local th ok (Value.untainted (Value.bool false));
        set_local th x (Value.untainted Value.unit)
      in
      match
        world.World.on_try_recv ~step:!step_count ~tid:th.tid ~sid ~chan:ch
      with
      | World.Force_fail -> miss ()
      | World.Force_value forced ->
        (* the forced success stands for a real message: consume the
           physical head if one is there, and let on_recv (the stateful
           oracle) supply the observed value *)
        ignore (Channel.recv chans ch);
        succeed
          (world.World.on_recv ~step:!step_count ~tid:th.tid ~sid ~chan:ch
             ~actual:forced)
      | World.Default -> (
        match Channel.recv chans ch with
        | Some actual ->
          succeed
            (world.World.on_recv ~step:!step_count ~tid:th.tid ~sid ~chan:ch
               ~actual)
        | None -> miss ()))
    | Lock m -> (
      match lock_owner m with
      | Some o when o = th.tid -> raise (Crash_exn ("relock of mutex " ^ m))
      | Some _ -> raise (Crash_exn ("lock contention on " ^ m ^ " inside atomic"))
      | None ->
        Hashtbl.replace locks m th.tid;
        ev (Event.Lock_acq m))
    | Unlock m -> (
      match lock_owner m with
      | Some o when o = th.tid ->
        Hashtbl.remove locks m;
        ev (Event.Lock_rel m)
      | Some _ | None -> raise (Crash_exn ("unlock of mutex " ^ m ^ " not held")))
    | Spawn (fn, args) ->
      if in_atomic then raise (Crash_exn "spawn inside atomic");
      let argv = List.map eval_ args in
      let child = spawn_thread fn argv in
      ev (Event.Spawned { child; fname = fn })
    | Call (dest, fn, args) ->
      if in_atomic then raise (Crash_exn "call inside atomic");
      let argv = List.map eval_ args in
      let frame = make_frame fn dest argv in
      th.frames <- frame :: th.frames
    | Return e ->
      if in_atomic then raise (Crash_exn "return inside atomic");
      let v = eval_ e in
      (match th.frames with
      | f :: callers ->
        th.frames <- callers;
        (match callers, f.dest with
        | caller :: _, Some x -> Hashtbl.replace caller.locals x v
        | _, _ -> ())
      | [] -> raise (Crash_exn "return without frame"))
    | Assert (e, msg) ->
      if not (Value.as_bool (eval_ e).Value.v) then
        raise (Crash_exn ("assertion failed: " ^ msg))
    | Fail msg -> raise (Crash_exn msg)
    | Atomic body ->
      let atomic =
        match atomic with Some _ -> atomic | None -> Some (ref atomic_budget)
      in
      exec_block th ~atomic body

  and exec_block th ~atomic body = List.iter (exec_node th ~atomic) body in

  let exec_step th =
    match next_stmt th with
    | None -> assert false
    | Some s ->
      let fname = match th.frames with f :: _ -> f.fname | [] -> "?" in
      emit ~tid:th.tid ~sid:s.sid ~fname Event.Step;
      pop_stmt th;
      (try exec_node th ~atomic:None s with
      | Crash_exn msg ->
        emit ~tid:th.tid ~sid:s.sid ~fname (Event.Crashed msg);
        raise (Crash_at (s.sid, msg))
      | Value.Type_error msg ->
        emit ~tid:th.tid ~sid:s.sid ~fname (Event.Crashed msg);
        raise (Crash_at (s.sid, msg)));
      if use_cache && !cache_valid then
        if local_node s.node then patch_candidate th else cache_valid := false
  in

  let finish status =
    let failure =
      match status with
      | Crashed f -> Some f
      | Deadlock | Step_limit -> Some Failure.Hang
      | Done | Aborted _ -> None
    in
    { status; trace; steps = !step_count; outputs = Trace.outputs trace; failure }
  in

  (* Cooperative cancellation, polled in the step loop rather than per
     event: [cancel] exists for wall-clock deadlines whose check (a
     gettimeofday) is too expensive for the per-event abort hook, so it
     is consulted only every 128 steps. *)
  let cancelled () =
    match cancel with
    | Some check when !step_count land 127 = 0 -> check ()
    | _ -> None
  in
  let rec loop () =
    if !step_count >= max_steps then finish Step_limit
    else
      match cancelled () with
      | Some reason -> finish (Aborted reason)
      | None -> (
      match candidates () with
      | [] ->
        let alive = Vec.exists (fun th -> th.frames <> []) threads in
        if alive then finish Deadlock else finish Done
      | cands -> (
        let tid = world.World.pick_thread ~step:!step_count cands in
        match Vec.get threads tid with
        | exception Invalid_argument _ ->
          invalid_arg "Interp: world picked an unknown thread"
        | th ->
          if not (List.exists (fun c -> c.World.tid = tid) cands) then
            invalid_arg "Interp: world picked a non-candidate thread";
          exec_step th;
          incr step_count;
          loop ()))
  in
  try loop () with
  | Crash_at (sid, msg) -> finish (Crashed (Failure.Crash { sid; msg }))
  | Abort_exn reason -> finish (Aborted reason)

(* ------------------------------------------------------------------ *)
(* Compiled form: the search hot path.                                *)
(*                                                                    *)
(* Search engines execute the same program millions of times, so the  *)
(* AST walk above pays per step for work that never changes between   *)
(* runs: function lookup by name, locals in a hashtable, block        *)
(* prepends onto the [rest] list, input-domain lookups, taint-set     *)
(* construction. [compile] does all of that once, lowering each       *)
(* function body to a flat instruction array with pre-resolved jump   *)
(* targets, integer local slots, integer region ids and pre-resolved  *)
(* callees; [run_compiled] then replays the exact small-step          *)
(* semantics of [run] over that form — same events, same crash        *)
(* messages, same world-hook call sequence, byte-identical traces.    *)
(* Atomic blocks keep a nested (tree) encoding because they execute   *)
(* inside a single scheduler step and never suspend mid-block.        *)
(* ------------------------------------------------------------------ *)

type cexpr =
  | C_const of Value.tagged
  | C_var of int
  | C_load of int * cexpr
  | C_load_scalar of int
  | C_arr_len of int
  | C_binop of binop * cexpr * cexpr
  | C_unop of unop * cexpr

(* Call targets resolve at compile time; a bad one (unknown function,
   arity mismatch) still crashes at execution time, after argument
   evaluation, exactly as the AST walker does. *)
type callee = Callee of int | Callee_bad of string

type catomic = { a_sid : int; a_op : aop }

and aop =
  | A_skip
  | A_assign of int * cexpr
  | A_store of int * cexpr * cexpr
  | A_store_scalar of int * cexpr
  | A_if of cexpr * catomic array * catomic array
  | A_while of cexpr * catomic array
  | A_input of int * string * Value.t list * Taint.t
  | A_output of string * cexpr
  | A_send of int * cexpr
  | A_recv of int * int
  | A_try_recv of int * int * int
  | A_lock of int
  | A_unlock of int
  | A_assert of cexpr * string
  | A_crash of string
  | A_atomic of catomic array

type op =
  | O_skip
  | O_assign of int * cexpr
  | O_store of int * cexpr * cexpr
  | O_store_scalar of int * cexpr
  | O_br of cexpr * int  (* If: false jumps to target, true falls through *)
  | O_while of cexpr * int  (* false jumps past the loop, true falls through *)
  | O_jmp of int  (* silent control transfer: never a step, never an event *)
  | O_input of int * string * Value.t list * Taint.t
  | O_output of string * cexpr
  | O_send of int * cexpr  (* message channels and locks are interned: *)
  | O_recv of int * int  (* their names appear only as statement      *)
  | O_try_recv of int * int * int  (* literals, so every queue/owner lookup  *)
  | O_lock of int  (* is an array index instead of a string hash      *)
  | O_unlock of int
  | O_spawn of callee * string * cexpr array
  | O_call of int * callee * cexpr array  (* dest slot in caller, or -1 *)
  | O_return of cexpr
  | O_assert of cexpr * string
  | O_fail of string
  | O_atomic of catomic array

type instr = { i_sid : int; i_op : op }

type cfunc = {
  cf_name : string;
  cf_nslots : int;
  cf_slot_names : string array;
  mutable cf_code : instr array;
}

type compiled = {
  c_funcs : cfunc array;
  c_main : callee;
  c_scalar_names : string array;
  c_scalar_init : Value.tagged array;
  c_array_names : string array;
  c_array_init : Value.tagged array;
  c_array_len : int array;
  c_chan_names : string array;  (* interned Send/Recv/Try_recv channels *)
  c_lock_names : string array;  (* interned mutex names *)
}

let compile (labeled : Label.labeled) : compiled =
  let prog = labeled.Label.prog in
  (* Regions: last declaration of a name wins, as in [Memory.create]. *)
  let sc_ids = Hashtbl.create 16 and ar_ids = Hashtbl.create 16 in
  let sc = Vec.create () and ar = Vec.create () in
  List.iter
    (function
      | Scalar_decl (r, v) -> (
        let init = Value.untainted v in
        match Hashtbl.find_opt sc_ids r with
        | Some i -> (Vec.get sc i) := init
        | None ->
          Hashtbl.replace sc_ids r (Vec.length sc);
          Vec.push sc (ref init))
      | Array_decl (r, n, v) -> (
        let init = Value.untainted v in
        match Hashtbl.find_opt ar_ids r with
        | Some i -> (Vec.get ar i) := (n, init)
        | None ->
          Hashtbl.replace ar_ids r (Vec.length ar);
          Vec.push ar (ref (n, init))))
    prog.regions;
  let scalar_id r =
    match Hashtbl.find_opt sc_ids r with
    | Some i -> i
    | None -> invalid_arg ("Interp.compile: undeclared scalar region " ^ r)
  in
  let array_id r =
    match Hashtbl.find_opt ar_ids r with
    | Some i -> i
    | None -> invalid_arg ("Interp.compile: undeclared array region " ^ r)
  in
  let inv_names ids n =
    let a = Array.make n "" in
    Hashtbl.iter (fun r i -> a.(i) <- r) ids;
    a
  in
  (* Message channels and mutexes: every name is a statement literal, so
     the whole name space is known at compile time and can be interned.
     The AST walker creates queues on first use; pre-creating one per
     interned name is indistinguishable, because an untouched queue only
     ever answers [is_empty] with [true]. *)
  let ch_ids = Hashtbl.create 16 and lk_ids = Hashtbl.create 16 in
  let intern ids r =
    match Hashtbl.find_opt ids r with
    | Some i -> i
    | None ->
      let i = Hashtbl.length ids in
      Hashtbl.replace ids r i;
      i
  in
  let chan_id ch = intern ch_ids ch in
  let lock_id m = intern lk_ids m in
  (* Functions: first declaration of a name wins, as in [find_func]. *)
  let fn_ids = Hashtbl.create 16 in
  let fn_arr = Array.of_list prog.funcs in
  Array.iteri
    (fun i (f : func) ->
      if not (Hashtbl.mem fn_ids f.fname) then Hashtbl.replace fn_ids f.fname i)
    fn_arr;
  let resolve_callee fn nargs =
    match Hashtbl.find_opt fn_ids fn with
    | None -> Callee_bad ("undefined function " ^ fn)
    | Some i ->
      let np = List.length fn_arr.(i).params in
      if np <> nargs then
        Callee_bad
          (Printf.sprintf "%s expects %d arguments, got %d" fn np nargs)
      else Callee i
  in
  let cfuncs =
    Array.map
      (fun (f : func) ->
        {
          cf_name = f.fname;
          cf_nslots = 0;
          cf_slot_names = [||];
          cf_code = [||];
        })
      fn_arr
  in
  let compile_func fi (f : func) =
    let slots = Hashtbl.create 16 in
    let names = Vec.create () in
    let slot x =
      match Hashtbl.find_opt slots x with
      | Some i -> i
      | None ->
        let i = Vec.length names in
        Hashtbl.replace slots x i;
        Vec.push names x;
        i
    in
    List.iter (fun p -> ignore (slot p)) f.params;
    let rec cexpr = function
      | Const v -> C_const (Value.untainted v)
      | Var x -> C_var (slot x)
      | Load (r, e) -> C_load (array_id r, cexpr e)
      | Load_scalar r -> C_load_scalar (scalar_id r)
      | Arr_len r -> C_arr_len (array_id r)
      | Binop (op, a, b) ->
        let ca = cexpr a in
        let cb = cexpr b in
        C_binop (op, ca, cb)
      | Unop (op, a) -> C_unop (op, cexpr a)
    in
    let input_parts ch =
      let domain = Option.value ~default:[] (domain_of prog ch) in
      (ch, domain, Taint.singleton ch)
    in
    (* Atomic bodies stay a tree: they run inside one scheduler step. *)
    let rec catomic_of (s : stmt) =
      let a_op =
        match s.node with
        | Skip | Yield -> A_skip
        | Assign (x, e) -> A_assign (slot x, cexpr e)
        | Store (r, ie, e) ->
          let rid = array_id r in
          let ci = cexpr ie in
          A_store (rid, ci, cexpr e)
        | Store_scalar (r, e) -> A_store_scalar (scalar_id r, cexpr e)
        | If (c, b1, b2) ->
          let cc = cexpr c in
          let cb1 = ablock b1 in
          A_if (cc, cb1, ablock b2)
        | While (c, b) ->
          let cc = cexpr c in
          A_while (cc, ablock b)
        | Input (x, ch) ->
          let xs = slot x in
          let ch, domain, taint = input_parts ch in
          A_input (xs, ch, domain, taint)
        | Output (ch, e) -> A_output (ch, cexpr e)
        | Send (ch, e) -> A_send (chan_id ch, cexpr e)
        | Recv (x, ch) -> A_recv (slot x, chan_id ch)
        | Try_recv (ok, x, ch) ->
          let oks = slot ok in
          A_try_recv (oks, slot x, chan_id ch)
        | Lock m -> A_lock (lock_id m)
        | Unlock m -> A_unlock (lock_id m)
        | Spawn _ -> A_crash "spawn inside atomic"
        | Call _ -> A_crash "call inside atomic"
        | Return _ -> A_crash "return inside atomic"
        | Assert (e, msg) -> A_assert (cexpr e, msg)
        | Fail msg -> A_crash msg
        | Atomic b -> A_atomic (ablock b)
      in
      { a_sid = s.sid; a_op }
    and ablock b = Array.of_list (List.map catomic_of b) in
    let rec stmt_size (s : stmt) =
      match s.node with
      | If (_, b1, b2) -> 2 + block_size b1 + block_size b2
      | While (_, b) -> 2 + block_size b
      | Skip | Assign _ | Store _ | Store_scalar _ | Input _ | Output _
      | Send _ | Recv _ | Try_recv _ | Lock _ | Unlock _ | Spawn _ | Call _
      | Return _ | Assert _ | Fail _ | Yield | Atomic _ ->
        1
    and block_size b = List.fold_left (fun n s -> n + stmt_size s) 0 b in
    let n = block_size f.body in
    let code = Array.make (max n 1) { i_sid = 0; i_op = O_skip } in
    let pos = ref 0 in
    let push sid op =
      code.(!pos) <- { i_sid = sid; i_op = op };
      incr pos
    in
    let rec cstmt (s : stmt) =
      let sid = s.sid in
      match s.node with
      | Skip | Yield -> push sid O_skip
      | Assign (x, e) ->
        let xs = slot x in
        push sid (O_assign (xs, cexpr e))
      | Store (r, ie, e) ->
        let rid = array_id r in
        let ci = cexpr ie in
        push sid (O_store (rid, ci, cexpr e))
      | Store_scalar (r, e) -> push sid (O_store_scalar (scalar_id r, cexpr e))
      | If (c, b1, b2) ->
        let cc = cexpr c in
        let p = !pos in
        incr pos;
        cblock b1;
        let q = !pos in
        incr pos;
        let elsep = !pos in
        cblock b2;
        let endp = !pos in
        code.(p) <- { i_sid = sid; i_op = O_br (cc, elsep) };
        code.(q) <- { i_sid = sid; i_op = O_jmp endp }
      | While (c, b) ->
        let cc = cexpr c in
        let p = !pos in
        incr pos;
        cblock b;
        let q = !pos in
        incr pos;
        let exitp = !pos in
        code.(p) <- { i_sid = sid; i_op = O_while (cc, exitp) };
        code.(q) <- { i_sid = sid; i_op = O_jmp p }
      | Input (x, ch) ->
        let xs = slot x in
        let ch, domain, taint = input_parts ch in
        push sid (O_input (xs, ch, domain, taint))
      | Output (ch, e) -> push sid (O_output (ch, cexpr e))
      | Send (ch, e) -> push sid (O_send (chan_id ch, cexpr e))
      | Recv (x, ch) -> push sid (O_recv (slot x, chan_id ch))
      | Try_recv (ok, x, ch) ->
        let oks = slot ok in
        push sid (O_try_recv (oks, slot x, chan_id ch))
      | Lock m -> push sid (O_lock (lock_id m))
      | Unlock m -> push sid (O_unlock (lock_id m))
      | Spawn (fn, args) ->
        let cargs = Array.of_list (List.map cexpr args) in
        push sid (O_spawn (resolve_callee fn (Array.length cargs), fn, cargs))
      | Call (dest, fn, args) ->
        let d = match dest with None -> -1 | Some x -> slot x in
        let cargs = Array.of_list (List.map cexpr args) in
        push sid (O_call (d, resolve_callee fn (Array.length cargs), cargs))
      | Return e -> push sid (O_return (cexpr e))
      | Assert (e, msg) -> push sid (O_assert (cexpr e, msg))
      | Fail msg -> push sid (O_fail msg)
      | Atomic b -> push sid (O_atomic (ablock b))
    and cblock b = List.iter cstmt b in
    cblock f.body;
    let cf = cfuncs.(fi) in
    cf.cf_code <- Array.sub code 0 n;
    {
      cf with
      cf_nslots = Vec.length names;
      cf_slot_names = Array.of_list (Vec.to_list names);
    }
  in
  Array.iteri (fun i f -> cfuncs.(i) <- compile_func i f) fn_arr;
  {
    c_funcs = cfuncs;
    c_main = resolve_callee prog.main 0;
    c_scalar_names = inv_names sc_ids (Vec.length sc);
    c_scalar_init =
      Array.init (Vec.length sc) (fun i -> !(Vec.get sc i));
    c_array_names = inv_names ar_ids (Vec.length ar);
    c_array_init =
      Array.init (Vec.length ar) (fun i -> snd !(Vec.get ar i));
    c_array_len = Array.init (Vec.length ar) (fun i -> fst !(Vec.get ar i));
    c_chan_names = inv_names ch_ids (Hashtbl.length ch_ids);
    c_lock_names = inv_names lk_ids (Hashtbl.length lk_ids);
  }

(* Reads of a slot still holding this sentinel reproduce the AST walker's
   "unbound variable" crash; physical equality keeps the check off every
   other value. The sentinel must be allocated at run time: as a literal
   it is a structured constant, which an optimising build may share with
   any equal [{ v = Vunit; taint = empty }] value, so a slot that really
   holds unit would read as unbound. [Sys.opaque_identity] on the field
   (not on the whole literal, which would stay a static block) hides the
   value from the compiler and forces a fresh block. *)
let unbound : Value.tagged =
  { Value.v = Sys.opaque_identity Value.unit; taint = Taint.empty }

(* "No next instruction" sentinel, compared physically: returning it
   instead of [None] keeps the per-step resolve/normalize path from
   allocating an option. Real [O_jmp] instructions are consumed inside
   [resolve_frame], so the sentinel can never be confused with one. *)
let no_instr : instr = { i_sid = -1; i_op = O_jmp (-1) }

type cframe = {
  c_fn : cfunc;
  c_locals : Value.tagged array;
  mutable c_pc : int;
  c_dest : int;  (* slot in the caller's frame, or -1 *)
}

type cthread = { c_tid : int; mutable c_frames : cframe list }

(* The arena: every piece of exec state whose shape depends only on the
   compiled program, reusable across runs on the same domain. The trace is
   deliberately NOT part of it — accepted results retain their traces
   beyond the run that produced them. *)
type state = {
  s_c : compiled;
  s_scalars : Value.tagged array;
  s_arrays : Value.tagged array array;
  s_chans : Value.tagged Queue.t array;  (* indexed by interned chan id *)
  s_locks : int array;  (* owner tid by interned lock id; -1 = free *)
  s_threads : cthread Vec.t;
}

let make_state c =
  {
    s_c = c;
    s_scalars = Array.copy c.c_scalar_init;
    s_arrays =
      Array.init (Array.length c.c_array_len) (fun i ->
          Array.make c.c_array_len.(i) c.c_array_init.(i));
    s_chans =
      Array.init (Array.length c.c_chan_names) (fun _ -> Queue.create ());
    s_locks = Array.make (max 1 (Array.length c.c_lock_names)) (-1);
    s_threads = Vec.create ();
  }

let reset_state st =
  let c = st.s_c in
  Array.blit c.c_scalar_init 0 st.s_scalars 0 (Array.length st.s_scalars);
  Array.iteri
    (fun i a -> Array.fill a 0 (Array.length a) c.c_array_init.(i))
    st.s_arrays;
  Array.iter Queue.clear st.s_chans;
  Array.fill st.s_locks 0 (Array.length st.s_locks) (-1);
  Vec.clear st.s_threads

let run_compiled ?(max_steps = 200_000) ?(monitors = []) ?abort ?cancel
    ?trace_capacity ?state (c : compiled) (world : World.t) =
  let st =
    match state with
    | None -> make_state c
    | Some s ->
      if s.s_c != c then
        invalid_arg "Interp.run_compiled: state built for a different program";
      reset_state s;
      s
  in
  let scalars = st.s_scalars in
  let arrays = st.s_arrays in
  let chans = st.s_chans in
  let locks = st.s_locks in
  let threads = st.s_threads in
  let trace = Trace.create ?capacity:trace_capacity () in
  let step_count = ref 0 in

  let rec notify e = function
    | [] -> ()
    | m :: ms ->
      m e;
      notify e ms
  in
  let emit ~tid ~sid ~fname kind =
    let e = { Event.step = !step_count; tid; sid; fname; kind } in
    Trace.append trace e;
    notify e monitors;
    match abort with
    | None -> ()
    | Some check -> (
      match check e with None -> () | Some reason -> raise (Abort_exn reason))
  in

  let make_cframe cf argv c_dest =
    let c_locals = Array.make (max cf.cf_nslots 1) unbound in
    Array.blit argv 0 c_locals 0 (Array.length argv);
    { c_fn = cf; c_locals; c_pc = 0; c_dest }
  in

  let spawn_cthread callee argv =
    match callee with
    | Callee_bad msg -> raise (Crash_exn msg)
    | Callee i ->
      let tid = Vec.length threads in
      Vec.push threads
        { c_tid = tid; c_frames = [ make_cframe c.c_funcs.(i) argv (-1) ] };
      tid
  in

  ignore (spawn_cthread c.c_main [||]);

  (* Silent jumps carry no step: resolve them before anything looks at a
     frame's next instruction. Returns [no_instr] (physically) when the
     frame is exhausted. *)
  let rec resolve_frame f =
    if f.c_pc >= Array.length f.c_fn.cf_code then no_instr
    else
      (* indices below are compiler-generated (slots, region/chan/lock
         ids, range-checked pc), so the unchecked accesses cannot fault *)
      match Array.unsafe_get f.c_fn.cf_code f.c_pc with
      | { i_op = O_jmp t; _ } ->
        f.c_pc <- t;
        resolve_frame f
      | i -> i
  in
  let rec normalize th =
    match th.c_frames with
    | [] -> ()
    | f :: callers ->
      if resolve_frame f == no_instr then begin
        th.c_frames <- callers;
        (match callers with
        | caller :: _ when f.c_dest >= 0 ->
          caller.c_locals.(f.c_dest) <- Value.untainted Value.unit
        | _ -> ());
        normalize th
      end
  in
  let next_instr th =
    normalize th;
    match th.c_frames with [] -> no_instr | f :: _ -> resolve_frame f
  in

  let use_cache = world.World.passive_try_recv in

  (* Under a passive world [on_try_recv] is the constant [Default], so
     the candidacy probe of a blocked receive never calls it: the hook
     call is skipped without changing a single observable answer. The
     non-passive variant keeps the exact AST-walker call sequence. *)
  let executable tid (i : instr) =
    match i.i_op with
    | O_recv (_, ch) ->
      (not (Queue.is_empty (Array.unsafe_get chans ch)))
      || ((not use_cache)
         &&
         match
           world.World.on_try_recv ~step:!step_count ~tid ~sid:i.i_sid
             ~chan:c.c_chan_names.(ch)
         with
         | World.Force_value _ -> true
         | World.Force_fail | World.Default -> false)
    | O_lock m ->
      let o = Array.unsafe_get locks m in
      o < 0 || o = tid
    | _ -> true
  in

  let rebuild_candidates () =
    let rec build k acc =
      if k < 0 then acc
      else
        let th = Vec.get threads k in
        let i = next_instr th in
        if i != no_instr && executable th.c_tid i then
          build (k - 1)
            ({
               World.tid = th.c_tid;
               sid = i.i_sid;
               fname = (List.hd th.c_frames).c_fn.cf_name;
             }
            :: acc)
        else build (k - 1) acc
    in
    build (Vec.length threads - 1) []
  in

  let cand_cache : World.cand list ref = ref [] in
  let cache_valid = ref false in
  let candidates () =
    if not use_cache then rebuild_candidates ()
    else if !cache_valid then !cand_cache
    else begin
      let cs = rebuild_candidates () in
      cand_cache := cs;
      cache_valid := true;
      cs
    end
  in

  (* Same locality classification as the AST walker's [local_node]. *)
  let local_op = function
    | O_skip | O_assign _ | O_store _ | O_store_scalar _ | O_br _ | O_while _
    | O_input _ | O_output _ | O_assert _ | O_call _ | O_return _ ->
      true
    | O_send _ | O_recv _ | O_try_recv _ | O_lock _ | O_unlock _ | O_spawn _
    | O_atomic _ | O_fail _ | O_jmp _ ->
      false
  in

  (* Closure-free replace/remove keep the cache patch allocation-light:
     a tid occurs at most once, so the untouched suffix is shared instead
     of re-consed. The produced list is structurally identical to the AST
     walker's List.map / List.filter result. *)
  let rec replace_cand tid cnd = function
    | [] -> []
    | (c0 : World.cand) :: rest ->
      if c0.World.tid = tid then cnd :: rest
      else c0 :: replace_cand tid cnd rest
  in
  let rec remove_cand tid = function
    | [] -> []
    | (c0 : World.cand) :: rest ->
      if c0.World.tid = tid then rest else c0 :: remove_cand tid rest
  in
  let patch_candidate th =
    let i = next_instr th in
    if i != no_instr && executable th.c_tid i then
      let cnd =
        {
          World.tid = th.c_tid;
          sid = i.i_sid;
          fname = (List.hd th.c_frames).c_fn.cf_name;
        }
      in
      cand_cache := replace_cand th.c_tid cnd !cand_cache
    else cand_cache := remove_cand th.c_tid !cand_cache
  in

  (* Array indices are consumed as bare ints: the [tagged] record that
     [binop_apply] allocates for index arithmetic (and the boxed length
     of [C_arr_len]) is dead weight on every table access. The fast
     cases compute the int from already-evaluated operands — same
     operand order, same crash and type errors via the fallback — so
     traces stay byte-identical to the AST walker's. *)
  let binop_int op (va : Value.tagged) (vb : Value.tagged) =
    match (op, va.Value.v, vb.Value.v) with
    | Add, Value.Vint x, Value.Vint y -> x + y
    | Sub, Value.Vint x, Value.Vint y -> x - y
    | Mul, Value.Vint x, Value.Vint y -> x * y
    | Min, Value.Vint x, Value.Vint y -> min x y
    | Max, Value.Vint x, Value.Vint y -> max x y
    | Div, Value.Vint x, Value.Vint y when y <> 0 -> x / y
    | Mod, Value.Vint x, Value.Vint y when y <> 0 -> x mod y
    | _ -> Value.as_int (binop_apply op va vb).Value.v
  in
  let rec ceval th (f : cframe) ~sid e =
    match e with
    | C_const v -> v
    | C_var slot ->
      let v = Array.unsafe_get f.c_locals slot in
      if v == unbound then
        raise (Crash_exn ("unbound variable " ^ f.c_fn.cf_slot_names.(slot)))
      else v
    | C_load_scalar rid ->
      let r = Array.unsafe_get c.c_scalar_names rid in
      let actual = Array.unsafe_get scalars rid in
      let v =
        world.World.on_read ~step:!step_count ~tid:th.c_tid ~sid ~region:r
          ~index:None ~actual
      in
      emit ~tid:th.c_tid ~sid ~fname:f.c_fn.cf_name
        (Event.Read { region = r; index = None; value = v });
      v
    | C_load (rid, ie) ->
      let i = ceval_int th f ~sid ie in
      let a = arrays.(rid) in
      if i < 0 || i >= Array.length a then
        raise
          (Crash_exn
             (Printf.sprintf "array %s index %d out of bounds (length %d)"
                c.c_array_names.(rid) i (Array.length a)))
      else begin
        let actual = Array.unsafe_get a i in
        let r = c.c_array_names.(rid) in
        let idx = Some i in
        let v =
          world.World.on_read ~step:!step_count ~tid:th.c_tid ~sid ~region:r
            ~index:idx ~actual
        in
        emit ~tid:th.c_tid ~sid ~fname:f.c_fn.cf_name
          (Event.Read { region = r; index = idx; value = v });
        v
      end
    | C_arr_len rid ->
      Value.untainted (Value.int (Array.length arrays.(rid)))
    | C_binop (op, a, b) ->
      let va = ceval th f ~sid a in
      let vb = ceval th f ~sid b in
      binop_apply op va vb
    | C_unop (op, a) -> unop_apply op (ceval th f ~sid a)

  and ceval_int th f ~sid e =
    match e with
    | C_binop (op, a, b) ->
      let va = ceval th f ~sid a in
      let vb = ceval th f ~sid b in
      binop_int op va vb
    | C_arr_len rid -> Array.length arrays.(rid)
    | _ -> Value.as_int (ceval th f ~sid e).Value.v
  in

  (* Branch conditions are evaluated for their truth value only, so the
     result [tagged] record and taint union of [binop_apply] are dead
     weight on every loop iteration. The fast cases below read the truth
     directly when both operands already have the right shape; anything
     else falls back to [binop_apply]/[unop_apply], which raise the exact
     AST-walker [Type_error]s. Operand evaluation order is unchanged. *)
  let cond_true th f ~sid cc =
    match cc with
    | C_binop (op, a, b) -> (
      let va = ceval th f ~sid a in
      let vb = ceval th f ~sid b in
      match (op, va.Value.v, vb.Value.v) with
      | Lt, Value.Vint x, Value.Vint y -> x < y
      | Le, Value.Vint x, Value.Vint y -> x <= y
      | Gt, Value.Vint x, Value.Vint y -> x > y
      | Ge, Value.Vint x, Value.Vint y -> x >= y
      | Eq, x, y -> Value.equal x y
      | Ne, x, y -> not (Value.equal x y)
      | And, Value.Vbool x, Value.Vbool y -> x && y
      | Or, Value.Vbool x, Value.Vbool y -> x || y
      | _ -> Value.as_bool (binop_apply op va vb).Value.v)
    | C_unop (Not, a) -> (
      let va = ceval th f ~sid a in
      match va.Value.v with
      | Value.Vbool x -> not x
      | _ -> Value.as_bool (unop_apply Not va).Value.v)
    | cc -> Value.as_bool (ceval th f ~sid cc).Value.v
  in

  let eval_args th f ~sid (args : cexpr array) =
    let n = Array.length args in
    if n = 0 then [||]
    else begin
      let out = Array.make n unbound in
      for i = 0 to n - 1 do
        out.(i) <- ceval th f ~sid args.(i)
      done;
      out
    end
  in

  (* Shared statement bodies (used both as top-level steps and inside
     atomic blocks), mirroring [exec_node] case by case. *)
  let do_store th f ~sid rid ci ce =
    let i = ceval_int th f ~sid ci in
    let v = ceval th f ~sid ce in
    let a = arrays.(rid) in
    if i < 0 || i >= Array.length a then
      raise
        (Crash_exn
           (Printf.sprintf "array %s index %d out of bounds (length %d)"
              c.c_array_names.(rid) i (Array.length a)))
    else begin
      a.(i) <- v;
      emit ~tid:th.c_tid ~sid ~fname:f.c_fn.cf_name (Event.Write { region = c.c_array_names.(rid); index = Some i; value = v })
    end
  in
  let do_store_scalar th f ~sid rid ce =
    let v = ceval th f ~sid ce in
    scalars.(rid) <- v;
    emit ~tid:th.c_tid ~sid ~fname:f.c_fn.cf_name (Event.Write { region = c.c_scalar_names.(rid); index = None; value = v })
  in
  let do_input th (f : cframe) ~sid xs ch domain taint =
    let v0 =
      world.World.pick_input ~step:!step_count ~tid:th.c_tid ~chan:ch ~domain
    in
    let v = Value.tag v0 taint in
    f.c_locals.(xs) <- v;
    emit ~tid:th.c_tid ~sid ~fname:f.c_fn.cf_name (Event.In { chan = ch; value = v })
  in
  let do_send th f ~sid ch ce =
    let v = ceval th f ~sid ce in
    Queue.push v chans.(ch);
    emit ~tid:th.c_tid ~sid ~fname:f.c_fn.cf_name (Event.Msg_send { chan = c.c_chan_names.(ch); value = v })
  in
  let do_recv th (f : cframe) ~sid xs ch =
    let chan = c.c_chan_names.(ch) in
    let q = chans.(ch) in
    if not (Queue.is_empty q) then begin
      let actual = Queue.pop q in
      let v =
        world.World.on_recv ~step:!step_count ~tid:th.c_tid ~sid ~chan ~actual
      in
      f.c_locals.(xs) <- v;
      emit ~tid:th.c_tid ~sid ~fname:f.c_fn.cf_name (Event.Msg_recv { chan; value = v })
    end
    else
      match
        world.World.on_try_recv ~step:!step_count ~tid:th.c_tid ~sid ~chan
      with
      | World.Force_value forced ->
        let v =
          world.World.on_recv ~step:!step_count ~tid:th.c_tid ~sid ~chan
            ~actual:forced
        in
        f.c_locals.(xs) <- v;
        emit ~tid:th.c_tid ~sid ~fname:f.c_fn.cf_name (Event.Msg_recv { chan; value = v })
      | World.Force_fail | World.Default ->
        raise (Crash_exn ("recv on empty channel " ^ chan ^ " inside atomic"))
  in
  let do_try_recv th (f : cframe) ~sid oks xs ch =
    let chan = c.c_chan_names.(ch) in
    let q = chans.(ch) in
    let succeed v =
      f.c_locals.(oks) <- Value.untainted (Value.bool true);
      f.c_locals.(xs) <- v;
      emit ~tid:th.c_tid ~sid ~fname:f.c_fn.cf_name (Event.Msg_recv { chan; value = v })
    in
    let miss () =
      f.c_locals.(oks) <- Value.untainted (Value.bool false);
      f.c_locals.(xs) <- Value.untainted Value.unit
    in
    match
      world.World.on_try_recv ~step:!step_count ~tid:th.c_tid ~sid ~chan
    with
    | World.Force_fail -> miss ()
    | World.Force_value forced ->
      if not (Queue.is_empty q) then ignore (Queue.pop q);
      succeed
        (world.World.on_recv ~step:!step_count ~tid:th.c_tid ~sid ~chan
           ~actual:forced)
    | World.Default ->
      if Queue.is_empty q then miss ()
      else
        succeed
          (world.World.on_recv ~step:!step_count ~tid:th.c_tid ~sid ~chan
             ~actual:(Queue.pop q))
  in
  let do_lock th (f : cframe) ~sid m =
    let o = locks.(m) in
    if o = th.c_tid then
      raise (Crash_exn ("relock of mutex " ^ c.c_lock_names.(m)))
    else if o >= 0 then
      raise
        (Crash_exn ("lock contention on " ^ c.c_lock_names.(m) ^ " inside atomic"))
    else begin
      locks.(m) <- th.c_tid;
      emit ~tid:th.c_tid ~sid ~fname:f.c_fn.cf_name (Event.Lock_acq c.c_lock_names.(m))
    end
  in
  let do_unlock th (f : cframe) ~sid m =
    if locks.(m) = th.c_tid then begin
      locks.(m) <- -1;
      emit ~tid:th.c_tid ~sid ~fname:f.c_fn.cf_name (Event.Lock_rel c.c_lock_names.(m))
    end
    else raise (Crash_exn ("unlock of mutex " ^ c.c_lock_names.(m) ^ " not held"))
  in

  let rec a_exec th (f : cframe) budget (s : catomic) =
    decr budget;
    if !budget <= 0 then raise (Crash_exn "atomic budget exhausted");
    let sid = s.a_sid in
    match s.a_op with
    | A_skip -> ()
    | A_assign (xs, e) -> Array.unsafe_set f.c_locals xs (ceval th f ~sid e)
    | A_store (rid, ci, ce) -> do_store th f ~sid rid ci ce
    | A_store_scalar (rid, ce) -> do_store_scalar th f ~sid rid ce
    | A_if (cc, b1, b2) ->
      let cond = cond_true th f ~sid cc in
      a_block th f budget (if cond then b1 else b2)
    | A_while (cc, body) ->
      if cond_true th f ~sid cc then begin
        a_block th f budget body;
        a_exec th f budget s
      end
    | A_input (xs, ch, domain, taint) -> do_input th f ~sid xs ch domain taint
    | A_output (ch, ce) ->
      let v = ceval th f ~sid ce in
      emit ~tid:th.c_tid ~sid ~fname:f.c_fn.cf_name (Event.Out { chan = ch; value = v })
    | A_send (ch, ce) -> do_send th f ~sid ch ce
    | A_recv (xs, ch) -> do_recv th f ~sid xs ch
    | A_try_recv (oks, xs, ch) -> do_try_recv th f ~sid oks xs ch
    | A_lock m -> do_lock th f ~sid m
    | A_unlock m -> do_unlock th f ~sid m
    | A_assert (ce, msg) ->
      if not (cond_true th f ~sid ce) then
        raise (Crash_exn ("assertion failed: " ^ msg))
    | A_crash msg -> raise (Crash_exn msg)
    | A_atomic body -> a_block th f budget body
  and a_block th f budget body = Array.iter (a_exec th f budget) body in

  let exec_op th (f : cframe) (i : instr) =
    let sid = i.i_sid in
    match i.i_op with
    | O_skip -> ()
    | O_assign (xs, e) -> Array.unsafe_set f.c_locals xs (ceval th f ~sid e)
    | O_store (rid, ci, ce) -> do_store th f ~sid rid ci ce
    | O_store_scalar (rid, ce) -> do_store_scalar th f ~sid rid ce
    | O_br (cc, elsep) ->
      if not (cond_true th f ~sid cc) then f.c_pc <- elsep
    | O_while (cc, exitp) ->
      if not (cond_true th f ~sid cc) then f.c_pc <- exitp
    | O_jmp _ -> assert false (* resolved before dispatch *)
    | O_input (xs, ch, domain, taint) -> do_input th f ~sid xs ch domain taint
    | O_output (ch, ce) ->
      let v = ceval th f ~sid ce in
      emit ~tid:th.c_tid ~sid ~fname:f.c_fn.cf_name (Event.Out { chan = ch; value = v })
    | O_send (ch, ce) -> do_send th f ~sid ch ce
    | O_recv (xs, ch) -> do_recv th f ~sid xs ch
    | O_try_recv (oks, xs, ch) -> do_try_recv th f ~sid oks xs ch
    | O_lock m -> do_lock th f ~sid m
    | O_unlock m -> do_unlock th f ~sid m
    | O_spawn (callee, fn, args) ->
      let argv = eval_args th f ~sid args in
      let child = spawn_cthread callee argv in
      emit ~tid:th.c_tid ~sid ~fname:f.c_fn.cf_name (Event.Spawned { child; fname = fn })
    | O_call (dest, callee, args) -> (
      let argv = eval_args th f ~sid args in
      match callee with
      | Callee_bad msg -> raise (Crash_exn msg)
      | Callee fi ->
        th.c_frames <- make_cframe c.c_funcs.(fi) argv dest :: th.c_frames)
    | O_return e -> (
      let v = ceval th f ~sid e in
      match th.c_frames with
      | fr :: callers ->
        th.c_frames <- callers;
        (match callers with
        | caller :: _ when fr.c_dest >= 0 -> caller.c_locals.(fr.c_dest) <- v
        | _ -> ())
      | [] -> raise (Crash_exn "return without frame"))
    | O_assert (ce, msg) ->
      if not (cond_true th f ~sid ce) then
        raise (Crash_exn ("assertion failed: " ^ msg))
    | O_fail msg -> raise (Crash_exn msg)
    | O_atomic body ->
      let budget = ref atomic_budget in
      a_block th f budget body
  in

  let exec_step th =
    let i = next_instr th in
    if i == no_instr then assert false
    else begin
      let f = List.hd th.c_frames in
      emit ~tid:th.c_tid ~sid:i.i_sid ~fname:f.c_fn.cf_name Event.Step;
      f.c_pc <- f.c_pc + 1;
      (try exec_op th f i with
      | Crash_exn msg ->
        emit ~tid:th.c_tid ~sid:i.i_sid ~fname:f.c_fn.cf_name
          (Event.Crashed msg);
        raise (Crash_at (i.i_sid, msg))
      | Value.Type_error msg ->
        emit ~tid:th.c_tid ~sid:i.i_sid ~fname:f.c_fn.cf_name
          (Event.Crashed msg);
        raise (Crash_at (i.i_sid, msg)));
      if use_cache && !cache_valid then
        if local_op i.i_op then patch_candidate th else cache_valid := false
    end
  in

  let finish status =
    let failure =
      match status with
      | Crashed f -> Some f
      | Deadlock | Step_limit -> Some Failure.Hang
      | Done | Aborted _ -> None
    in
    { status; trace; steps = !step_count; outputs = Trace.outputs trace; failure }
  in

  let cancelled () =
    match cancel with
    | Some check when !step_count land 127 = 0 -> check ()
    | _ -> None
  in
  let rec mem_tid tid = function
    | [] -> false
    | (cd : World.cand) :: rest -> cd.World.tid = tid || mem_tid tid rest
  in
  let rec loop () =
    if !step_count >= max_steps then finish Step_limit
    else
      match cancelled () with
      | Some reason -> finish (Aborted reason)
      | None -> (
        match candidates () with
        | [] ->
          let alive = Vec.exists (fun th -> th.c_frames <> []) threads in
          if alive then finish Deadlock else finish Done
        | cands -> (
          let tid = world.World.pick_thread ~step:!step_count cands in
          match Vec.get threads tid with
          | exception Invalid_argument _ ->
            invalid_arg "Interp: world picked an unknown thread"
          | th ->
            if not (mem_tid tid cands) then
              invalid_arg "Interp: world picked a non-candidate thread";
            exec_step th;
            incr step_count;
            loop ()))
  in
  try loop () with
  | Crash_at (sid, msg) -> finish (Crashed (Failure.Crash { sid; msg }))
  | Abort_exn reason -> finish (Aborted reason)
