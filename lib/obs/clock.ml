let real : unit -> int64 = Monotonic_clock.now

(* the source may be read from any domain (deadline polls ride the
   interpreter's cancel hook), so the swap point is an atomic *)
let source = Atomic.make real

let now () = (Atomic.get source) ()
let elapsed_ns since = Int64.sub (now ()) since
let ns_of_s s = Int64.of_float (s *. 1e9)
let s_of_ns ns = Int64.to_float ns /. 1e9
let set_source f = Atomic.set source f
let use_real () = Atomic.set source real

let with_source f body =
  set_source f;
  Fun.protect ~finally:use_real body
