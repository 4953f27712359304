(* A Store.t over the process-wide local store that counts and times
   every call, and opens a child span per call when a tracer is
   installed. Only successful writes and appends count as bytes
   persisted. *)

open Ddet_record
module Tracer = Ddet_obs.Tracer
module Clock = Ddet_obs.Clock

type totals = {
  mutable calls : int;
  mutable syncs : int;  (** write, seal and fsync: each forces data to disk *)
  mutable sync_ns : int;
  mutable renames : int;
  mutable errors : int;
  mutable bytes : int;
}

let zero () =
  { calls = 0; syncs = 0; sync_ns = 0; renames = 0; errors = 0; bytes = 0 }

let reset t =
  t.calls <- 0;
  t.syncs <- 0;
  t.sync_ns <- 0;
  t.renames <- 0;
  t.errors <- 0;
  t.bytes <- 0

let copy t = { t with calls = t.calls }

let create () =
  let inner = Store.default () in
  let tot = zero () in
  let call ?(sync = false) ?(bytes = 0) name f =
    tot.calls <- tot.calls + 1;
    let t0 = Clock.now () in
    let r = Tracer.span_ name f in
    if sync then begin
      tot.syncs <- tot.syncs + 1;
      tot.sync_ns <- tot.sync_ns + Int64.to_int (Clock.elapsed_ns t0)
    end;
    (match r with
     | Ok () -> tot.bytes <- tot.bytes + bytes
     | Error _ -> tot.errors <- tot.errors + 1);
    r
  in
  let store =
    {
      Store.name = "counting(" ^ inner.Store.name ^ ")";
      append =
        (fun p s ->
          call ~bytes:(String.length s) "store.append" (fun () ->
              inner.Store.append p s));
      fsync = (fun p -> call ~sync:true "store.fsync" (fun () -> inner.Store.fsync p));
      seal = (fun p -> call ~sync:true "store.seal" (fun () -> inner.Store.seal p));
      write =
        (fun p s ->
          call ~sync:true ~bytes:(String.length s) "store.write" (fun () ->
              inner.Store.write p s));
      rename =
        (fun a b ->
          tot.renames <- tot.renames + 1;
          call "store.rename" (fun () -> inner.Store.rename a b));
      remove =
        (fun p ->
          tot.calls <- tot.calls + 1;
          Tracer.span_ "store.remove" (fun () -> inner.Store.remove p));
      exists =
        (fun p ->
          tot.calls <- tot.calls + 1;
          Tracer.span_ "store.exists" (fun () -> inner.Store.exists p));
    }
  in
  (store, tot)
