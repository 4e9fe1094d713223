exception Deadlock
exception Horizon_reached of float

type 'a resumer = 'a -> unit

type world = {
  q : Eventq.t;
  world_rng : Rng.t;
  clock : float array;  (* 1 element: a float-array store stays unboxed *)
  peek : float array;  (* 1 element: Eventq.next_time_into scratch *)
  mutable next_seq : int;
  mutable next_fiber : int;
  mutable current_fiber : int;
  mutable events : int;  (* dispatched so far this run *)
  mutable failure : exn option;
  mutable main_done : bool;
}

let current : world option ref = ref None

(* Monotonic count of worlds ever started, readable outside a run.
   Registries that outlive [run] (Metrics, Span) compare it to decide
   when to lazily reset. *)
let runs = ref 0
let run_count () = !runs

let get_world () =
  match !current with
  | Some w -> w
  | None -> invalid_arg "Sim.Engine: no simulation is running"

let now () = (get_world ()).clock.(0)
let rng () = (get_world ()).world_rng
let fiber_id () = (get_world ()).current_fiber
let events_dispatched () = (get_world ()).events

(* Events due now (after <= 0) take the immediate lane: O(1) ring
   append, no heap traffic. Later events go through the heap. Both
   paths allocate nothing beyond the caller's thunk. *)
let push_event w ~after thunk =
  let seq = w.next_seq in
  w.next_seq <- seq + 1;
  if after <= 0. then Eventq.push_now w.q (Array.unsafe_get w.clock 0) seq thunk
  else Eventq.push w.q (Array.unsafe_get w.clock 0 +. after) seq thunk

let schedule ~after thunk = push_event (get_world ()) ~after thunk

type _ Effect.t +=
  | Sleep : float -> unit Effect.t
  | Suspend : ('a resumer -> unit) -> 'a Effect.t

let sleep dt = Effect.perform (Sleep dt)
let yield () = Effect.perform (Sleep 0.)
let suspend register = Effect.perform (Suspend register)

let make_resumer w fid k =
  let used = ref false in
  fun v ->
    if !used then invalid_arg "Sim.Engine: resumer called twice";
    used := true;
    push_event w ~after:0. (fun () ->
        w.current_fiber <- fid;
        Effect.Deep.continue k v)

let start_fiber w fid f =
  let open Effect.Deep in
  let handler =
    {
      retc = (fun () -> ());
      exnc =
        (fun e ->
          (* First failure wins; it aborts the whole run. *)
          if w.failure = None then w.failure <- Some e);
      effc =
        (fun (type a) (eff : a Effect.t) ->
          match eff with
          | Sleep dt ->
              Some
                (fun (k : (a, unit) continuation) ->
                  push_event w ~after:dt (fun () ->
                      w.current_fiber <- fid;
                      continue k ()))
          | Suspend register ->
              Some (fun (k : (a, unit) continuation) -> register (make_resumer w fid k))
          | _ -> None);
    }
  in
  w.current_fiber <- fid;
  match_with f () handler

let spawn ?(at = Float.neg_infinity) f =
  let w = get_world () in
  let fid = w.next_fiber in
  w.next_fiber <- fid + 1;
  let after =
    if at = Float.neg_infinity then 0.
    else begin
      let d = at -. Array.unsafe_get w.clock 0 in
      if d < 0. then invalid_arg "Sim.Engine.spawn: ~at is in the past";
      d
    end
  in
  push_event w ~after (fun () -> start_fiber w fid f)

(* The dispatch inner loop: per already-scheduled event, a peek, one
   comparison, one store, one pop — zero allocations.
   [Eventq.next_time_into] moves the peeked time through unboxed
   float-array slots so no float is ever boxed here. *)
let drive w ?until () =
  let q = w.q in
  let clock = w.clock in
  let peek = w.peek in
  let rec loop () =
    if w.main_done || w.failure <> None then ()
    else if Eventq.is_empty q then raise Deadlock
    else begin
      Eventq.next_time_into q peek;
      let time = Array.unsafe_get peek 0 in
      (match until with
      | Some horizon when time > horizon -> raise (Horizon_reached horizon)
      | Some _ | None -> ());
      Array.unsafe_set clock 0 time;
      w.events <- w.events + 1;
      let thunk = if Eventq.next_is_lane q then Eventq.pop_lane q else Eventq.pop_heap q in
      thunk ();
      loop ()
    end
  in
  loop ()

let run ?(seed = 1) ?until main =
  if !current <> None then invalid_arg "Sim.Engine.run: already running";
  let w =
    {
      q = Eventq.create ();
      world_rng = Rng.create seed;
      clock = [| 0. |];
      peek = [| 0. |];
      next_seq = 0;
      next_fiber = 1;
      current_fiber = 0;
      events = 0;
      failure = None;
      main_done = false;
    }
  in
  current := Some w;
  incr runs;
  Fun.protect ~finally:(fun () -> current := None) @@ fun () ->
  let result = ref None in
  push_event w ~after:0. (fun () ->
      start_fiber w 0 (fun () ->
          result := Some (main ());
          w.main_done <- true));
  drive w ?until ();
  (match w.failure with Some e -> raise e | None -> ());
  match !result with Some r -> r | None -> assert false
