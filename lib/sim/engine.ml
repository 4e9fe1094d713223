exception Deadlock
exception Horizon_reached of float

(* A suspended fiber is resumed from its continuation and its id, with
   no closure built to do it: the event queue and the wait queues store
   the continuation where a thunk would go, and an int beside it says
   what that payload is (Eventq's tag). The payload's static type is
   [unit -> unit], so the arrays holding it stay plain pointer arrays.
   Invariant: a payload is a continuation exactly when its tag is a
   fiber id (>= 0), and such a payload is only ever read back through
   [cont_of_payload], never called; a thunk's tag is [Eventq.thunk_tag]
   and a spawn's [spawn_tag fid], and both carry a real [unit -> unit]. *)
let payload_of_cont : (unit, unit) Effect.Deep.continuation -> unit -> unit = Obj.magic
let cont_of_payload : (unit -> unit) -> (unit, unit) Effect.Deep.continuation = Obj.magic
let spawn_tag fid = -2 - fid (* its own inverse *)

(* A FIFO of parked fibers: a ring of continuations (as payloads, see
   above) beside their fiber ids. Empty until the first park, then a
   power of two long. *)
type waitq = {
  mutable wk : (unit -> unit) array;
  mutable wf : int array;
  mutable whead : int;
  mutable wlen : int;
}

(* A write-once cell (the state behind {!Ivar}). Its first reader
   parks in the state itself: [One] holds its continuation (as a
   payload) and fiber id, so a cell read once builds no wait queue. A
   second reader moves both into [Many]'s queue, in park order. A cell
   nobody reads is the record and, once filled, its [Full]. *)
type 'a ivar_state = Empty | Full of 'a | One of (unit -> unit) * int | Many of waitq
type 'a ivar = { mutable state : 'a ivar_state }

type world = {
  q : Eventq.t;
  world_rng : Rng.t;
  clock : float array;  (* 1 element: a float-array store stays unboxed *)
  peek : float array;  (* 1 element: Eventq.next_time_into scratch *)
  due : float array;  (* 1 element: Eventq.push_at scratch, and the pending [Sleep]'s due time *)
  horizon : float;  (* [run]'s [until], or infinity: the [until] box itself, no new one *)
  mutable next_seq : int;
  mutable next_fiber : int;
  mutable current_fiber : int;
  mutable events : int;  (* dispatched so far this run *)
  mutable in_place : int;  (* of [events], sleeps resumed in place *)
  mutable in_thunk : bool;  (* [drive] is running a scheduled thunk, not a fiber *)
  mutable failure : exn option;
  mutable main_done : bool;
  mutable parking : waitq;  (* the pending [Park]'s queue *)
  mutable parking_ivar : unit ivar;  (* the pending [Park_ivar]'s cell, see [ivar_for_parking] *)
  (* One handler for every fiber of the world, and its preallocated
     answers to [Sleep], [Park] and [Park_ivar]. *)
  sleep_answer : ((unit, unit) Effect.Deep.continuation -> unit) option;
  park_answer : ((unit, unit) Effect.Deep.continuation -> unit) option;
  park_ivar_answer : ((unit, unit) Effect.Deep.continuation -> unit) option;
  handler : (unit, unit) Effect.Deep.handler;
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
let now_into dst i = Float.Array.set dst i (Array.unsafe_get (get_world ()).clock 0)
let rng () = (get_world ()).world_rng
let fiber_id () = (get_world ()).current_fiber
let events_dispatched () = (get_world ()).events
let resumed_in_place () = (get_world ()).in_place

(* Resumes and spawns due now (after <= 0) take the immediate lane:
   O(1) ring append, no heap traffic. Later events go through the
   heap. Inlined, so [after] stays unboxed, and both pushes take their
   time from a float-array slot: nothing is allocated beyond what the
   caller passes. *)
let[@inline] push_event w ~after tag payload =
  let seq = w.next_seq in
  w.next_seq <- seq + 1;
  if after <= 0. then Eventq.push_now_at w.q w.clock seq tag payload
  else begin
    Array.unsafe_set w.due 0 (Array.unsafe_get w.clock 0 +. after);
    ignore (Eventq.push_at w.q w.due seq tag payload : Eventq.handle)
  end

type timer = Eventq.handle

(* A thunk always takes the heap, even when due now, so every timer
   has a handle to cancel. Order is unchanged: the heap and the lane
   dispatch in one (time, seq) order. Two stores, not one of an [if],
   so no float is boxed. *)
let[@inline] schedule_after w after thunk =
  let seq = w.next_seq in
  w.next_seq <- seq + 1;
  let now = Array.unsafe_get w.clock 0 in
  if after <= 0. then Array.unsafe_set w.due 0 now else Array.unsafe_set w.due 0 (now +. after);
  Eventq.push_at w.q w.due seq Eventq.thunk_tag thunk

let schedule ~after thunk = schedule_after (get_world ()) after thunk
let schedule_in a i thunk = schedule_after (get_world ()) (Float.Array.get a i) thunk

let no_timer = Eventq.no_handle
let cancel timer = Eventq.cancel (get_world ()).q timer
let pending_events () = Eventq.size (get_world ()).q

(* No effect carries a payload: [sleep] leaves its due time in
   [w.due], [park] its queue in [w.parking] and [ivar_read] its cell
   in [w.parking_ivar], and the handler answers each with the world's
   preallocated closure. *)
type _ Effect.t += Sleep : unit Effect.t | Park : unit Effect.t | Park_ivar : unit Effect.t

(* A thunk runs outside every fiber's handler: a suspension there
   would escape as [Effect.Unhandled], and an in-place sleep would not
   suspend at all and so move the clock under the thunk. Both are
   refused alike, whatever the queue holds. *)
let[@inline] not_in_thunk w what =
  if w.in_thunk then invalid_arg (what ^ ": called from a scheduled thunk")

(* A sleep whose resume would be the next event dispatched anyway
   resumes in place: no effect, no continuation, no push or pop. It
   does to the world what that push, pop and [continue] would have
   done: it takes a seq, counts a dispatch and sets the clock to the
   due time its resume would have carried (the same float sum). So
   order, seqs, fiber ids and [events] stay exactly as if it had
   suspended. Only a due time within the horizon qualifies: past it,
   [drive] must raise [Horizon_reached] with the clock unmoved. *)
let[@inline] sleep_world w dt =
  not_in_thunk w "Sim.Engine.sleep";
  let now = Array.unsafe_get w.clock 0 in
  let due = w.due in
  if dt <= 0. then Array.unsafe_set due 0 now else Array.unsafe_set due 0 (now +. dt);
  if Array.unsafe_get due 0 <= w.horizon && Eventq.would_run_next w.q due then begin
    w.next_seq <- w.next_seq + 1;
    w.events <- w.events + 1;
    w.in_place <- w.in_place + 1;
    Array.unsafe_set w.clock 0 (Array.unsafe_get due 0)
  end
  else Effect.perform Sleep

let sleep dt = sleep_world (get_world ()) dt
let sleep_in a i = sleep_world (get_world ()) (Float.Array.get a i)

let yield () = sleep 0.

(* The sleeper's resume event is its continuation and id, stored where
   the push stores any payload: a sleep allocates only the continuation
   OCaml builds. (Keeping the continuation in a long-lived per-fiber
   record instead would add a write barrier per sleep.) It is due at
   [w.due], which [sleep_world] set; one due now takes the lane. The
   lane and the heap dispatch in one (time, seq) order, so which band
   holds it changes nothing else. *)
let on_sleep w k =
  let seq = w.next_seq in
  w.next_seq <- seq + 1;
  let payload = payload_of_cont k in
  if Array.unsafe_get w.due 0 = Array.unsafe_get w.clock 0 then
    Eventq.push_now_at w.q w.clock seq w.current_fiber payload
  else ignore (Eventq.push_at w.q w.due seq w.current_fiber payload : Eventq.handle)

(* -- wait queues -------------------------------------------------------- *)

let noop () = ()
let waitq () = { wk = [||]; wf = [||]; whead = 0; wlen = 0 }
let waiting q = q.wlen

let grow_waitq q =
  let old = Array.length q.wk in
  let cap = if old = 0 then 1 else 2 * old in
  let wk = Array.make cap noop and wf = Array.make cap 0 in
  for i = 0 to q.wlen - 1 do
    let j = (q.whead + i) land (old - 1) in
    Array.unsafe_set wk i (Array.unsafe_get q.wk j);
    Array.unsafe_set wf i (Array.unsafe_get q.wf j)
  done;
  q.wk <- wk;
  q.wf <- wf;
  q.whead <- 0

let enqueue q k fid =
  if q.wlen = Array.length q.wk then grow_waitq q;
  let at = (q.whead + q.wlen) land (Array.length q.wk - 1) in
  Array.unsafe_set q.wk at k;
  Array.unsafe_set q.wf at fid;
  q.wlen <- q.wlen + 1

(* A park stores the continuation and the fiber's id, nothing built:
   [wake] moves the pair onto the lane. *)
let on_park w k = enqueue w.parking (payload_of_cont k) w.current_fiber

let park q =
  let w = get_world () in
  not_in_thunk w "Sim.Engine.park";
  w.parking <- q;
  Effect.perform Park

let wake_one w q =
  let i = q.whead in
  let k = Array.unsafe_get q.wk i in
  Array.unsafe_set q.wk i noop;
  q.whead <- (i + 1) land (Array.length q.wk - 1);
  q.wlen <- q.wlen - 1;
  push_event w ~after:0. (Array.unsafe_get q.wf i) k

let wake q = if q.wlen > 0 then wake_one (get_world ()) q

let wake_all q =
  if q.wlen > 0 then begin
    let w = get_world () in
    while q.wlen > 0 do
      wake_one w q
    done
  end

(* -- write-once cells --------------------------------------------------- *)

(* [w.parking_ivar] is one field for cells of every value type.
   Invariant: the cell stored there is only ever written [One], by
   [on_park_ivar], over the [Empty] that [ivar_read] just saw; neither
   constructor holds a value, so no ['a] is read or written at the
   wrong type through the cast. *)
let ivar_for_parking : 'a ivar -> unit ivar = Obj.magic

let on_park_ivar w k = w.parking_ivar.state <- One (payload_of_cont k, w.current_fiber)

let ivar_create () = { state = Empty }

let ivar_fill iv v =
  match iv.state with
  | Full _ -> invalid_arg "Ivar.fill: already filled"
  | Empty -> iv.state <- Full v
  | One (k, fid) ->
      iv.state <- Full v;
      push_event (get_world ()) ~after:0. fid k
  | Many q ->
      iv.state <- Full v;
      wake_all q

(* Only [ivar_fill] wakes a reader, so a resumed one finds the value. *)
let ivar_value iv = match iv.state with Full v -> v | Empty | One _ | Many _ -> assert false

let ivar_read iv =
  match iv.state with
  | Full v -> v
  | Empty ->
      let w = get_world () in
      not_in_thunk w "Sim.Engine.ivar_read";
      w.parking_ivar <- ivar_for_parking iv;
      Effect.perform Park_ivar;
      ivar_value iv
  | One (k, fid) ->
      (* room for both waiters at once: no one-slot rings to outgrow *)
      let q = { wk = Array.make 2 noop; wf = Array.make 2 0; whead = 0; wlen = 0 } in
      enqueue q k fid;
      iv.state <- Many q;
      park q;
      ivar_value iv
  | Many q ->
      park q;
      ivar_value iv

let ivar_peek iv = match iv.state with Full v -> Some v | Empty | One _ | Many _ -> None
let ivar_is_filled iv = match iv.state with Full _ -> true | Empty | One _ | Many _ -> false

let effc (type a) w (eff : a Effect.t) : ((a, unit) Effect.Deep.continuation -> unit) option =
  match eff with
  | Sleep -> w.sleep_answer
  | Park -> w.park_answer
  | Park_ivar -> w.park_ivar_answer
  | _ -> None

let start_fiber w fid f =
  w.current_fiber <- fid;
  Effect.Deep.match_with f () w.handler

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
  push_event w ~after (spawn_tag fid) f

(* The dispatch inner loop: per already-scheduled event, a peek, one
   comparison, one store, one pop and a dispatch on the event's tag —
   zero allocations. [Eventq.next_time_into] moves the peeked time
   through unboxed float-array slots so no float is ever boxed here. *)
let drive w =
  let q = w.q in
  let clock = w.clock in
  let peek = w.peek in
  let rec loop () =
    if w.main_done || w.failure <> None then ()
    else if Eventq.is_empty q then raise Deadlock
    else begin
      Eventq.next_time_into q peek;
      let time = Array.unsafe_get peek 0 in
      if time > w.horizon then raise (Horizon_reached w.horizon);
      Array.unsafe_set clock 0 time;
      w.events <- w.events + 1;
      let payload = if Eventq.next_is_lane q then Eventq.pop_lane q else Eventq.pop_heap q in
      let tag = Eventq.popped_tag q in
      if tag >= 0 then begin
        w.current_fiber <- tag;
        Effect.Deep.continue (cont_of_payload payload) ()
      end
      else if tag = Eventq.thunk_tag then begin
        w.in_thunk <- true;
        payload ();
        w.in_thunk <- false
      end
      else start_fiber w (spawn_tag tag) payload;
      loop ()
    end
  in
  loop ()

let run ?(seed = 1) ?until main =
  if !current <> None then invalid_arg "Sim.Engine.run: already running";
  let q = Eventq.create () in
  let world_rng = Rng.create seed in
  let parking = waitq () in
  let rec w =
    {
      q;
      world_rng;
      clock = [| 0. |];
      peek = [| 0. |];
      due = [| 0. |];
      horizon = (match until with Some h -> h | None -> Float.infinity);
      next_seq = 0;
      next_fiber = 1;
      current_fiber = 0;
      events = 0;
      in_place = 0;
      in_thunk = false;
      failure = None;
      main_done = false;
      parking;
      parking_ivar = ivar_create ();
      sleep_answer = Some (fun k -> on_sleep w k);
      park_answer = Some (fun k -> on_park w k);
      park_ivar_answer = Some (fun k -> on_park_ivar w k);
      handler =
        {
          retc = ignore;
          (* First failure wins; it aborts the whole run. *)
          exnc = (fun e -> if w.failure = None then w.failure <- Some e);
          effc = (fun eff -> effc w eff);
        };
    }
  in
  current := Some w;
  incr runs;
  Fun.protect ~finally:(fun () -> current := None) @@ fun () ->
  let result = ref None in
  push_event w ~after:0. (spawn_tag 0) (fun () ->
      result := Some (main ());
      w.main_done <- true);
  drive w;
  (match w.failure with Some e -> raise e | None -> ());
  match !result with Some r -> r | None -> assert false
