exception Failed of string

(* [acct] slots: the busy integral, the time it was last brought up to
   date, a clock scratch for [Engine.now_into] and the service time
   handed to [Engine.sleep_in]. A [Float.Array] keeps all four
   unboxed, so accounting and service allocate nothing. *)
let busy = 0
let last_update = 1
let clock = 2
let service = 3

(* Each waiter takes a ticket as it parks, so the queue always holds
   tickets [tickets - waiting, tickets). A waiter's outcome is settled
   when it leaves the queue: [release] hands it the server, [fail]
   wakes the whole queue into failure and records its ticket range in
   [failed_tickets]. The waiter reads that record on resuming, by ticket,
   because other events due at the same instant may run before it: a
   waiter handed the server just before a [fail] must still take it,
   or the slot [release] kept for it would leak. *)
type t = {
  name : string;
  capacity : int;
  mutable in_use : int;
  waiters : Engine.waitq;
  mutable tickets : int;  (* waiters ever parked: the next ticket *)
  mutable failed_tickets : (int * int) list;  (* ranges [lo, hi) woken into failure, oldest first *)
  acct : Float.Array.t;
  mutable broken : bool;
}

let create ~name ~capacity () =
  if capacity < 1 then invalid_arg "Resource.create: capacity must be >= 1";
  {
    name;
    capacity;
    in_use = 0;
    waiters = Engine.waitq ();
    tickets = 0;
    failed_tickets = [];
    acct = Float.Array.make 4 0.;
    broken = false;
  }

let name t = t.name
let capacity t = t.capacity

let account t =
  let a = t.acct in
  Engine.now_into a clock;
  let now = Float.Array.get a clock in
  Float.Array.set a busy
    (Float.Array.get a busy +. (float_of_int t.in_use *. (now -. Float.Array.get a last_update)));
  Float.Array.set a last_update now

(* Waiters resume in ticket order, so only the oldest range can hold
   [ticket], and its last member drops it. *)
let woken_into_failure t ticket =
  match t.failed_tickets with
  | (lo, hi) :: rest when lo <= ticket && ticket < hi ->
      if ticket + 1 = hi then t.failed_tickets <- rest;
      true
  | _ -> false

let acquire t =
  if t.broken then raise (Failed t.name);
  if t.in_use < t.capacity && Engine.waiting t.waiters = 0 then begin
    account t;
    t.in_use <- t.in_use + 1
  end
  else begin
    let ticket = t.tickets in
    t.tickets <- ticket + 1;
    Engine.park t.waiters;
    if t.failed_tickets <> [] && woken_into_failure t ticket then raise (Failed t.name)
  end

let release t =
  if t.in_use = 0 then invalid_arg "Resource.release: not held";
  if Engine.waiting t.waiters = 0 then begin
    account t;
    t.in_use <- t.in_use - 1
  end
  else
    (* Hand the server straight to the next fiber in line; [in_use]
       stays constant so no accounting boundary is needed. *)
    Engine.wake t.waiters

(* [dt] is read before [acquire], which may park: the caller's
   slot is free again as soon as [use_in] is entered. *)
let use_in t a i =
  let dt = Float.Array.get a i in
  acquire t;
  Float.Array.set t.acct service dt;
  match Engine.sleep_in t.acct service with
  | () -> release t
  | exception e ->
      release t;
      raise e

let use t dt =
  Float.Array.set t.acct service dt;
  use_in t t.acct service

let fail t =
  if not t.broken then begin
    t.broken <- true;
    (* Waiters will never be served: wake them into the failure path. *)
    let n = Engine.waiting t.waiters in
    if n > 0 then begin
      t.failed_tickets <- t.failed_tickets @ [ (t.tickets - n, t.tickets) ];
      Engine.wake_all t.waiters
    end
  end

let repair t = t.broken <- false
let failed t = t.broken

let queue_length t = Engine.waiting t.waiters

let busy_time t =
  account t;
  Float.Array.get t.acct busy
