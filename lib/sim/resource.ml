exception Failed of string

(* [acct] slots: the busy integral, the time it was last brought up to
   date, a clock scratch for [Engine.now_into] and the service time
   handed to [Engine.sleep_in]. A [Float.Array] keeps all four
   unboxed, so accounting and service allocate nothing. *)
let busy = 0
let last_update = 1
let clock = 2
let service = 3

type t = {
  name : string;
  capacity : int;
  mutable in_use : int;
  waiters : (bool -> unit) Queue.t;  (* resumed with [false] when the station fails *)
  acct : Float.Array.t;
  mutable broken : bool;
}

let create ~name ~capacity () =
  if capacity < 1 then invalid_arg "Resource.create: capacity must be >= 1";
  { name; capacity; in_use = 0; waiters = Queue.create (); acct = Float.Array.make 4 0.; broken = false }

let name t = t.name
let capacity t = t.capacity

let account t =
  let a = t.acct in
  Engine.now_into a clock;
  let now = Float.Array.get a clock in
  Float.Array.set a busy
    (Float.Array.get a busy +. (float_of_int t.in_use *. (now -. Float.Array.get a last_update)));
  Float.Array.set a last_update now

let acquire t =
  if t.broken then raise (Failed t.name);
  if t.in_use < t.capacity && Queue.is_empty t.waiters then begin
    account t;
    t.in_use <- t.in_use + 1
  end
  else begin
    let ok = Engine.suspend (fun resume -> Queue.add resume t.waiters) in
    if not ok then raise (Failed t.name)
  end

let release t =
  if t.in_use = 0 then invalid_arg "Resource.release: not held";
  if Queue.is_empty t.waiters then begin
    account t;
    t.in_use <- t.in_use - 1
  end
  else
    (* Hand the server straight to the next fiber in line; [in_use]
       stays constant so no accounting boundary is needed. *)
    (Queue.take t.waiters) true

(* [dt] is read before [acquire], which may suspend: the caller's
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
    let rec drain () =
      match Queue.take_opt t.waiters with
      | Some waiter ->
          waiter false;
          drain ()
      | None -> ()
    in
    drain ()
  end

let repair t = t.broken <- false
let failed t = t.broken

let queue_length t = Queue.length t.waiters

let busy_time t =
  account t;
  Float.Array.get t.acct busy
