(* The engine's dispatch structure: two bands, both allocation-free on
   push and pop.

     lane      events at the current clock — a FIFO ring; it absorbs
               resume/yield storms, the bulk of timer-light workloads
     heap      every later event — a binary min-heap over parallel
               unboxed arrays, ordered by (time, seq)

   Order contract: events dispatch in strict (time, seq) order, exactly
   as a single heap would. Lane entries carry push-time clocks that
   never exceed the current dispatch time and seqs from the same
   monotonic counter, so the lane is itself sorted and the global
   minimum is always the lane front or the heap top.

   No [option], no entry records: a push stores three scalars, a pop
   reads them back. [noop] is the sentinel thunk for empty slots so
   popped closures don't outlive their event. *)

type t = {
  (* heap *)
  mutable ht : float array;  (* times *)
  mutable hs : int array;  (* seqs *)
  mutable hk : (unit -> unit) array;  (* thunks *)
  mutable hlen : int;
  (* immediate lane ring *)
  mutable lt : float array;
  mutable ls : int array;
  mutable lk : (unit -> unit) array;
  mutable lhead : int;
  mutable llen : int;
}

let noop () = ()

(* The lane's capacity stays a power of two so the index mask is a
   [land]; the heap shares it as its initial size. *)
let create ?(capacity = 256) () =
  let cap = ref 16 in
  while !cap < capacity do
    cap := 2 * !cap
  done;
  let cap = !cap in
  {
    ht = Array.make cap 0.;
    hs = Array.make cap 0;
    hk = Array.make cap noop;
    hlen = 0;
    lt = Array.make cap 0.;
    ls = Array.make cap 0;
    lk = Array.make cap noop;
    lhead = 0;
    llen = 0;
  }

let size q = q.hlen + q.llen
let is_empty q = q.hlen = 0 && q.llen = 0

(* -- heap -------------------------------------------------------------- *)

let grow_heap q =
  let old = Array.length q.ht in
  let cap = 2 * old in
  let ht = Array.make cap 0. and hs = Array.make cap 0 and hk = Array.make cap noop in
  Array.blit q.ht 0 ht 0 q.hlen;
  Array.blit q.hs 0 hs 0 q.hlen;
  Array.blit q.hk 0 hk 0 q.hlen;
  q.ht <- ht;
  q.hs <- hs;
  q.hk <- hk

(* Bubble the hole up instead of swapping: one write per level plus
   the final triple store. *)
let[@inline always] push_unboxed q time seq thunk =
  if q.hlen = Array.length q.ht then grow_heap q;
  let ht = q.ht and hs = q.hs and hk = q.hk in
  let i = ref q.hlen in
  q.hlen <- q.hlen + 1;
  let stop = ref false in
  while (not !stop) && !i > 0 do
    let p = (!i - 1) / 2 in
    let pt = Array.unsafe_get ht p in
    if pt < time || (pt = time && Array.unsafe_get hs p < seq) then stop := true
    else begin
      Array.unsafe_set ht !i pt;
      Array.unsafe_set hs !i (Array.unsafe_get hs p);
      Array.unsafe_set hk !i (Array.unsafe_get hk p);
      i := p
    end
  done;
  Array.unsafe_set ht !i time;
  Array.unsafe_set hs !i seq;
  Array.unsafe_set hk !i thunk

let push q time seq thunk = push_unboxed q time seq thunk

(* The engine's push: the time arrives in a float-array slot, so it is
   never boxed across the module boundary (see [next_time_into]). *)
let push_at q src seq thunk = push_unboxed q (Array.unsafe_get src 0) seq thunk

let pop_heap q =
  let ht = q.ht and hs = q.hs and hk = q.hk in
  let thunk = Array.unsafe_get hk 0 in
  let len = q.hlen - 1 in
  q.hlen <- len;
  let time = Array.unsafe_get ht len in
  let seq = Array.unsafe_get hs len in
  let last = Array.unsafe_get hk len in
  Array.unsafe_set hk len noop;
  if len > 0 then begin
    (* Sift the displaced last entry down from the root, again bubbling
       the hole. *)
    let i = ref 0 in
    let stop = ref false in
    while not !stop do
      let l = (2 * !i) + 1 in
      if l >= len then stop := true
      else begin
        let r = l + 1 in
        let c =
          if r < len then begin
            let ltm = Array.unsafe_get ht l and rtm = Array.unsafe_get ht r in
            if rtm < ltm || (rtm = ltm && Array.unsafe_get hs r < Array.unsafe_get hs l) then r
            else l
          end
          else l
        in
        let ct = Array.unsafe_get ht c in
        if ct < time || (ct = time && Array.unsafe_get hs c < seq) then begin
          Array.unsafe_set ht !i ct;
          Array.unsafe_set hs !i (Array.unsafe_get hs c);
          Array.unsafe_set hk !i (Array.unsafe_get hk c);
          i := c
        end
        else stop := true
      end
    done;
    Array.unsafe_set ht !i time;
    Array.unsafe_set hs !i seq;
    Array.unsafe_set hk !i last
  end;
  thunk

(* -- lane -------------------------------------------------------------- *)

let grow_lane q =
  let old = Array.length q.lt in
  let cap = 2 * old in
  let lt = Array.make cap 0. and ls = Array.make cap 0 and lk = Array.make cap noop in
  let mask = old - 1 in
  for i = 0 to q.llen - 1 do
    let j = (q.lhead + i) land mask in
    lt.(i) <- q.lt.(j);
    ls.(i) <- q.ls.(j);
    lk.(i) <- q.lk.(j)
  done;
  q.lt <- lt;
  q.ls <- ls;
  q.lk <- lk;
  q.lhead <- 0

(* Lane push: [time] must be >= the time of every entry already in the
   lane and [seq] greater than theirs at equal time — both hold by
   construction when the caller pushes at the current clock with a
   monotonic sequence counter. *)
let[@inline always] push_now_unboxed q time seq thunk =
  if q.llen = Array.length q.lt then grow_lane q;
  let at = (q.lhead + q.llen) land (Array.length q.lt - 1) in
  Array.unsafe_set q.lt at time;
  Array.unsafe_set q.ls at seq;
  Array.unsafe_set q.lk at thunk;
  q.llen <- q.llen + 1

let push_now q time seq thunk = push_now_unboxed q time seq thunk
let push_now_at q src seq thunk = push_now_unboxed q (Array.unsafe_get src 0) seq thunk

let pop_lane q =
  let i = q.lhead in
  let thunk = Array.unsafe_get q.lk i in
  Array.unsafe_set q.lk i noop;
  q.lhead <- (i + 1) land (Array.length q.lt - 1);
  q.llen <- q.llen - 1;
  thunk

(* -- dispatch ---------------------------------------------------------- *)

(* True when the (time, seq)-minimum pending event sits in the lane. *)
let next_is_lane q =
  q.llen > 0
  && (q.hlen = 0
     ||
     let lf = q.lhead in
     let ht0 = Array.unsafe_get q.ht 0 and lt0 = Array.unsafe_get q.lt lf in
     ht0 > lt0 || (ht0 = lt0 && Array.unsafe_get q.hs 0 > Array.unsafe_get q.ls lf))

let[@inline always] next_time_unboxed q =
  if next_is_lane q then Array.unsafe_get q.lt q.lhead
  else if q.hlen > 0 then Array.unsafe_get q.ht 0
  else invalid_arg "Eventq.next_time: empty queue"

let next_time q = next_time_unboxed q

(* Allocation-free peek for the engine's dispatch loop: store the next
   event time into [dst.(0)]. A plain [next_time] call returns a
   *boxed* float across the module boundary (dev builds compile with
   -opaque, so cross-module inlining cannot unbox it); a float-array
   store stays unboxed. *)
let next_time_into q dst = Array.unsafe_set dst 0 (next_time_unboxed q)

(* Convenience form for tests and benches; the engine's dispatch loop
   peeks with [next_time_into] and then calls the band-specific pop. *)
let pop q =
  if next_is_lane q then pop_lane q
  else if q.hlen > 0 then pop_heap q
  else invalid_arg "Eventq.pop: empty queue"
