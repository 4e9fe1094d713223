(* The engine's dispatch structure: two bands, both allocation-free on
   push, pop and cancel.

     lane      events at the current clock — a FIFO ring; it absorbs
               resume/yield storms, the bulk of timer-light workloads
     heap      every later event — an indexed binary min-heap over
               parallel unboxed arrays, ordered by (time, seq); each
               entry names a slot of a payload table, and each slot
               knows its entry's heap position, so a pending event can
               be removed in O(log n)

   Order contract: events dispatch in strict (time, seq) order, exactly
   as a single heap would. Lane entries carry push-time clocks that
   never exceed the current dispatch time and seqs from the same
   monotonic counter, so the lane is itself sorted and the global
   minimum is always the lane front or the heap top.

   No [option], no entry records: a push stores three scalars and a
   payload, a pop reads them back. The payload is a [unit -> unit]
   value and an int tag the queue carries but never reads (see the
   .mli). A heap payload is written once into a free slot of the
   table at push and cleared at pop or cancel, so a sift is all unboxed
   stores and no write barrier. [noop] is the sentinel for empty slots
   so a popped payload doesn't outlive its event.

   Handles: a heap push returns [(seq lsl slot_bits) lor slot], with
   seq masked to the bits left, an immediate int. The slot records the
   handle of the event it holds ([ph]), or [no_handle] while free, so
   a handle whose event already left the heap (popped, cancelled, its
   slot reused) matches nothing; [no_handle] itself is negative and
   never matches. *)

type t = {
  (* heap *)
  mutable ht : float array;  (* times *)
  mutable hs : int array;  (* seqs *)
  mutable hi : int array;  (* payload slots *)
  mutable hlen : int;
  (* heap payloads, by slot: written once at push, cleared at pop or
     cancel *)
  mutable pk : (unit -> unit) array;
  mutable pg : int array;
  mutable hp : int array;  (* the slot's heap position, while pending *)
  mutable ph : int array;  (* the slot's event's handle, [no_handle] while free *)
  mutable free : int array;  (* a stack of free slots *)
  mutable nfree : int;
  (* immediate lane ring *)
  mutable lt : float array;
  mutable ls : int array;
  mutable lk : (unit -> unit) array;
  mutable lg : int array;
  mutable lhead : int;
  mutable llen : int;
  mutable popped : int;  (* the tag of the last popped event *)
}

type handle = int

let no_handle = -1

let thunk_tag = -1
let noop () = ()

(* 2^24 slots bound the heap at about 16.7M pending events; the seq
   keeps the other 38 bits, so a handle is stale-proof until the same
   slot is reused by an event 2^38 pushes younger. *)
let slot_bits = 24
let slot_mask = (1 lsl slot_bits) - 1
let seq_mask = (1 lsl (Sys.int_size - 1 - slot_bits)) - 1

(* A free-slot stack of [cap] entries holding the top [n] slots,
   [cap - n .. cap - 1]. *)
let free_slots cap n =
  let free = Array.make cap 0 in
  for i = 0 to n - 1 do
    Array.unsafe_set free i (cap - 1 - i)
  done;
  free

(* The lane's capacity stays a power of two so the index mask is a
   [land]; the heap shares it as its initial size. *)
let create ?(capacity = 256) () =
  let cap = ref 16 in
  while !cap < capacity do
    cap := 2 * !cap
  done;
  let cap = !cap in
  if cap > slot_mask + 1 then invalid_arg "Eventq.create: capacity above 2^24";
  {
    ht = Array.make cap 0.;
    hs = Array.make cap 0;
    hi = Array.make cap 0;
    hlen = 0;
    pk = Array.make cap noop;
    pg = Array.make cap 0;
    hp = Array.make cap 0;
    ph = Array.make cap no_handle;
    free = free_slots cap cap;
    nfree = cap;
    lt = Array.make cap 0.;
    ls = Array.make cap 0;
    lk = Array.make cap noop;
    lg = Array.make cap 0;
    lhead = 0;
    llen = 0;
    popped = thunk_tag;
  }

let size q = q.hlen + q.llen
let is_empty q = q.hlen = 0 && q.llen = 0
let popped_tag q = q.popped

(* -- heap -------------------------------------------------------------- *)

let grow_heap q =
  let old = Array.length q.ht in
  let cap = 2 * old in
  if cap > slot_mask + 1 then failwith "Eventq: more than 2^24 pending heap events";
  let ht = Array.make cap 0. and hs = Array.make cap 0 and hi = Array.make cap 0 in
  Array.blit q.ht 0 ht 0 q.hlen;
  Array.blit q.hs 0 hs 0 q.hlen;
  Array.blit q.hi 0 hi 0 q.hlen;
  q.ht <- ht;
  q.hs <- hs;
  q.hi <- hi;
  let pk = Array.make cap noop
  and pg = Array.make cap 0
  and hp = Array.make cap 0
  and ph = Array.make cap no_handle in
  Array.blit q.pk 0 pk 0 old;
  Array.blit q.pg 0 pg 0 old;
  Array.blit q.hp 0 hp 0 old;
  Array.blit q.ph 0 ph 0 old;
  q.pk <- pk;
  q.pg <- pg;
  q.hp <- hp;
  q.ph <- ph;
  (* the heap was full, so only the new slots are free *)
  q.free <- free_slots cap old;
  q.nfree <- old

(* Both sifts bubble a hole instead of swapping: one move per level,
   each recording the moved entry's new position, plus the final
   store of (time, seq, slot) where the hole stops. *)
let[@inline always] sift_up q i0 time seq slot =
  let ht = q.ht and hs = q.hs and hi = q.hi and hp = q.hp in
  let i = ref i0 in
  let stop = ref false in
  while (not !stop) && !i > 0 do
    let p = (!i - 1) / 2 in
    let pt = Array.unsafe_get ht p in
    if pt < time || (pt = time && Array.unsafe_get hs p < seq) then stop := true
    else begin
      let ps = Array.unsafe_get hi p in
      Array.unsafe_set ht !i pt;
      Array.unsafe_set hs !i (Array.unsafe_get hs p);
      Array.unsafe_set hi !i ps;
      Array.unsafe_set hp ps !i;
      i := p
    end
  done;
  Array.unsafe_set ht !i time;
  Array.unsafe_set hs !i seq;
  Array.unsafe_set hi !i slot;
  Array.unsafe_set hp slot !i

(* Sift (time, seq, slot) down from the hole at [i0] in a heap of
   [len] entries. *)
let[@inline always] sift_down q i0 len time seq slot =
  let ht = q.ht and hs = q.hs and hi = q.hi and hp = q.hp in
  let i = ref i0 in
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
        let cs = Array.unsafe_get hi c in
        Array.unsafe_set ht !i ct;
        Array.unsafe_set hs !i (Array.unsafe_get hs c);
        Array.unsafe_set hi !i cs;
        Array.unsafe_set hp cs !i;
        i := c
      end
      else stop := true
    end
  done;
  Array.unsafe_set ht !i time;
  Array.unsafe_set hs !i seq;
  Array.unsafe_set hi !i slot;
  Array.unsafe_set hp slot !i

(* Take a slot for the payload and sift the new entry up from the
   end. *)
let[@inline always] push_unboxed q time seq tag payload =
  if q.hlen = Array.length q.ht then grow_heap q;
  let slot = Array.unsafe_get q.free (q.nfree - 1) in
  q.nfree <- q.nfree - 1;
  Array.unsafe_set q.pk slot payload;
  Array.unsafe_set q.pg slot tag;
  let h = ((seq land seq_mask) lsl slot_bits) lor slot in
  Array.unsafe_set q.ph slot h;
  let i = q.hlen in
  q.hlen <- i + 1;
  sift_up q i time seq slot;
  h

let push q time seq thunk = push_unboxed q time seq thunk_tag thunk

(* The engine's push: the time arrives in a float-array slot, so it is
   never boxed across the module boundary (see [next_time_into]). *)
let push_at q src seq tag payload = push_unboxed q (Array.unsafe_get src 0) seq tag payload

(* Clear [slot]'s payload and return it to the free stack. *)
let[@inline always] free_slot q slot =
  Array.unsafe_set q.pk slot noop;
  Array.unsafe_set q.ph slot no_handle;
  Array.unsafe_set q.free q.nfree slot;
  q.nfree <- q.nfree + 1

let pop_heap q =
  let slot = Array.unsafe_get q.hi 0 in
  let payload = Array.unsafe_get q.pk slot in
  q.popped <- Array.unsafe_get q.pg slot;
  free_slot q slot;
  let len = q.hlen - 1 in
  q.hlen <- len;
  (* sift the displaced last entry down from the root *)
  if len > 0 then
    sift_down q 0 len (Array.unsafe_get q.ht len) (Array.unsafe_get q.hs len)
      (Array.unsafe_get q.hi len);
  payload

(* Fill the hole a cancelled entry leaves at [i] with the last entry:
   up if it sorts before the hole's parent, else down. *)
let cancel q h =
  let slot = h land slot_mask in
  if h < 0 || slot >= Array.length q.ph || Array.unsafe_get q.ph slot <> h then false
  else begin
    let i = Array.unsafe_get q.hp slot in
    free_slot q slot;
    let len = q.hlen - 1 in
    q.hlen <- len;
    if i < len then begin
      let time = Array.unsafe_get q.ht len
      and seq = Array.unsafe_get q.hs len
      and last = Array.unsafe_get q.hi len in
      let p = (i - 1) / 2 in
      if
        i > 0
        &&
        let pt = Array.unsafe_get q.ht p in
        time < pt || (time = pt && seq < Array.unsafe_get q.hs p)
      then sift_up q i time seq last
      else sift_down q i len time seq last
    end;
    true
  end

(* -- lane -------------------------------------------------------------- *)

let grow_lane q =
  let old = Array.length q.lt in
  let cap = 2 * old in
  let lt = Array.make cap 0.
  and ls = Array.make cap 0
  and lk = Array.make cap noop
  and lg = Array.make cap 0 in
  let mask = old - 1 in
  for i = 0 to q.llen - 1 do
    let j = (q.lhead + i) land mask in
    lt.(i) <- q.lt.(j);
    ls.(i) <- q.ls.(j);
    lk.(i) <- q.lk.(j);
    lg.(i) <- q.lg.(j)
  done;
  q.lt <- lt;
  q.ls <- ls;
  q.lk <- lk;
  q.lg <- lg;
  q.lhead <- 0

(* Lane push: [time] must be >= the time of every entry already in the
   lane and [seq] greater than theirs at equal time — both hold by
   construction when the caller pushes at the current clock with a
   monotonic sequence counter. *)
let[@inline always] push_now_unboxed q time seq tag payload =
  if q.llen = Array.length q.lt then grow_lane q;
  let at = (q.lhead + q.llen) land (Array.length q.lt - 1) in
  Array.unsafe_set q.lt at time;
  Array.unsafe_set q.ls at seq;
  Array.unsafe_set q.lk at payload;
  Array.unsafe_set q.lg at tag;
  q.llen <- q.llen + 1

let push_now q time seq thunk = push_now_unboxed q time seq thunk_tag thunk

let push_now_at q src seq tag payload =
  push_now_unboxed q (Array.unsafe_get src 0) seq tag payload

let pop_lane q =
  let i = q.lhead in
  let payload = Array.unsafe_get q.lk i in
  q.popped <- Array.unsafe_get q.lg i;
  Array.unsafe_set q.lk i noop;
  q.lhead <- (i + 1) land (Array.length q.lt - 1);
  q.llen <- q.llen - 1;
  payload

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

(* Whether an event pushed now, due at [src.(0)] with a fresh seq,
   would be the next one dispatched: no lane event (each is due now
   with a smaller seq) and no heap event at or before it (a tie goes to
   the pending event's smaller seq). The due time arrives in a
   float-array slot, like [push_at]'s, so it is never boxed. *)
let would_run_next q src =
  q.llen = 0 && (q.hlen = 0 || Array.unsafe_get q.ht 0 > Array.unsafe_get src 0)

(* Convenience form for tests and benches; the engine's dispatch loop
   peeks with [next_time_into] and then calls the band-specific pop. *)
let pop q =
  if next_is_lane q then pop_lane q
  else if q.hlen > 0 then pop_heap q
  else invalid_arg "Eventq.pop: empty queue"
