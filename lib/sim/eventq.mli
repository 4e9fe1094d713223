(** Allocation-free event queue for the engine's dispatch loop. Two
    bands behind one abstract type:

    - an {e immediate lane} — a FIFO ring absorbing events scheduled
      at the current virtual time, which dominate resume/yield-heavy
      workloads and bypass the heap;
    - a {e heap} — an indexed binary min-heap over parallel unboxed
      arrays (no [option] boxes, no entry records) holding every later
      event; its entries index a payload table written once per event,
      so a sift moves no pointer, and each payload slot records its
      entry's heap position, so {!cancel} can remove a pending event.

    Events dispatch in strict (time, seq) order: the next event is
    always the lane front or the heap top, whichever sorts first.

    The representation is abstract — dispatch call sites go through
    {!next_time}/{!next_is_lane} so the band structure can evolve
    without touching them.

    An event's payload is a [unit -> unit] value and an int {e tag},
    stored side by side. The queue stores both and interprets
    neither: a pop returns the value and leaves the tag in
    {!popped_tag}. The thunk forms ({!push}, {!push_now}, {!pop}) tag
    their event {!thunk_tag}. {!Engine} tags a fiber's resume with the
    fiber's id (>= 0) and a spawn with [-2 - id], and stores a
    resume's continuation in the value's place, so a suspension
    allocates nothing but the continuation itself. *)

type t

(** A heap event's handle, returned by its push: an immediate int
    naming the event's payload slot and its seq (modulo 2^38), so
    holding or storing one allocates nothing and needs no write
    barrier. *)
type handle [@@immediate]

(** The tag of a plain thunk event: [-1]. *)
val thunk_tag : int

(** [create ?capacity ()] preallocates both bands for [capacity]
    events (default 256, rounded up to a power of two, at least 16);
    either band doubles when it fills. *)
val create : ?capacity:int -> unit -> t

(** Pending events across both bands. *)
val size : t -> int

val is_empty : t -> bool

(** [push q time seq thunk] schedules the thunk at absolute [time],
    tagged {!thunk_tag}: O(log n) into the heap, and returns the
    event's handle. Allocation-free (amortised; growth doubles the
    arrays).
    @raise Failure if the heap would hold more than 2^24 events. *)
val push : t -> float -> int -> (unit -> unit) -> handle

(** [push_now q time seq thunk] appends to the immediate lane: O(1),
    allocation-free. Sound only when [time] is the current clock (>=
    every pending lane time) and [seq] comes from the same monotonic
    counter as every other push — the engine's scheduling discipline. *)
val push_now : t -> float -> int -> (unit -> unit) -> unit

(** [push_at q src seq tag payload] is [push q src.(0) seq payload]
    with the event tagged [tag], and [push_now_at] likewise
    [push_now]: the time crosses the module boundary in a float-array
    slot, so it is never boxed (see {!next_time_into}). The engine's
    two pushes. *)
val push_at : t -> float array -> int -> int -> (unit -> unit) -> handle

val push_now_at : t -> float array -> int -> int -> (unit -> unit) -> unit

(** [cancel q h] removes [h]'s event if it is still pending in the
    heap and says whether it did: O(log n), allocation-free (the last
    entry moves into the hole and sifts up or down). A stale handle,
    one whose event was already popped or cancelled, including one
    whose slot a later push reused, removes nothing and returns
    [false]. Lane events have no handle. Dispatch order among the
    remaining events is unchanged, so cancelling an event is
    indistinguishable from never having pushed it, except that its seq
    stays used. *)
val cancel : t -> handle -> bool

(** A handle no push returns: {!cancel} on it returns [false]. *)
val no_handle : handle

(** Time of the next event in dispatch order.
    @raise Invalid_argument on an empty queue. *)
val next_time : t -> float

(** [next_time_into q dst] is [dst.(0) <- next_time q] without boxing
    the float: the dispatch loop's peek. (A float returned across the
    module boundary is boxed — dev builds compile with [-opaque], so
    cross-module inlining cannot recover it; a float-array store
    stays unboxed.)
    @raise Invalid_argument on an empty queue. *)
val next_time_into : t -> float array -> unit

(** Whether the (time, seq)-minimum pending event sits in the lane.
    Meaningful only when the queue is non-empty. *)
val next_is_lane : t -> bool

(** [would_run_next q src] says whether an event pushed now at time
    [src.(0)], with a seq above every pending one, would be the next
    dispatched: the lane is empty and the heap is empty or its top is
    strictly later than [src.(0)]. (A tie with a pending event goes to
    the pending one's smaller seq.) The time arrives in a float-array
    slot, as with {!push_at}, so the check allocates nothing. The
    engine's test for a sleep that can resume in place. *)
val would_run_next : t -> float array -> bool

(** Pop the lane front / heap top and return its payload; its tag is
    then {!popped_tag}. Undefined on the respective empty structure;
    callers gate on {!next_is_lane}. *)
val pop_lane : t -> unit -> unit

val pop_heap : t -> unit -> unit

(** [pop q] combines the gate and the pop — the convenience form for
    tests and benches (the engine inlines the choice). It returns the
    payload whatever its tag.
    @raise Invalid_argument on an empty queue. *)
val pop : t -> unit -> unit

(** The tag of the event the last pop returned ({!thunk_tag} before
    any pop). *)
val popped_tag : t -> int
