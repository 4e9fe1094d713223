(** Allocation-free event queue for the engine's dispatch loop. Two
    bands behind one abstract type:

    - an {e immediate lane} — a FIFO ring absorbing events scheduled
      at the current virtual time, which dominate resume/yield-heavy
      workloads and bypass the heap;
    - a {e heap} — a binary min-heap over parallel unboxed arrays (no
      [option] boxes, no entry records) holding every later event.

    Events dispatch in strict (time, seq) order: the next event is
    always the lane front or the heap top, whichever sorts first.

    The representation is abstract — dispatch call sites go through
    {!next_time}/{!next_is_lane} so the band structure can evolve
    without touching them. *)

type t

(** [create ?capacity ()] preallocates both bands for [capacity]
    events (default 256, rounded up to a power of two, at least 16);
    either band doubles when it fills. *)
val create : ?capacity:int -> unit -> t

(** Pending events across both bands. *)
val size : t -> int

val is_empty : t -> bool

(** [push q time seq thunk] schedules at absolute [time]: O(log n)
    into the heap. Allocation-free (amortised; growth doubles the
    arrays). *)
val push : t -> float -> int -> (unit -> unit) -> unit

(** [push_now q time seq thunk] appends to the immediate lane: O(1),
    allocation-free. Sound only when [time] is the current clock (>=
    every pending lane time) and [seq] comes from the same monotonic
    counter as every other push — the engine's scheduling discipline. *)
val push_now : t -> float -> int -> (unit -> unit) -> unit

(** [push_at q src seq thunk] is [push q src.(0) seq thunk] and
    [push_now_at] likewise [push_now]: the time crosses the module
    boundary in a float-array slot, so it is never boxed (see
    {!next_time_into}). The engine's two pushes. *)
val push_at : t -> float array -> int -> (unit -> unit) -> unit

val push_now_at : t -> float array -> int -> (unit -> unit) -> unit

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

(** Pop the lane front / heap top. Undefined on the respective empty
    structure; callers gate on {!next_is_lane}. *)
val pop_lane : t -> unit -> unit

val pop_heap : t -> unit -> unit

(** [pop q] combines the gate and the pop — the convenience form for
    tests and benches (the engine inlines the choice).
    @raise Invalid_argument on an empty queue. *)
val pop : t -> unit -> unit
