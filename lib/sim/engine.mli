(** Deterministic discrete-event scheduler with cooperative fibers.

    The engine drives a virtual clock (microseconds, [float]) and an
    event queue (an immediate lane plus one (time, seq) min-heap, see
    {!Eventq}). Simulated processes are {e fibers}: ordinary OCaml
    functions that may call {!sleep} and {!suspend}, implemented with
    OCaml 5 effect handlers. Exactly one fiber runs at a time; there
    is no preemption, so plain mutable state needs no locking. Ties in
    the event queue are broken by insertion order, making every run
    reproducible.

    A simulation ends when the main fiber (the function passed to
    {!run}) returns. Fibers still blocked at that point — servers
    waiting for requests that will never come — are discarded. *)

(** Raised by {!run} when the main fiber is blocked but no events
    remain: every remaining fiber waits on something nobody will
    deliver. *)
exception Deadlock

(** Raised by {!run} when the [until] horizon passes before the main
    fiber completes. *)
exception Horizon_reached of float

(** [run ?seed ?until main] creates a fresh simulation world, runs
    [main] as the first fiber, and drives events until [main] returns;
    its result is returned. [seed] (default 1) seeds the world's
    {!Rng.t}. [until] bounds virtual time.

    Nested calls to [run] are not allowed. *)
val run : ?seed:int -> ?until:float -> (unit -> 'a) -> 'a

(** [now ()] is the current virtual time in microseconds.
    @raise Invalid_argument outside of {!run}. *)
val now : unit -> float

(** [now_into dst i] stores {!now} into [dst.(i)] without boxing it:
    a float returned across a module boundary is boxed, a
    [Float.Array] store is not. For per-event accounting such as
    {!Resource}'s busy integral.
    @raise Invalid_argument outside of {!run}. *)
val now_into : Float.Array.t -> int -> unit

(** [rng ()] is the world's generator, [Rng.create seed]. *)
val rng : unit -> Rng.t

(** [sleep dt] suspends the calling fiber for [dt] microseconds
    (clamped to 0). *)
val sleep : float -> unit

(** [sleep_in a i] is [sleep (Float.Array.get a i)]: the form for a
    delay the caller computes, which reaches the engine unboxed. *)
val sleep_in : Float.Array.t -> int -> unit

(** [yield ()] reschedules the calling fiber at the current time,
    letting other ready fibers run first. *)
val yield : unit -> unit

(** A resumer: call it exactly once to wake the suspended fiber with a
    value. Calling it twice raises [Invalid_argument]. *)
type 'a resumer = 'a -> unit

(** [suspend register] parks the calling fiber and hands a {!resumer}
    to [register]. The fiber resumes (at the virtual time of the
    resumer call) with the value passed to the resumer. *)
val suspend : ('a resumer -> unit) -> 'a

(** [spawn ?at f] schedules [f] as a new fiber at time [at] (default
    now). Exceptions escaping a fiber abort the whole simulation: they
    are re-raised from {!run}.
    @raise Invalid_argument if [at] is in the past — a fiber cannot
    start before the clock. *)
val spawn : ?at:float -> (unit -> unit) -> unit

(** [fiber_id ()] identifies the calling fiber; ids are unique within
    a run. The main fiber has id 0. *)
val fiber_id : unit -> int

(** [schedule ~after f] runs the thunk [f] (not a fiber: it must not
    sleep or suspend) after [after] microseconds. *)
val schedule : after:float -> (unit -> unit) -> unit

(** [events_dispatched ()] is the number of events the running world
    has dispatched so far — the numerator of the events-per-wall-second
    throughput metric the bench suite gates on.
    @raise Invalid_argument outside of {!run}. *)
val events_dispatched : unit -> int

(** [run_count ()] is the number of simulation worlds ever started in
    this process (incremented at the top of each {!run}). Unlike the
    other accessors it is usable outside a run. Global registries such
    as {!Metrics} and {!Span} use it to reset themselves lazily at the
    start of a new run while staying readable after a run ends. *)
val run_count : unit -> int
