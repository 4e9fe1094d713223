(** Deterministic discrete-event scheduler with cooperative fibers.

    The engine drives a virtual clock (microseconds, [float]) and an
    event queue (an immediate lane plus one (time, seq) min-heap, see
    {!Eventq}). Simulated processes are {e fibers}: ordinary OCaml
    functions that may call {!sleep} and {!park}, implemented with
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
    (clamped to 0).

    When the sleep's wake-up would be the next event dispatched anyway
    it resumes in place, allocating nothing: that is when no event is
    due now, the earliest pending event is strictly later than
    [now () +. dt] (a tie goes to the pending event), and [now () +. dt]
    is within {!run}'s [until]. It then advances the clock to
    [now () +. dt] and counts one dispatch, exactly as the suspended
    sleep's resume would, so dispatch order, fiber ids and
    {!events_dispatched} are identical to a run where it suspended. *)
val sleep : float -> unit

(** [sleep_in a i] is [sleep (Float.Array.get a i)], in-place resume
    included: the form for a delay the caller computes, which reaches
    the engine unboxed. *)
val sleep_in : Float.Array.t -> int -> unit

(** [yield ()] reschedules the calling fiber at the current time,
    letting other ready fibers run first. *)
val yield : unit -> unit

(** {1 Blocking}

    A fiber blocks in one of two ways: it parks on a wait queue, and
    whoever owns the queue wakes it; or, as the only reader of an
    empty write-once cell ({!Ivar}), it parks in the cell's state, and
    the fill wakes it. Either park stores the fiber's continuation and
    id, with no resume event or closure built (a cell's one waiter
    takes a 3-word state; a second reader moves both waiters into a
    wait queue, in park order); a wake moves that pair onto the
    current instant as the fiber's resume, so it allocates nothing. A
    parked fiber resumes with [()]: whatever it waited for (a value, a
    granted server, a failure) it reads from state the queue's or
    cell's owner keeps, never from the wake.

    An owner must decide each waiter's outcome by the time it wakes
    it, or record it in a form the waiter can check on resuming. Woken
    fibers resume in wake order, but other events due at the same
    instant may run first: state the waiter reads on resuming may have
    moved on since its wake. *)

(** A FIFO queue of parked fibers. Storage grows on demand; an empty
    queue holds no buffer. *)
type waitq

(** [waitq ()] is a new, empty queue. *)
val waitq : unit -> waitq

(** [park q] blocks the calling fiber at the back of [q] until a
    {!wake} or {!wake_all} on [q] reaches it. A fiber parked on a queue
    nobody wakes stays blocked: {!run} discards it when the main fiber
    returns, and raises {!Deadlock} if the main fiber is blocked with
    no event left to wake it. *)
val park : waitq -> unit

(** [wake q] resumes the longest-parked fiber of [q], at the current
    instant after events already due now. No-op on an empty queue. *)
val wake : waitq -> unit

(** [wake_all q] wakes every fiber parked on [q], in park order. *)
val wake_all : waitq -> unit

(** [waiting q] is the number of fibers parked on [q]. *)
val waiting : waitq -> int

(** {2 Write-once cells}

    The cell behind {!Ivar}, which documents these operations; use
    that module. They live here because a lone reader parks in the
    cell's state through the engine's handler. *)

type 'a ivar

val ivar_create : unit -> 'a ivar
val ivar_fill : 'a ivar -> 'a -> unit
val ivar_read : 'a ivar -> 'a
val ivar_peek : 'a ivar -> 'a option
val ivar_is_filled : 'a ivar -> bool

(** [spawn ?at f] schedules [f] as a new fiber at time [at] (default
    now). Exceptions escaping a fiber abort the whole simulation: they
    are re-raised from {!run}.
    @raise Invalid_argument if [at] is in the past — a fiber cannot
    start before the clock. *)
val spawn : ?at:float -> (unit -> unit) -> unit

(** [fiber_id ()] identifies the calling fiber; ids are unique within
    a run. The main fiber has id 0. *)
val fiber_id : unit -> int

(** A scheduled thunk's handle: an immediate int, so holding or
    storing one allocates nothing and needs no write barrier. *)
type timer [@@immediate]

(** [schedule ~after f] runs the thunk [f] (not a fiber: a {!sleep},
    {!sleep_in}, {!park} or blocking read of an empty cell from [f]
    raises [Invalid_argument], whatever else is pending) after [after]
    microseconds (clamped to 0) and returns its handle. This is the engine's one timer path: a thunk
    takes the event heap even when due now, so every handle can be
    cancelled. O(log n) in the pending events, allocation-free. *)
val schedule : after:float -> (unit -> unit) -> timer

(** [schedule_in a i f] is [schedule ~after:(Float.Array.get a i) f]:
    the form for a delay the caller computes, which reaches the engine
    unboxed. *)
val schedule_in : Float.Array.t -> int -> (unit -> unit) -> timer

(** [cancel t] removes [t]'s thunk if it has not run yet and returns
    [true]; the thunk then never runs. A stale handle, whose thunk
    already ran or was cancelled, removes nothing and returns [false],
    even once a later {!schedule} reuses its slot in the heap: the
    handle carries its event's sequence number. O(log n),
    allocation-free. Cancelling changes no other event's time or
    order, so a run that cancels a timer dispatches exactly the events
    it would have without it, less that one. *)
val cancel : timer -> bool

(** [no_timer] names no event: {!cancel} on it returns [false]. The
    placeholder for a field that holds a timer only part of the
    time. *)
val no_timer : timer

(** [pending_events ()] is the number of events waiting in the queue:
    scheduled thunks and timers, due resumes and spawns. Read-only;
    tests use it to check that answered timers do not linger.
    @raise Invalid_argument outside of {!run}. *)
val pending_events : unit -> int

(** [events_dispatched ()] is the number of events the running world
    has dispatched so far — the numerator of the events-per-wall-second
    throughput metric the bench suite gates on.
    @raise Invalid_argument outside of {!run}. *)
val events_dispatched : unit -> int

(** [resumed_in_place ()] is how many of {!events_dispatched} were
    sleeps that resumed in place (see {!sleep}) rather than suspending.
    @raise Invalid_argument outside of {!run}. *)
val resumed_in_place : unit -> int

(** [run_count ()] is the number of simulation worlds ever started in
    this process (incremented at the top of each {!run}). Unlike the
    other accessors it is usable outside a run. Global registries such
    as {!Metrics} and {!Span} use it to reset themselves lazily at the
    start of a new run while staying readable after a run ends. *)
val run_count : unit -> int
