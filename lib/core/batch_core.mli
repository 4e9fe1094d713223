(** The batcher's bookkeeping core — forming batch, sealed queue,
    stream-set grouping, payload encode — split from the I/O shell
    ({!Batcher}) so the drain-loop data path runs (and benchmarks)
    without a simulation.

    Everything is pooled: cells, batch records (a {!Sim.Pool}), the
    sealed ring, the per-batch stream-set arrays. Steady state
    allocates nothing per record beyond the caller's ['a] completion
    data and the one payload copy at the {!encode} boundary. A batch handed out by
    {!pop} stays owned by the caller until {!recycle} returns its
    cells to the pool; the ['a t] it came from must outlive it. *)

type 'a cell

(** A sealed batch: up to [cap] records plus their sorted, deduped
    stream set and its seal time. *)
type 'a batch

type 'a t

(** [create ~cap ~dummy] builds a core sealing batches of at most
    [cap] records (1 ≤ [cap] ≤ {!Record.slots_per_entry});
    [dummy] fills vacated ['a] slots so recycled cells don't retain
    caller data. *)
val create : cap:int -> dummy:'a -> 'a t

(** Records in the forming (unsealed) batch. *)
val forming_len : 'a t -> int

(** Sealed batches waiting to drain. *)
val queued : 'a t -> int

val capacity : 'a t -> int

(** [submit t record streams data] appends to the forming batch;
    [true] means the batch just became full and the caller must
    {!seal}. Raises [Invalid_argument] if already full. *)
val submit : 'a t -> Record.t -> Corfu.Types.stream_id list -> 'a -> bool

(** [seal t ~now] seals the forming batch (no-op when empty): computes
    its stream set, stamps it with [now] (µs) and queues it, recycling
    pooled batch records. *)
val seal : 'a t -> now:float -> unit

(** Length of the leading run of sealed batches sharing the front
    batch's stream set, capped at [max_run] — what one range grant
    covers. Raises [Invalid_argument] on an empty queue. *)
val group : 'a t -> max_run:int -> int

(** The front batch's stream set, sorted — a list for the grant RPC
    (the boundary owns its data): the front batch's first submitted
    list when that already equals the set, else a fresh one. *)
val front_streams : 'a t -> Corfu.Types.stream_id list

(** The [now] the front batch was sealed at — the oldest queued seal.
    Raises [Invalid_argument] on an empty queue. *)
val front_sealed_us : 'a t -> float

(** Dequeue the front batch. Raises [Invalid_argument] when empty. *)
val pop : 'a t -> 'a batch

val length : 'a batch -> int

(** Completion data of slot [i] (0-based submission order). *)
val data : 'a batch -> int -> 'a

(** Encode the batch's records into an owned entry payload via the
    shared staging scratch (atomic: no scheduler yields inside). *)
val encode : 'a t -> 'a batch -> bytes

(** Return a drained batch's cells to the pool, clearing record and
    data slots. The batch must not be touched afterwards. *)
val recycle : 'a t -> 'a batch -> unit
