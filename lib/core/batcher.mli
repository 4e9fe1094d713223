(** Append batching: packs several Tango records into one log entry,
    and keeps a window of entries in flight.

    The paper's clients store a batch of 4 commit records per 4KB
    entry (§6). The batcher fills a forming batch as fibers submit
    records; the submission that completes a batch seals it, and a
    linger timer bounds the latency of partial batches under light
    load. The timer is one engine event ({!Sim.Engine.schedule}),
    armed by a batch's first record and cancelled when the batch
    seals full, so a full batch leaves nothing pending behind it.

    Sealed batches drain through a single fiber that reserves offsets
    from the sequencer in {e range grants} (one RPC for a run of
    batches on the same stream set) and spawns one chain-write fiber
    per entry, up to [append_window] concurrently (§6.1). Because the
    drainer is the only fiber allocating offsets, landed offsets — and
    hence the positions handed back to waiters — are monotone in seal
    order. *)

type t

(** How long, in µs, a partial batch waits for company before it is
    sealed anyway. *)
val linger_us : float

(** [create ~client ~batch_size] builds a batcher appending through
    [client]; the client's {!Sim.Params.t.append_window} caps entries
    in flight. It registers the host's [batcher.sealed_age_us]
    {!Sim.Timeseries} probe: now minus the seal time of the oldest
    batch still queued for a grant, 0 when none is. *)
val create : client:Corfu.Client.t -> batch_size:int -> t

(** [submit t ~streams record] enqueues [record], destined for
    [streams] (the multiappend target set), and blocks the calling
    fiber until the enclosing entry is durable. Returns the record's
    global position. *)
val submit : t -> streams:Corfu.Types.stream_id list -> Record.t -> int

(** Entries appended so far (for tests: measures batching ratio): the
    host's [batcher.entries] counter in {!Sim.Metrics}. *)
val entries_appended : t -> int

(** Records submitted so far: the host's [batcher.records] counter. *)
val records_submitted : t -> int

(** Entries currently in flight (sealed, offset granted, chain write
    not yet durable). *)
val inflight : t -> int

(** High-water mark of {!inflight}: > 1 means the pipelined path
    actually overlapped chain writes. *)
val inflight_peak : t -> int

(** Sequencer range grants taken so far: the host's [batcher.grants]
    counter. *)
val grants : t -> int

(** Entries allocated through those grants; [granted_entries / grants]
    is the mean grant occupancy. *)
val granted_entries : t -> int
