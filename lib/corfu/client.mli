(** The CORFU client library: append / read / check / trim / fill over
    the clustered log (paper §2.2), with client-driven chain
    replication and epoch handling.

    Each client caches a projection. Any RPC answered with a sealed
    error names the sealing epoch; the client waits at the auxiliary
    ({!Auxiliary.await_service}) for that epoch's view and retries.
    Timeouts and dead replicas refresh the projection and retry at
    once: the unanswered call's deadline, which {!Sim.Net} backs off
    per host pair, is the only wait. Appends
    obtain an offset from the sequencer, then write the replica chain
    head-to-tail, so a torn append leaves a prefix of the chain
    written and is repaired by the first {!fill} (which completes data
    it finds at the head instead of junking it). *)

type t

(** What a resolved log position holds. [Completed] distinguishes a
    fill that found and repaired a torn append. *)
type read_outcome = Data of Types.entry | Junk | Trimmed | Unwritten

(** Result of a {!fill}: [Filled] patched the hole with junk;
    [Fill_completed e] found a torn append's data at the chain head and
    wrote it onto at least one replica that was missing it;
    [Fill_lost e] found the data already on every reachable replica —
    the filler lost the race against the writer and changed nothing. *)
type fill_outcome = Filled | Fill_completed of Types.entry | Fill_lost of Types.entry

val create : host:Sim.Net.host -> aux:Auxiliary.t -> params:Sim.Params.t -> t

val host : t -> Sim.Net.host
val params : t -> Sim.Params.t

(** Current cached projection (replaced on sealed replies and timeouts). *)
val projection : t -> Projection.t

(** Force a refresh from the auxiliary. *)
val refresh : t -> unit

(** [append t ~streams payload] acquires the next offset, encodes
    stream headers from the sequencer's backpointer state, writes the
    chain, and returns the offset. Appending to multiple streams is
    the multiappend of §4: one physical entry on several streams.
    Retries transparently on seal; a lost write-once race (our offset
    got filled) also retries with a fresh offset. *)
val append : t -> streams:Types.stream_id list -> bytes -> Types.offset

(** {2 Range grants}

    One sequencer RPC can reserve a {e range} of consecutive offsets
    (§6.1's append window): the client then drives the chain writes
    for the granted offsets concurrently, so offset [n+1] reaches the
    chain head while [n] is still propagating down-chain. The
    sequencer records every granted offset on every requested stream,
    and {!write_granted} builds each entry's headers by chaining
    through the grant's earlier offsets — streams stay exactly
    walkable. *)

type grant = {
  mutable g_base : Types.offset;  (** first granted offset *)
  mutable g_count : int;  (** grant size *)
  mutable g_streams : Types.stream_id list;
  mutable g_tails : (Types.stream_id * Types.offset list) list;
      (** per-stream last-K as of the grant, excluding the grant *)
  mutable g_seq : Sequencer.t;
      (** the issuing sequencer. A sequencer replacement voids the
          grant's unwritten offsets: the rebuilt backpointer state only
          knows offsets whose chain head was written before the seal,
          so {!write_granted} completes those (torn writes) and moves
          any other payload to a fresh offset — the abandoned slots
          resolve as junk through readers' hole-filling. *)
}

(** [reserve t ~streams ~count] reserves [count] consecutive offsets
    on [streams] in one sequencer RPC. Retries transparently on seal.
    Raises [Invalid_argument] when [count < 1]. *)
val reserve : t -> streams:Types.stream_id list -> count:int -> grant

(** A zeroed grant record for pooling: {!reserve_into} refills it. *)
val blank_grant : t -> grant

(** [reserve_into t g ~streams ~count] is {!reserve} writing its result
    into [g] instead of allocating — the batcher's drain loop keeps a
    small pool of grant records and refills one per drain cycle. [g]
    must have no {!write_granted} calls in flight. *)
val reserve_into : t -> grant -> streams:Types.stream_id list -> count:int -> unit

(** [write_granted t g ~index payload] writes [payload] at granted
    offset [g.g_base + index] with exact backpointer headers. Returns
    the offset the payload actually landed at: normally the granted
    one, but if the granted slot was hole-filled before the write
    reached the head (client stalled past the fill timeout), or the
    grant was voided by a sequencer replacement (see {!grant}), the
    payload is re-appended at a fresh offset. Safe to call
    concurrently for distinct indices of one grant. *)
val write_granted : t -> grant -> index:int -> bytes -> Types.offset

(** [append_range t ~streams payloads] reserves one grant covering all
    [payloads] and writes them with overlapping chain writes. Returns
    the landed offsets in payload order. *)
val append_range : t -> streams:Types.stream_id list -> bytes list -> Types.offset list

(** [append_probing t ~streams payload] appends {e without the
    sequencer} (§2.2: "the system can run without a sequencer, at much
    reduced throughput, by having clients probe for the location of
    the tail"): the slow check locates the tail, the write-once
    property arbitrates races (losers probe upward). Each attempt at
    offset [guess] scans the chain heads below it
    ({!Seq_checkpoint.rebuild}, the replacement sequencer's scan) until
    every stream in [streams] has K offsets, or a sequencer snapshot or
    the first segment's base ends the scan; the headers carry what it
    found, the last-K a sequencer would have handed out, whichever
    clients wrote those entries. A stream walk therefore reaches every
    entry the scan saw. Keeps the log correct while a failed sequencer
    is being replaced. *)
val append_probing : t -> streams:Types.stream_id list -> bytes -> Types.offset

(** [read t off] reads from a uniformly random replica of the set and
    falls back to the chain tail when that replica has not seen the
    write yet. Never blocks on unwritten offsets — callers own the
    retry/fill policy. *)
val read : t -> Types.offset -> read_outcome

(** [read_resolved t off] blocks until [off] is resolved: retries
    unwritten offsets with backoff and, after the configured fill
    timeout, patches the hole (paper: 100 ms default, §3.2). Returns
    [Data] or [Junk] (or [Trimmed]). *)
val read_resolved : t -> Types.offset -> read_outcome

(** [read_shared t off] is {!read_resolved} with request coalescing
    and caching: concurrent callers for the same offset share one
    fetch, and [Data] results land in the entry cache. This is the
    playback fetch path — streams prefetch through it so log reads
    pipeline instead of paying one round trip per entry. *)
val read_shared : t -> Types.offset -> read_outcome

(** [prefetch t off] starts a background {!read_shared} for [off] if
    neither cached nor already in flight. *)
val prefetch : t -> Types.offset -> unit

(** [check t] is the fast check: one sequencer round trip, returns the
    tail (exclusive upper bound of allocated offsets). *)
val check : t -> Types.offset

(** [check_slow t] queries every storage node for its local tail and
    inverts the mapping (§2.2). Works without a sequencer. *)
val check_slow : t -> Types.offset

(** [fill t off] patches a hole with junk through the chain; finding
    data at the head completes the torn append instead. *)
val fill : t -> Types.offset -> fill_outcome

(** [trim t off] marks one offset reclaimable on every replica. *)
val trim : t -> Types.offset -> unit

(** [prefix_trim t off] reclaims every global offset below [off]. *)
val prefix_trim : t -> Types.offset -> unit

(** [peek_streams t sids] returns the global tail ([base]) and, per
    stream in request order, the last K offsets the sequencer issued
    for it (most recent first). The reply's lists may be shared with
    other replies and must not be mutated (they are immutable). *)
val peek_streams : t -> Types.stream_id list -> Sequencer.allocation

(** {2 Entry cache}

    The streaming layer fetches each entry once and caches it (§4.1);
    the cache lives here so multiple streams on one client share it. *)

(** Storage RPCs that timed out or found a dead node since creation —
    the client-visible failure count during fault scenarios. Retries
    are transparent, so this is observability, not an error report. *)
val rpc_failures : t -> int

(** Retries since creation: one per sealed reply, one per backed-off
    timeout or dead replica, and one per grant abandoned after a
    sequencer replacement. Counted into [client.retries]. *)
val retries : t -> int

(** [find_cached t off] looks [off] up in the entry cache; a hit counts
    toward the [client.cache_hits] counter and allocates nothing.
    @raise Not_found on a miss. *)
val find_cached : t -> Types.offset -> Types.entry
val cache_put : t -> Types.offset -> Types.entry -> unit
