(** The CORFU sequencer: a networked counter handing out log offsets,
    extended for streams (paper §2.2, §5).

    Besides the 64-bit tail, the streaming sequencer keeps the last K
    offsets it has issued for every stream id, and returns them with
    each increment so the client can build the entry's backpointer
    headers without any extra round trips. The sequencer is soft
    state: it can be rebuilt from the storage nodes (see
    {!Reconfig.replace_sequencer}), and it is sealed — made to refuse
    requests — when a new view replaces it, since two live sequencers
    could hand out conflicting backpointers (§5, Failure Handling). *)

type t

type increment_request = {
  iepoch : Types.epoch;
  istreams : Types.stream_id list;
  icount : int;
      (** offsets to allocate in one RPC (a {e range grant}); every
          issued offset is recorded on every requested stream *)
}

type peek_request = { pepoch : Types.epoch; pstreams : Types.stream_id list }

type allocation = {
  base : Types.offset;  (** first allocated offset (or current tail for peeks) *)
  stream_tails : (Types.stream_id * Types.offset list) list;
      (** per requested stream: last K issued offsets, most recent
          first, {e excluding} the allocation itself *)
}

type response = Seq_ok of allocation | Seq_sealed of Types.epoch

(** The counter core, split from the networked shell so the grant path
    can be exercised (and benchmarked) without a simulation running.
    Per-stream last-K state lives in fixed int rings: issuing an
    offset is two array stores and an index bump. A stream's
    [(sid, last-K)] pair is built at the response boundary once per
    issue and shared by every reply until the next one, so replies'
    [stream_tails] entries may be physically shared; they are
    immutable. *)
module Core : sig
  type t

  (** [create ~k ()] with [initial_streams] offset lists given
      newest-first (at most [k] are retained). *)
  val create :
    k:int ->
    ?initial_tail:Types.offset ->
    ?initial_streams:(Types.stream_id * Types.offset list) list ->
    unit ->
    t

  val tail : t -> Types.offset

  (** Last-K issued offsets for a stream, most recent first. *)
  val last_k : t -> Types.stream_id -> Types.offset list

  (** Record one issued offset on one stream: the grant inner loop.
      O(1) and allocation-free once the stream's ring exists. *)
  val note_issue : t -> Types.stream_id -> Types.offset -> unit

  (** [grant t ~streams ~count] allocates [count] consecutive offsets,
      records each on every requested stream, and returns the
      pre-grant tails (the allocation excludes itself). *)
  val grant : t -> streams:Types.stream_id list -> count:int -> allocation

  (** Tail and last-K state without allocating offsets. *)
  val peek : t -> streams:Types.stream_id list -> allocation

  (** Every known stream with its last-K offsets (unspecified order). *)
  val all_streams : t -> (Types.stream_id * Types.offset list) list

  val nstreams : t -> int
end

(** [create ~net ~name ~params ()] registers the sequencer on a fresh
    host. [initial_tail] and [initial_streams] seed the counter state
    when a replacement sequencer is built from a log scan. *)
val create :
  net:Sim.Net.t ->
  name:string ->
  params:Sim.Params.t ->
  ?initial_tail:Types.offset ->
  ?initial_streams:(Types.stream_id * Types.offset list) list ->
  unit ->
  t

val name : t -> string
val host : t -> Sim.Net.host

(** Allocates [icount] consecutive offsets and returns backpointer
    state for the requested streams. One RPC costs one sequencer
    service time regardless of [icount] — that is the batching win
    measured in the Fig. 2 ablation. *)
val increment_service : t -> (increment_request, response) Sim.Net.service

(** Returns the current tail and per-stream last-K offsets without
    allocating: the fast check, and how clients find the last entry of
    a stream on startup (§5). *)
val peek_service : t -> (peek_request, response) Sim.Net.service

(** [seal epoch]: refuse every request carrying a lower epoch. Returns
    the tail at the seal point — every offset below it was granted
    under the old epoch, nothing at or above it ever will be — which
    is the boundary a reconfiguration seals the tail segment at
    ({!Cluster.scale_out}). *)
val seal_service : t -> (Types.epoch, Types.offset) Sim.Net.service

(** A consistent dump of the sequencer's soft state, taken while
    {e reserving} the next offset for the snapshot entry itself — so
    [dump_streams] is exact for every offset below [dump_offset]. Used
    by the checkpoint scribe (see {!Seq_checkpoint}). *)
type dump = {
  dump_offset : Types.offset;
  dump_state_ptrs : Types.offset list;
      (** last-K offsets of the reserved checkpoint stream, for the
          snapshot entry's own header *)
  dump_streams : (Types.stream_id * Types.offset list) list;
}

(** Returns [None] when sealed. *)
val dump_service : t -> (Types.epoch, dump option) Sim.Net.service

(** {2 Introspection} *)

val current_tail : t -> Types.offset
val sealed_epoch : t -> Types.epoch

(** Approximate resident state in bytes: 8 bytes × K per stream
    (paper: 32 MB for 1M streams at K = 4). *)
val state_bytes : t -> int
