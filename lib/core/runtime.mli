(** The Tango runtime (paper §3, §4): in-memory views replicated over
    the shared log.

    Objects register an [apply] upcall; mutators funnel opaque update
    records through {!update_helper}, accessors call {!query_helper}
    to synchronize the view with the log before reading local state.
    The runtime multiplexes all of a client's objects over one CORFU
    client, one entry batcher, and one playback engine.

    {2 Playback model}

    Each hosted object has its own stream, but the runtime consumes
    hosted streams {e merged in global log order}: an entry is applied
    only after every hosted entry at a lower offset. This gives every
    client the same prefix semantics as the single-log design of §3.2
    and makes transaction conflict decisions deterministic — when a
    commit record at position [P] is evaluated, every hosted view is
    exactly at [P].

    Because merged playback hands out offsets in ascending order, the
    runtime remembers what it played as one offset, the {e frontier}
    (the highest offset handled): an entry at or below it is a repeat
    met on a second hosted stream. An object may register after
    playback has started (declare, then attach). It records the
    frontier it joined at, and its stream's entries at or below that
    mark are {e caught up}: only its own records are delivered, in log
    order. A commit among them takes the outcome this runtime decided
    when it saw the commit, waits for it if the commit is still
    undecided, and otherwise takes the outcome of the deterministic
    replay of the read set's streams (the decision watchdog's
    reconstruction, §4.1). The object thus ends with the same view as
    one registered before playback began.

    {2 Transactions}

    {!begin_tx}/{!end_tx} bracket optimistic transactions (§3.2).
    Within a transaction, accessors record (object, key, version)
    reads and mutators buffer writes; [end_tx] appends a single commit
    record to the streams of all written objects (a multiappend, §4.1)
    and plays the log to the commit position to decide. Read-only
    transactions decide without appending; write-only transactions
    append without playing. A transaction may write objects the client
    does not host (remote writes); it may only {e read} hosted objects
    (§4.1 case D). When some consumer may host a written object
    without the read set, the runtime follows the commit record with a
    decision record so that consumer can learn the outcome without
    remote state (§4.1 case C).

    A consumer that encounters a commit record it cannot decide parks
    the affected objects: subsequent records for them are buffered and
    applied only once a decision record arrives. If none arrives
    within the decision timeout ({!Decision_core.timeout_us}, 50 ms;
    generator crash), the consumer reconstructs the outcome
    deterministically from the log (§4.1, Failure Handling).

    {2 Shell and core}

    The freeze-and-decide state machine (versions, frozen queues,
    outcomes, partial verdicts) is {!Decision_core}, which does no
    I/O. This module is its shell: it plays the log in merged order
    and feeds each record to the core, and it builds once, in
    {!create}, the effects the core calls back — applying writes
    through the objects' callbacks, appending partial verdicts and
    decision records, the watchdog fiber, the log replay that
    reconstructs an outcome, milestones and counters. CPU charges stay
    here too. *)

type t

(** Callbacks a Tango object provides at registration.

    The [bytes] handed to [apply] and [load_checkpoint] (and returned
    by {!fetch}) come from records decoded once per process
    ({!Record.decode_entry}) and shared by every runtime that plays
    the same entry: read them, copy them, but never mutate them. *)
type callbacks = {
  apply : pos:int -> key:string option -> bytes -> unit;
      (** the only place view state may change; [pos] is the record's
          global position, usable as a log index *)
  checkpoint : (unit -> bytes) option;  (** serialize current state *)
  load_checkpoint : (bytes -> unit) option;  (** replace state wholesale *)
}

(** Transaction verdict. *)
type tx_status = Committed | Aborted

exception No_transaction
exception Nested_transaction

(** [create client] builds a runtime over a CORFU client; it packs the
    params' [commit_batch] records per log entry. *)
val create : Corfu.Client.t -> t

val client : t -> Corfu.Client.t

(** [register t ~oid ?needs_decision cb] hosts a view. Stream id =
    OID. [needs_decision] marks objects that remote-write transactions
    may target on clients lacking the read set (§4.1's static
    marking); transactions writing such objects, or writing objects
    this client does not host, get decision records. Registration may
    happen at any time; it waits for a running playback round to
    finish, and the object then catches up on its stream's history
    (see the playback model). *)
val register : t -> oid:int -> ?needs_decision:bool -> callbacks -> unit

(** [register_extra_view t ~oid cb] attaches a {e second} in-memory
    representation to an already-hosted object: both views share the
    stream, versions, and transactions, and every record is applied to
    both (§3.1: "objects with different in-memory data structures can
    share the same data on the log" — e.g. a namespace kept both as a
    name-ordered map and as a directory tree). Checkpoints remain the
    primary view's job; the extra view's [checkpoint] is ignored but
    its [load_checkpoint] participates in repair. *)
val register_extra_view : t -> oid:int -> callbacks -> unit

val is_hosted : t -> int -> bool
val hosted_oids : t -> int list

(** {2 The object-facing API of §3.1} *)

(** [update_helper t ~oid ?key data] appends an update record (or
    buffers it inside the current transaction). Blocks until durable
    outside transactions. *)
val update_helper : t -> oid:int -> ?key:string -> bytes -> unit

(** [query_helper t ~oid ?key ()] inside a transaction: records a read
    of (oid, key) at its current version — no log traffic. Outside:
    plays the log to the current tail so the local view is
    linearizable. [upto] (global offset bound, exclusive) limits
    playback for historical views (§3.1, History).
    @raise Invalid_argument inside a transaction if [oid] is not
    hosted (remote reads, §4.1 case D). *)
val query_helper : t -> oid:int -> ?key:string -> ?upto:Corfu.Types.offset -> unit -> unit

(** {2 Remote reads and collaborative resolution (§4.1 case D —
    implemented: the paper's future work)}

    A transaction may read an object this client does not host by
    asking a {e peer} that does: the peer answers from its current
    view (value + version) over one RPC, and the read joins the
    transaction's read set like any other. Validation is then
    {e collaborative}: the commit record travels on the read streams
    too, every read-set host publishes a partial-decision record with
    its local verdict as of the commit position, and the verdicts'
    conjunction — combined by any participant — is the final decision.
    Each verdict is deterministic, so all combiners agree. *)

type remote_read_request = { rr_oid : int; rr_key : string option }

type remote_read_response = (bytes option * int) option

(** [expose_read t ~oid serve] lets peers read this hosted object:
    [serve key] returns the object's answer (object-defined bytes). *)
val expose_read : t -> oid:int -> (string option -> bytes option) -> unit

(** This runtime's peer-read endpoint (lazily registered). *)
val remote_read_service : t -> (remote_read_request, remote_read_response) Sim.Net.service

(** [connect_peer t ~oid svc] routes {!query_remote} calls for [oid]
    through a peer's {!remote_read_service}. *)
val connect_peer :
  t -> oid:int -> (remote_read_request, remote_read_response) Sim.Net.service -> unit

(** [query_remote t ~oid ?key ()] performs a remote read inside the
    current transaction and returns the peer's answer.
    @raise Invalid_argument outside a transaction, without a connected
    peer, or if the peer does not serve the object. *)
val query_remote : t -> oid:int -> ?key:string -> unit -> bytes option

(** [fetch t ?oid ?select pos] reads back the opaque buffer of the
    update record at [pos] — views holding positions instead of values
    use this as their random-access path into log-structured storage
    (§3.1, Durability). When [pos] names a commit record, which may
    write an object several times, the answer is the {e last} of its
    writes to [oid] that [select ~key data] accepts ([key] is the
    write's versioning key); [select] defaults to every write.
    @raise Not_found if [pos] holds no matching update. *)
val fetch : t -> ?oid:int -> ?select:(key:string option -> bytes -> bool) -> int -> bytes

(** {2 Transactions} *)

(** [begin_tx t] opens a transaction context for the calling fiber,
    first refreshing the local snapshot to the current tail (reads
    inside the transaction are then purely local). *)
val begin_tx : t -> unit

(** [end_tx ?stale t]: see the module preamble. [stale] makes a
    read-only transaction decide against the current local snapshot
    without checking the log tail (§3.2, Read-only transactions). *)
val end_tx : ?stale:bool -> t -> tx_status

(** [abort_tx t] discards the current context without appending. *)
val abort_tx : t -> unit

(** {2 Checkpoints and GC (§3.1 History, §3.2 Naming)} *)

(** Result of {!checkpoint}: where the record landed, and the highest
    position whose effects the snapshot is guaranteed to contain.
    History may only be forgotten below [ckpt_base + 1] — records
    between the base and the record position are {e not} in the
    snapshot (concurrent writers may have appended them). *)
type checkpoint_info = { ckpt_pos : int; ckpt_base : int }

(** [checkpoint t ~oid] appends a checkpoint record holding the
    object's rolled-up state.
    @raise Invalid_argument if the object has no checkpoint callback. *)
val checkpoint : t -> oid:int -> checkpoint_info

(** [trim_below t off] reclaims the log below global offset [off] and
    prunes runtime bookkeeping. The Directory computes the safe bound
    across objects; don't call this with live data above checkpoints. *)
val trim_below : t -> Corfu.Types.offset -> unit

(** {2 Introspection} *)

(** Current version (position of last applied modification) of an
    object or key; -1 if never modified or not hosted. A key's version
    is the later of its own last write and the object's last
    whole-object (unkeyed) write. *)
val version_of : t -> oid:int -> ?key:string -> unit -> int

val applied_records : t -> int

(** Commit records this runtime generated whose transaction has not
    finished yet; [end_tx] drops its entry once the outcome is known. *)
val own_commits_held : t -> int

(** Counters for the append pipeline and playback cache. *)
type append_stats = {
  as_entries : int;  (** log entries appended *)
  as_records : int;  (** records submitted ([as_records / as_entries] is the batching ratio) *)
  as_inflight : int;  (** entries in flight right now *)
  as_inflight_peak : int;  (** high-water mark of concurrent chain writes *)
  as_grants : int;  (** sequencer range grants taken *)
  as_granted_entries : int;
      (** entries allocated through grants; [/ as_grants] is the mean
          grant occupancy *)
  as_cache_hits : int;  (** playback lookups served from the entry cache *)
  as_cache_misses : int;  (** playback lookups that went to the log *)
}

val append_stats : t -> append_stats

(** {2 Failpoints}

    [enable_failpoint name] sets the runtime's failpoint (DESIGN.md §9)
    or else the cluster's of that name ({!Corfu.Cluster.enable_failpoint}).
    The runtime's is ["blind-commit-apply"]: playback applies commit
    writes before the commit/abort decision, the isolation leak the
    ReadCommitted spec machine exists to catch. Process-global.
    @raise Invalid_argument on an unknown name. *)
val enable_failpoint : string -> unit

(** Clears the runtime's and the cluster's failpoints. *)
val reset_failpoints : unit -> unit
