(** Deployment helper: builds a complete CORFU instance inside the
    simulation — storage nodes grouped into replica chains, a
    sequencer, the auxiliary — and hands out clients.

    The default geometry follows the paper's testbed: chains of
    length 2 ("9×2 configuration", §6). Any server count works when
    the per-chain lengths are given explicitly with [~chains]. *)

type t

(** [create ?params ?chain_length ?chains ~servers ()] brings
    up the log with a single-segment (flat) projection. By default the
    servers split into uniform chains of [chain_length] (default 2);
    [~chains] gives explicit per-chain lengths instead, so any server
    count — including uneven chains — forms a valid segment.
    @raise Invalid_argument when the geometry does not cover exactly
    [servers] nodes; the message names the offending segment. *)
val create :
  ?params:Sim.Params.t ->
  ?chain_length:int ->
  ?chains:int list ->
  servers:int ->
  unit ->
  t

val params : t -> Sim.Params.t
val net : t -> Sim.Net.t

val auxiliary : t -> Auxiliary.t

(** Every storage node currently in the projection (all segments). *)
val storage_nodes : t -> Storage_node.t array

val sequencer : t -> Sequencer.t

(** [new_client t ~name] registers a fresh application-server host and
    returns a log client bound to it. *)
val new_client : t -> name:string -> Client.t

(** [replace_sequencer t] runs the §5 reconfiguration: seal the old
    sequencer and every storage node at the next epoch, rebuild the
    tail and per-stream backpointer state by scanning the log
    backward — stopping early at the most recent sequencer checkpoint
    when the scribe is running, or at the retired boundary — and
    install a fresh sequencer in a new projection. Returns the new
    epoch. Clients discover the change through sealed errors and retry
    transparently. *)
val replace_sequencer : t -> Types.epoch

(** [start_checkpoint_scribe t ~interval_us] runs the §5 optimization:
    a background task that periodically snapshots the sequencer's
    backpointer state into the log on a reserved stream
    ({!Seq_checkpoint}), bounding the rebuild scan to roughly the
    append volume of one interval. *)
val start_checkpoint_scribe : t -> interval_us:float -> unit

(** {2 Storage-node failure recovery (§2.2)} *)

(** [replace_storage_node t ~dead] swaps a failed chain member for a
    freshly provisioned spare in two epoch changes, so that clients
    wait only for the first:

    - {e degrade}: seal the sequencer and every storage node at the
      next epoch (the sequencer survives — allocation state is not
      lost), bound every segment at the sequencer's frontier, open a
      new tail segment over the old tail's chains with the spare in
      the dead member's slots, drop the dead member from every older
      chain, and install. No data moves; old offsets resolve through
      the survivors. This is the {!Storage_replaced} entry, and the
      call returns its epoch.
    - {e restore}, in the background: copy each short chain's range
      from its head-most survivor onto the spare (16 cells in flight),
      then run a second epoch change that, under its seal, copies
      every cell the survivor gained since and puts the spare back in
      its old chain slots — the {!Replication_restored} entry.

    Until the restore the old range has one replica. Data that reached
    {e only} the dead node (the head of a torn append) is
    unrecoverable and resolves as a hole, matching the real system's
    failure model.

    If [dead] is a spare still being filled, the chains waiting for it
    wait for its replacement instead. If [dead] is no longer in the
    projection and no chain waits for it — a concurrent recovery (the
    failure monitor racing a scheduled fault action) already replaced
    it — the call is a no-op: it seals, logs and announces nothing and
    returns the current epoch. *)
val replace_storage_node : t -> dead:Storage_node.t -> Types.epoch

(** [await_replication t] returns once no chain is waiting for a
    spare: every replacement so far has been restored. It waits
    forever if a spare dies and nothing replaces it (see
    {!start_failure_monitor}). *)
val await_replication : t -> unit

(** {2 Online scale-out / scale-in (§2.2 segment reconfiguration)}

    The log changes shape {e without copying any data}: the sequencer
    is sealed at the next epoch and its tail at the seal point becomes
    the boundary; every storage node is sealed (so stale clients
    cannot map a new-segment offset through the old geometry); the old
    tail segment is bounded at the boundary and a new unbounded tail
    segment opens over the new node set. Old offsets keep resolving
    through the segment that wrote them. *)

(** [scale_out t ~add_servers] provisions [add_servers] fresh storage
    nodes (pre-sealed at the new epoch) and opens a new tail segment
    striped over the old tail's nodes {e plus} the fresh ones, in
    chains as long as the old tail's head chain, or as explicit
    [~chains] say. Returns the new epoch. *)
val scale_out : ?chains:int list -> t -> add_servers:int -> Types.epoch

(** [scale_in t ~remove_servers] opens a new tail segment over all but
    the last [remove_servers] of the old tail's members. The removed
    nodes keep serving the bounded segments that map onto them until
    {!retire_trimmed_segments} releases them.
    @raise Invalid_argument unless [0 < remove_servers <] the old
    tail's member count; a rejected call seals and counts nothing. *)
val scale_in : t -> remove_servers:int -> Types.epoch

(** [retire_trimmed_segments t] drops every fully prefix-trimmed
    segment from the front of the map (contiguity allows only a prefix
    to go) and releases nodes no remaining segment maps onto. No
    sealing: live offsets keep their mapping, and a stale client
    touching a retired offset reads [Trimmed] from the old nodes — the
    same answer the new map gives. Returns the new epoch, or [None]
    (nothing logged or announced) when the first segment is not yet
    fully trimmed. *)
val retire_trimmed_segments : t -> Types.epoch option

(** {2 Reconfiguration log}

    Every installed epoch change appends one entry; a declined call
    (see {!replace_storage_node}, {!retire_trimmed_segments}) appends
    nothing. Its [rc_installed_us - rc_started_us] is also observed
    into the histogram [reconfig.<kind>_us] on host [reconfig-agent],
    one per kind ([sequencer], [storage], [restore], [scale-out],
    [scale-in], [retire]), so scenario reports carry it. *)

(** What one reconfiguration changed. *)
type change =
  | Sequencer_replaced of { scanned : int }
      (** offsets the rebuild scan examined, as one read at a time would
          ({!Seq_checkpoint.rebuild}); up to [Fan_out.window - 1] more
          were read and dropped *)
  | Storage_replaced of { dead : string; spare : string }
      (** the degraded epoch: the spare serves the new tail only *)
  | Replication_restored of {
      spare : string;
      copied_entries : int;  (** cells copied onto the spare *)
      copied_bytes : int;  (** rebuild volume *)
    }
      (** the spare is back in the old chains *)
  | Scaled_out of { boundary : Types.offset }
      (** seal point: first offset of the new tail segment *)
  | Scaled_in of { boundary : Types.offset }
  | Retired of { released : string list }  (** nodes dropped from the cluster *)

type reconfig = {
  rc_epoch : Types.epoch;  (** the epoch it installed *)
  rc_started_us : float;  (** announced, before the seal *)
  rc_installed_us : float;  (** new projection accepted *)
  rc_change : change;
}

(** Every completed reconfiguration, oldest first. *)
val reconfigs : t -> reconfig list

(** The {!Storage_replaced} entries of {!reconfigs}, oldest first. *)
val recoveries : t -> reconfig list

(** {2 Reconfiguration serialization and failpoints}

    All reconfiguration operations ({!replace_sequencer},
    {!replace_storage_node} and its restore, {!scale_out},
    {!scale_in}, {!retire_trimmed_segments}) serialize on a per-cluster cooperative
    lock: concurrent callers — the failure monitor racing a scheduled
    fault-plan action, say — queue and re-read the projection once
    they hold it, so the auxiliary never sees two proposals derived
    from the same predecessor. *)

(** Deliberate protocol breakers for the simulation fuzzer's
    sensitivity check (DESIGN.md §9): each disables one step the
    correctness argument depends on, and the fuzzer's oracles must
    catch the consequences — proving they are live, not vacuous.
    Process-global; {!reset_failpoints} between runs. The runtime owns
    its own ([Tango.Runtime.enable_failpoint]). *)
val reset_failpoints : unit -> unit

(** [enable_failpoint name] sets one failpoint by its kebab-case name,
    the [tangoctl fuzz --failpoint] hook:
    - ["skip-rebuild-scan"]: {!replace_sequencer} skips the backward
      scan, so the new sequencer has the right tail but empty
      backpointer state;
    - ["forget-seal-tail"]: {!replace_sequencer} derives the new tail
      from storage tails only, re-granting in-flight range grants (the
      pre-hardening bug, kept as a regression failpoint);
    - ["skip-storage-seal"]: reconfigurations collect tails without
      sealing, leaving stale-epoch clients able to write through the
      old view;
    - ["stall-reconfig"]: {!replace_sequencer} wedges right after
      starting, so no new epoch ever installs and the
      ReconfigTermination spec machine's deadline fires;
    - ["skip-rereplication"]: {!replace_storage_node} installs the
      degraded epoch and stops, so the old range stays on one replica.
    @raise Invalid_argument on an unknown name. *)
val enable_failpoint : string -> unit

(** [start_failure_monitor t] spawns the detector fiber: at once and
    then every 20 ms it probes each storage node of the current
    projection (every segment, plus any spare still being filled) with
    a 4 KB read. A probe has no timeout of its own: it waits the
    fabric's deadline for the (agent, node) pair ({!Sim.Net.call}),
    which the first round's answers set from the measured round trip.
    A member failing three consecutive probes (about 7 RTOs, with
    Karn's doubling) is declared dead and replaced via
    {!replace_storage_node}, whose seal of the dead node waits the
    same backed-off deadline. A sealed answer counts as alive, so the
    monitor never fires on reconfiguration itself. *)
val start_failure_monitor : t -> unit
