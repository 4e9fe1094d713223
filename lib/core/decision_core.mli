(** The commit-decision state machine of the Tango runtime (§3.2, §4.1),
    split from its I/O shell ({!Runtime}) the way {!Batch_core} is
    split from {!Batcher}: it has no fiber, sleep, RPC or append.

    The core holds each hosted object's freeze state (versions, the
    commit it is blocked on, its queue of buffered work, the trim-gap
    flag) and the decision tables: known outcomes, parked commits,
    partial verdicts and the commits this runtime generated. Arrivals
    come in as calls in log order — an update, a checkpoint, a commit
    record, a decision or partial record, a registration, a caught-up
    commit. Whatever they set off (apply a write, load a checkpoint,
    publish a verdict, arm a watchdog, announce a milestone, count a
    conflict) leaves through the {!effects} record the shell builds
    once, in the order it happens.

    {2 Freezing}

    A commit record is decided on arrival when every read object is
    hosted and its versions (plus the records queued on a frozen read
    object below the commit) prove the read window clean or dirty.
    Otherwise the commit {e parks}: every hosted involved object
    freezes at it, and later records for a frozen object queue behind
    the commit point until its outcome arrives (a decision record, a
    combined set of partial verdicts, or the watchdog's reconstruction
    from the log). Resolving a commit drains the queues it froze, in
    log order, up to the next undecided commit point. *)

(** The decision watchdog's timeout, and the scanning generator's
    deadline before it reconstructs an outcome itself. *)
val timeout_us : float

(** Buffered work for a frozen object. [Commit_point] marks the
    position of a commit record involving the object: applying past it
    requires the commit's outcome, and its writes to the object (if
    any) apply when the outcome is commit. *)
type pending_action =
  | Apply_update of Record.update
  | Commit_point of { cpos : int; writes : Record.update list }
  | Apply_checkpoint of { base : int; data : bytes }

module Key_tbl : Hashtbl.S with type key = string

(** A hosted object: the shell's per-object data ['v] wrapped in the
    core's freeze state. Versions are log positions, -1 = never
    written; [v_any] covers any write, [v_whole] unkeyed writes,
    [v_key] each key. *)
type 'v obj = private {
  oid : int;
  view : 'v;
  mutable v_any : int;
  mutable v_whole : int;
  v_key : int Key_tbl.t;
  mutable blocked_on : int option;  (** the undecided commit it waits at *)
  mutable gap_pending : bool;
      (** the stream skipped trimmed history and no checkpoint has
          repaired the view yet: records buffer, because the
          checkpoint record (which lies ahead in the log) replaces the
          state as of its base and would otherwise swallow them *)
  waiting : (int * pending_action) Queue.t;
}

type 'v t

(** What the core asks of its shell. *)
type 'v effects = {
  gap : 'v -> bool;
      (** did the view's stream skip trimmed history since last asked
          (the question clears it), and can the view load a checkpoint
          to repair that? *)
  apply : 'v -> int -> Record.update -> unit;  (** apply a write at a position *)
  load : 'v -> bytes -> bool;
      (** load a checkpoint; [false] if the view cannot, and then
          nothing changed *)
  announce_decided : int -> bool -> unit;
  announce_applied : int -> unit;  (** a committed commit's writes are being applied *)
  announce_parked : int -> Record.commit -> unit;
  conflict : unit -> unit;  (** a read's version moved: count it *)
  publish : Record.commit -> Record.t -> unit;
      (** append a partial verdict or a decision on the commit's
          coordination streams (the ones {!read_oids} and
          {!write_oids} name) *)
  arm_watchdog : 'v t -> int -> Record.commit -> unit;
      (** a commit parked: if it is still undecided after {!timeout_us},
          reconstruct its outcome, {!resolve} it and append a decision *)
  reconstruct : 'v t -> int -> Record.commit -> bool;
      (** the outcome by deterministic replay of the log *)
}

val create : 'v effects -> 'v t

(** [register t ~oid view] hosts a fresh object (never written, not
    frozen). The shell checks [oid] is not hosted yet. *)
val register : 'v t -> oid:int -> 'v -> unit

(** @raise Not_found if [oid] is not hosted. *)
val find : 'v t -> int -> 'v obj

val find_opt : 'v t -> int -> 'v obj option
val mem : 'v t -> int -> bool

(** The hosted objects, in the order the shell sweeps them. *)
val hosted : 'v t -> 'v obj list

(** The version a read of [key] ([None]: the whole object) sees: a
    key's own last write or the last unkeyed write, whichever is
    later. *)
val version : 'v obj -> string option -> int

(** Not frozen, nothing buffered. *)
val settled : 'v obj -> bool

(** {2 Playback arrivals} *)

(** [deliver_to t o pos u] applies the update, or buffers it while [o]
    is frozen or gapped. *)
val deliver_to : 'v t -> 'v obj -> int -> Record.update -> unit

(** [deliver_update t pos u] is {!deliver_to} for [u]'s object, if
    hosted. *)
val deliver_update : 'v t -> int -> Record.update -> unit

val deliver_checkpoint : 'v t -> 'v obj -> int -> base:int -> bytes -> unit

(** The hosted objects a commit reads or writes, by ascending oid. *)
val involved_hosted : 'v t -> Record.commit -> 'v obj list

(** [handle_commit t pos ~involved c]: the commit record at [pos], with
    [involved = involved_hosted t c]. Applies it if the outcome is known
    or decidable now, else parks it — unless [involved] is empty and
    the commit is not this runtime's own: then nothing here waits on
    it, and it stays undecided until a decision record arrives or a
    late registration reconstructs it. *)
val handle_commit : 'v t -> int -> involved:'v obj list -> Record.commit -> unit

(** [resolve t pos committed] records an outcome (a repeat is ignored)
    and drains the objects it froze. *)
val resolve : 'v t -> int -> bool -> unit

(** [note_partials t pos verdicts] records partial verdicts and
    combines them once they cover the read set. *)
val note_partials : 'v t -> int -> (int * bool) list -> unit

(** [decide_own t pos c]: this runtime generated [c] and hosts none of
    its written objects; with playback just below [pos], decide it
    from the read versions or park it. *)
val decide_own : 'v t -> int -> Record.commit -> unit

(** [catch_up_commit t o pos c]: [o] registered after playback passed
    the commit at [pos] that writes it. Takes the outcome this runtime
    decided, waits behind the commit if it is parked, and otherwise
    takes {!effects.reconstruct}'s. *)
val catch_up_commit : 'v t -> 'v obj -> int -> Record.commit -> unit

(** {2 Decision tables} *)

val is_decided : 'v t -> int -> bool

(** @raise Not_found if undecided. *)
val outcome : 'v t -> int -> bool

val is_undecided : 'v t -> int -> bool

(** [hold_own t pos c] keeps a commit this runtime generated until
    [release_own t pos], so partial verdicts can be combined for it
    even when no hosted object sees the commit. *)
val hold_own : 'v t -> int -> Record.commit -> unit

val release_own : 'v t -> int -> unit
val own_held : 'v t -> int

(** [prune t pos] forgets outcomes and partial verdicts below [pos]. *)
val prune : 'v t -> int -> unit

(** Writes applied so far. *)
val applied : 'v t -> int

(** {2 Oid sets} Ascending and duplicate-free. *)

val add_oid : int -> int list -> int list
val read_oids : Record.commit -> int list
val write_oids : int list -> Record.update list -> int list

(** [writes_key oid key u]: does [u] write [key] of [oid]? An unkeyed
    write, or an unkeyed read, covers every key. *)
val writes_key : int -> string option -> Record.update -> bool

(** The ["blind-commit-apply"] failpoint (DESIGN.md §9): {!handle_commit}
    applies a commit's writes before deciding it. *)
val blind_commit_apply : bool ref
