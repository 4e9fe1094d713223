(** Tango records: what the runtime stores inside log entries.

    One log entry carries a small batch of records (the paper runs
    with 4 commit records per 4KB entry, §6). Records reference
    objects by OID and optionally name a {e key} — the opaque
    fine-grained versioning handle of §3.2 — so unrelated parts of a
    big structure don't conflict.

    A {e position} identifies a record globally: the entry's log
    offset times the slot capacity plus the record's slot. Positions
    are totally ordered and serve as object/key versions and as
    transaction identities (a decision record names the commit record
    it resolves by position). *)

(** {1 Positions} *)

(** Records per entry upper bound (fits any sane batch size). *)
val slots_per_entry : int

val pos : offset:Corfu.Types.offset -> slot:int -> int
val pos_offset : int -> Corfu.Types.offset
val pos_slot : int -> int

(** {1 Records} *)

type update = {
  u_oid : int;
  u_key : string option;  (** fine-grained versioning key, if any *)
  u_data : bytes;  (** opaque buffer produced by the object's mutator *)
}

type commit = {
  c_reads : (int * string option * int) list;  (** (oid, key, version read) *)
  c_writes : update list;
  c_needs_decision : bool;
      (** some client may host a written object without hosting the
          whole read set; the generator must follow up with a
          decision record (§4.1 case C) *)
}

type t =
  | Update of update  (** a plain, non-transactional mutation *)
  | Commit of commit  (** speculative transaction commit *)
  | Decision of { d_target : int; d_committed : bool }
      (** resolves the commit record at position [d_target] *)
  | Partial of { p_target : int; p_verdicts : (int * bool) list }
      (** collaborative conflict resolution (the future work of §4.1
          case D): a client hosting {e some} of a commit record's read
          set publishes its local per-object verdicts — "object [oid]
          is (un)changed since the recorded version, as of the commit
          position". When published verdicts cover the whole read set,
          any participant combines them into a final {!Decision}. *)
  | Checkpoint of { k_oid : int; k_base : int; k_data : bytes }
      (** rolled-up state of one object as of version [k_base] (§3.1,
          History). Replayers whose view version is already at or past
          [k_base] skip it: the record lands later in the log than the
          state it captures. *)

(** {1 Wire format} *)

(** [encode_payload records] packs at most {!slots_per_entry} records
    into an entry payload. Runs through a reusable module-level arena;
    the returned [bytes] is an owned copy. *)
val encode_payload : t list -> bytes

(** [encode_payload_array records ~len] is {!encode_payload} over the
    first [len] elements of [records] — the allocation-lean form the
    batcher drain loop uses (one copy out of the arena, no
    intermediate list or per-record buffer). *)
val encode_payload_array : t array -> len:int -> bytes

(** [decode_payload b] inverts {!encode_payload}.
    @raise Invalid_argument on malformed input. *)
val decode_payload : bytes -> t list

(** [decode_entry ~offset payload] is [decode_payload payload] for the
    entry at log offset [offset], decoded once per process: a small
    table indexed by [offset] returns the earlier result when it holds
    the physically same [payload] ([==]), and decodes afresh otherwise.
    A hit is exactly what a fresh decode would return, because a
    payload's bytes never change once encoded.

    The records it returns, [u_data] and [k_data] included, are shared
    by every runtime in the process that reads the same entry: callers
    must not mutate them.
    @raise Invalid_argument on malformed input (nothing is cached). *)
val decode_entry : offset:Corfu.Types.offset -> bytes -> t list

(** Streams a record must be appended to: the streams of every
    object it writes. *)
val streams_of : t -> Corfu.Types.stream_id list

val pp : Format.formatter -> t -> unit
