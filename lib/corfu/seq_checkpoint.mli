(** Sequencer state checkpoints (§5, Failure Handling — the paper's
    proposed optimization): the sequencer's soft state (tail +
    per-stream last-K offsets) is periodically snapshotted into the
    shared log on a reserved stream, so a replacement sequencer
    rebuilds by scanning only back to the latest snapshot instead of
    the whole log.

    The snapshot's log offset is {e reserved in the same sequencer
    operation that dumps the state} ({!Sequencer.dump_service}), so
    the state is complete for every offset below it — scanning the
    suffix above the snapshot entry and merging yields exact state.
    {!rebuild} is that scan, shared by the replacement sequencer and
    the sequencer-less probing append. *)

(** The reserved stream id (top of the 31-bit space). *)
val stream_id : Types.stream_id

type t = {
  snap_tail : Types.offset;  (** tail at snapshot = the snapshot's own offset *)
  snap_streams : (Types.stream_id * Types.offset list) list;
}

val encode : t -> bytes

(** @raise Invalid_argument on malformed input. *)
val decode : bytes -> t

(** [rebuild ~k ~floor ~read ?streams top] rebuilds per-stream
    backpointer state from the log: the one scan behind both a
    replacement sequencer (§5) and a sequencer-less probing append
    (§2.2). It reads offsets [top], [top - 1], … with [read] (a chain
    head read), keeps the first K offsets found per stream (newest
    first), and skips every offset that holds no data. It stops at the
    newest sequencer snapshot, merging it with the offsets found above
    it (the most recent K per stream win), at [floor] (the
    first segment's base; everything below was trimmed), or — when
    [streams] is given — as soon as each of [streams] has K offsets.
    Without [streams] the scan completes every stream, as a
    replacement sequencer needs.

    Returns the table and the number of offsets read. *)
val rebuild :
  k:int ->
  floor:Types.offset ->
  read:(Types.offset -> Types.read_result) ->
  ?streams:Types.stream_id list ->
  Types.offset ->
  (Types.stream_id, Types.offset list) Hashtbl.t * int
