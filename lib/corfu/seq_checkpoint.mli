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

    The reads go out {!Fan_out.window} at a time, under the caller's
    span, so a long scan costs the reader's bandwidth, not one round
    trip per offset; call it from a simulation fiber. Answers are
    examined strictly top down, whatever order they come back in, so
    the table is exactly the one-read-at-a-time scan's.
    The read of offset [top - i] is issued only once offset
    [top - i + window] has been examined, so at most [window - 1]
    reads go past the stop point; their answers are dropped, and the
    scan returns without waiting for them.

    Returns the table and [scanned], the number of offsets examined:
    the reads a one-at-a-time scan would issue. *)
val rebuild :
  k:int ->
  floor:Types.offset ->
  read:(Types.offset -> Types.read_result) ->
  ?streams:Types.stream_id list ->
  Types.offset ->
  (Types.stream_id, Types.offset list) Hashtbl.t * int
