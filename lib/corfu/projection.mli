(** Projections: epoch-numbered membership views of the log, as a
    {e segmented layout map}.

    A projection is an ordered list of {e segments}, each owning a
    half-open range of global offsets [\[base, limit)] with its own
    replica-set array and stripe width; the last segment is the live
    tail and is unbounded. Within a segment, offset [o] lives at local
    offset [local_base + (o - base) / nsets] on set
    [(o - base) mod nsets] — the §2.2 deterministic function, rebased
    to the segment. A single-segment map at base 0 is exactly the
    original flat CORFU projection.

    Segments are how the log changes shape without copying data:
    reconfiguration seals the tail segment at the current sequencer
    tail and opens a new one over a different node set
    ({!Cluster.scale_out} / [scale_in]); old offsets keep resolving
    through the segment that wrote them. A fully prefix-trimmed
    segment is retired from the map — offsets below the first live
    segment resolve to {!Retired}.

    Per-segment local bases are monotone and non-overlapping: a node
    serving chains in several segments (the common case after a
    scale-out, which reuses the old tail's nodes) never has one local
    cell claimed by two global offsets.

    Unlike the original CORFU, the projection includes the sequencer
    as a first-class member (paper §5, Failure Handling), because
    conflicting backpointer state from two live sequencers would
    corrupt streams. *)

type segment = {
  seg_base : Types.offset;  (** first global offset, inclusive *)
  seg_limit : Types.offset option;  (** exclusive; [None] only on the live tail *)
  seg_local_base : Types.offset;  (** first local offset this segment uses on its nodes *)
  seg_sets : Storage_node.t array array;  (** [seg_sets.(i)] is chain i, head first *)
}

type t = {
  epoch : Types.epoch;
  segments : segment array;  (** ascending [seg_base], contiguous; last is the tail *)
  sequencer : Sequencer.t;
}

(** Where a global offset falls in the map. *)
type location = Retired | In_segment of int

(** [v ~epoch ~segments ~sequencer] validates shape: at least one
    segment; every set non-empty (chains of {e differing} lengths in
    one segment are allowed — explicit geometry); segments contiguous
    and non-empty with only the last unbounded; local ranges
    non-overlapping. *)
val v : epoch:Types.epoch -> segments:segment array -> sequencer:Sequencer.t -> t

(** [flat ~epoch ~replica_sets ~sequencer] is the classic one-segment
    map over all of [\[0, ∞)]. *)
val flat :
  epoch:Types.epoch -> replica_sets:Storage_node.t array array -> sequencer:Sequencer.t -> t

val num_segments : t -> int
val segment : t -> int -> segment
val tail_segment : t -> segment

(** Stripe width of the live tail segment (what appends stripe over). *)
val num_sets : t -> int

(** Distinct storage nodes across every segment, in segment/set order.
    Node identity is physical equality. *)
val servers : t -> Storage_node.t list

val num_servers : t -> int

(** [locate t off] finds the segment owning [off], or {!Retired} when
    [off] lies below the first live segment (its data was prefix-
    trimmed away and the segment dropped from the map). *)
val locate : t -> Types.offset -> location

(** [resolve t off] is the full map — (segment index, set index, local
    offset) — or [None] for retired offsets. *)
val resolve : t -> Types.offset -> (int * int * Types.offset) option

(** [replica_set t off] is the chain storing global offset [off].
    @raise Invalid_argument on retired offsets. *)
val replica_set : t -> Types.offset -> Storage_node.t array

(** [local_offset t off] is [off]'s address within its chain.
    @raise Invalid_argument on retired offsets. *)
val local_offset : t -> Types.offset -> Types.offset

(** [global_offset t ~seg ~set ~local] inverts the mapping within
    segment index [seg]. *)
val global_offset : t -> seg:int -> set:int -> local:Types.offset -> Types.offset

(** [seg_cells_below seg ~set ~rel] is how many of [set]'s cells have
    a relative offset below [rel] — the per-set local span of a prefix
    of the segment (prefix-trim watermarks, recovery copy ranges). *)
val seg_cells_below : segment -> set:int -> rel:int -> int

(** [seg_local_span seg ~span] is the number of local offsets the
    segment occupies on its widest set, given its global extent
    [span]: the stride the next segment's local base must clear. *)
val seg_local_span : segment -> span:int -> int

(** [global_tail_from_locals t locals] inverts the mapping over the
    {e tail segment}'s per-set local tails (the slow check, §2.2): the
    global tail is one past the highest written global offset.
    [locals.(i)] is the local tail of tail-segment set [i]; values
    below the segment's local base (including -1 for an empty node)
    mean "nothing written in this segment". *)
val global_tail_from_locals : t -> Types.offset array -> Types.offset

(** {2 Layout}

    The projection by name — what the auxiliary would gossip on a real
    deployment, and what [tangoctl projection] prints. *)

type layout_segment = {
  l_base : Types.offset;
  l_limit : Types.offset option;
  l_local_base : Types.offset;
  l_sets : string array array;
}

type layout = {
  l_epoch : Types.epoch;
  l_sequencer : string;
  l_segments : layout_segment list;
}

val layout : t -> layout

val pp_layout : Format.formatter -> layout -> unit
