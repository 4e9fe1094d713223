(** Stream headers: the on-entry metadata that turns the flat shared
    log into a set of streams (paper §5).

    Each entry carries one header per stream it belongs to. A header
    holds a 31-bit stream id, a format bit, and backpointers to the
    previous K entries of the same stream, in one of two wire formats:

    - {e relative}: K 2-byte deltas from the current offset
      (delta 0 = empty slot), used when every delta fits in 16 bits;
    - {e absolute}: K/4 8-byte offsets (all-ones = empty slot), used
      when some delta overflows 64K entries.

    With K = 4 a header is 12 bytes either way. A block of headers is
    a count byte followed by the fixed-size headers; the number of
    headers an entry can hold bounds how many streams a single
    multiappend — and therefore a single transaction — can touch. *)

type t = {
  stream : Types.stream_id;
  backptrs : Types.offset list;  (** most recent first; length ≤ K *)
}

(** [encode_block ~k ~current headers] encodes headers for the entry
    being written at offset [current]. Picks the relative format per
    header when all its deltas fit, else the absolute format keeping
    the K/4 most recent pointers.
    @raise Invalid_argument on a stream id outside [0, 2^31) or a
    backpointer not strictly below [current]. *)
val encode_block : k:int -> current:Types.offset -> t list -> bytes

(** [encode_tails ~k ~current ~index tails] is the block of the
    [index]th entry of a sequencer grant, written at [current], from
    the grant's per-stream [(stream, prior)] tails: each header's
    backpointers are [prior] when [index] = 0, else the grant's
    [index] earlier offsets [current - 1], ..., [current - index]
    followed by [prior], truncated to K. Equal to {!encode_block} of
    those records, raising the same errors, but builds no record or
    list. *)
val encode_tails :
  k:int -> current:Types.offset -> index:int -> (Types.stream_id * Types.offset list) list -> bytes

(** [decode_block ~k ~current block] inverts {!encode_block}.
    Relative-format headers need [current] to reconstruct offsets.
    @raise Invalid_argument on a malformed block. *)
val decode_block : k:int -> current:Types.offset -> bytes -> t list

(** [find headers sid] returns the header for stream [sid], if any. *)
val find : t list -> Types.stream_id -> t option

(** {2 Reading one stream's header in place}

    The stream layer's fast path: {!locate} then {!backptr} read one
    stream's backpointers straight from the block's bytes, without
    decoding the other headers or building a list, and allocate
    nothing. Together they agree with
    [find (decode_block ~k ~current block) sid]. *)

(** [locate ~k block sid] is the byte position of stream [sid]'s
    header in [block] (the first, if repeated), or [-1] if the block
    carries none.
    @raise Invalid_argument on a malformed block. *)
val locate : k:int -> bytes -> Types.stream_id -> int

(** [backptr ~k ~current block at i] is backpointer [i] (0 = most
    recent) of the header at position [at] (from {!locate}) of the
    entry written at [current], in either wire format, or [-1] once
    [i] reaches an empty slot or the format's capacity. Like
    {!decode_block}, a reader stops at the first [-1]: slots after it
    are not backpointers. *)
val backptr : k:int -> current:Types.offset -> bytes -> int -> int -> Types.offset

(** [uses_absolute_format ~current header] reports which wire format
    {!encode_block} will pick, for tests and diagnostics. *)
val uses_absolute_format : current:Types.offset -> t -> bool
