(** The one binary codec for every wire format in the tree: big-endian
    fixed-width integers, length-prefixed strings/bytes, a tagged
    option, over a reusable arena {!writer} and a bounds-checked,
    reusable cursor (reading).

    {!Tango.Record} and {!Tango_objects.Codec} build their formats
    from these primitives; the primitives themselves are not a stable on-disk
    contract — the formats defined on top of them are.

    {2 Ownership discipline}

    A {!writer} is an arena: its backing [bytes] is reused across
    encodes, so the encoded image is only valid until the next
    {!reset}. Take ownership with {!contents}, which copies — that copy
    is the single allocation of a steady-state encode. Likewise a
    {!cursor} borrows the [bytes] it reads: fixed-width getters never
    allocate, while {!get_bytes}/{!get_string} copy out and so own
    their result. Integers are composed on the native [int]
    byte-by-byte; no boxed [Int32]/[Int64] on the hot path. *)

type writer

(** [writer ?size ()] preallocates an arena of [size] (default 256)
    bytes; it grows by doubling when an encode overflows it. *)
val writer : ?size:int -> unit -> writer

(** [reset w] rewinds the cursor to 0, invalidating any image not yet
    copied out with {!contents}. The backing arena is retained. *)
val reset : writer -> unit

(** Bytes written since the last {!reset}. *)
val pos : writer -> int

(** [contents w] copies the written region out of the arena — the
    ownership boundary of an encode. *)
val contents : writer -> bytes

(** [to_bytes build] runs [build] against a shared module-level arena
    and returns a copy of its contents. Safe because encodes never
    yield to the scheduler; a nested call (an encode within an encode)
    transparently falls back to a fresh arena. *)
val to_bytes : (writer -> unit) -> bytes

val put_u8 : writer -> int -> unit
val put_bool : writer -> bool -> unit

(** Low 32 bits, big-endian. Reads back via {!get_u32} as a
    non-negative int in [\[0, 2{^32})]. *)
val put_u32 : writer -> int -> unit

(** Low 63 bits (the native [int]), big-endian in an 8-byte slot;
    round-trips exactly for values in [\[0, 2{^62})], the only range
    the formats use. *)
val put_u64 : writer -> int -> unit

(** [patch_u32 w ~at v] overwrites 4 bytes at position [at] inside the
    already-written region — for length prefixes backpatched after the
    body is encoded. Raises [Invalid_argument] outside the region. *)
val patch_u32 : writer -> at:int -> int -> unit

(** Length-prefixed (u32) byte string. *)
val put_bytes : writer -> bytes -> unit

(** Length-prefixed (u32) string. *)
val put_string : writer -> string -> unit

(** One tag byte (0 = absent, 1 = present) then {!put_string}. *)
val put_opt_string : writer -> string option -> unit

type cursor

(** [reader b] starts a cursor at offset 0. Every getter raises
    [Invalid_argument] on out-of-bounds access instead of reading
    garbage. *)
val reader : bytes -> cursor

(** [reset_reader c b] re-aims an existing cursor at [b], offset 0 —
    the allocation-free way to decode a stream of frames. *)
val reset_reader : cursor -> bytes -> unit

val get_u8 : cursor -> int
val get_bool : cursor -> bool
val get_u32 : cursor -> int
val get_u64 : cursor -> int
val get_bytes : cursor -> bytes
val get_string : cursor -> string

(** Step over a length-prefixed string without copying it out. *)
val skip_string : cursor -> unit

(** Raises [Invalid_argument] on a tag byte other than 0 or 1. *)
val get_opt_string : cursor -> string option

(** Current cursor position (bytes consumed so far). *)
val at : cursor -> int

(** Bytes left to read. *)
val remaining : cursor -> int
