(** Internal: the binary codec shared by the object library's update
    records (big-endian fixed-width integers, length-prefixed
    strings) — thin aliases over {!Corfu.Wire}, kept so the object
    wire formats read in the vocabulary they were written in. Not a
    stable interface — objects define their wire formats with it, and
    only those formats are contracts. *)

(** [to_bytes build] runs [build] against a shared arena writer and
    returns a copy of its contents (see {!Corfu.Wire.to_bytes}). *)
val to_bytes : (Corfu.Wire.writer -> unit) -> bytes

val put_u8 : Corfu.Wire.writer -> int -> unit
val put_bool : Corfu.Wire.writer -> bool -> unit
val put_int : Corfu.Wire.writer -> int -> unit
val put_string : Corfu.Wire.writer -> string -> unit
val put_opt_string : Corfu.Wire.writer -> string option -> unit

type cursor

(** [reader b] starts a cursor at offset 0. Readers raise
    [Invalid_argument] on out-of-bounds access. *)
val reader : bytes -> cursor

val get_u8 : cursor -> int
val get_bool : cursor -> bool
val get_int : cursor -> int
val get_string : cursor -> string
val skip_string : cursor -> unit
val get_opt_string : cursor -> string option
