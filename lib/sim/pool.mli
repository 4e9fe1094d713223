(** A stack of reusable records, for hot paths that recycle what they
    would otherwise allocate per operation. Storage grows by doubling
    and is never shrunk. *)

type 'a t

(** [create ()] is an empty pool; it holds no storage until the first
    {!put}. *)
val create : unit -> 'a t

val is_empty : 'a t -> bool

(** [put p x] returns [x] to [p]. *)
val put : 'a t -> 'a -> unit

(** [pop p] takes the most recently put record. Requires
    [not (is_empty p)]. *)
val pop : 'a t -> 'a
