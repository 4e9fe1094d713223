(** Write-once synchronization cells for fibers.

    An ivar starts empty; any number of fibers may block in {!read}
    until a single {!fill} publishes the value. Readers resume in the
    order they blocked, at the fill's instant.

    Cost: an ivar is a 2-word record, and filling it adds its 2-word
    [Full] state. The first reader to block parks in the ivar's state
    (3 words beside the continuation), so an ivar read once builds no
    wait queue; a second blocked reader moves both into one. *)

type 'a t

val create : unit -> 'a t

(** [fill t v] stores [v] and wakes all readers.
    @raise Invalid_argument if already filled. *)
val fill : 'a t -> 'a -> unit

(** [read t] returns the value, blocking the calling fiber until the
    ivar is filled. *)
val read : 'a t -> 'a

(** [peek t] returns the value if present, without blocking. *)
val peek : 'a t -> 'a option

val is_filled : 'a t -> bool
