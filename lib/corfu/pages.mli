(** A sparse array indexed by offset: a spine of fixed-size pages,
    each allocated by the first store into it. Storage nodes keep their
    write-once cells here and clients their entry caches, so both pay
    two array loads per access and free a prefix by the page.

    Page [p] holds offsets [p * 1024, (p + 1) * 1024). A cell never
    stored, or cleared, reads the table's [empty] value; [empty] is
    compared physically, so it must be a constant constructor or one
    value kept for the purpose. A gap between the offsets in use costs
    one spine word per 1,024 offsets it spans, and a page held for one
    cell costs its 1,024 words. *)

type 'a t

(** Offsets per page. *)
val page_size : int

val create : empty:'a -> 'a t

(** [get t off] is the cell at [off], or [empty]. A negative offset
    reads [empty]. *)
val get : 'a t -> int -> 'a

(** [set t off v] stores [v] at [off], allocating its page if needed.
    @raise Invalid_argument on a negative offset. *)
val set : 'a t -> int -> 'a -> unit

(** [drop_below t off] clears every cell below [off]: pages wholly
    below it are freed, and the cells below it in the page it falls in
    read [empty] again. Stores below [off] later allocate afresh. *)
val drop_below : 'a t -> int -> unit

(** Cells that do not read [empty]. *)
val length : 'a t -> int

(** Pages allocated and not freed. *)
val pages_held : 'a t -> int
