(** A client's cache of log entries by global offset, on offset pages
    ({!Pages}). Membership follows three rules:
    - an entry is cached by {!add} unless its offset is below the floor;
    - when an {!add} takes the cache past [cap] entries, every entry
      below [high - cap / 2] is dropped, [high] being the highest
      offset ever added;
    - {!drop_below} raises the floor and drops everything below it.

    A lookup is two array loads. Pages cost one word per offset they
    span, so a client that caches 1 offset in [k] pays about [k] words
    per entry. *)

type t

val create : cap:int -> t

(** @raise Not_found if [off] is not cached. *)
val find : t -> Types.offset -> Types.entry

val mem : t -> Types.offset -> bool

val add : t -> Types.offset -> Types.entry -> unit

(** [drop_below t off] drops every entry below [off] and refuses
    later adds below it. A lower [off] than the current floor does
    nothing. *)
val drop_below : t -> Types.offset -> unit

(** Entries cached. *)
val length : t -> int
