(** A hash table keyed by an [int] — a log position, an offset, a
    fiber id — that never calls the runtime's polymorphic hash or
    comparison: the stdlib's generic [Hashtbl] runs every key through
    [caml_hash] and [compare_val], which dominated the per-entry paths
    that look these tables up.

    The hash multiplies by an odd constant and folds the high half
    down, so keys that differ only above their low bits (a position is
    [offset * 64 + slot], with most slots 0) still spread over the
    buckets. Iteration order is the functor's, not the generic
    table's: keep such tables to lookups, or sort what you fold. *)

include Hashtbl.S with type key = int
