(** Text rendering of the {!Announce} milestone stream.

    Trace is a sticky {!Announce} sink: while it is on, every milestone
    prints one line to stderr, headed by the virtual timestamp, the
    emitting fiber's id, the innermost {!Span} id when span tracing is
    also on, the milestone's host and component — then its tag and
    detail. Off by default; the environment variable [TANGO_TRACE=1]
    turns it on for the whole process. *)

(** [capture fn] runs [fn] with the renderer on and redirected to an
    in-memory buffer; returns [fn]'s result and the rendered stream.
    Restores the previous state afterwards. This is the determinism
    probe: two same-seed runs must produce identical capture
    strings. *)
val capture : (unit -> 'a) -> 'a * string
