(** Causal span tracing: hierarchical timing of simulated operations.

    A span is a named interval of virtual time with a host and fiber
    context. Spans nest: within one fiber, {!with_span} pushes onto an
    ambient per-fiber stack, so a client append decomposes into
    [append → sequencer.grant → chain.write → commit] without threading
    ids by hand. Across fibers (helper fibers spawned by [Net.call_r],
    the batcher drainer, parallel chain writers) {!current} +
    {!with_parent} carry the causal parent explicitly.

    Tracing is {e off} by default and costs one branch per
    instrumentation point when off. When on, recording reads only the
    virtual clock — no sleeps, no randomness — so enabling spans never
    changes simulation behavior, and two same-seed runs dump
    byte-identical timelines ({!capture} is the determinism probe, the
    span analogue of [Trace.capture]).

    Like {!Metrics}, the span store is global but engine-reset: it
    clears when a new {!Engine.run} starts and remains readable after
    the run ends. Span ids are dense and allocated in open order. *)

(** [set_enabled b] switches recording on or off (sticky across engine
    resets; default off). *)
val set_enabled : bool -> unit

val enabled : unit -> bool

(** Opaque span identity, for cross-fiber parenting. *)
type id

(** The dense integer behind an {!id} (matches {!view.v_id}). *)
val id_int : id -> int

(** [with_span ?host ?args name f] runs [f] inside a new span. The
    parent is the innermost open span of the calling fiber, if any.
    [host] defaults to the parent's host. The span closes when [f]
    returns or raises. Must be called inside {!Engine.run} when
    tracing is enabled. *)
val with_span : ?host:string -> ?args:(string * string) list -> string -> (unit -> 'a) -> 'a

(** [current ()] is the innermost open span of the calling fiber. *)
val current : unit -> id option

(** [with_parent p f] runs [f] with its span stack seeded from [p]
    instead of the calling fiber's stack: spans opened inside [f]
    become children of [p]. Use when handing work to another fiber:
    capture [current ()] before [Engine.spawn], apply inside. *)
val with_parent : id option -> (unit -> 'a) -> 'a

type view = {
  v_id : int;
  v_parent : int option;
  v_name : string;
  v_host : string option;
  v_fiber : int;
  v_start : float;
  v_end : float option;  (** [None]: still open when the run ended *)
  v_args : (string * string) list;
}

(** All recorded spans in id (open) order. *)
val spans : unit -> view list

(** Chrome [trace_event]-format JSON: [{"traceEvents": [...]}] with
    one ["X"] (complete) event per span — [ts]/[dur] in virtual µs,
    [pid] = host (named by ["M"] metadata events), [tid] = fiber —
    loadable in [chrome://tracing] / Perfetto. Deterministic for a
    given run. *)
val dump_json : unit -> string

(** [capture f] enables tracing, runs [f] (typically a whole
    [Engine.run]), and returns its result with {!dump_json} of the
    spans it recorded. The previous enabled state is restored. *)
val capture : (unit -> 'a) -> 'a * string

(** Clear the span store immediately (tests). *)
val reset : unit -> unit
