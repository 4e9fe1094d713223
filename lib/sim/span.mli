(** Causal span tracing: hierarchical timing of simulated operations.

    A span is a named interval of virtual time with a host and fiber
    context. Spans nest: within one fiber, a section pushes onto an
    ambient per-fiber stack, so a client append decomposes into
    [append → sequencer.grant → chain.write → commit] without threading
    ids by hand. Across fibers (the worker fibers of timed [Net.call]s,
    the batcher drainer, parallel chain writers) {!current} +
    {!with_parent} carry the causal parent explicitly.

    Tracing is {e off} by default. When on, recording reads only the
    virtual clock — no sleeps, no randomness — so enabling spans never
    changes simulation behavior, and two same-seed runs dump
    byte-identical timelines ({!capture} is the determinism probe, the
    span analogue of [Trace.capture]).

    Like {!Metrics}, the span store is an {!Engine.per_run} one: it
    starts empty in each {!Engine.run} and remains readable after the
    run ends. Span ids are dense and allocated in open order. *)

(** [set_enabled b] switches recording on or off (sticky across engine
    resets; default off). *)
val set_enabled : bool -> unit

val enabled : unit -> bool

(** Opaque span identity, for cross-fiber parenting. *)
type id

(** The dense integer behind an {!id} (matches {!view.v_id}). *)
val id_int : id -> int

(** {2 Timed sections}

    A {e site} is one timed section: a span name, the host when fixed,
    an optional histogram and an args builder. A component declares
    each site once, where it is created, and runs it as a bracket:
    [let tok = enter site v in match body with r -> leave site tok; r
    | exception e -> leave_raise site tok e]. The bracket always feeds
    the histogram; only while tracing is on does it build the span,
    its args (from [v]) and the {!Flight} span-close event. The start
    time stays in a slot named by the token, so with tracing off a
    section takes no closure, boxes no float and allocates nothing. A
    span's duration and its histogram observation are one subtraction
    of the same two clock reads. *)

type 'a site

(** [site ?host ?hist ?args name]: [host] fixes the span's host (else
    the parent's, or {!enter_at}'s); [hist] receives each section's
    virtual µs; [args] builds the span's args from the entered value. *)
val site :
  ?host:string -> ?hist:Metrics.histogram -> ?args:('a -> (string * string) list) -> string ->
  'a site

(** [timer h] feeds [h] and never records a span. *)
val timer : Metrics.histogram -> 'a site

(** [enter site v] opens a section in the calling fiber: its span's
    parent is the fiber's innermost open span. *)
val enter : 'a site -> 'a -> int

(** [enter_at site ~host v] is {!enter} with the span's host given per
    call (an RPC's caller). *)
val enter_at : 'a site -> host:string -> 'a -> int

(** [leave site tok] observes the section's time, then closes its span.
    Leave each token exactly once. *)
val leave : 'a site -> int -> unit

(** [leave_raise site tok e] is {!leave}, then re-raises [e] with its
    backtrace; call it first thing in the handler. *)
val leave_raise : 'a site -> int -> exn -> 'b

(** [within site v f] runs [f] as one section; it takes a closure, so
    it is for cold paths. *)
val within : 'a site -> 'a -> (unit -> 'b) -> 'b

(** [with_span ?host ?args name f] runs [f] as a one-off section with
    no histogram; with tracing off it is [f ()]. *)
val with_span : ?host:string -> ?args:(string * string) list -> string -> (unit -> 'a) -> 'a

(** [current ()] is the innermost open span of the calling fiber. *)
val current : unit -> id option

(** [with_parent p f] runs [f] with its span stack seeded from [p]
    instead of the calling fiber's stack: spans opened inside [f]
    become children of [p]. Use when handing work to another fiber:
    capture [current ()] before [Engine.spawn], apply inside. *)
val with_parent : id option -> (unit -> 'a) -> 'a

(** Fibers holding an open span right now (tests). *)
val open_fibers : unit -> int

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
