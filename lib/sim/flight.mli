(** Incident flight recorder: the black box of the simulation.

    Three inputs stream their most recent structured events into a
    bounded per-host ring: span closes ({!Span}), metric writes
    ({!Metrics}), and every milestone of the {!Announce} stream —
    protocol milestones, fault-plane actions, spec firings, SLO alert
    transitions and chaos stalls — which the recorder consumes as a
    sticky sink, so a snapshot holds the same milestones the spec
    machines saw. A milestone goes to its {!Announce.host}'s ring, or
    to its component's ({!Announce.classify}) when it has none.
    Nothing is retained beyond the ring: the recorder answers "what
    were the last N things this host did right before the incident",
    not "what happened over the whole run" (that is {!Metrics} /
    {!Span} / {!Timeseries}).

    {!snapshot} freezes the rings into an incident-scoped JSON
    document. It is called automatically
    when an {!Slo} monitor fires, and by the harness when a spec fires,
    a chaos stall or a fuzz oracle violation is detected — so every
    failure artifact ships with its last-N-events context.

    Recording costs one branch when disabled and writes into
    preallocated parallel arrays when enabled (the PR 6 allocation
    discipline); it reads only the virtual clock, so arming the
    recorder never changes simulation behavior and two same-seed runs
    produce byte-identical snapshots. Like {!Metrics}, the store is
    engine-reset but the enabled flag and ring configuration are
    sticky across runs. *)

type kind =
  | Span_close  (** a {!Span} closed; value = duration µs *)
  | Metric  (** a counter/gauge/histogram write; value = new value *)
  | Fault  (** a fault action or chaos stall; name = the action's label *)
  | Alert  (** a spec firing, or an {!Slo} transition (value = fast burn rate) *)
  | Milestone  (** any other {!Announce} event; name = its tag *)

(** [set_enabled b] arms or disarms the recorder, including its
    {!Announce} sink (sticky across engine resets; default off). *)
val set_enabled : bool -> unit

val enabled : unit -> bool

(** [configure ?cap ?snapshots ()] sets the per-host ring capacity
    (default 256 events) and the per-run snapshot budget (default 16).
    Sticky; affects rings created after the call. *)
val configure : ?cap:int -> ?snapshots:int -> unit -> unit

(** [record ~host k ~name ~value] appends one event to [host]'s ring,
    overwriting the oldest once full. No-op when disabled; must be
    called inside {!Engine.run} when enabled. [name] should be a
    preallocated string on hot paths. *)
val record : host:string -> kind -> name:string -> value:float -> unit

(** Total events recorded this run across all hosts (including ones
    that have rolled out of their rings). *)
val events_recorded : unit -> int

(** [snapshot ~reason] freezes the current rings into an incident
    document: [{"reason", "t_us", "hosts": [{"host", "recorded",
    "events"}]}], stamped at virtual time 0 when taken after the run
    ended. No-op when disabled or once the snapshot budget is
    exhausted. *)
val snapshot : reason:string -> unit

(** The incident documents taken this run, oldest first. *)
val snapshots : unit -> string list

val snapshot_count : unit -> int

(** [{"snapshots": [...]}] — every snapshot document of the run, the
    shape embedded in fuzz artifacts. *)
val dump_json : unit -> string
