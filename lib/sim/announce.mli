(** The simulator's one milestone stream.

    Protocol and harness code report every milestone as one typed
    {!event}; this is the only milestone producer API. The text trace
    ({!Trace}), the flight recorder ({!Flight}) and the spec machines
    all play back the same ordered stream, so a flight snapshot shows
    what the specs saw. {!Metrics} and {!Span} are separate planes.

    Producers guard every emission —
    {[ if Sim.Announce.active () then Sim.Announce.emit (...) ]}
    — so a run with nothing armed pays one branch and zero allocation
    per milestone. Consumers run synchronously inside the emitting
    fiber and must not block or sleep. {e Sticky sinks} ({!Trace},
    {!Flight}) are armed explicitly and survive engine resets;
    {e per-run subscribers} live in an {!Engine.per_run} store, so
    they are dropped when a new {!Engine.run} begins. Each event reaches the armed sinks first, in registration
    order, then the subscribers, in subscription order. *)

type event =
  | Append_acked of { client : string; offset : int; streams : int list }
      (** The chain ack for [offset] reached [client]; the append is
          durable on every replica and was issued on [streams]. *)
  | Offset_readable of { client : string; offset : int }
      (** A resolved read of [offset] returned data at [client]. *)
  | Tx_begin of { client : string }
  | Tx_finish of { client : string; committed : bool }
  | Commit_decided of { client : string; pos : int; committed : bool }
      (** [client]'s runtime recorded the commit/abort verdict for the
          commit record at log position [pos]. *)
  | Commit_applied of { client : string; pos : int }
      (** [client]'s playback applied the writes of the commit at
          [pos] to its hosted views. *)
  | Commit_parked of { client : string; pos : int; reads : int; writes : int }
      (** Playback at [client] froze its involved objects at [pos]
          until the commit's decision is known. *)
  | Decision_timeout of { client : string; pos : int }
      (** No decision record for [pos] arrived in time; [client]
          reconstructs the outcome from the log. *)
  | Epoch_adopted of { client : string; epoch : int }
      (** [client] refreshed its projection to [epoch]. *)
  | Hole_filled of { client : string; offset : int }
      (** [client] won the head write of a junk fill at [offset]. *)
  | Reconfig_started of { kind : string }
      (** A seal/scale/replace operation of [kind] began. *)
  | Reconfig_installed of { kind : string; epoch : int }
      (** The operation installed projection [epoch]. *)
  | Tail_rebuilt of { epoch : int; tail : int; scanned : int }
      (** A sequencer replacement at [epoch] rebuilt its backpointer
          state for [tail] after scanning [scanned] entries. *)
  | Prefix_lost of { segment : int; set : int }
      (** A storage replacement found no surviving replica of [set] in
          [segment]: the spare starts without a prefix. *)
  | Node_dead of { node : string }
      (** The failure monitor declared [node] dead after three
          consecutive missed probes. *)
  | Fault_injected of { key : string; host : string; detail : string }
      (** A repairable fault keyed [key] (e.g. ["crash:h"],
          ["partition"], ["edge:s>d"]) took effect. [host] is the
          machine it is attributed to ({!no_host} if none) and
          [detail] the action's full label, e.g. a degrade's drop and
          delay values. *)
  | Fault_repaired of { key : string; host : string; detail : string }
      (** The fault keyed [key] was repaired. *)
  | Custom_fault of { name : string }
      (** A named custom fault-plan action ran (takeovers, scaling,
          SSD events); classification is up to the consumer. *)
  | Action_skipped of { action : string; reason : string }
      (** A fault-plan action found nothing to act on and did nothing. *)
  | Spec_fired of { spec : string; detail : string }
      (** A spec machine found a violation. *)
  | Slo_alert of { monitor : string; firing : bool; burn_fast : float }
      (** An SLO monitor fired ([firing]) or resolved. *)

(** {2 Attribution} shared by every consumer. *)

val no_host : string  (** ["-"]: the milestone belongs to no single machine. *)

val host : event -> string
(** The simulated machine the milestone happened on, or {!no_host}. *)

val classify : event -> string * string
(** [(component, name)], both constants: the producing layer
    (["corfu"], ["tango"], ["reconfig"], ["monitor"], ["fault"],
    ["fuzz"], ["spec"] or ["slo"]) and the variant's
    kebab-case tag, e.g. ["append-acked"]. *)

(** {2 Producers} *)

val active : unit -> bool
(** [true] iff a sticky sink is armed or a subscriber of the current
    run is registered. *)

val emit : event -> unit
(** Deliver [ev] to the armed sinks, then to the run's subscribers. *)

(** {2 Consumers} *)

val subscribe : (event -> unit) -> unit
(** Register a synchronous listener for the current engine run. *)

(** A sticky sink. [armed] is readable in place, so a consumer's own
    hot path can test it without a call; only {!arm} changes it. *)
type sink = private { deliver : event -> unit; mutable armed : bool }

val sink : (event -> unit) -> sink
(** Register a sticky sink, initially disarmed. Sinks are created once,
    at module initialisation, by the consumers themselves. *)

val arm : sink -> bool -> unit
(** Arm or disarm a sink; sticky across engine resets. *)
