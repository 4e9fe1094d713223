(** Deterministic fault injection.

    A fault controller is attached to a {!Net} fabric (see
    {!Net.install_fault}) and consulted once per message direction. It
    can crash and restart hosts (by name), partition the network into
    components and heal it, and degrade selected edges with
    probabilistic drops and extra delay — which also reorders
    fire-and-forget casts, since each delivery sleeps independently.
    Faults outside the network (failing an SSD {!Resource.t}, replacing
    the sequencer) are {!Custom} actions: a name that the interpreter
    given to {!create} runs.

    {b Determinism contract.} The controller owns a private
    {!Rng.t} seeded at {!create} — independent of the simulation
    world's generator — and draws from it only when a matching edge
    rule actually needs randomness. Consequences: (1) installing a
    controller with no active faults leaves a simulation's event
    sequence byte-identical to a run without one; (2) the same seed and
    fault plan reproduce the same trace on every run. Fault actions are
    scheduled as virtual-time events ({!schedule}, {!plan}), so a whole
    fault scenario is a pure function of (world seed, fault seed,
    plan).

    {b Cost.} Host names are interned to small integer ids
    ({!host_id}); the controller keeps crashed hosts, partition
    components and edge rules (wildcards included) in arrays indexed by
    id, and {!Net} judges each message by its hosts' ids
    ({!judge_id}). A per-message verdict hashes no string, builds no
    key and boxes no float, whatever faults are in force; the name-keyed
    {!judge} and {!is_crashed} intern their arguments and read the same
    arrays. *)

type t

(** A message verdict: deliver after an extra delay (µs, usually 0), or
    silently drop. *)
type verdict = Deliver of float | Drop

type action =
  | Crash of string  (** host by name: NICs and services go dead *)
  | Restart of string
  | Partition of string list list
      (** connectivity components; hosts absent from every listed
          component share one implicit component *)
  | Heal  (** remove the partition *)
  | Degrade of { d_src : string; d_dst : string; d_drop : float; d_delay_us : float; d_jitter_us : float }
      (** per-edge drop probability and extra delay; ["*"] matches any
          host *)
  | Clear_edge of string * string
  | Custom of string
      (** a named action outside the network (e.g. failing an SSD
          {!Resource.t}), run by the controller's [custom] interpreter
          at the scheduled time *)

(** [create ?seed ?custom ()] makes an idle controller (nothing
    crashed, no partition, no degraded edges). [seed] (default 0) seeds
    the controller's private generator. [custom name] runs a
    {!Custom} action and says whether it acted; it must not suspend.
    The default raises [Invalid_argument]: a controller given no
    interpreter runs no custom action. *)
val create : ?seed:int -> ?custom:(string -> bool) -> unit -> t

(** {2 Immediate faults} *)

val crash : t -> string -> unit
val restart : t -> string -> unit
val is_crashed : t -> string -> bool
val partition : t -> string list list -> unit

(** A partition is in force (applied and not healed). *)
val is_partitioned : t -> bool
val heal : t -> unit

val degrade :
  t -> src:string -> dst:string -> ?drop:float -> ?delay_us:float -> ?jitter_us:float -> unit -> unit

val clear_edge : t -> src:string -> dst:string -> unit

(** [has_edge_rule t ~src ~dst]: a {!Degrade} of exactly this edge is in
    force (applied and not cleared). *)
val has_edge_rule : t -> src:string -> dst:string -> bool

(** [apply t action] executes one action now, logging it to the event
    list and the trace. A recovery with nothing to recover — {!Restart}
    of a live host, {!Heal} with no partition in force, {!Clear_edge}
    of an edge with no {!Degrade} rule — changes nothing, so it is not
    logged, announced or counted in [fault.injected]; nor is a
    {!Custom} action its interpreter skipped. *)
val apply : t -> action -> unit

(** {2 Scheduled plans} *)

(** [schedule t ~at action] applies [action] at absolute virtual time
    [at] (clamped to now). *)
val schedule : t -> at:float -> action -> unit

(** [plan t actions] schedules a whole fault scenario. *)
val plan : t -> (float * action) list -> unit

(** {2 Consultation and audit} *)

(** [judge t ~src ~dst] decides the fate of one message between named
    hosts: {!judge_id} on their interned ids. *)
val judge : t -> src:string -> dst:string -> verdict

(** [host_id name] is [name]'s interned id: dense, stable for the life
    of the process, and the same for every controller. ["*"], the edge
    wildcard, is 0. Interning hashes the name once; keep the id. *)
val host_id : string -> int

(** [is_crashed_id t id] is [is_crashed t name] for [id = host_id name],
    without hashing. *)
val is_crashed_id : t -> int -> bool

(** [judge_id t ~src ~dst a i] is the verdict {!judge} returns for the
    hosts with these ids: [true] to deliver, with the extra delay (µs)
    stored in [a.(i)]; [false] to drop, leaving [a] alone. Called by
    {!Net} for each direction of an RPC; it allocates nothing. *)
val judge_id : t -> src:int -> dst:int -> Float.Array.t -> int -> bool

type event = { ev_time : float; ev_label : string }

(** Applied actions in chronological order, for correlating faults with
    recovery metrics. *)
val events : t -> event list

(** {2 Plans as data}

    A fault plan — the [(time, action) list] fed to {!plan} — is also
    a {e replayable artifact}: the fuzzer serializes every failing plan
    to versioned JSON so any violation can be re-run, shrunk, and
    attached to a bug report. An action is plain data — a [Custom] is
    its name — so plans compare with [=] and print, encode and decode
    without a cluster. Which custom names mean something is the
    interpreter's business (the harness's [Chaos] vocabulary), not the
    codec's. *)

val pp_plan : Format.formatter -> (float * action) list -> unit

(** [encode_plan p] is [p] as a versioned JSON document. Floats are
    written exactly (17 significant digits), so
    [decode_plan (encode_plan p) = p]. *)
val encode_plan : (float * action) list -> string

(** [decode_plan s] parses a plan document.
    @raise Jin.Parse_error on malformed JSON.
    @raise Invalid_argument on an unknown version or action kind, or
    an event time that is negative or not finite. *)
val decode_plan : string -> (float * action) list

(** [decode_plan_value v] reads a plan from an already-parsed {!Jin}
    document — for plans embedded inside larger documents (a
    scenario). *)
val decode_plan_value : Jin.t -> (float * action) list
