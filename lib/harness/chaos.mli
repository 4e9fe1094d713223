(** Fault-scenario measurement: attach a {!Sim.Fault} controller to a
    CORFU cluster, run a workload through a scheduled fault plan, and
    turn the controller's event log plus the cluster's recovery records
    into availability metrics. It owns the vocabulary of the plan's
    {!Sim.Fault.Custom} actions: the cluster operations a plan can
    name, their one parser and printer, and their interpreter.

    Determinism: everything here is a pure function of (world seed,
    fault seed, plan) — see the contract in {!Sim.Fault}. *)

(** {2 Custom actions} *)

(** A cluster operation a plan names in a {!Sim.Fault.Custom} action.
    Counts are at least 1. *)
type op =
  | Replace_sequencer  (** ["replace-sequencer"]: the §5 sequencer replacement *)
  | Scale_out of int  (** ["scale-out K"]: add K servers as a new tail segment *)
  | Scale_in of int  (** ["scale-in K"]: drop K servers from the tail segment *)
  | Ssd_fail of string  (** ["ssd-fail HOST"]: the storage node's SSD fails *)
  | Ssd_repair of string  (** ["ssd-repair HOST"]: a failed SSD is repaired *)

(** [name_of_op op] is the action name a plan carries for [op]. *)
val name_of_op : op -> string

(** [op_of_name name] parses an action name: [Some op] exactly when
    [name = name_of_op op]. *)
val op_of_name : string -> op option

(** [custom op] is the plan action [Sim.Fault.Custom (name_of_op op)]. *)
val custom : op -> Sim.Fault.action

(** @raise Invalid_argument naming the first custom action of the plan
    that names no op. *)
val validate_plan : (float * Sim.Fault.action) list -> unit

(** [install ?seed ?plan cluster] creates a fault controller whose
    custom actions run as [cluster] operations (reconfigurations in
    fibers of their own), installs it on the cluster's network fabric,
    and schedules [plan] (absolute virtual-time actions). Call before
    spawning workload fibers. An op the cluster cannot honour (a scale
    to an odd tail, the SSD of a node not in the cluster) changes
    nothing and is announced as {!Sim.Announce.Action_skipped}; one
    that names no op raises [Invalid_argument] when it runs. Only an op
    that acts is a fault event, which the controller logs, counts and
    announces. A repair acts on an SSD the controller failed while it is
    failed, also once its node has left the cluster; repairing a
    healthy SSD is a silent no-op, as restarting a live host is. A
    scale or replacement counts as acted once its fiber is spawned,
    whatever that fiber later decides. *)
val install :
  ?seed:int -> ?plan:(float * Sim.Fault.action) list -> Corfu.Cluster.t -> Sim.Fault.t

(** [make_whole fault plan] applies the recovery partner of every
    fault in [plan] that is still in force: a restart per crash, a heal
    per partition, a clear per degraded edge and a repair per failed
    SSD. A recovery with nothing to recover is not applied. *)
val make_whole : Sim.Fault.t -> (float * Sim.Fault.action) list -> unit

(** {2 Incidents} *)

(** One storage-node failure, correlated from crash to recovery. *)
type incident = {
  inc_epoch : Corfu.Types.epoch;  (** epoch installed by the recovery *)
  inc_dead : string;
  inc_spare : string;
  inc_crashed_us : float;  (** injected crash (detection time if none) *)
  inc_detected_us : float;  (** recovery seal began *)
  inc_recovered_us : float;  (** degraded projection accepted: clients resume *)
  inc_unavailable_us : float;  (** recovered - crashed *)
  inc_rebuild_entries : int;  (** cells the restores copied onto the spare *)
  inc_rebuild_bytes : int;
}

(** [incidents fault cluster] joins {!Sim.Fault.events} crash entries
    with the storage replacements in {!Corfu.Cluster.reconfigs} by
    host name, and each replacement with the restores onto its spare,
    oldest first. *)
val incidents : Sim.Fault.t -> Corfu.Cluster.t -> incident list

(** {2 Completion recorder}

    Tracks the largest gap between consecutive operation completions
    across all workers — the client-observed stall during a failure,
    which bounds the availability hole even when every operation
    eventually succeeds. *)

type recorder

(** [recorder ()] starts tracking at the current virtual time. *)
val recorder : unit -> recorder

(** Call on every completed operation (any worker). *)
val note : recorder -> unit

val max_gap_us : recorder -> float
