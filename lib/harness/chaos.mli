(** Fault-scenario measurement: attach a {!Sim.Fault} controller to a
    CORFU cluster, run a workload through a scheduled fault plan, and
    turn the controller's event log plus the cluster's recovery records
    into availability metrics.

    Determinism: everything here is a pure function of (world seed,
    fault seed, plan) — see the contract in {!Sim.Fault}. *)

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

(** [install ?seed ?plan cluster] creates a fault controller, installs
    it on the cluster's network fabric, and schedules [plan] (absolute
    virtual-time actions). Call before spawning workload fibers. *)
val install :
  ?seed:int -> ?plan:(float * Sim.Fault.action) list -> Corfu.Cluster.t -> Sim.Fault.t

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
