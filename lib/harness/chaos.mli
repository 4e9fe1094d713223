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
  inc_recovered_us : float;  (** new projection accepted *)
  inc_unavailable_us : float;  (** recovered - crashed *)
  inc_rebuild_entries : int;
  inc_rebuild_bytes : int;
}

(** [install ?seed ?plan cluster] creates a fault controller, installs
    it on the cluster's network fabric, and schedules [plan] (absolute
    virtual-time actions). Call before spawning workload fibers. *)
val install :
  ?seed:int -> ?plan:(float * Sim.Fault.action) list -> Corfu.Cluster.t -> Sim.Fault.t

(** [incidents fault cluster] joins {!Sim.Fault.events} crash entries
    with {!Corfu.Cluster.recoveries} by host name, oldest first. *)
val incidents : Sim.Fault.t -> Corfu.Cluster.t -> incident list

val pp_incident : Format.formatter -> incident -> unit

(** {2 Completion recorder}

    Tracks the largest gap between consecutive operation completions
    across all workers — the client-observed stall during a failure,
    which bounds the availability hole even when every operation
    eventually succeeds. *)

type recorder

(** [recorder ?stall_threshold_us ()] starts tracking at the current
    virtual time. When [stall_threshold_us] is given, a completion gap
    exceeding both the threshold and the previous maximum is a stall:
    it is announced as a {!Sim.Announce.Chaos_stall} milestone and
    triggers a {!Sim.Flight.snapshot} with reason ["chaos-stall"] when
    the flight recorder is armed — at most one per new worst gap. *)
val recorder : ?stall_threshold_us:float -> unit -> recorder

(** Call on every completed operation (any worker). *)
val note : recorder -> unit

val max_gap_us : recorder -> float

(** Virtual time at which the largest gap started. *)
val max_gap_start_us : recorder -> float

val completions : recorder -> int
