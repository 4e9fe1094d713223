(** Simulation fuzzer: randomized fault-plan exploration with global
    invariant oracles and automatic plan shrinking (DESIGN.md §9).

    A fuzz case is the triple (seed, {!config}, plan). Everything the
    case does — engine scheduling, fault randomness, workload
    randomness — derives from the seed, so {!run} on the same triple
    reproduces the same virtual-time trace byte for byte: metrics and
    span dumps from a replay compare equal with [cmp]. A failing
    triple, shrunk, is saved as a {!Scenario} together with the specs
    and failpoint it ran under, so [tangoctl scenario run] replays it
    with no other input.

    Generated plans are {e make-whole}: every fault carries a recovery
    partner, and storage faults are serialized onto disjoint chains, so
    a correct build produces zero violations on every seed. Any
    violation is a bug.

    {b Liveness semantics (repair-then-deadline).} Workload liveness
    is judged against a {e whole} system, in two steps: at
    [f_repair_margin_us] after the last planned fault event, {!run}
    re-applies every missing recovery partner (restarts for crashes,
    heal for partitions, edge clears, SSD repairs) — shrinking
    routinely drops them — and only a workload that {e still} cannot
    finish by [f_deadline_us] is a ["liveness"] violation. Without
    the repair step, any shrunk plan that leaves a projection member
    permanently unreachable would stall fundamentally, and the
    shrinker would converge on that stall instead of the original
    failure. The online spec machines ({!Spec}) use the same clock
    convention: their deadlines are suspended while a repairable
    fault is outstanding and restart from the last repair. *)

type config = {
  f_servers : int;  (** storage nodes at boot, arranged in chains of 2 *)
  f_clients : int;  (** each contributes one appender and one transactor *)
  f_appends : int;  (** raw appends per appender *)
  f_txs : int;  (** transactions per transactor *)
  f_events : int;  (** primary fault events (recovery partners are extra) *)
  f_fault_at_us : float;  (** first fault no earlier than this *)
  f_fault_window_us : float;  (** faults land inside this window *)
  f_deadline_us : float;  (** workload must finish by this virtual time *)
  f_repair_margin_us : float;
      (** make-whole repairs run this long after the last planned
          fault event (the repair-then-deadline rule above) *)
  f_settle_us : float;  (** quiesce time before the oracle phase *)
  f_horizon_us : float;  (** hard virtual-time ceiling for one run *)
  f_shrink_runs : int;  (** shrink budget, counted in re-runs *)
}

val default_config : config

(** An SLO burn-rate monitor ({!Sim.Slo.monitor}) on one
    {!Sim.Timeseries} column of the run, e.g. series
    ["hist:fz-app-1.append.e2e_us"], column ["p99"]. *)
type monitor = {
  mo_name : string;
  mo_series : string;
  mo_col : string;
  mo_threshold : float;  (** a window above it is bad *)
  mo_objective : float;  (** target good-window fraction, in [0, 1) *)
}

(** [validate_monitor m] rejects an empty name, series or column, a
    threshold that is not finite, or an objective outside [0, 1).
    @raise Invalid_argument naming the monitor and the field. *)
val validate_monitor : monitor -> unit

(** [gen_plan ~seed config] draws a random make-whole fault plan:
    storage crash/restart, single-node partition/heal, appender→storage
    degrade/clear, SSD fail/repair, sequencer replacement, and
    scale-out/in customs. The sequencer, auxiliary, and client hosts
    are never crashed or partitioned (their RPCs wait without
    timeouts); at most one partition and one scale-in per plan. *)
val gen_plan : seed:int -> config -> (float * Sim.Fault.action) list

type outcome = {
  oc_violations : Verifier.violation list;
  oc_acked : int;  (** raw appends acked to workload clients *)
  oc_committed : int;
  oc_aborted : int;
  oc_fault_events : int;  (** fault actions actually applied *)
  oc_spec_firings : Spec.firing list;
      (** online spec-machine firings, oldest first; each carries the
          virtual timestamp at which the property broke mid-run *)
  oc_end_us : float;  (** virtual time when the oracle phase finished *)
  oc_metrics_json : string;  (** canonical; byte-identical on replay *)
  oc_spans_json : string option;  (** present when [capture_spans] *)
  oc_flight_json : string option;
      (** {!Sim.Flight.dump_json} when any snapshot fired — the run
          arms the flight recorder, and an oracle violation (or an
          abort with violations pending) triggers a capture *)
  oc_alerts : Sim.Slo.alert list;
      (** the monitors' alert transitions, oldest first; [[]] when
          none were armed *)
  oc_alerts_json : string option;  (** {!Sim.Slo.alerts_json}, when monitors were armed *)
  oc_timeseries_json : string option;
      (** {!Sim.Timeseries.to_json}, when monitors were armed *)
}

(** [run ?failpoint ?capture_spans ~seed config ~plan] executes one
    fuzz case: boot a cluster, start the failure monitor, schedule
    [plan] (rebinding [Custom] thunks against the live cluster), drive
    the randomized workload, make the system whole, settle, then judge
    every {!Verifier} oracle with fresh observer clients. [failpoint]
    enables a failpoint ({!Tango.Runtime.enable_failpoint}) for the duration (sensitivity
    testing); failpoints are reset on exit even on exceptions. Engine
    deadlock or horizon overrun is reported as a ["liveness"]
    violation, an escaped exception as ["exception"].

    [specs] arms the named {!Spec} machines for the run: a dedicated
    follower client discharges readability obligations, the machines
    fire mid-run, and their firings are folded into [oc_violations]
    with oracle [spec:<name>] — first-class shrink targets.
    [spec_deadline_us] overrides both spec deadlines (default 400 ms
    virtual). Arming specs changes the event schedule, so traces are
    only comparable between runs armed with the same [specs].

    [monitors] starts the {!Sim.Timeseries} ticker and arms one
    {!Sim.Slo} monitor each, once every workload client and runtime
    exists (the ticker tracks only metrics registered before it
    starts). An alert is an output, not a violation: it lands in
    [oc_alerts], and a firing takes a flight snapshot. Monitors change
    the event schedule the way [specs] do.
    @raise Invalid_argument on a monitor {!validate_monitor} rejects,
    or, after the run, on a monitor whose series or column never
    appeared (it judged nothing). *)
val run :
  ?failpoint:string ->
  ?capture_spans:bool ->
  ?specs:Spec.spec list ->
  ?spec_deadline_us:float ->
  ?monitors:monitor list ->
  seed:int ->
  config ->
  plan:(float * Sim.Fault.action) list ->
  outcome

type shrink_result = {
  sh_plan : (float * Sim.Fault.action) list;  (** the minimal reproducer *)
  sh_runs : int;  (** re-runs spent *)
  sh_oracle : string;  (** the oracle the minimal plan still trips *)
}

(** [shrink ?failpoint ~seed config plan ~oracle] minimizes [plan]
    while the named oracle keeps firing: greedy event removal to a
    fixpoint, per-event time bisection toward the window start, then
    partition-component narrowing. A candidate that trips only a
    {e different} oracle is rejected — the reproducer explains the
    original failure. Bounded by [config.f_shrink_runs] re-runs.
    [specs] re-arms the same spec machines on every candidate run, so
    [spec:<name>] oracles shrink like any other; [monitors] likewise. *)
val shrink :
  ?failpoint:string ->
  ?specs:Spec.spec list ->
  ?spec_deadline_us:float ->
  ?monitors:monitor list ->
  seed:int ->
  config ->
  (float * Sim.Fault.action) list ->
  oracle:string ->
  shrink_result

(** [validate_config c] rejects a config no run can honour: [servers]
    odd or below 2, [clients] below 1, a negative count, a time that is
    negative or not finite, or [deadline_us + settle_us >= horizon_us].
    @raise Invalid_argument naming the offending field. *)
val validate_config : config -> unit

val encode_config : config -> string

(** @raise Invalid_argument as {!validate_config}. *)
val decode_config : Sim.Jin.t -> config

(** [add_report ~name ~seed config oc] adds one {!Report} scenario
    for the case: the config as params; a summary of acked appends,
    commits, aborts, applied fault events and violations; the run's
    metrics; and its timeseries, alerts, violations, spec firings,
    flight snapshots and spans when the run produced them. No-op while
    the report collector is disabled. *)
val add_report : name:string -> seed:int -> config -> outcome -> unit
