(** Config-driven scenario driver (DESIGN.md §12).

    A scenario names everything one fuzz case needs: seed, topology
    and workload mix ({!Fuzz.config}), an explicit fault plan, the
    {!Spec} machines and SLO monitors to arm, and optionally a
    failpoint. Scenarios
    serialize to a versioned JSON document, so the interesting test
    matrix lives in files and CI steps, not in code — the [logConfig]
    pattern from the verified-distributed-log exemplar. It is the one
    run format: [tangoctl fuzz run --plan-out] and [fuzz shrink --out]
    write the shrunk reproducer as a scenario carrying the specs and
    failpoint that made it fail, and the operational demos (sequencer
    failover, transactional soak, SLO monitors) are built-in
    scenarios. *)

(** The fuzz case that {!Fuzz.run} runs and {!Fuzz.shrink} shrinks.
    The document carries a ["monitors"] key only when [sc_monitors] is
    non-empty. *)
type t = Fuzz.case

val encode : t -> string

(** @raise Sim.Jin.Parse_error on malformed JSON.
    @raise Invalid_argument on an unknown version or spec name, a
    config {!Fuzz.validate_config} rejects, a negative event time, a
    custom action that names no {!Chaos.op}, a [spec_deadline_us] that
    is not finite, not positive or not below [horizon_us], or a
    monitor {!Fuzz.validate_monitor} rejects. *)
val decode : string -> t

(** Built-in scenarios: ["sequencer-takeover-under-partition"] — a
    sequencer replacement racing a storage-node partition, the repo's
    analog of the exemplar's producer takeover —,
    ["crash-restart-baseline"], ["sequencer-failover"] (§5 sequencer
    replacement under load), ["tx-soak"] (4 clients × 100
    transactions, no faults), and the SLO pair ["slo-clean"] /
    ["slo-degraded-uplink"], whose monitors must stay silent on the
    first and fire [append-p99] on the second, ["sequencer-lossy-uplink"]
    (lost grants retried at their deadlines), and ["chaos-smoke"] (a
    chain-member crash, a lossy client uplink and a sequencer
    replacement in one run, every spec armed). *)
val builtins : t list

val find : string -> t option
