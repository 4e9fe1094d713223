(** Online temporal spec machines for the fuzzer (DESIGN.md §12).

    Post-hoc safety oracles ({!Verifier}) can prove a settled run
    wrong, but they cannot see a run that never settles, or a reader
    that briefly observed an undecided transaction. Spec machines
    subscribe to the {!Sim.Announce} instrumentation bus and evaluate
    temporal properties {e while the run executes}, firing with the
    virtual timestamp of the violation:

    - {b CommitDurability/Liveness} ([commit-liveness]): every acked
      append becomes stream-readable within a deadline. The clock is
      suspended while any repairable fault is outstanding and restarts
      from the last repair — liveness is only promised of a whole
      system (the fuzzer's make-whole contract, {!Fuzz}).
    - {b ReadCommitted} ([read-committed]): no runtime playback ever
      applies a transaction's writes while that runtime's commit/abort
      decision is still unrecorded (the §3c decision-then-apply
      discipline). Purely event-driven; no deadline.
    - {b ReconfigTermination} ([reconfig-termination]): every
      seal/scale/replace that starts installs a new projection epoch
      within a deadline (same fault-suspension rule as liveness).

    Both deadlines are one value, 400 ms of virtual time unless the
    fuzz case sets its own, and a checker fiber looks for overdue
    obligations every 10 ms of virtual time.

    Determinism: machines run inside the simulation — the checker is
    an ordinary fiber, so arming a machine changes the event schedule,
    but identically for identical (seed, config, specs). Firings
    trigger {!Sim.Flight} snapshots (reason [spec:<name>], first
    firing per machine) and convert to {!Verifier.violation}s with
    oracle [spec:<name>], which makes them first-class shrink targets
    for {!Fuzz.shrink}. *)

type spec = Commit_liveness | Read_committed | Reconfig_termination

val all : spec list

val name : spec -> string
(** Kebab-case wire name: ["commit-liveness"], ["read-committed"],
    ["reconfig-termination"]. *)

val of_name : string -> spec
(** @raise Invalid_argument on an unknown name. *)

type firing = { sp_spec : string; sp_time_us : float; sp_detail : string }

type t

val arm :
  specs:spec list ->
  ?deadline_us:float ->
  streams:int list ->
  follow:(unit -> (int * int) list) ->
  confirm:(stream:int -> offset:int -> bool) ->
  unit ->
  t
(** Arm the [specs] machines for the current engine run. An acked
    append must become readable, and a started reconfiguration must
    install, within [deadline_us] (default 400 ms virtual); a checker
    fiber looks every 10 ms of virtual time. [streams] names the
    stream ids whose acked appends carry a readability obligation,
    and [follow] is the harness-provided probe: called from the
    checker fiber, it returns the [(stream, offset)] members that
    became visible to a dedicated follower client since the last call
    — stream visibility, not raw offset reads, is what the log
    promises (a broken backpointer chain leaves an offset readable but
    unreachable). [confirm] is the second-chance probe consulted just
    before a commit-liveness firing: an incremental follower can hold
    a stale junk verdict for a slot that a concurrent fill briefly
    timed out on and a rebuild later repaired, so the obligation is
    condemned only if a from-scratch look (typically a fresh stream
    attach) also misses it.
    Must be called from inside {!Sim.Engine.run}. *)

val drain : t -> unit
(** Let every outstanding obligation resolve or fire before the run
    ends: re-probe, then sleep to the furthest pending deadline. A
    clean settled run returns without advancing time; a wedged one
    advances at most one deadline and fires. Call after the workload
    settles, before reading {!violations}. *)

val firings : t -> firing list
(** All firings so far, oldest first (capped per spec). *)

val violations : t -> Verifier.violation list
(** {!firings} as verifier violations, oracle [spec:<name>], the
    virtual timestamp embedded in the detail. *)

val firing_json : firing -> string
