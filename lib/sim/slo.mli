(** Declarative SLO monitors with multi-window burn-rate alerting.

    A monitor watches one {!Timeseries} column (an append-latency p99,
    a playback-lag watermark, an error rate). Every sealed window is
    classified good or bad against a threshold; the monitor computes
    how fast the bad-window fraction is burning the error budget
    [1 - objective] over a {e fast} and a {e slow} trailing window,
    and fires only when {e both} exceed the [burn] multiplier — the
    classic pairing: the fast window gives low detection latency, the
    slow window keeps a single bad blip from paging.

    Alert transitions (fire and resolve) are appended to a
    deterministic, virtually-timestamped stream: alerts are stamped at
    the end of the window that caused the transition, so two same-seed
    runs produce byte-identical {!alerts_json}. Every transition is
    also announced as an {!Announce.Slo_alert} milestone — the stream
    listeners (the flight recorder among them) consume — and a firing
    takes a flight snapshot when the recorder is armed.

    Evaluation is O(1) per window per monitor (a classification bit
    ring with incremental fast/slow counts) and runs on the
    {!Timeseries.on_window_close} hook. State is engine-reset, like
    {!Metrics}. *)

type monitor

(** [monitor ~name ~series ~col ?kind ~threshold ~objective ()]
    registers a monitor on {!Timeseries} series/column (resolved
    lazily, so monitors may be declared before the source exists).
    A window is {e bad} when its value is above ([?kind = `Above],
    default) or below ([`Below]) [threshold]; windows with [nan]
    values count as good. [objective] is the target good-window
    fraction in [0, 1) — the error budget is [1 - objective].
    [fast_windows] (default 3) and [slow_windows] (default 12) are the
    two trailing evaluation horizons; the monitor fires when both burn
    rates reach [burn] (default 2.0) and resolves when either drops
    back under. *)
val monitor :
  name:string ->
  series:string ->
  col:string ->
  ?kind:[ `Above | `Below ] ->
  threshold:float ->
  objective:float ->
  ?fast_windows:int ->
  ?slow_windows:int ->
  ?burn:float ->
  unit ->
  monitor

(** [feed m v] pushes one synthetic window value through [m]'s
    burn-rate machinery, bypassing {!Timeseries} — the unit-test and
    [slo.eval] bench-kernel entry point. *)
val feed : monitor -> float -> unit

val firing : monitor -> bool

(** [resolved m] is [true] once [m]'s series and column were found in
    {!Timeseries}; until then window evaluation skips it, so a monitor
    that never resolves judged nothing. *)
val resolved : monitor -> bool

type alert = {
  al_time : float;  (** virtual µs of the causing window's end *)
  al_monitor : string;
  al_firing : bool;  (** [true] = fired, [false] = resolved *)
  al_burn_fast : float;
  al_burn_slow : float;
  al_value : float;  (** the window value that tipped the transition *)
}

(** Alert transitions of the run, oldest first. *)
val alerts : unit -> alert list

(** Canonical JSON array of {!alerts} — the report's [alerts] section.
    Byte-identical across two same-seed runs. *)
val alerts_json : unit -> string
