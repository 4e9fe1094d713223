(* Declarative SLO monitors with multi-window burn-rate evaluation.
   A monitor watches one Timeseries column; each sealed window is
   classified good/bad against the threshold, and the monitor fires
   when the bad-window fraction burns the error budget (1 - objective)
   faster than [burn] over BOTH the fast and the slow window — the
   standard fast-burn/slow-burn pairing: the fast window gives low
   detection latency, the slow window suppresses one-window blips.
   Evaluation is O(1) per window per monitor: a bit ring of the last
   [slow] classifications with incremental fast/slow bad counts. *)

type alert = {
  al_time : float;
  al_monitor : string;
  al_firing : bool;
  al_burn_fast : float;
  al_burn_slow : float;
  al_value : float;
}

type monitor = {
  m_name : string;
  m_series : string;
  m_col : string;
  m_above : bool;
  m_threshold : float;
  m_objective : float;
  m_fast : int;
  m_slow : int;
  m_burn : float;
  m_bad : Bytes.t;  (* classification ring, length m_slow *)
  mutable m_head : int;
  mutable m_n : int;  (* windows evaluated *)
  mutable m_bad_fast : int;
  mutable m_bad_slow : int;
  mutable m_firing : bool;
  mutable m_next_w : int;  (* next Timeseries window to evaluate *)
  mutable m_sel : Timeseries.sel option;  (* resolved lazily *)
}

let alerts_cap = 10_000

type state = {
  born : int;
  mutable mons : monitor array;
  mutable n : int;
  mutable alerts : alert list;  (* newest first *)
  mutable n_alerts : int;
  mutable hooked : bool;
}

let fresh ~born = { born; mons = [||]; n = 0; alerts = []; n_alerts = 0; hooked = false }

let current = ref (fresh ~born:0)

let state () =
  let rc = Engine.run_count () in
  if !current.born <> rc then current := fresh ~born:rc;
  !current

let transition st m ~time ~firing ~bf ~bs ~v =
  m.m_firing <- firing;
  let al =
    {
      al_time = time;
      al_monitor = m.m_name;
      al_firing = firing;
      al_burn_fast = bf;
      al_burn_slow = bs;
      al_value = v;
    }
  in
  if st.n_alerts < alerts_cap then begin
    st.alerts <- al :: st.alerts;
    st.n_alerts <- st.n_alerts + 1
  end;
  if Announce.active () then
    Announce.emit (Slo_alert { monitor = m.m_name; firing; burn_fast = bf });
  if firing && Flight.enabled () then Flight.snapshot ~reason:("slo:" ^ m.m_name)

let push st m ~time v =
  let bad =
    if Float.is_nan v then false
    else if m.m_above then v > m.m_threshold
    else v < m.m_threshold
  in
  if m.m_n >= m.m_slow then
    m.m_bad_slow <- m.m_bad_slow - Char.code (Bytes.get m.m_bad m.m_head);
  if m.m_n >= m.m_fast then begin
    let idx = (m.m_head + m.m_slow - m.m_fast) mod m.m_slow in
    m.m_bad_fast <- m.m_bad_fast - Char.code (Bytes.get m.m_bad idx)
  end;
  Bytes.set m.m_bad m.m_head (if bad then '\001' else '\000');
  m.m_head <- (if m.m_head + 1 = m.m_slow then 0 else m.m_head + 1);
  if bad then begin
    m.m_bad_fast <- m.m_bad_fast + 1;
    m.m_bad_slow <- m.m_bad_slow + 1
  end;
  m.m_n <- m.m_n + 1;
  let budget = 1. -. m.m_objective in
  let bf = float_of_int m.m_bad_fast /. float_of_int (Stdlib.min m.m_n m.m_fast) /. budget in
  let bs = float_of_int m.m_bad_slow /. float_of_int (Stdlib.min m.m_n m.m_slow) /. budget in
  let firing = bf >= m.m_burn && bs >= m.m_burn in
  if firing <> m.m_firing then transition st m ~time ~firing ~bf ~bs ~v

let eval () =
  let st = state () in
  let w = Timeseries.windows () in
  for i = 0 to st.n - 1 do
    let m = st.mons.(i) in
    (match m.m_sel with
    | None -> m.m_sel <- Timeseries.find ~series:m.m_series ~col:m.m_col
    | Some _ -> ());
    match m.m_sel with
    | None -> m.m_next_w <- w  (* series not registered yet; skip its windows *)
    | Some sel ->
        while m.m_next_w < w do
          let v = Timeseries.window_value sel m.m_next_w in
          (* Alerts are stamped at the window's end, so evaluation
             timing (in-run closer vs. post-run catch-up) never shifts
             the alert stream. *)
          let time = Timeseries.window_start m.m_next_w +. Timeseries.window_us () in
          push st m ~time v;
          m.m_next_w <- m.m_next_w + 1
        done
  done

let monitor ~name ~series ~col ?(kind = `Above) ~threshold ~objective ?(fast_windows = 3)
    ?(slow_windows = 12) ?(burn = 2.) () =
  if objective < 0. || objective >= 1. then
    invalid_arg "Slo.monitor: objective must be in [0, 1)";
  if fast_windows <= 0 || slow_windows < fast_windows then
    invalid_arg "Slo.monitor: need 0 < fast_windows <= slow_windows";
  if burn <= 0. then invalid_arg "Slo.monitor: burn must be positive";
  let st = state () in
  let m =
    {
      m_name = name;
      m_series = series;
      m_col = col;
      m_above = (kind = `Above);
      m_threshold = threshold;
      m_objective = objective;
      m_fast = fast_windows;
      m_slow = slow_windows;
      m_burn = burn;
      m_bad = Bytes.make slow_windows '\000';
      m_head = 0;
      m_n = 0;
      m_bad_fast = 0;
      m_bad_slow = 0;
      m_firing = false;
      m_next_w = Timeseries.windows ();
      m_sel = None;
    }
  in
  st.mons <- Array.append (Array.sub st.mons 0 st.n) [| m |];
  st.n <- st.n + 1;
  if not st.hooked then begin
    st.hooked <- true;
    Timeseries.on_window_close eval
  end;
  m

let feed m v =
  let time = try Engine.now () with Invalid_argument _ -> 0. in
  push (state ()) m ~time v

let firing m = m.m_firing
let resolved m = Option.is_some m.m_sel

let alerts () = List.rev (state ()).alerts

let alert_json al =
  Jout.obj
    [
      ("t_us", Jout.flt al.al_time);
      ("monitor", Jout.str al.al_monitor);
      ("state", Jout.str (if al.al_firing then "firing" else "resolved"));
      ("burn_fast", Jout.flt al.al_burn_fast);
      ("burn_slow", Jout.flt al.al_burn_slow);
      ("value", Jout.flt al.al_value);
    ]

let alerts_json () = Jout.arr (List.rev_map alert_json (state ()).alerts)
