(* Config-driven scenario driver: a named, versioned, serializable
   bundle of everything one fuzz case needs — topology and workload
   mix (the Fuzz.config), an explicit fault plan, the spec machines and
   SLO monitors to arm, and optionally a failpoint. The JSON form is the
   only run format: built-in matrices, hand-edited cases, operational
   demos and the fuzzer's shrunk reproducers are all scenario files,
   the way the P exemplar bundles a logConfig with the monitors its
   test machine announces. *)

type t = Fuzz.case

let version = 1

(* JSON has no NaN or infinity: a non-finite float is written as null
   and read back as nan, so validation rejects it by field name. *)
let num v = if Float.is_finite v then Sim.Jout.exact v else "null"
let to_num = function Sim.Jin.Null -> Float.nan | v -> Sim.Jin.to_float v

let encode_monitor (m : Fuzz.monitor) =
  Sim.Jout.obj
    [
      ("name", Sim.Jout.str m.mo_name);
      ("series", Sim.Jout.str m.mo_series);
      ("col", Sim.Jout.str m.mo_col);
      ("threshold", num m.mo_threshold);
      ("objective", num m.mo_objective);
    ]

let decode_monitor v =
  let str k = Sim.Jin.to_string (Sim.Jin.member k v) in
  let m =
    {
      Fuzz.mo_name = str "name";
      mo_series = str "series";
      mo_col = str "col";
      mo_threshold = to_num (Sim.Jin.member "threshold" v);
      mo_objective = to_num (Sim.Jin.member "objective" v);
    }
  in
  Fuzz.validate_monitor m;
  m

(* A deadline past the horizon can never fire: it would silently
   disarm both specs. *)
let validate_spec_deadline config d =
  if not (Float.is_finite d && d > 0. && d < config.Fuzz.f_horizon_us) then
    invalid_arg
      (Printf.sprintf "Scenario: spec_deadline_us = %g, must be finite, > 0 and < horizon_us (%g)"
         d config.Fuzz.f_horizon_us)

let encode (sc : t) =
  Sim.Jout.obj
    (List.concat
       [
         [
           ("version", string_of_int version);
           ("tool", Sim.Jout.str "tango-scenario");
           ("name", Sim.Jout.str sc.sc_name);
           ("seed", string_of_int sc.sc_seed);
           ("config", Fuzz.encode_config sc.sc_config);
           ("specs", Sim.Jout.arr (List.map (fun s -> Sim.Jout.str (Spec.name s)) sc.sc_specs));
         ];
         (match sc.sc_spec_deadline_us with
         | Some d -> [ ("spec_deadline_us", num d) ]
         | None -> []);
         (match sc.sc_failpoint with
         | Some fp -> [ ("failpoint", Sim.Jout.str fp) ]
         | None -> []);
         (match sc.sc_monitors with
         | [] -> []
         | ms -> [ ("monitors", Sim.Jout.arr (List.map encode_monitor ms)) ]);
         [ ("plan", Sim.Fault.encode_plan sc.sc_plan) ];
       ])

let decode s =
  let doc = Sim.Jin.parse s in
  let v = Sim.Jin.to_int (Sim.Jin.member "version" doc) in
  if v <> version then
    invalid_arg
      (Printf.sprintf "Scenario.decode: scenario version %d, this build reads %d" v version);
  let config = Fuzz.decode_config (Sim.Jin.member "config" doc) in
  let opt k f = Option.map f (Sim.Jin.member_opt k doc) in
  let plan = Sim.Fault.decode_plan_value (Sim.Jin.member "plan" doc) in
  Chaos.validate_plan plan;
  {
    Fuzz.sc_name = Sim.Jin.to_string (Sim.Jin.member "name" doc);
    sc_seed = Sim.Jin.to_int (Sim.Jin.member "seed" doc);
    sc_config = config;
    sc_plan = plan;
    sc_specs =
      List.map
        (fun v -> Spec.of_name (Sim.Jin.to_string v))
        (Sim.Jin.to_list (Sim.Jin.member "specs" doc));
    sc_spec_deadline_us =
      opt "spec_deadline_us" (fun v ->
          let d = to_num v in
          validate_spec_deadline config d;
          d);
    sc_failpoint = opt "failpoint" Sim.Jin.to_string;
    sc_monitors =
      Option.value ~default:[]
        (opt "monitors" (fun v -> List.map decode_monitor (Sim.Jin.to_list v)));
  }

(* ------------------------------------------------------------------ *)
(* Built-in scenarios                                                 *)
(* ------------------------------------------------------------------ *)

(* The repo's analog of the verified-log exemplar's producer takeover:
   one storage node is partitioned away, the sequencer is replaced
   {e while} the partition is up (the takeover's seal round must cope
   with an unreachable node), and the partition heals afterwards. A
   correct build sails through with every spec armed; the wedge-class
   regressions (lost rebuild scan, forgotten seal tail) fire
   commit-liveness mid-run. *)
let sequencer_takeover_under_partition =
  {
    Fuzz.sc_name = "sequencer-takeover-under-partition";
    sc_seed = 7;
    sc_config = { Fuzz.default_config with f_appends = 14; f_txs = 6 };
    sc_plan =
      [
        (25_000., Sim.Fault.Partition [ [ "storage-4" ] ]);
        (40_000., Chaos.custom Replace_sequencer);
        (90_000., Sim.Fault.Heal);
      ];
    sc_specs = Spec.all;
    sc_spec_deadline_us = None;
    sc_failpoint = None;
    sc_monitors = [];
  }

(* Minimal smoke: one crash/restart pair on a single chain, all specs
   armed. *)
let crash_restart_baseline =
  {
    Fuzz.sc_name = "crash-restart-baseline";
    sc_seed = 1;
    sc_config = { Fuzz.default_config with f_appends = 10; f_txs = 4 };
    sc_plan = [ (20_000., Sim.Fault.Crash "storage-2"); (55_000., Sim.Fault.Restart "storage-2") ];
    sc_specs = Spec.all;
    sc_spec_deadline_us = None;
    sc_failpoint = None;
    sc_monitors = [];
  }

(* The paper's §5 sequencer failover: the sequencer is replaced while
   the appenders and transactors are mid-run. *)
let sequencer_failover =
  {
    Fuzz.sc_name = "sequencer-failover";
    sc_seed = 1;
    sc_config = { Fuzz.default_config with f_appends = 60; f_txs = 20 };
    sc_plan = [ (40_000., Chaos.custom Replace_sequencer) ];
    sc_specs = Spec.all;
    sc_spec_deadline_us = None;
    sc_failpoint = None;
    sc_monitors = [];
  }

(* The §3.2 transactional soak: four clients each run 100 read-modify-
   write transactions over the shared map and set; no raw appends, no
   faults. *)
let tx_soak =
  {
    Fuzz.sc_name = "tx-soak";
    sc_seed = 1;
    sc_config = { Fuzz.default_config with f_clients = 4; f_appends = 0; f_txs = 100 };
    sc_plan = [];
    sc_specs = Spec.all;
    sc_spec_deadline_us = None;
    sc_failpoint = None;
    sc_monitors = [];
  }

(* Burn-rate monitors on the first client's append latency and its
   runtime's playback lag, over a longer fuzz workload. *)
let slo_clean =
  let monitor name series col threshold =
    {
      Fuzz.mo_name = name;
      mo_series = series;
      mo_col = col;
      mo_threshold = threshold;
      mo_objective = 0.9;
    }
  in
  {
    Fuzz.sc_name = "slo-clean";
    sc_seed = 1;
    sc_config = { Fuzz.default_config with f_appends = 300; f_txs = 60 };
    sc_plan = [];
    sc_specs = Spec.all;
    sc_spec_deadline_us = None;
    sc_failpoint = None;
    sc_monitors =
      [
        monitor "append-p99" "hist:fz-app-1.append.e2e_us" "p99" 1_500.;
        monitor "playback-lag" "probe:fz-rt-1.lag.playback" "max" 2_000.;
      ];
  }

(* The monitors' sensitivity case: the first appender's uplink slows by
   2.5 ms from 150 to 350 ms, which must fire append-p99 and take a
   flight snapshot. *)
let slo_degraded_uplink =
  {
    slo_clean with
    sc_name = "slo-degraded-uplink";
    sc_plan =
      [
        ( 150_000.,
          Sim.Fault.Degrade
            { d_src = "fz-app-1"; d_dst = "*"; d_drop = 0.; d_delay_us = 2_500.; d_jitter_us = 0. }
        );
        (350_000., Sim.Fault.Clear_edge ("fz-app-1", "*"));
      ];
  }

(* Sequencer RPCs under loss: the first appender's link to the
   sequencer drops 30% of its messages for 20 ms and then clears. A
   lost grant is unanswered at its deadline and the client retries, so
   every acked append still commits (commit-liveness armed) and the
   report counts the failed RPCs. *)
let sequencer_lossy_uplink =
  {
    Fuzz.sc_name = "sequencer-lossy-uplink";
    sc_seed = 1;
    sc_config = Fuzz.default_config;
    sc_plan =
      [
        ( 5_000.,
          Sim.Fault.Degrade
            {
              d_src = "fz-app-1";
              d_dst = "sequencer-0";
              d_drop = 0.3;
              d_delay_us = 0.;
              d_jitter_us = 0.;
            } );
        (25_000., Sim.Fault.Clear_edge ("fz-app-1", "sequencer-0"));
      ];
    sc_specs = [ Spec.Commit_liveness ];
    sc_spec_deadline_us = None;
    sc_failpoint = None;
    sc_monitors = [];
  }

(* CORFU's whole failure path in one run (§2.2, §5): a chain member
   crashes and the monitor seals, replaces and re-replicates it; the
   only appender's uplink then turns lossy and slow, so its RPCs expire
   and retry; and the sequencer is replaced while it appends, so it
   must wait at the auxiliary for the new epoch. The durability and
   replication oracles check every acked append and every chain. *)
let chaos_smoke =
  {
    Fuzz.sc_name = "chaos-smoke";
    sc_seed = 42;
    sc_config =
      { Fuzz.default_config with f_servers = 4; f_clients = 1; f_appends = 200; f_txs = 20 };
    sc_plan =
      [
        (30_000., Sim.Fault.Crash "storage-0");
        ( 55_000.,
          Sim.Fault.Degrade
            {
              d_src = "fz-app-1";
              d_dst = "*";
              d_drop = 0.05;
              d_delay_us = 150.;
              d_jitter_us = 100.;
            } );
        (80_000., Sim.Fault.Clear_edge ("fz-app-1", "*"));
        (120_000., Chaos.custom Replace_sequencer);
      ];
    sc_specs = Spec.all;
    sc_spec_deadline_us = None;
    sc_failpoint = None;
    sc_monitors = [];
  }

let builtins =
  [
    sequencer_takeover_under_partition;
    crash_restart_baseline;
    sequencer_failover;
    tx_soak;
    slo_clean;
    slo_degraded_uplink;
    sequencer_lossy_uplink;
    chaos_smoke;
  ]

let find name = List.find_opt (fun (sc : t) -> String.equal sc.sc_name name) builtins
