(* Simulation fuzzer: explore randomized fault plans against randomized
   multi-client workloads, check the global invariants ({!Verifier})
   after every run, and shrink failing plans to minimal reproducers.

   A fuzz case is a pure function of (seed, config, plan): the engine,
   the fault controller, and every workload generator derive their
   randomness from [seed], and the plan is data ({!Sim.Fault}'s
   serializable actions). Replaying the same triple reproduces the same
   virtual-time trace byte for byte — which is what makes shrinking
   (re-running candidate sub-plans) and CI replay gates possible. *)

open Corfu

type config = {
  f_servers : int;  (* storage nodes at boot, chains of 2 *)
  f_clients : int;  (* appender + transactor pair per client *)
  f_appends : int;  (* raw appends per appender *)
  f_txs : int;  (* transactions per transactor *)
  f_events : int;  (* primary fault events (recovery partners extra) *)
  f_fault_at_us : float;  (* first fault no earlier than this *)
  f_fault_window_us : float;  (* faults land inside this window *)
  f_deadline_us : float;  (* workload must finish by then *)
  f_repair_margin_us : float;  (* make-whole runs this long after the last planned fault *)
  f_settle_us : float;  (* quiesce before the oracle phase *)
  f_horizon_us : float;  (* hard virtual-time ceiling for one run *)
  f_shrink_runs : int;  (* shrink budget, counted in re-runs *)
}

let default_config =
  {
    f_servers = 6;
    f_clients = 3;
    f_appends = 18;
    f_txs = 8;
    f_events = 6;
    f_fault_at_us = 15_000.;
    f_fault_window_us = 130_000.;
    f_deadline_us = 3_000_000.;
    f_repair_margin_us = 50_000.;
    f_settle_us = 400_000.;
    f_horizon_us = 10_000_000.;
    f_shrink_runs = 250;
  }

type monitor = {
  mo_name : string;
  mo_series : string;  (* Timeseries series, e.g. "hist:fz-app-1.append.e2e_us" *)
  mo_col : string;
  mo_threshold : float;
  mo_objective : float;
}

let validate_monitor m =
  let bad what = invalid_arg (Printf.sprintf "Fuzz monitor %S: %s" m.mo_name what) in
  if m.mo_name = "" then bad "name must be non-empty";
  if m.mo_series = "" then bad "series must be non-empty";
  if m.mo_col = "" then bad "col must be non-empty";
  if not (Float.is_finite m.mo_threshold) then
    bad (Printf.sprintf "threshold = %g, must be finite" m.mo_threshold);
  if not (m.mo_objective >= 0. && m.mo_objective < 1.) then
    bad (Printf.sprintf "objective = %g, must be in [0, 1)" m.mo_objective)

type case = {
  sc_name : string;
  sc_seed : int;
  sc_config : config;
  sc_plan : (float * Sim.Fault.action) list;
  sc_specs : Spec.spec list;
  sc_spec_deadline_us : float option;
  sc_failpoint : string option;
  sc_monitors : monitor list;
}

let workload_streams = [| 10; 11; 12 |]
let map_oid = 1
let set_oid = 2

(* ------------------------------------------------------------------ *)
(* Plan generation                                                    *)
(* ------------------------------------------------------------------ *)

(* The generator is make-whole by construction — every crash gets a
   restart, every partition a heal, every degraded edge a clear, every
   failed SSD a repair — and storage-affecting faults are serialized
   into disjoint windows on distinct chains, so at least one replica of
   every acked entry survives every instant of the plan. A clean build
   must therefore produce {e zero} violations on any seed; a violation
   is a bug, not noise. Sequencer RPCs carry deadlines like every
   other RPC, but nothing yet notices a dead sequencer and replaces
   it, so the generator still keeps the sequencer and the auxiliary
   reachable: sequencer loss is exercised through [replace-sequencer]
   customs (the §5 reconfiguration). *)
let gen_plan ~seed config =
  let rng = Sim.Rng.create (0x5EED0 + seed) in
  let chains = max 1 (config.f_servers / 2) in
  let chain_used = Array.make chains false in
  let free_chain () =
    let free =
      List.filter (fun i -> not chain_used.(i)) (List.init chains (fun i -> i))
    in
    match free with
    | [] -> None
    | l ->
        let c = List.nth l (Sim.Rng.int rng (List.length l)) in
        chain_used.(c) <- true;
        Some c
  in
  let member_of c = Printf.sprintf "storage-%d" ((2 * c) + Sim.Rng.int rng 2) in
  let partition_used = ref false in
  let scale_in_used = ref false in
  (* Storage-affecting faults get serialized slots: detection (~40ms),
     replacement, and the paired recovery all finish before the next
     slot opens, so no two chains are degraded at once. *)
  let storage_slot = ref 0 in
  let t_storage () =
    let s = !storage_slot in
    incr storage_slot;
    config.f_fault_at_us +. (float_of_int s *. 70_000.) +. Sim.Rng.float rng 10_000.
  in
  let t_any () = config.f_fault_at_us +. Sim.Rng.float rng config.f_fault_window_us in
  let pair_dt () = 12_000. +. Sim.Rng.float rng 28_000. in
  let events = ref [] in
  let push e = events := e :: !events in
  let push_replace_sequencer () = push (t_any (), Chaos.custom Replace_sequencer) in
  for _ = 1 to config.f_events do
    match Sim.Rng.int rng 8 with
    | 0 | 1 -> (
        (* storage-node crash + restart; the failure monitor replaces
           the dead member from the surviving replica *)
        match free_chain () with
        | Some c ->
            let h = member_of c in
            let t = t_storage () in
            push (t, Sim.Fault.Crash h);
            push (t +. pair_dt (), Sim.Fault.Restart h)
        | None -> push_replace_sequencer ())
    | 2 -> (
        (* isolate one storage node, then heal; only one partition per
           plan because components are global controller state *)
        match if !partition_used then None else free_chain () with
        | Some c ->
            partition_used := true;
            let h = member_of c in
            let t = t_storage () in
            push (t, Sim.Fault.Partition [ [ h ] ]);
            push (t +. pair_dt (), Sim.Fault.Heal)
        | None -> push_replace_sequencer ())
    | 3 -> (
        (* SSD failure -> monitor-driven node replacement *)
        match free_chain () with
        | Some c ->
            let h = member_of c in
            let t = t_storage () in
            push (t, Chaos.custom (Ssd_fail h));
            push (t +. pair_dt (), Chaos.custom (Ssd_repair h))
        | None -> push_replace_sequencer ())
    | 4 ->
        (* lossy, slow edge between one appender and one storage node;
           storage RPCs carry timeouts, so drops only cost retries *)
        let src = Printf.sprintf "fz-app-%d" (1 + Sim.Rng.int rng config.f_clients) in
        let dst = Printf.sprintf "storage-%d" (Sim.Rng.int rng config.f_servers) in
        let t = t_any () in
        push
          ( t,
            Sim.Fault.Degrade
              {
                d_src = src;
                d_dst = dst;
                d_drop = 0.05 +. Sim.Rng.float rng 0.25;
                d_delay_us = 100. +. Sim.Rng.float rng 300.;
                d_jitter_us = Sim.Rng.float rng 200.;
              } );
        push (t +. pair_dt (), Sim.Fault.Clear_edge (src, dst))
    | 5 | 6 -> push_replace_sequencer ()
    | _ ->
        (* online reshaping; +-2 servers keeps every chain at length 2.
           At most one scale-in so the tail can never shrink below one
           chain even when scale events race. *)
        if (not !scale_in_used) && Sim.Rng.bool rng 0.5 then begin
          scale_in_used := true;
          push (t_any (), Chaos.custom (Scale_in 2))
        end
        else push (t_any (), Chaos.custom (Scale_out 2))
  done;
  List.sort (fun (a, _) (b, _) -> Float.compare a b) !events

(* ------------------------------------------------------------------ *)
(* One fuzz run                                                       *)
(* ------------------------------------------------------------------ *)

type outcome = {
  oc_violations : Verifier.violation list;
  oc_acked : int;  (* raw appends acked *)
  oc_committed : int;
  oc_aborted : int;
  oc_fault_events : int;  (* fault actions actually applied *)
  oc_spec_firings : Spec.firing list;  (* online spec-machine firings, oldest first *)
  oc_end_us : float;  (* virtual time when the oracle phase finished *)
  oc_metrics_json : string;  (* canonical dump; byte-identical on replay *)
  oc_spans_json : string option;  (* when capture_spans *)
  oc_flight_json : string option;  (* flight snapshots, when any fired *)
  oc_alerts : Sim.Slo.alert list;  (* monitor transitions, oldest first *)
  oc_alerts_json : string option;  (* when monitors were armed *)
  oc_timeseries_json : string option;  (* when monitors were armed *)
}

let run ?(capture_spans = false) case =
  let { sc_seed = seed; sc_config = config; sc_plan = plan; sc_specs = specs; _ } = case in
  List.iter validate_monitor case.sc_monitors;
  Chaos.validate_plan plan;
  Tango.Runtime.reset_failpoints ();
  Option.iter Tango.Runtime.enable_failpoint case.sc_failpoint;
  (* Arm the flight recorder so any oracle violation ships with its
     last-N-events context; restored to the caller's setting on exit. *)
  let flight_was = Sim.Flight.enabled () in
  Sim.Flight.set_enabled true;
  Fun.protect ~finally:(fun () ->
      Tango.Runtime.reset_failpoints ();
      Sim.Flight.set_enabled flight_was)
  @@ fun () ->
  let violations = ref [] in
  let blame oracle fmt =
    Printf.ksprintf
      (fun detail ->
        violations := { Verifier.v_oracle = oracle; v_detail = detail } :: !violations)
      fmt
  in
  let acked = ref [] in
  let acked_streams = ref [] in
  let committed = ref 0 in
  let aborted = ref 0 in
  let probes = ref [] in
  let fault_events = ref 0 in
  let end_us = ref 0. in
  let metrics_json = ref "" in
  let oracle_violations = ref [] in
  let spec_plane = ref None in
  let armed = ref [] in
  let main () =
    let cluster = Cluster.create ~servers:config.f_servers () in
    Cluster.start_failure_monitor cluster;
    let fault = Chaos.install ~seed ~plan cluster in
    (* -------- online spec machines: a dedicated follower client
       discharges readability obligations by stream visibility (raw
       offset reads would miss broken backpointer chains) *)
    if specs <> [] then begin
      let pc = Cluster.new_client cluster ~name:"fz-spec-probe" in
      let followers =
        Array.to_list workload_streams |> List.map (fun sid -> (sid, Stream.attach pc sid))
      in
      let follow () =
        List.concat_map
          (fun (sid, s) ->
            ignore (Stream.sync s);
            let rec fetch acc =
              match Stream.readnext s with
              | Some (off, _) -> fetch ((sid, off) :: acc)
              | None -> List.rev acc
            in
            fetch [])
          followers
      in
      (* Second-chance probe for a past-due obligation: a from-scratch
         walk of the whole chain (fresh attach, same client cache). The
         incremental follower above can hold a stale junk verdict for a
         slot whose fill raced a partition-delayed write and lost to
         the rebuild; a fresh walk sees the repaired chain, while a
         genuinely broken chain (skip-rebuild-scan) stays invisible. *)
      let confirm ~stream ~offset =
        let s = Stream.attach pc stream in
        ignore (Stream.sync s);
        let rec scan () =
          match Stream.readnext s with
          | Some (off, _) -> off = offset || scan ()
          | None -> false
        in
        scan ()
      in
      spec_plane :=
        Some
          (Spec.arm ~specs ?commit_deadline_us:case.sc_spec_deadline_us
             ?reconfig_deadline_us:case.sc_spec_deadline_us
             ~streams:(Array.to_list workload_streams) ~follow ~confirm ())
    end;
    (* -------- workload: per client, one appender + one transactor *)
    let total_fibers = 2 * config.f_clients in
    let done_count = ref 0 in
    let runtimes = ref [] in
    for i = 1 to config.f_clients do
      let cl = Cluster.new_client cluster ~name:(Printf.sprintf "fz-app-%d" i) in
      Sim.Engine.spawn (fun () ->
          let wrng = Sim.Rng.create ((seed * 7919) + i) in
          for j = 1 to config.f_appends do
            let s = Sim.Rng.int wrng (Array.length workload_streams) in
            let streams =
              if Sim.Rng.bool wrng 0.2 then
                [
                  workload_streams.(s);
                  workload_streams.((s + 1) mod Array.length workload_streams);
                ]
              else [ workload_streams.(s) ]
            in
            let payload = Bytes.of_string (Printf.sprintf "c%d-a%d" i j) in
            let off = Client.append cl ~streams payload in
            acked := (off, payload) :: !acked;
            List.iter (fun sid -> acked_streams := (sid, off) :: !acked_streams) streams;
            Sim.Engine.sleep (200. +. Sim.Rng.float wrng 1_500.)
          done;
          incr done_count);
      let rt = Tango.Runtime.create (Cluster.new_client cluster ~name:(Printf.sprintf "fz-rt-%d" i)) in
      let m = Tango_objects.Tango_map.attach rt ~oid:map_oid in
      let st = Tango_objects.Tango_set.attach rt ~oid:set_oid in
      runtimes := (Printf.sprintf "fz-rt-%d" i, m, st) :: !runtimes;
      Sim.Engine.spawn (fun () ->
          let wrng = Sim.Rng.create ((seed * 104729) + i) in
          for j = 1 to config.f_txs do
            let tag = Printf.sprintf "t%d-%d" i j in
            Tango.Runtime.begin_tx rt;
            (* read-modify-write on a shared key: forced conflicts keep
               the abort path of the atomicity oracle exercised *)
            let v =
              match Tango_objects.Tango_map.get m "ctr" with
              | Some x -> ( match int_of_string_opt x with Some n -> n | None -> 0)
              | None -> 0
            in
            Tango_objects.Tango_map.put m "ctr" (string_of_int (v + 1));
            Tango_objects.Tango_map.put m tag "1";
            Tango_objects.Tango_set.add st tag;
            (match Tango.Runtime.end_tx rt with
            | Tango.Runtime.Committed ->
                incr committed;
                probes := (tag, true) :: !probes
            | Tango.Runtime.Aborted ->
                incr aborted;
                probes := (tag, false) :: !probes);
            Sim.Engine.sleep (500. +. Sim.Rng.float wrng 2_000.)
          done;
          incr done_count)
    done;
    (* -------- SLO monitors. The ticker tracks only the metrics
       registered before it starts, so it starts once every workload
       client and runtime exists. *)
    if case.sc_monitors <> [] then begin
      Sim.Timeseries.start ();
      armed :=
        List.map
          (fun m ->
            ( m,
              Sim.Slo.monitor ~name:m.mo_name ~series:m.mo_series ~col:m.mo_col
                ~threshold:m.mo_threshold ~objective:m.mo_objective () ))
          case.sc_monitors
    end;
    (* -------- wait for the workload, bounded by the deadline.
       Liveness is judged against a {e whole} system: shortly after the
       last planned fault the harness repairs anything the plan left
       broken (shrinking routinely drops heals and restarts), and only
       a workload that still cannot finish by the deadline is a
       violation. Without the early repair, the deadline oracle would
       fire on any shrunk plan that leaves a projection member
       unreachable — a fundamental stall, not a bug — and shrinkers
       would converge on that instead of the original failure. *)
    let rec await until =
      if !done_count < total_fibers && Sim.Engine.now () < until then begin
        Sim.Engine.sleep 2_000.;
        await until
      end
    in
    let whole_at =
      let last = List.fold_left (fun acc (at, _) -> Float.max acc at) config.f_fault_at_us plan in
      Float.min (last +. config.f_repair_margin_us) config.f_deadline_us
    in
    await whole_at;
    Chaos.make_whole fault plan;
    await config.f_deadline_us;
    if !done_count < total_fibers then
      blame "liveness" "%d/%d workload fibers finished by the %.0fus deadline" !done_count
        total_fibers config.f_deadline_us;
    (* -------- let the repaired system settle *)
    Sim.Engine.sleep config.f_settle_us;
    (* -------- give every pending spec obligation its deadline: a
       wedge fires here at the latest, always before [oc_end_us] *)
    (match !spec_plane with Some sp -> Spec.drain sp | None -> ());
    (* -------- oracle phase: fresh observers *)
    let obs = Cluster.new_client cluster ~name:"fz-observer" in
    let tail = Client.check obs in
    let resolved = Array.make (max tail 0) None in
    if tail > 0 then begin
      (* resolve the whole prefix in parallel: unwritten slots each
         wait out the fill timeout, and paying it once instead of
         [tail] times keeps the oracle phase inside the horizon *)
      let remaining = ref tail in
      let all_done = Sim.Ivar.create () in
      for off = 0 to tail - 1 do
        Sim.Engine.spawn (fun () ->
            resolved.(off) <- Some (Client.read_resolved obs off);
            decr remaining;
            if !remaining = 0 then Sim.Ivar.fill all_done ())
      done;
      Sim.Ivar.read all_done
    end;
    let payload_at off =
      if off < 0 || off >= tail then None
      else
        match resolved.(off) with
        | Some (Client.Data e) -> Some e.Types.payload
        | _ -> None
    in
    let resolve off =
      match resolved.(off) with
      | Some (Client.Data _) -> `Data
      | Some (Client.Junk | Client.Trimmed) -> `Junk
      | Some Client.Unwritten | None -> `Unresolved
    in
    let view name =
      let c = Cluster.new_client cluster ~name in
      Array.to_list workload_streams
      |> List.map (fun sid ->
             let s = Stream.attach c sid in
             ignore (Stream.sync s);
             let rec drain acc =
               match Stream.readnext s with
               | Some (off, _) -> drain (off :: acc)
               | None -> List.rev acc
             in
             (sid, drain []))
    in
    let views = [ ("fz-view-a", view "fz-view-a"); ("fz-view-b", view "fz-view-b") ] in
    let state_of m st =
      ignore (Tango_objects.Tango_map.get m "ctr");
      (* a linearizable get forces a full sync *)
      let bs = List.sort compare (Tango_objects.Tango_map.bindings m) in
      let es = Tango_objects.Tango_set.elements st in
      Printf.sprintf "map{%s}set{%s}"
        (String.concat ";" (List.map (fun (k, v) -> k ^ "=" ^ v) bs))
        (String.concat ";" es)
    in
    let ort = Tango.Runtime.create (Cluster.new_client cluster ~name:"fz-rt-obs") in
    let om = Tango_objects.Tango_map.attach ort ~oid:map_oid in
    let os = Tango_objects.Tango_set.attach ort ~oid:set_oid in
    let states =
      ("fz-rt-obs", state_of om os)
      :: List.rev_map (fun (name, m, st) -> (name, state_of m st)) !runtimes
    in
    let tx_probes =
      List.rev_map
        (fun (tag, ok) ->
          {
            Verifier.t_tag = tag;
            t_committed = ok;
            t_in_map = Tango_objects.Tango_map.mem om tag;
            t_in_set = Tango_objects.Tango_set.mem os tag;
          })
        !probes
    in
    (* serializability of the shared counter: every committed
       transaction incremented it exactly once *)
    let ctr =
      match Tango_objects.Tango_map.get om "ctr" with
      | Some x -> ( match int_of_string_opt x with Some n -> n | None -> -1)
      | None -> 0
    in
    if ctr <> !committed then
      blame "serializability" "shared counter is %d after %d committed increments" ctr !committed;
    oracle_violations :=
      Verifier.durability ~acked:(List.rev !acked) ~read:payload_at
      @ Verifier.hole_freedom ~tail ~resolve
      @ Verifier.stream_order ~acked:(List.rev !acked_streams) ~views
      @ Verifier.convergence ~states
      @ Verifier.atomicity ~txs:tx_probes
      @ Verifier.replication ~chain_length:2 (Auxiliary.latest (Cluster.auxiliary cluster));
    fault_events := List.length (Sim.Fault.events fault);
    (* Freeze the flight rings while the virtual clock still runs, so
       the incident document carries the real violation time. *)
    if !oracle_violations <> [] || !violations <> [] then
      Sim.Flight.snapshot ~reason:"fuzz-oracle";
    end_us := Sim.Engine.now ();
    metrics_json := Sim.Metrics.to_json ()
  in
  let spans_json = ref None in
  let body () = Sim.Engine.run ~seed ~until:config.f_horizon_us main in
  (try
     if capture_spans then begin
       let (), spans = Sim.Span.capture body in
       spans_json := Some spans
     end
     else body ()
   with
  | Sim.Engine.Horizon_reached h ->
      blame "liveness" "virtual-time horizon %.0fus reached before the oracle phase finished" h
  | Sim.Engine.Deadlock -> blame "liveness" "simulation deadlocked"
  | e -> blame "exception" "%s" (Printexc.to_string e));
  let spec_firings = match !spec_plane with Some sp -> Spec.firings sp | None -> [] in
  let spec_violations = match !spec_plane with Some sp -> Spec.violations sp | None -> [] in
  (* Horizon overruns, deadlocks, and escaped exceptions unwind before
     the in-run snapshot; capture what the rings held at the abort. *)
  if
    (!violations <> [] || !oracle_violations <> [] || spec_violations <> [])
    && Sim.Flight.snapshot_count () = 0
  then Sim.Flight.snapshot ~reason:"fuzz-abort";
  let flight_json =
    if Sim.Flight.snapshot_count () > 0 then Some (Sim.Flight.dump_json ()) else None
  in
  (* A monitor whose series never appeared judged nothing: its silence
     is a typo in the case, not a pass. *)
  List.iter
    (fun (m, sm) ->
      if not (Sim.Slo.resolved sm) then
        invalid_arg
          (Printf.sprintf "Fuzz monitor %S: series %S column %S never appeared" m.mo_name
             m.mo_series m.mo_col))
    !armed;
  let telemetry f = if !armed = [] then None else Some (f ()) in
  {
    (* spec firings lead: they carry the mid-run timestamp and are the
       preferred shrink target when several oracles condemn one run *)
    oc_violations = spec_violations @ List.rev !violations @ !oracle_violations;
    oc_acked = List.length !acked;
    oc_committed = !committed;
    oc_aborted = !aborted;
    oc_fault_events = !fault_events;
    oc_spec_firings = spec_firings;
    oc_end_us = !end_us;
    oc_metrics_json = !metrics_json;
    oc_spans_json = !spans_json;
    oc_flight_json = flight_json;
    oc_alerts = Sim.Slo.alerts ();
    oc_alerts_json = telemetry Sim.Slo.alerts_json;
    oc_timeseries_json = telemetry Sim.Timeseries.to_json;
  }

(* ------------------------------------------------------------------ *)
(* Shrinking                                                          *)
(* ------------------------------------------------------------------ *)

type shrink_result = {
  sh_plan : (float * Sim.Fault.action) list;
  sh_runs : int;  (* re-runs spent *)
  sh_oracle : string;  (* the oracle the minimal plan still trips *)
}

let sort_plan p = List.sort (fun (a, _) (b, _) -> Float.compare a b) p

(* Greedy ddmin-style minimization: single-event removal to a fixpoint,
   then per-event time bisection toward the fault window's start, then
   partition-component narrowing. The predicate is "the {e same}
   oracle still fires" — a candidate that merely trips a different
   invariant is rejected, so the reproducer explains the original
   failure, not a new one. Budgeted in re-runs ([f_shrink_runs]). *)
let shrink case ~oracle =
  let config = case.sc_config in
  let runs = ref 0 in
  let fails p =
    !runs < config.f_shrink_runs
    && begin
         incr runs;
         let oc = run { case with sc_plan = p } in
         List.exists (fun v -> String.equal v.Verifier.v_oracle oracle) oc.oc_violations
       end
  in
  (* 1. drop events, restarting the scan after every success *)
  let rec drop_pass p =
    let n = List.length p in
    let rec try_idx i p =
      if i >= List.length p then p
      else
        let cand = List.filteri (fun j _ -> j <> i) p in
        if fails cand then try_idx i cand else try_idx (i + 1) p
    in
    let p' = try_idx 0 p in
    if List.length p' < n then drop_pass p' else p'
  in
  let p = drop_pass case.sc_plan in
  (* 2. bisect each event's time toward the window start *)
  let floor_t = config.f_fault_at_us in
  let bisect p =
    List.fold_left
      (fun p i ->
        let rec go p steps =
          if steps = 0 then p
          else
            let t, a = List.nth p i in
            if t <= floor_t +. 1. then p
            else
              let cand =
                List.mapi (fun j e -> if j = i then (floor_t +. ((t -. floor_t) /. 2.), a) else e) p
              in
              if fails cand then go cand (steps - 1) else p
        in
        go p 3)
      p
      (List.init (List.length p) (fun i -> i))
  in
  let p = bisect p in
  (* 3. narrow partition components host by host *)
  let narrow_partition p =
    let rec at_idx i p =
      if i >= List.length p then p
      else
        match List.nth p i with
        | t, Sim.Fault.Partition comps when List.exists (fun c -> List.length c > 1) comps ->
            let rec drop_host p comps changed =
              let tried = ref false in
              let comps' =
                List.map
                  (fun c ->
                    if (not !tried) && List.length c > 1 then begin
                      tried := true;
                      List.tl c
                    end
                    else c)
                  comps
              in
              if not !tried then (p, comps, changed)
              else
                let cand =
                  List.mapi (fun j e -> if j = i then (t, Sim.Fault.Partition comps') else e) p
                in
                if fails cand then drop_host cand comps' true else (p, comps, changed)
            in
            let p, _, _ = drop_host p comps false in
            at_idx (i + 1) p
        | _ -> at_idx (i + 1) p
    in
    at_idx 0 p
  in
  let p = narrow_partition p in
  { sh_plan = sort_plan p; sh_runs = !runs; sh_oracle = oracle }

(* ------------------------------------------------------------------ *)
(* Config codec and run reports                                       *)
(* ------------------------------------------------------------------ *)

(* A case the harness cannot run is malformed input, not a finding:
   without this, [servers = 3] surfaces as an ["exception"] violation
   and a negative deadline as ["liveness"]. *)
let validate_config c =
  let check ok field v rule =
    if not ok then invalid_arg (Printf.sprintf "Fuzz config: %s = %s, must be %s" field v rule)
  in
  check (c.f_servers >= 2 && c.f_servers mod 2 = 0) "servers" (string_of_int c.f_servers)
    "even and >= 2";
  check (c.f_clients >= 1) "clients" (string_of_int c.f_clients) ">= 1";
  List.iter
    (fun (k, n) -> check (n >= 0) k (string_of_int n) ">= 0")
    [
      ("appends", c.f_appends);
      ("txs", c.f_txs);
      ("events", c.f_events);
      ("shrink_runs", c.f_shrink_runs);
    ];
  List.iter
    (fun (k, v) -> check (Float.is_finite v && v >= 0.) k (Printf.sprintf "%g" v) "finite and >= 0")
    [
      ("fault_at_us", c.f_fault_at_us);
      ("fault_window_us", c.f_fault_window_us);
      ("deadline_us", c.f_deadline_us);
      ("repair_margin_us", c.f_repair_margin_us);
      ("settle_us", c.f_settle_us);
      ("horizon_us", c.f_horizon_us);
    ];
  check
    (c.f_deadline_us +. c.f_settle_us < c.f_horizon_us)
    "deadline_us + settle_us"
    (Printf.sprintf "%g" (c.f_deadline_us +. c.f_settle_us))
    (Printf.sprintf "< horizon_us (%g)" c.f_horizon_us)

(* Each field as a JSON number literal. *)
let config_fields c =
  let num = Sim.Jout.exact in
  [
    ("servers", string_of_int c.f_servers);
    ("clients", string_of_int c.f_clients);
    ("appends", string_of_int c.f_appends);
    ("txs", string_of_int c.f_txs);
    ("events", string_of_int c.f_events);
    ("fault_at_us", num c.f_fault_at_us);
    ("fault_window_us", num c.f_fault_window_us);
    ("deadline_us", num c.f_deadline_us);
    ("repair_margin_us", num c.f_repair_margin_us);
    ("settle_us", num c.f_settle_us);
    ("horizon_us", num c.f_horizon_us);
    ("shrink_runs", string_of_int c.f_shrink_runs);
  ]

let encode_config c = Sim.Jout.obj (config_fields c)

let decode_config v =
  let int k = Sim.Jin.to_int (Sim.Jin.member k v) in
  let flt k = Sim.Jin.to_float (Sim.Jin.member k v) in
  let c =
    {
      f_servers = int "servers";
      f_clients = int "clients";
      f_appends = int "appends";
      f_txs = int "txs";
      f_events = int "events";
      f_fault_at_us = flt "fault_at_us";
      f_fault_window_us = flt "fault_window_us";
      f_deadline_us = flt "deadline_us";
      f_repair_margin_us = flt "repair_margin_us";
      f_settle_us = flt "settle_us";
      f_horizon_us = flt "horizon_us";
      f_shrink_runs = int "shrink_runs";
    }
  in
  validate_config c;
  c

let add_report case oc =
  let count n = float_of_int n in
  Report.add_scenario ~name:case.sc_name ~seed:case.sc_seed
    ~params:(config_fields case.sc_config)
    ~summary:
      [
        ("acked_appends", count oc.oc_acked);
        ("committed", count oc.oc_committed);
        ("aborted", count oc.oc_aborted);
        ("fault_events", count oc.oc_fault_events);
        ("violations", count (List.length oc.oc_violations));
      ]
    ?timeseries_json:oc.oc_timeseries_json ?alerts_json:oc.oc_alerts_json
    ~violations:(List.map (fun v -> (v.Verifier.v_oracle, v.Verifier.v_detail)) oc.oc_violations)
    ?spec_firings_json:
      (match oc.oc_spec_firings with
      | [] -> None
      | fs -> Some (Sim.Jout.arr (List.map Spec.firing_json fs)))
    ?flight_json:oc.oc_flight_json ?spans_json:oc.oc_spans_json ~virtual_end_us:oc.oc_end_us
    ~metrics_json:oc.oc_metrics_json ()
