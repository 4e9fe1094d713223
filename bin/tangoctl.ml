(* tangoctl: operational demos against a simulated Tango deployment.

     dune exec bin/tangoctl.exe -- cluster-info --servers 18
     dune exec bin/tangoctl.exe -- failover
     dune exec bin/tangoctl.exe -- gc
     dune exec bin/tangoctl.exe -- soak --clients 4 --ops 200
     dune exec bin/tangoctl.exe -- projection --servers 6 --add-servers 12 *)

open Cmdliner
open Tango_objects

let say fmt = Printf.printf (fmt ^^ "\n%!")

let write_file path contents =
  let oc = open_out path in
  output_string oc contents;
  output_char oc '\n';
  close_out oc

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

(* ------------------------------------------------------------------ *)
(* cluster-info                                                       *)
(* ------------------------------------------------------------------ *)

let cluster_info servers =
  Sim.Engine.run (fun () ->
      let cluster = Corfu.Cluster.create ~servers () in
      let proj = Corfu.Auxiliary.latest (Corfu.Cluster.auxiliary cluster) in
      say "CORFU deployment:";
      say "  storage servers : %d" (Corfu.Projection.num_servers proj);
      say "  replica sets    : %d (chain length %d)" (Corfu.Projection.num_sets proj)
        (Corfu.Projection.num_servers proj / Corfu.Projection.num_sets proj);
      say "  epoch           : %d" proj.Corfu.Projection.epoch;
      say "  sequencer       : %s" (Corfu.Sequencer.name proj.Corfu.Projection.sequencer);
      say "";
      say "offset -> (segment, replica set, local offset) mapping samples:";
      List.iter
        (fun off ->
          match Corfu.Projection.resolve proj off with
          | Some (seg, set, local) -> say "  global %6d -> seg %d, set %d, local %d" off seg set local
          | None -> say "  global %6d -> retired (prefix-trimmed)" off)
        [ 0; 1; 17; 1_000_000 ];
      say "";
      let p = Corfu.Cluster.params cluster in
      say "calibration (see DESIGN.md §1):";
      say "  entry size          : %d B" p.Sim.Params.entry_bytes;
      say "  sequencer service   : %.2f µs  (cap ~%.0fK req/s)" p.Sim.Params.sequencer_service_us
        (1e3 /. p.Sim.Params.sequencer_service_us);
      say "  storage 4KB write   : %.1f µs  (~%.1fK appends/s/set)" p.Sim.Params.storage_write_us
        (1e3 /. p.Sim.Params.storage_write_us);
      say "  storage 4KB read    : %.1f µs" p.Sim.Params.storage_read_us;
      say "  commit batch        : %d records/entry" p.Sim.Params.commit_batch;
      say "  backpointers (K)    : %d" p.Sim.Params.backpointer_k;
      say "";
      (* A short probe workload so the live counters below are real. *)
      let probe = Corfu.Cluster.new_client cluster ~name:"probe" in
      for i = 1 to 20 do
        let off = Corfu.Client.append probe ~streams:[ 1 ] (Bytes.of_string (string_of_int i)) in
        ignore (Corfu.Client.read_resolved probe off)
      done;
      let snap = Sim.Metrics.snapshot () in
      let total name =
        List.fold_left
          (fun acc (c : Sim.Metrics.counter_view) ->
            if String.equal c.Sim.Metrics.c_name name then acc + c.Sim.Metrics.c_value else acc)
          0 snap.Sim.Metrics.counters
      in
      say "live counters (after a 20-append probe):";
      say "  sequencer grants    : %d" (total "seq.increments");
      say "  ssd writes          : %d" (total "ssd.writes");
      say "  ssd reads           : %d" (total "ssd.reads");
      say "  rpc failures        : %d" (total "client.rpc_failures");
      say "  rpc retries         : %d" (total "client.retries");
      say "  recoveries          : %d" (total "cluster.recoveries"));
  `Ok ()

(* ------------------------------------------------------------------ *)
(* failover                                                           *)
(* ------------------------------------------------------------------ *)

let failover () =
  Sim.Engine.run (fun () ->
      let cluster = Corfu.Cluster.create ~servers:18 () in
      let rt = Tango.Runtime.create (Corfu.Cluster.new_client cluster ~name:"app") in
      let reg = Tango_register.attach rt ~oid:1 in
      say "writing under load while the sequencer fails over...";
      let completed = ref 0 in
      Sim.Engine.spawn (fun () ->
          for i = 1 to 200 do
            Tango_register.write reg i;
            incr completed
          done);
      Sim.Engine.sleep 10_000.;
      let before = Sim.Engine.now () in
      let epoch = Corfu.Cluster.replace_sequencer cluster in
      let took = Sim.Engine.now () -. before in
      say "sequencer replaced: epoch %d, reconfiguration took %.2f ms (paper: ~10 ms)" epoch
        (took /. 1e3);
      Sim.Engine.sleep 3_000_000.;
      say "writes completed through the failover: %d/200" !completed;
      let observer = Tango.Runtime.create (Corfu.Cluster.new_client cluster ~name:"observer") in
      let reg2 = Tango_register.attach observer ~oid:1 in
      say "replayed final value on a fresh view: %d (expected 200)" (Tango_register.read reg2));
  `Ok ()

(* ------------------------------------------------------------------ *)
(* gc                                                                 *)
(* ------------------------------------------------------------------ *)

let gc () =
  Sim.Engine.run (fun () ->
      let cluster = Corfu.Cluster.create ~servers:4 () in
      let rt = Tango.Runtime.create ~batch_size:1 (Corfu.Cluster.new_client cluster ~name:"app") in
      let dir = Tango.Directory.attach rt in
      let oid = Tango.Directory.declare dir "big-map" in
      let map = Tango_map.attach rt ~oid in
      say "writing 200 updates...";
      for i = 1 to 200 do
        Tango_map.put map (Printf.sprintf "k%d" (i mod 20)) (string_of_int i)
      done;
      ignore (Tango_map.size map);
      let tail = Corfu.Client.check (Tango.Runtime.client rt) in
      say "log tail: %d entries" tail;
      say "checkpointing the map and forgetting its history...";
      let info = Tango.Runtime.checkpoint rt ~oid in
      Tango.Directory.forget dir ~oid ~below:(info.Tango.Runtime.ckpt_base + 1);
      ignore (Tango.Runtime.checkpoint rt ~oid:Tango.Directory.oid);
      Tango.Directory.forget dir ~oid:Tango.Directory.oid
        ~below:(Tango.Record.pos ~offset:(tail - 1) ~slot:0);
      let trimmed = Tango.Directory.collect dir in
      say "trimmed the shared log below offset %d" trimmed;
      let survivors =
        Array.fold_left
          (fun acc node -> acc + Corfu.Storage_node.written_count node)
          0 (Corfu.Cluster.storage_nodes cluster)
      in
      say "entries still resident on storage nodes: %d" survivors;
      say "a cold client must still recover full state from the checkpoint:";
      let rt2 = Tango.Runtime.create (Corfu.Cluster.new_client cluster ~name:"cold") in
      let map2 = Tango_map.attach rt2 ~oid in
      say "  recovered %d keys" (Tango_map.size map2));
  `Ok ()

(* ------------------------------------------------------------------ *)
(* soak                                                               *)
(* ------------------------------------------------------------------ *)

let soak clients ops seed =
  Sim.Engine.run ~seed (fun () ->
      let cluster = Corfu.Cluster.create ~servers:18 () in
      let dist = Tango_workloads.Key_dist.zipf ~n:1_000 () in
      let commits = ref 0 and aborts = ref 0 in
      for i = 1 to clients do
        let rt = Tango.Runtime.create (Corfu.Cluster.new_client cluster ~name:(Printf.sprintf "c%d" i)) in
        let map = Tango_map.attach rt ~oid:1 in
        let set = Tango_set.attach rt ~oid:2 in
        let rng = Sim.Rng.split (Sim.Engine.rng ()) in
        Sim.Engine.spawn (fun () ->
            for _ = 1 to ops do
              Tango.Runtime.begin_tx rt;
              let k = Tango_workloads.Key_dist.sample_key dist rng in
              (match Tango_map.get map k with
              | Some v ->
                  Tango_map.put map k (v ^ "+");
                  Tango_set.add set k
              | None -> Tango_map.put map k "1");
              match Tango.Runtime.end_tx rt with
              | Tango.Runtime.Committed -> incr commits
              | Tango.Runtime.Aborted -> incr aborts
            done)
      done;
      Sim.Engine.sleep 60_000_000.;
      say "soak: %d clients x %d ops -> %d commits, %d aborts (%.1f%% aborted)" clients ops
        !commits !aborts
        (100. *. float_of_int !aborts /. float_of_int (max 1 (!commits + !aborts)));
      say "simulated time: %.1f s" (Sim.Engine.now () /. 1e6));
  `Ok ()

(* ------------------------------------------------------------------ *)
(* metrics                                                            *)
(* ------------------------------------------------------------------ *)

(* Run a small mixed workload with the sampler on, then show the
   registry: counters, gauges and latency histograms per component.
   [--json] dumps the raw canonical registry JSON instead. *)
let metrics json seed =
  Sim.Engine.run ~seed (fun () ->
      let cluster = Corfu.Cluster.create ~servers:6 () in
      let rt = Tango.Runtime.create (Corfu.Cluster.new_client cluster ~name:"app") in
      let reg = Tango_register.attach rt ~oid:1 in
      Sim.Metrics.start_sampler ();
      for i = 1 to 100 do
        Tango_register.write reg i;
        ignore (Tango_register.read reg)
      done);
  if json then print_endline (Sim.Metrics.to_json ())
  else begin
    let snap = Sim.Metrics.snapshot () in
    let host h = Option.value h ~default:"-" in
    say "counters:";
    List.iter
      (fun (c : Sim.Metrics.counter_view) ->
        if c.Sim.Metrics.c_value > 0 then
          say "  %-26s %-12s %10d" c.Sim.Metrics.c_name (host c.Sim.Metrics.c_host)
            c.Sim.Metrics.c_value)
      snap.Sim.Metrics.counters;
    say "";
    say "histograms:";
    say "  %-26s %-12s %8s %10s %10s %10s" "name" "host" "count" "p50-us" "p90-us" "p99-us";
    List.iter
      (fun (h : Sim.Metrics.hist_view) ->
        if h.Sim.Metrics.h_count > 0 then
          say "  %-26s %-12s %8d %10.1f %10.1f %10.1f" h.Sim.Metrics.h_name
            (host h.Sim.Metrics.h_host) h.Sim.Metrics.h_count h.Sim.Metrics.h_p50
            h.Sim.Metrics.h_p90 h.Sim.Metrics.h_p99)
      snap.Sim.Metrics.histograms;
    say "";
    say "%d resource/gauge time series sampled (see --json for the points)"
      (List.length snap.Sim.Metrics.series)
  end;
  `Ok ()

(* ------------------------------------------------------------------ *)
(* top                                                                *)
(* ------------------------------------------------------------------ *)

(* Run a short mixed workload with the windowed-telemetry ticker on,
   then render the most recent windows per series — the closest thing
   a simulation has to watching `top` on a live deployment. *)
let top seed last_n =
  Sim.Engine.run ~seed (fun () ->
      let cluster = Corfu.Cluster.create ~servers:6 () in
      let rt = Tango.Runtime.create (Corfu.Cluster.new_client cluster ~name:"app") in
      let reg = Tango_register.attach rt ~oid:1 in
      Sim.Timeseries.start ();
      for _ = 1 to 4 do
        Sim.Engine.spawn (fun () ->
            let rec loop () =
              Tango_register.write reg 1;
              loop ()
            in
            loop ());
        Sim.Engine.spawn (fun () ->
            let rec loop () =
              ignore (Tango_register.read reg);
              loop ()
            in
            loop ())
      done;
      Sim.Engine.sleep 300_000.);
  let n = Sim.Timeseries.windows () in
  let first = max 0 (n - last_n) in
  say "%d windows of %.0f ms sealed; showing the last %d per series" n
    (Sim.Timeseries.window_us () /. 1e3)
    (n - first);
  let primary_col name =
    if String.length name >= 5 && String.sub name 0 5 = "hist:" then "p99"
    else if String.length name >= 8 && String.sub name 0 8 = "counter:" then "rate"
    else "last"
  in
  say "%-44s %-6s %s" "series" "col" "recent windows (oldest first)";
  List.iter
    (fun name ->
      let col = primary_col name in
      match Sim.Timeseries.find ~series:name ~col with
      | None -> ()
      | Some sel ->
          let cells = Buffer.create 64 in
          let interesting = ref false in
          for j = first to n - 1 do
            let v = Sim.Timeseries.window_value sel j in
            if Float.is_nan v then Buffer.add_string cells "        -"
            else begin
              if v <> 0. then interesting := true;
              Buffer.add_string cells (Printf.sprintf " %8.1f" v)
            end
          done;
          if !interesting then say "%-44s %-6s%s" name col (Buffer.contents cells))
    (Sim.Timeseries.series_names ());
  `Ok ()

(* ------------------------------------------------------------------ *)
(* slo                                                                *)
(* ------------------------------------------------------------------ *)

(* The burn-rate monitors against a register workload. A clean run
   must end with an empty alert stream; [--degrade] injects a slow
   lossy client uplink mid-run and must trip the append-p99 monitor —
   the pair of runs is the CI sensitivity check, and running the same
   command twice must produce byte-identical [--report] files. *)
let slo degrade report flight_out seed =
  let flight_was = Sim.Flight.enabled () in
  Sim.Flight.set_enabled true;
  Sim.Engine.run ~seed (fun () ->
      let cluster = Corfu.Cluster.create ~servers:6 () in
      let rt = Tango.Runtime.create (Corfu.Cluster.new_client cluster ~name:"app") in
      let reg = Tango_register.attach rt ~oid:1 in
      Sim.Timeseries.start ();
      ignore
        (Sim.Slo.monitor ~name:"append-p99" ~series:"hist:app.append.e2e_us" ~col:"p99"
           ~threshold:1_500. ~objective:0.9 ());
      ignore
        (Sim.Slo.monitor ~name:"playback-lag" ~series:"probe:app.lag.playback" ~col:"max"
           ~threshold:2_000. ~objective:0.9 ());
      if degrade then begin
        let f = Sim.Fault.create ~seed:1 () in
        Sim.Net.install_fault (Corfu.Cluster.net cluster) f;
        Sim.Fault.plan f
          [
            ( 150_000.,
              Sim.Fault.Degrade
                { d_src = "app"; d_dst = "*"; d_drop = 0.; d_delay_us = 2_500.; d_jitter_us = 0. }
            );
            (350_000., Sim.Fault.Clear_edge ("app", "*"));
          ]
      end;
      for _ = 1 to 8 do
        Sim.Engine.spawn (fun () ->
            let rec loop () =
              Tango_register.write reg 1;
              loop ()
            in
            loop ())
      done;
      Sim.Engine.sleep 500_000.);
  let alerts = Sim.Slo.alerts () in
  let fired = List.length (List.filter (fun a -> a.Sim.Slo.al_firing) alerts) in
  say "%d windows sealed, %d alert transition(s), %d fired%s" (Sim.Timeseries.windows ())
    (List.length alerts) fired
    (if degrade then " (degraded uplink 150-350ms)" else " (fault-free)");
  List.iter
    (fun (a : Sim.Slo.alert) ->
      say "  %8.0fus  %-14s %-8s burn fast %.2f / slow %.2f (value %.1f)" a.Sim.Slo.al_time
        a.Sim.Slo.al_monitor
        (if a.Sim.Slo.al_firing then "FIRING" else "resolved")
        a.Sim.Slo.al_burn_fast a.Sim.Slo.al_burn_slow a.Sim.Slo.al_value)
    alerts;
  Option.iter
    (fun path ->
      write_file path
        (Printf.sprintf
           "{\"schema\": \"tangoctl-slo/1\", \"degraded\": %b, \"alert_transitions\": %d, \
            \"fired\": %d, \"alerts\": %s}"
           degrade (List.length alerts) fired (Sim.Slo.alerts_json ()));
      say "alert report -> %s" path)
    report;
  Option.iter
    (fun path ->
      write_file path (Sim.Flight.dump_json ());
      say "%d flight snapshot(s) -> %s" (Sim.Flight.snapshot_count ()) path)
    flight_out;
  Sim.Flight.set_enabled flight_was;
  if degrade && fired = 0 then begin
    say "expected the degraded run to fire at least one alert";
    exit 1
  end;
  if (not degrade) && alerts <> [] then begin
    say "expected the fault-free run to stay alert-free";
    exit 1
  end;
  `Ok ()

(* ------------------------------------------------------------------ *)
(* flight                                                             *)
(* ------------------------------------------------------------------ *)

(* Arm the flight recorder, run the chaos-smoke shape (a crash under
   paced appends), and dump the incident snapshots the stall trigger
   captured: a JSON document plus a Chrome trace_event timeline of the
   last snapshot. *)
let flight out trace_out seed =
  let flight_was = Sim.Flight.enabled () in
  Sim.Flight.set_enabled true;
  Sim.Engine.run ~seed (fun () ->
      let cluster = Corfu.Cluster.create ~servers:4 () in
      let victim = (Corfu.Cluster.storage_nodes cluster).(0) in
      let f = Sim.Fault.create ~seed:9 () in
      Sim.Net.install_fault (Corfu.Cluster.net cluster) f;
      Sim.Fault.plan f [ (30_000., Sim.Fault.Crash (Corfu.Storage_node.name victim)) ];
      Corfu.Cluster.start_failure_monitor cluster;
      let c = Corfu.Cluster.new_client cluster ~name:"app" in
      let stalls = Tango_harness.Chaos.recorder ~stall_threshold_us:20_000. () in
      for i = 0 to 99 do
        ignore (Corfu.Client.append c ~streams:[ 1 ] (Bytes.of_string (string_of_int i)));
        Tango_harness.Chaos.note stalls;
        Sim.Engine.sleep 500.
      done;
      Sim.Engine.sleep 100_000.;
      say "100 appends through a crash: max completion stall %.1f ms, %d events recorded"
        (Tango_harness.Chaos.max_gap_us stalls /. 1e3)
        (Sim.Flight.events_recorded ()));
  let snaps = Sim.Flight.snapshots () in
  say "%d flight snapshot(s) captured" (List.length snaps);
  List.iter
    (fun (s : Sim.Flight.snap) -> say "  %-14s at %.0fus" s.Sim.Flight.sn_reason s.Sim.Flight.sn_time)
    snaps;
  write_file out (Sim.Flight.dump_json ());
  say "incident document -> %s" out;
  (match List.rev snaps with
  | last :: _ ->
      write_file trace_out last.Sim.Flight.sn_trace;
      say "trace timeline -> %s (load in chrome://tracing or Perfetto)" trace_out
  | [] -> say "no snapshot fired; %s carries an empty document" out);
  Sim.Flight.set_enabled flight_was;
  `Ok ()

(* ------------------------------------------------------------------ *)
(* trace                                                              *)
(* ------------------------------------------------------------------ *)

(* One client appends and reads back a handful of entries with span
   tracing on; the timeline goes to [--out] in Chrome trace_event
   format and the first append's decomposition is printed. *)
let trace out seed =
  let (), dump =
    Sim.Span.capture (fun () ->
        Sim.Engine.run ~seed (fun () ->
            let cluster = Corfu.Cluster.create ~servers:6 () in
            let c = Corfu.Cluster.new_client cluster ~name:"app" in
            let offs = ref [] in
            for i = 1 to 5 do
              offs := Corfu.Client.append c ~streams:[ 1 ] (Bytes.of_string (string_of_int i)) :: !offs
            done;
            let s = Corfu.Stream.attach c 1 in
            ignore (Corfu.Stream.sync s);
            let rec play () = match Corfu.Stream.readnext s with Some _ -> play () | None -> () in
            play ()))
  in
  let oc = open_out out in
  output_string oc dump;
  output_char oc '\n';
  close_out oc;
  let spans = Sim.Span.spans () in
  say "recorded %d spans -> %s (load in chrome://tracing or Perfetto)" (List.length spans) out;
  let dur (v : Sim.Span.view) =
    match v.Sim.Span.v_end with Some e -> e -. v.Sim.Span.v_start | None -> 0.
  in
  let rec print_tree indent (v : Sim.Span.view) =
    say "  %s%-20s @%.1fus  %.1fus" indent v.Sim.Span.v_name v.Sim.Span.v_start (dur v);
    List.iter
      (fun (c : Sim.Span.view) ->
        if c.Sim.Span.v_parent = Some v.Sim.Span.v_id then print_tree (indent ^ "  ") c)
      spans
  in
  (match
     List.find_opt (fun (v : Sim.Span.view) -> String.equal v.Sim.Span.v_name "append") spans
   with
  | Some root ->
      say "first append decomposes into:";
      print_tree "" root
  | None -> say "no append span recorded");
  `Ok ()

(* ------------------------------------------------------------------ *)
(* projection                                                         *)
(* ------------------------------------------------------------------ *)

(* Show the segmented layout map evolving through a live scale-out:
   append, scale, append again, then print the epoch-versioned layout
   and how offsets on either side of the seal boundary resolve. *)
let projection servers add_servers seed =
  Sim.Engine.run ~seed (fun () ->
      let cluster = Corfu.Cluster.create ~servers () in
      let c = Corfu.Cluster.new_client cluster ~name:"app" in
      for i = 1 to 20 do
        ignore (Corfu.Client.append c ~streams:[ 1 ] (Bytes.of_string (string_of_int i)))
      done;
      let aux = Corfu.Cluster.auxiliary cluster in
      say "layout before scale-out:";
      say "%s"
        (Format.asprintf "%a" Corfu.Projection.pp_layout
           (Corfu.Projection.layout (Corfu.Auxiliary.latest aux)));
      let epoch = Corfu.Cluster.scale_out cluster ~add_servers in
      for i = 21 to 30 do
        ignore (Corfu.Client.append c ~streams:[ 1 ] (Bytes.of_string (string_of_int i)))
      done;
      let proj = Corfu.Auxiliary.latest aux in
      say "";
      say "layout after scale-out to epoch %d (+%d servers, no data copied):" epoch add_servers;
      say "%s" (Format.asprintf "%a" Corfu.Projection.pp_layout (Corfu.Projection.layout proj));
      (match Corfu.Cluster.reconfigs cluster with
      | [ { rc_change = Scaled_out { boundary }; rc_started_us; rc_installed_us; _ } ] ->
          say "sealed the old tail segment at offset %d; installed in %.0f us" boundary
            (rc_installed_us -. rc_started_us)
      | _ -> ());
      say "";
      say "offsets resolve through the segment that wrote them:";
      List.iter
        (fun off ->
          match Corfu.Projection.resolve proj off with
          | Some (seg, set, local) ->
              let r =
                match Corfu.Client.read_resolved c off with
                | Corfu.Client.Data _ -> "data"
                | Corfu.Client.Junk -> "junk"
                | _ -> "?"
              in
              say "  global %4d -> seg %d, set %d, local %d  (%s)" off seg set local r
          | None -> say "  global %4d -> retired (prefix-trimmed)" off)
        [ 0; 7; 19; 20; 29 ]);
  `Ok ()

(* ------------------------------------------------------------------ *)
(* fuzz                                                               *)
(* ------------------------------------------------------------------ *)

module Fuzz = Tango_harness.Fuzz
module Verifier = Tango_harness.Verifier
module Spec = Tango_harness.Spec
module Scenario = Tango_harness.Scenario

(* Exit contract shared by fuzz and scenario subcommands: 0 = clean,
   1 = an oracle (or spec machine) fired, 2 = the harness itself
   failed — unreadable scenario, a config or plan no run can honour,
   unknown spec or failpoint name, I/O error. CI
   gates on the distinction: a 1 is a finding, a 2 is a broken test. *)
let harness_errors f =
  try f () with
  | (Stack_overflow | Out_of_memory) as e -> raise e
  | e ->
      say "harness error: %s" (Printexc.to_string e);
      exit 2

let parse_specs = function
  | None -> []
  | Some "all" -> Spec.all
  | Some s ->
      String.split_on_char ',' s
      |> List.filter (fun x -> String.trim x <> "")
      |> List.map (fun x -> Spec.of_name (String.trim x))

let fuzz_config servers clients events appends txs =
  let config =
    {
      Fuzz.default_config with
      f_servers = servers;
      f_clients = clients;
      f_events = events;
      f_appends = appends;
      f_txs = txs;
    }
  in
  Fuzz.validate_config config;
  config

let print_violations violations =
  List.iter (fun v -> say "  %s" (Format.asprintf "%a" Verifier.pp_violation v)) violations

let dump_outcome ~metrics_out ~spans_out ~flight_out (oc : Fuzz.outcome) =
  Option.iter (fun path -> write_file path oc.Fuzz.oc_metrics_json) metrics_out;
  (match (flight_out, oc.Fuzz.oc_flight_json) with
  | Some path, Some flight ->
      write_file path flight;
      say "flight snapshots -> %s" path
  | Some _, None -> () (* clean case: no snapshot fired, nothing to ship *)
  | None, _ -> ());
  match (spans_out, oc.Fuzz.oc_spans_json) with
  | Some path, Some spans -> write_file path spans
  | Some path, None -> say "warning: no span dump captured for %s" path
  | None, _ -> ()

let say_outcome ~label (oc : Fuzz.outcome) =
  say "%s: %d fault events, %d acked appends, %d/%d txs committed, %d spec firings, %d violations"
    label oc.Fuzz.oc_fault_events oc.Fuzz.oc_acked oc.Fuzz.oc_committed
    (oc.Fuzz.oc_committed + oc.Fuzz.oc_aborted)
    (List.length oc.Fuzz.oc_spec_firings)
    (List.length oc.Fuzz.oc_violations);
  List.iter
    (fun (f : Spec.firing) -> say "  spec %s fired at %.0fus: %s" f.sp_spec f.sp_time_us f.sp_detail)
    oc.Fuzz.oc_spec_firings;
  print_violations oc.Fuzz.oc_violations

let say_shrunk ~from (sh : Fuzz.shrink_result) =
  say "minimal plan after %d re-runs (%d -> %d events), oracle %s:" sh.Fuzz.sh_runs from
    (List.length sh.Fuzz.sh_plan) sh.Fuzz.sh_oracle;
  say "%s" (Format.asprintf "%a" Sim.Fault.pp_plan sh.Fuzz.sh_plan)

(* Explore [seeds] consecutive cases from [seed]. The first violating
   case is shrunk to a minimal reproducer and written to [plan_out] as
   a scenario carrying the specs and failpoint it failed under, so
   [scenario run --file] replays it alone; the campaign report
   (schema_version 1) goes to [report]. Metrics/span dumps of the first
   case support the CI determinism gate: a second run of the same seed
   must reproduce them byte for byte. *)
let fuzz_run seed seeds servers clients events appends txs plan_out metrics_out spans_out
    flight_out report failpoint specs_str =
  harness_errors @@ fun () ->
  let specs = parse_specs specs_str in
  let config = fuzz_config servers clients events appends txs in
  let capture = Option.is_some spans_out in
  let runs = ref [] in
  let failed = ref None in
  let s = ref seed in
  while Option.is_none !failed && !s < seed + seeds do
    let plan = Fuzz.gen_plan ~seed:!s config in
    let oc =
      Fuzz.run ?failpoint ~capture_spans:(capture && !s = seed) ~specs ~seed:!s config ~plan
    in
    runs := (!s, oc) :: !runs;
    if !s = seed then dump_outcome ~metrics_out ~spans_out ~flight_out:None oc;
    (* the flight artifact belongs to the violating case, not the first *)
    if !failed = None && oc.Fuzz.oc_violations <> [] then
      dump_outcome ~metrics_out:None ~spans_out:None ~flight_out oc;
    say_outcome ~label:(Printf.sprintf "seed %d" !s) oc;
    (match oc.Fuzz.oc_violations with
    | [] -> ()
    | v :: _ -> failed := Some (!s, plan, v.Verifier.v_oracle));
    incr s
  done;
  Option.iter (fun path -> write_file path (Fuzz.report_json ~runs:(List.rev !runs))) report;
  match !failed with
  | None ->
      say "%d seed(s) explored, no violations" seeds;
      `Ok ()
  | Some (seed, plan, oracle) ->
      say "shrinking the seed-%d reproducer (oracle: %s)..." seed oracle;
      let sh = Fuzz.shrink ?failpoint ~specs ~seed config plan ~oracle in
      say_shrunk ~from:(List.length plan) sh;
      Option.iter
        (fun path ->
          write_file path
            (Scenario.encode
               {
                 Scenario.sc_name = Printf.sprintf "fuzz-seed-%d" seed;
                 sc_seed = seed;
                 sc_config = config;
                 sc_plan = sh.Fuzz.sh_plan;
                 sc_specs = specs;
                 sc_spec_deadline_us = None;
                 sc_failpoint = failpoint;
               });
          say "reproducer scenario -> %s" path)
        plan_out;
      exit 1

let fuzz_shrink plan_file out oracle =
  harness_errors @@ fun () ->
  let sc = Scenario.decode (read_file plan_file) in
  let oracle =
    match oracle with
    | Some o -> o
    | None -> (
        (* no oracle named: re-run the scenario and minimize against
           whatever fires first *)
        match (Scenario.run sc).Fuzz.oc_violations with
        | [] ->
            say "scenario no longer reproduces any violation; nothing to shrink";
            exit 1
        | v :: _ -> v.Verifier.v_oracle)
  in
  let sh =
    Fuzz.shrink ?failpoint:sc.Scenario.sc_failpoint ~specs:sc.Scenario.sc_specs
      ?spec_deadline_us:sc.Scenario.sc_spec_deadline_us ~seed:sc.Scenario.sc_seed
      sc.Scenario.sc_config sc.Scenario.sc_plan ~oracle
  in
  say_shrunk ~from:(List.length sc.Scenario.sc_plan) sh;
  write_file out (Scenario.encode { sc with Scenario.sc_plan = sh.Fuzz.sh_plan });
  say "shrunk scenario -> %s" out;
  `Ok ()

(* ------------------------------------------------------------------ *)
(* spec / scenario                                                    *)
(* ------------------------------------------------------------------ *)

let spec_doc = function
  | Spec.Commit_liveness ->
      "every acked append becomes stream-readable within the repair-then-deadline window"
  | Spec.Read_committed ->
      "playback never applies a transaction whose commit decision is still unrecorded"
  | Spec.Reconfig_termination ->
      "every seal/scale/replace that starts installs a new projection epoch"

let spec_list json =
  if json then
    say "%s"
      (Sim.Jout.arr
         (List.map
            (fun s ->
              Sim.Jout.obj
                [ ("name", Sim.Jout.str (Spec.name s)); ("doc", Sim.Jout.str (spec_doc s)) ])
            Spec.all))
  else begin
    say "online spec machines (arm with --specs NAME[,NAME..] or --specs all):";
    List.iter (fun s -> say "  %-22s %s" (Spec.name s) (spec_doc s)) Spec.all
  end;
  `Ok ()

let load_scenario name file =
  match (name, file) with
  | Some n, None -> (
      match Scenario.find n with
      | Some sc -> sc
      | None ->
          say "unknown built-in scenario %S; available:" n;
          List.iter (fun sc -> say "  %s" sc.Scenario.sc_name) Scenario.builtins;
          exit 2)
  | None, Some f -> Scenario.decode (read_file f)
  | _ ->
      say "scenario: pass exactly one of --name or --file";
      exit 2

let scenario_list json =
  if json then
    say "%s"
      (Sim.Jout.arr
         (List.map (fun sc -> Sim.Jout.str sc.Scenario.sc_name) Scenario.builtins))
  else begin
    say "built-in scenarios:";
    List.iter
      (fun sc ->
        say "  %-36s seed %d, %d fault events, %d specs" sc.Scenario.sc_name sc.Scenario.sc_seed
          (List.length sc.Scenario.sc_plan)
          (List.length sc.Scenario.sc_specs))
      Scenario.builtins
  end;
  `Ok ()

let scenario_show name file =
  harness_errors @@ fun () ->
  say "%s" (Scenario.encode (load_scenario name file));
  `Ok ()

let scenario_run name file report metrics_out spans_out flight_out =
  harness_errors @@ fun () ->
  let sc = load_scenario name file in
  let oc = Scenario.run ~capture_spans:(Option.is_some spans_out) sc in
  dump_outcome ~metrics_out ~spans_out ~flight_out oc;
  say_outcome ~label:(Printf.sprintf "scenario %s (seed %d)" sc.Scenario.sc_name sc.Scenario.sc_seed)
    oc;
  Option.iter
    (fun path ->
      write_file path (Fuzz.report_json ~runs:[ (sc.Scenario.sc_seed, oc) ]);
      say "report -> %s" path)
    report;
  if oc.Fuzz.oc_violations = [] then `Ok () else exit 1

(* ------------------------------------------------------------------ *)
(* command line                                                       *)
(* ------------------------------------------------------------------ *)

let servers_arg =
  Arg.(value & opt int 18 & info [ "servers" ] ~docv:"N" ~doc:"Number of storage servers.")

let clients_arg =
  Arg.(value & opt int 4 & info [ "clients" ] ~docv:"N" ~doc:"Number of client machines.")

let ops_arg = Arg.(value & opt int 100 & info [ "ops" ] ~docv:"N" ~doc:"Transactions per client.")
let seed_arg = Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED" ~doc:"Simulation seed.")

let cluster_info_cmd =
  Cmd.v
    (Cmd.info "cluster-info" ~doc:"Describe a simulated CORFU deployment and its calibration.")
    Term.(ret (const cluster_info $ servers_arg))

let failover_cmd =
  Cmd.v
    (Cmd.info "failover" ~doc:"Replace the sequencer under write load (§5 reconfiguration).")
    Term.(ret (const failover $ const ()))

let gc_cmd =
  Cmd.v
    (Cmd.info "gc" ~doc:"Checkpoint, forget and trim the shared log (§3.2 garbage collection).")
    Term.(ret (const gc $ const ()))

let soak_cmd =
  Cmd.v
    (Cmd.info "soak" ~doc:"Run a mixed transactional workload and report commit/abort counts.")
    Term.(ret (const soak $ clients_arg $ ops_arg $ seed_arg))

let json_arg =
  Arg.(value & flag & info [ "json" ] ~doc:"Dump the raw metrics registry JSON instead of tables.")

let out_arg =
  Arg.(
    value
    & opt string "spans.json"
    & info [ "out" ] ~docv:"FILE" ~doc:"Where to write the Chrome trace_event span timeline.")

let metrics_cmd =
  Cmd.v
    (Cmd.info "metrics" ~doc:"Run a small workload and show the metrics registry.")
    Term.(ret (const metrics $ json_arg $ seed_arg))

let top_last_arg =
  Arg.(value & opt int 8 & info [ "windows" ] ~docv:"N" ~doc:"Recent windows to show per series.")

let top_cmd =
  Cmd.v
    (Cmd.info "top" ~doc:"Watch the windowed telemetry plane of a live mixed workload.")
    Term.(ret (const top $ seed_arg $ top_last_arg))

let degrade_arg =
  Arg.(
    value & flag
    & info [ "degrade" ]
        ~doc:"Inject a slow client uplink mid-run; the append-p99 monitor must fire.")

let slo_report_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "report" ] ~docv:"FILE"
        ~doc:"Write the alert stream as JSON (byte-identical across same-seed runs).")

let slo_flight_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "flight-out" ] ~docv:"FILE" ~doc:"Write the flight snapshots alert firing captured.")

let slo_cmd =
  Cmd.v
    (Cmd.info "slo"
       ~doc:
         "Evaluate burn-rate SLO monitors over a register workload; exits nonzero when the alert \
          stream contradicts the scenario.")
    Term.(ret (const slo $ degrade_arg $ slo_report_arg $ slo_flight_arg $ seed_arg))

let flight_json_arg =
  Arg.(
    value
    & opt string "flight.json"
    & info [ "out" ] ~docv:"FILE" ~doc:"Where to write the incident snapshot document.")

let flight_trace_arg =
  Arg.(
    value
    & opt string "flight-trace.json"
    & info [ "trace-out" ] ~docv:"FILE"
        ~doc:"Where to write the last snapshot's Chrome trace_event timeline.")

let flight_cmd =
  Cmd.v
    (Cmd.info "flight"
       ~doc:"Crash a storage node under load and dump the flight recorder's incident snapshots.")
    Term.(ret (const flight $ flight_json_arg $ flight_trace_arg $ seed_arg))

let trace_cmd =
  Cmd.v
    (Cmd.info "trace" ~doc:"Record a causal span timeline of appends and reads.")
    Term.(ret (const trace $ out_arg $ seed_arg))

let proj_servers_arg =
  Arg.(value & opt int 6 & info [ "servers" ] ~docv:"N" ~doc:"Storage servers before the scale-out.")

let add_servers_arg =
  Arg.(value & opt int 12 & info [ "add-servers" ] ~docv:"N" ~doc:"Servers added by the scale-out.")

let projection_cmd =
  Cmd.v
    (Cmd.info "projection"
       ~doc:"Print the segmented layout map through a live scale-out (§2.2 reconfiguration).")
    Term.(ret (const projection $ proj_servers_arg $ add_servers_arg $ seed_arg))

let fuzz_seeds_arg =
  Arg.(value & opt int 1 & info [ "seeds" ] ~docv:"N" ~doc:"Consecutive seeds to explore.")

let fuzz_servers_arg =
  Arg.(value & opt int 6 & info [ "servers" ] ~docv:"N" ~doc:"Storage servers at boot.")

let fuzz_clients_arg =
  Arg.(value & opt int 3 & info [ "clients" ] ~docv:"N" ~doc:"Workload clients.")

let fuzz_events_arg =
  Arg.(value & opt int 6 & info [ "events" ] ~docv:"N" ~doc:"Primary fault events per plan.")

let fuzz_appends_arg =
  Arg.(value & opt int 18 & info [ "appends" ] ~docv:"N" ~doc:"Raw appends per client.")

let fuzz_txs_arg =
  Arg.(value & opt int 8 & info [ "txs" ] ~docv:"N" ~doc:"Transactions per client.")

let plan_out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "plan-out" ] ~docv:"FILE"
        ~doc:"Write the shrunk reproducer here, as a scenario $(b,scenario run --file) replays.")

let metrics_out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "metrics-out" ] ~docv:"FILE"
        ~doc:"Write the (first) case's canonical metrics JSON (determinism gate).")

let spans_out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "spans-out" ] ~docv:"FILE"
        ~doc:"Capture and write the (first) case's span timeline (determinism gate).")

let flight_out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "flight-out" ] ~docv:"FILE"
        ~doc:"Write the flight-recorder snapshots of the violating case (incident artifact).")

let report_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "report" ] ~docv:"FILE" ~doc:"Write the machine-readable campaign report here.")

let failpoint_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "failpoint" ] ~docv:"NAME"
        ~doc:
          "Enable a cluster or runtime failpoint for every run (sensitivity testing): skip-rebuild-scan, \
           forget-seal-tail, skip-storage-seal, blind-commit-apply, stall-reconfig or skip-rereplication.")

let specs_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "specs" ] ~docv:"NAMES"
        ~doc:
          "Arm online spec machines for every run: a comma-separated list of names (see \
           $(b,tangoctl spec)) or $(b,all).")

let plan_arg =
  Arg.(
    required
    & opt (some string) None
    & info [ "plan" ] ~docv:"FILE" ~doc:"Scenario file (e.g. a fuzz reproducer) to shrink.")

let shrink_out_arg =
  Arg.(
    value
    & opt string "shrunk-plan.json"
    & info [ "out" ] ~docv:"FILE" ~doc:"Where to write the shrunk scenario.")

let oracle_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "oracle" ] ~docv:"NAME"
        ~doc:"Oracle to preserve while shrinking (default: whatever fires first on a re-run).")

let fuzz_run_cmd =
  Cmd.v
    (Cmd.info "run" ~doc:"Explore random fault plans; shrink and save the first violation.")
    Term.(
      ret
        (const fuzz_run $ seed_arg $ fuzz_seeds_arg $ fuzz_servers_arg $ fuzz_clients_arg
       $ fuzz_events_arg $ fuzz_appends_arg $ fuzz_txs_arg $ plan_out_arg $ metrics_out_arg
       $ spans_out_arg $ flight_out_arg $ report_arg $ failpoint_arg $ specs_arg))

let fuzz_shrink_cmd =
  Cmd.v
    (Cmd.info "shrink"
       ~doc:
         "Minimize a scenario's plan while its oracle keeps firing, under the scenario's own \
          specs and failpoint.")
    Term.(ret (const fuzz_shrink $ plan_arg $ shrink_out_arg $ oracle_arg))

let fuzz_cmd =
  Cmd.group
    (Cmd.info "fuzz"
       ~doc:
         "Simulation fuzzer: randomized fault plans, global invariant oracles, automatic plan \
          shrinking (DESIGN.md §9).")
    [ fuzz_run_cmd; fuzz_shrink_cmd ]

let spec_cmd =
  Cmd.v
    (Cmd.info "spec"
       ~doc:"List the online temporal spec machines the fuzzer can arm (DESIGN.md §12).")
    Term.(ret (const spec_list $ json_arg))

let scenario_name_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "name" ] ~docv:"NAME" ~doc:"Built-in scenario to load (see $(b,scenario list)).")

let scenario_file_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "file" ] ~docv:"FILE" ~doc:"Scenario JSON file to load instead of a built-in.")

let scenario_list_cmd =
  Cmd.v
    (Cmd.info "list" ~doc:"List the built-in scenarios.")
    Term.(ret (const scenario_list $ json_arg))

let scenario_show_cmd =
  Cmd.v
    (Cmd.info "show"
       ~doc:"Print a scenario as its versioned JSON document (edit it, then run with --file).")
    Term.(ret (const scenario_show $ scenario_name_arg $ scenario_file_arg))

let scenario_run_cmd =
  Cmd.v
    (Cmd.info "run"
       ~doc:
         "Execute one scenario with its spec machines armed and its failpoint enabled; \
          deterministic down to the span dump. Exits 0 when clean, 1 when an oracle or spec \
          fired, 2 on a harness error.")
    Term.(
      ret
        (const scenario_run $ scenario_name_arg $ scenario_file_arg $ report_arg $ metrics_out_arg
       $ spans_out_arg $ flight_out_arg))

let scenario_cmd =
  Cmd.group
    (Cmd.info "scenario"
       ~doc:
         "Config-driven scenario driver: named, versioned fuzz cases with spec machines armed \
          (DESIGN.md §12).")
    [ scenario_list_cmd; scenario_show_cmd; scenario_run_cmd ]

let () =
  let info = Cmd.info "tangoctl" ~doc:"Operational demos for the Tango reproduction." in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            cluster_info_cmd;
            failover_cmd;
            gc_cmd;
            soak_cmd;
            metrics_cmd;
            top_cmd;
            slo_cmd;
            flight_cmd;
            trace_cmd;
            projection_cmd;
            fuzz_cmd;
            spec_cmd;
            scenario_cmd;
          ]))
