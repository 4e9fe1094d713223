(* tangoctl: operational runs against a simulated Tango deployment.
   Every run with a workload and faults is a scenario document; the
   layout views and the gc lifecycle are the only hand-built runs.

     dune exec bin/tangoctl.exe -- cluster-info --servers 18
     dune exec bin/tangoctl.exe -- projection --servers 6 --add-servers 12
     dune exec bin/tangoctl.exe -- gc
     dune exec bin/tangoctl.exe -- scenario list
     dune exec bin/tangoctl.exe -- scenario run --name sequencer-failover
     dune exec bin/tangoctl.exe -- scenario run --name slo-degraded-uplink --report r.json
     dune exec bin/tangoctl.exe -- fuzz run --seed 1 --seeds 5 --specs all --report r.json

   [--report FILE] writes one Tango_harness.Report document per run:
   one scenario per fuzz case or scenario run, carrying its metrics,
   timeseries, alerts, violations, spec firings, flight snapshots and,
   with [--spans], its span timeline. *)

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

(* Exit contract shared by every subcommand: 0 = clean,
   1 = an oracle (or spec machine) fired, 2 = the harness itself
   failed — unreadable scenario, a config, plan or topology no run can
   honour, unknown spec or failpoint name, I/O error. CI
   gates on the distinction: a 1 is a finding, a 2 is a broken test. *)
let harness_errors f =
  try f () with
  | (Stack_overflow | Out_of_memory) as e -> raise e
  | e ->
      Printf.eprintf "harness error: %s\n%!" (Printexc.to_string e);
      exit 2

(* ------------------------------------------------------------------ *)
(* cluster-info                                                       *)
(* ------------------------------------------------------------------ *)

let cluster_info servers =
  harness_errors @@ fun () ->
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
(* gc                                                                 *)
(* ------------------------------------------------------------------ *)

let gc () =
  Sim.Engine.run (fun () ->
      let params = { Sim.Params.default with Sim.Params.commit_batch = 1 } in
      let cluster = Corfu.Cluster.create ~params ~servers:4 () in
      let rt = Tango.Runtime.create (Corfu.Cluster.new_client cluster ~name:"app") in
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
(* projection                                                         *)
(* ------------------------------------------------------------------ *)

(* Show the segmented layout map evolving through a live scale-out:
   append, scale, append again, then print the epoch-versioned layout
   and how offsets on either side of the seal boundary resolve. The
   report is buffered until the run succeeds, so a geometry the
   scale-out rejects prints nothing but the harness error. *)
let projection servers add_servers seed =
  harness_errors @@ fun () ->
  let out = Buffer.create 4096 in
  let say fmt = Printf.bprintf out (fmt ^^ "\n") in
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
  print_string (Buffer.contents out);
  `Ok ()

(* ------------------------------------------------------------------ *)
(* fuzz                                                               *)
(* ------------------------------------------------------------------ *)

module Fuzz = Tango_harness.Fuzz
module Verifier = Tango_harness.Verifier
module Spec = Tango_harness.Spec
module Scenario = Tango_harness.Scenario
module Report = Tango_harness.Report

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

(* The report collects only when a run will write it. *)
let start_report report = if Option.is_some report then Report.enable ()

let write_report report =
  Option.iter
    (fun path ->
      Report.write ~tool:"tangoctl" path;
      say "report -> %s" path)
    report

let say_outcome ~label (oc : Fuzz.outcome) =
  say "%s: %d fault events, %d acked appends, %d/%d txs committed, %d spec firings, %d violations"
    label oc.Fuzz.oc_fault_events oc.Fuzz.oc_acked oc.Fuzz.oc_committed
    (oc.Fuzz.oc_committed + oc.Fuzz.oc_aborted)
    (List.length oc.Fuzz.oc_spec_firings)
    (List.length oc.Fuzz.oc_violations);
  List.iter
    (fun (f : Spec.firing) -> say "  spec %s fired at %.0fus: %s" f.sp_spec f.sp_time_us f.sp_detail)
    oc.Fuzz.oc_spec_firings;
  if Option.is_some oc.Fuzz.oc_alerts_json then
    say "  %d SLO alert transition(s)" (List.length oc.Fuzz.oc_alerts);
  List.iter
    (fun (a : Sim.Slo.alert) ->
      say "  slo %s %s at %.0fus: burn fast %.2f / slow %.2f (value %.1f)" a.al_monitor
        (if a.al_firing then "fired" else "resolved")
        a.al_time a.al_burn_fast a.al_burn_slow a.al_value)
    oc.Fuzz.oc_alerts;
  print_violations oc.Fuzz.oc_violations

let say_shrunk ~from (sh : Fuzz.shrink_result) =
  say "minimal plan after %d re-runs (%d -> %d events), oracle %s:" sh.Fuzz.sh_runs from
    (List.length sh.Fuzz.sh_plan) sh.Fuzz.sh_oracle;
  say "%s" (Format.asprintf "%a" Sim.Fault.pp_plan sh.Fuzz.sh_plan)

(* Explore [seeds] consecutive cases from [seed], each one scenario of
   the report; [spans] captures the first case's span timeline. The
   first violating case is shrunk to a minimal reproducer and written
   to [plan_out] as a scenario carrying the specs and failpoint it
   failed under, so [scenario run --file] replays it alone. *)
let fuzz_run seed seeds servers clients events appends txs plan_out spans report failpoint
    specs_str =
  harness_errors @@ fun () ->
  if seeds < 1 then invalid_arg (Printf.sprintf "--seeds = %d, must be >= 1" seeds);
  let specs = parse_specs specs_str in
  let config = fuzz_config servers clients events appends txs in
  start_report report;
  let failed = ref None in
  let s = ref seed in
  while Option.is_none !failed && !s < seed + seeds do
    let plan = Fuzz.gen_plan ~seed:!s config in
    let oc = Fuzz.run ?failpoint ~capture_spans:(spans && !s = seed) ~specs ~seed:!s config ~plan in
    Fuzz.add_report ~name:(Printf.sprintf "fuzz-seed-%d" !s) ~seed:!s config oc;
    say_outcome ~label:(Printf.sprintf "seed %d" !s) oc;
    (match oc.Fuzz.oc_violations with
    | [] -> ()
    | v :: _ -> failed := Some (!s, plan, v.Verifier.v_oracle));
    incr s
  done;
  write_report report;
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
                 sc_monitors = [];
               });
          say "reproducer scenario -> %s" path)
        plan_out;
      exit 1

let fuzz_shrink plan_file out oracle =
  harness_errors @@ fun () ->
  let sc = Scenario.decode (read_file plan_file) in
  let oracle =
    match oracle with
    | Some _ -> oracle
    | None -> (
        (* no oracle named: re-run the scenario and minimize against
           whatever fires first *)
        match (Scenario.run sc).Fuzz.oc_violations with
        | [] -> None
        | v :: _ -> Some v.Verifier.v_oracle)
  in
  match oracle with
  | None ->
      (* a clean scenario is not a finding: exit 0 *)
      say "scenario no longer reproduces any violation; nothing to shrink";
      `Ok ()
  | Some oracle ->
      let sh =
        Fuzz.shrink ?failpoint:sc.Scenario.sc_failpoint ~specs:sc.Scenario.sc_specs
          ?spec_deadline_us:sc.Scenario.sc_spec_deadline_us ~monitors:sc.Scenario.sc_monitors
          ~seed:sc.Scenario.sc_seed
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

let scenario_run name file report spans =
  harness_errors @@ fun () ->
  let sc = load_scenario name file in
  start_report report;
  let oc = Scenario.run ~capture_spans:spans sc in
  Fuzz.add_report ~name:sc.Scenario.sc_name ~seed:sc.Scenario.sc_seed sc.Scenario.sc_config oc;
  say_outcome ~label:(Printf.sprintf "scenario %s (seed %d)" sc.Scenario.sc_name sc.Scenario.sc_seed)
    oc;
  write_report report;
  if oc.Fuzz.oc_violations = [] then `Ok () else exit 1

(* ------------------------------------------------------------------ *)
(* command line                                                       *)
(* ------------------------------------------------------------------ *)

let servers_arg =
  Arg.(value & opt int 18 & info [ "servers" ] ~docv:"N" ~doc:"Number of storage servers.")

let seed_arg = Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED" ~doc:"Simulation seed.")

let cluster_info_cmd =
  Cmd.v
    (Cmd.info "cluster-info" ~doc:"Describe a simulated CORFU deployment and its calibration.")
    Term.(ret (const cluster_info $ servers_arg))

let gc_cmd =
  Cmd.v
    (Cmd.info "gc" ~doc:"Checkpoint, forget and trim the shared log (§3.2 garbage collection).")
    Term.(ret (const gc $ const ()))

let json_arg = Arg.(value & flag & info [ "json" ] ~doc:"Print JSON instead of a table.")

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

let spans_arg =
  Arg.(
    value & flag
    & info [ "spans" ]
        ~doc:"Capture the (first) case's span timeline into the report's $(b,spans) section.")

let report_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "report" ] ~docv:"FILE"
        ~doc:"Write the run's report here: one scenario per case, with its metrics and findings.")

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
       $ fuzz_events_arg $ fuzz_appends_arg $ fuzz_txs_arg $ plan_out_arg $ spans_arg $ report_arg
       $ failpoint_arg $ specs_arg))

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
         "Execute one scenario with its spec machines and SLO monitors armed and its failpoint \
          enabled; deterministic down to the span dump. Exits 0 when clean, 1 when an oracle or spec \
          fired, 2 on a harness error.")
    Term.(
      ret
        (const scenario_run $ scenario_name_arg $ scenario_file_arg $ report_arg $ spans_arg))

let scenario_cmd =
  Cmd.group
    (Cmd.info "scenario"
       ~doc:
         "Config-driven scenario driver: named, versioned runs with spec machines and SLO \
          monitors armed (DESIGN.md §12).")
    [ scenario_list_cmd; scenario_show_cmd; scenario_run_cmd ]

let () =
  let info = Cmd.info "tangoctl" ~doc:"Operational runs for the Tango reproduction." in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            cluster_info_cmd;
            gc_cmd;
            projection_cmd;
            fuzz_cmd;
            spec_cmd;
            scenario_cmd;
          ]))
