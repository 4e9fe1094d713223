(* The evaluation harness: regenerates every figure and table of the
   paper's §6 on the simulated testbed, plus the ablations listed in
   DESIGN.md §4 and the hot-path kernels that ci/check_hotpath.sh
   gates.

     dune exec bench/main.exe              # all experiments
     dune exec bench/main.exe fig9 fig10-mid
     dune exec bench/main.exe micro        # hot-path kernels + events-wall

   Every experiment runs one full-length window; the stdout of the
   whole suite is pinned in ci/evaluation.out. *)

open Tango_objects
module Tpl = Tango_baselines.Two_phase_locking
module Key_dist = Tango_workloads.Key_dist

let warmup_us = 100_000.
let measure_us = 300_000.

(* ------------------------------------------------------------------ *)
(* Output helpers                                                     *)
(* ------------------------------------------------------------------ *)

let section title = Printf.printf "\n=== %s ===\n%!" title
let row fmt = Printf.printf (fmt ^^ "\n%!")

module Load = Tango_harness.Load

let new_runtime cluster name = Tango.Runtime.create (Corfu.Cluster.new_client cluster ~name)

(* ------------------------------------------------------------------ *)
(* Figure 2: sequencer throughput vs number of clients                *)
(* ------------------------------------------------------------------ *)

let sequencer_rate ~clients ~batch =
  Sim.Engine.run ~seed:(100 + clients + batch) (fun () ->
      let cluster = Corfu.Cluster.create ~servers:2 () in
      let seq = Corfu.Cluster.sequencer cluster in
      let m = Load.window () in
      for i = 1 to clients do
        let client = Corfu.Cluster.new_client cluster ~name:(Printf.sprintf "c%d" i) in
        let host = Corfu.Client.host client in
        (* a window of 2 outstanding requests per client, as a
           pipelined sequencer client would run *)
        for _ = 1 to 2 do
          Load.worker m (fun () ->
              match
                Sim.Net.call ~timeout_us:Sim.Params.default.Sim.Params.rpc_timeout_us ~from:host
                  (Corfu.Sequencer.increment_service seq)
                  { Corfu.Sequencer.iepoch = 0; istreams = []; icount = batch }
              with
              | Corfu.Sequencer.Seq_ok _ -> true
              | Corfu.Sequencer.Seq_sealed _ -> false)
        done
      done;
      Load.measure ~warmup_us ~measure_us [ m ];
      (Load.report m).throughput *. float_of_int batch)

let fig2 () =
  section "Figure 2: sequencer throughput (Ks of requests/sec vs clients)";
  row "%8s %14s" "clients" "Kreq/s";
  List.iter
    (fun clients -> row "%8d %14.0f" clients (sequencer_rate ~clients ~batch:1 /. 1e3))
    [ 1; 2; 5; 10; 15; 20; 25; 30; 35; 40 ]

(* ------------------------------------------------------------------ *)
(* Figure 8 Left: single view latency/throughput                      *)
(* ------------------------------------------------------------------ *)

let fig8_left_point ~ratio ~window_size =
  Sim.Engine.run ~seed:(int_of_float (ratio *. 100.) + window_size) (fun () ->
      let cluster = Corfu.Cluster.create ~servers:18 () in
      let rt = new_runtime cluster "app" in
      let reg = Tango_register.attach rt ~oid:1 in
      let rng = Sim.Rng.split (Sim.Engine.rng ()) in
      let m = Load.window () in
      for _ = 1 to window_size do
        Load.worker m (fun () ->
            if Sim.Rng.bool rng ratio then Tango_register.write reg 1
            else ignore (Tango_register.read reg);
            true)
      done;
      Load.measure ~warmup_us ~measure_us [ m ];
      let r = Load.report m in
      (r.throughput, r.latency_mean_us /. 1e3, r.latency_p99_us /. 1e3))

let fig8_left () =
  section "Figure 8 (Left): single view — latency vs throughput per write ratio";
  row "%12s %8s %10s %10s %10s" "write-ratio" "window" "Kops/s" "mean-ms" "p99-ms";
  List.iter
    (fun ratio ->
      List.iter
        (fun window_size ->
          let tput, mean, p99 = fig8_left_point ~ratio ~window_size in
          row "%12.1f %8d %10.1f %10.2f %10.2f" ratio window_size (tput /. 1e3) mean p99)
        [ 8; 16; 32; 64; 128; 256 ])
    [ 1.0; 0.9; 0.5; 0.1; 0.0 ]

(* ------------------------------------------------------------------ *)
(* Figure 8 Middle: primary/backup                                    *)
(* ------------------------------------------------------------------ *)

let fig8_mid_point ~write_rate =
  Sim.Engine.run ~seed:(int_of_float write_rate + 7) (fun () ->
      let cluster = Corfu.Cluster.create ~servers:18 () in
      let rt_w = new_runtime cluster "primary" in
      let rt_r = new_runtime cluster "backup" in
      let reg_w = Tango_register.attach rt_w ~oid:1 in
      let reg_r = Tango_register.attach rt_r ~oid:1 in
      let writes = Load.window () in
      let reads = Load.window () in
      if write_rate > 0. then
        Load.generator writes ~rate:write_rate (fun () ->
            Tango_register.write reg_w 1;
            true);
      for _ = 1 to 64 do
        Load.worker reads (fun () ->
            ignore (Tango_register.read reg_r);
            true)
      done;
      Load.measure ~warmup_us ~measure_us [ reads; writes ];
      let r = Load.report reads in
      (r.throughput, (Load.report writes).throughput, r.latency_mean_us /. 1e3))

let fig8_mid () =
  section "Figure 8 (Middle): primary/backup — reads on one view, writes on the other";
  row "%16s %12s %12s %14s" "target-writes/s" "Kreads/s" "Kwrites/s" "read-mean-ms";
  List.iter
    (fun rate ->
      let reads, writes, lat = fig8_mid_point ~write_rate:rate in
      row "%16.0f %12.1f %12.1f %14.2f" rate (reads /. 1e3) (writes /. 1e3) lat)
    [ 0.; 5_000.; 10_000.; 20_000.; 30_000.; 40_000. ]

(* ------------------------------------------------------------------ *)
(* Figure 8 Right: elastic reads                                      *)
(* ------------------------------------------------------------------ *)

let fig8_right_point ~servers ~readers =
  Sim.Engine.run ~seed:(servers + readers) (fun () ->
      let cluster = Corfu.Cluster.create ~servers () in
      let rt_w = new_runtime cluster "writer" in
      let reg_w = Tango_register.attach rt_w ~oid:1 in
      let writes = Load.window () in
      Load.generator writes ~rate:10_000. (fun () ->
          Tango_register.write reg_w 1;
          true);
      let reads = Load.window () in
      for i = 1 to readers do
        let rt = new_runtime cluster (Printf.sprintf "reader-%d" i) in
        let reg = Tango_register.attach rt ~oid:1 in
        Load.generator ~max_outstanding:64 reads ~rate:10_000. (fun () ->
            ignore (Tango_register.read reg);
            true)
      done;
      Load.measure ~warmup_us ~measure_us [ reads ];
      (Load.report reads).throughput)

let fig8_right () =
  section "Figure 8 (Right): read elasticity — N readers at 10K reads/s, 10K writes/s";
  row "%8s %16s %16s" "readers" "18-srv Kreads/s" "2-srv Kreads/s";
  List.iter
    (fun readers ->
      let big = fig8_right_point ~servers:18 ~readers in
      let small = fig8_right_point ~servers:2 ~readers in
      row "%8d %16.1f %16.1f" readers (big /. 1e3) (small /. 1e3))
    [ 2; 4; 6; 8; 10; 12; 14; 16; 18 ]

(* ------------------------------------------------------------------ *)
(* Figure 8 window sweep: write throughput vs append window           *)
(* ------------------------------------------------------------------ *)

let fig8_window_point ~append_window =
  Sim.Engine.run ~seed:(900 + append_window) (fun () ->
      let params = { Sim.Params.default with Sim.Params.append_window } in
      let cluster = Corfu.Cluster.create ~params ~servers:18 () in
      let rt = new_runtime cluster "writer" in
      let reg = Tango_register.attach rt ~oid:1 in
      let m = Load.window () in
      for _ = 1 to 64 do
        Load.worker m (fun () ->
            Tango_register.write reg 1;
            true)
      done;
      Load.measure ~warmup_us ~measure_us [ m ];
      ((Load.report m).throughput, Tango.Runtime.append_stats rt))

let fig8_window () =
  section "Figure 8 (window sweep): 64 closed-loop writers vs append window";
  row "%8s %10s %9s %8s %11s %11s %10s %11s" "window" "Kwrites/s" "entries" "grants" "grant-occ"
    "peak-depth" "cache-hit" "cache-miss";
  List.iter
    (fun append_window ->
      let tput, s = fig8_window_point ~append_window in
      let occ =
        if s.Tango.Runtime.as_grants = 0 then 0.
        else float_of_int s.Tango.Runtime.as_granted_entries /. float_of_int s.Tango.Runtime.as_grants
      in
      row "%8d %10.1f %9d %8d %11.2f %11d %10d %11d" append_window (tput /. 1e3)
        s.Tango.Runtime.as_entries s.Tango.Runtime.as_grants occ s.Tango.Runtime.as_inflight_peak
        s.Tango.Runtime.as_cache_hits s.Tango.Runtime.as_cache_misses)
    [ 1; 2; 4; 8; 16; 32 ]

(* ------------------------------------------------------------------ *)
(* Figure 5: latency decomposition of appends and reads               *)
(* ------------------------------------------------------------------ *)

module Report = Tango_harness.Report

(* The observability showcase: one view under mixed load, with the
   metrics sampler on. The registry is read post-mortem — the text
   table and the JSON report both come from the same snapshot, so per-
   component histograms (sequencer grant, chain write, playback) and
   resource-utilization series land in [bench --json] output. The
   windowed telemetry plane rides along: the timeseries ticker tracks
   every metric plus the lag watermarks, and two default SLO monitors
   (append p99, playback lag) watch it — a fault-free run must end
   with an empty alert stream. *)
let fig5_monitors () =
  ignore
    (Sim.Slo.monitor ~name:"append-p99" ~series:"hist:app.append.e2e_us" ~col:"p99"
       ~threshold:1_500. ~objective:0.9 ());
  ignore
    (Sim.Slo.monitor ~name:"playback-lag" ~series:"probe:app.lag.playback" ~col:"max"
       ~threshold:2_000. ~objective:0.9 ())

let fig5 () =
  section "Figure 5: latency decomposition — appends and reads on one view";
  let seed = 42 in
  let servers = 6 and writers = 16 and readers = 16 in
  let appends_s, reads_s, end_us =
    Sim.Engine.run ~seed (fun () ->
        let cluster = Corfu.Cluster.create ~servers () in
        let rt = new_runtime cluster "app" in
        let reg = Tango_register.attach rt ~oid:1 in
        Sim.Metrics.start_sampler ();
        Sim.Timeseries.start ();
        fig5_monitors ();
        let w = Load.window () in
        let r = Load.window () in
        for _ = 1 to writers do
          Load.worker w (fun () ->
              Tango_register.write reg 1;
              true)
        done;
        for _ = 1 to readers do
          Load.worker r (fun () ->
              ignore (Tango_register.read reg);
              true)
        done;
        Load.measure ~warmup_us ~measure_us [ w; r ];
        ((Load.report w).throughput, (Load.report r).throughput, Sim.Engine.now ()))
  in
  let snap = Sim.Metrics.snapshot () in
  row "%10.1f Kappends/s  %10.1f Kreads/s" (appends_s /. 1e3) (reads_s /. 1e3);
  row "%-22s %-10s %8s %10s %10s %10s" "histogram" "host" "count" "p50-us" "p90-us" "p99-us";
  List.iter
    (fun (h : Sim.Metrics.hist_view) ->
      if h.Sim.Metrics.h_count > 0 then
        row "%-22s %-10s %8d %10.1f %10.1f %10.1f" h.Sim.Metrics.h_name
          (Option.value h.Sim.Metrics.h_host ~default:"-")
          h.Sim.Metrics.h_count h.Sim.Metrics.h_p50 h.Sim.Metrics.h_p90 h.Sim.Metrics.h_p99)
    snap.Sim.Metrics.histograms;
  row "%d resource/gauge series sampled" (List.length snap.Sim.Metrics.series);
  row "%d telemetry windows sealed, %d series, %d SLO alert transitions"
    (Sim.Timeseries.windows ())
    (List.length (Sim.Timeseries.series_names ()))
    (List.length (Sim.Slo.alerts ()));
  Report.add_scenario ~name:"fig5" ~seed
    ~params:
      [
        ("servers", string_of_int servers);
        ("writers", string_of_int writers);
        ("readers", string_of_int readers);
        ("measure_us", Printf.sprintf "%.0f" measure_us);
      ]
    ~summary:
      [
        ("appends_per_s", appends_s);
        ("reads_per_s", reads_s);
        ("telemetry_windows", float_of_int (Sim.Timeseries.windows ()));
        ("slo_alerts", float_of_int (List.length (Sim.Slo.alerts ())));
      ]
    ~timeseries_json:(Sim.Timeseries.to_json ()) ~alerts_json:(Sim.Slo.alerts_json ())
    ~virtual_end_us:end_us ~metrics_json:(Sim.Metrics.to_json ()) ()

(* ------------------------------------------------------------------ *)
(* Figure 9: transactions on a fully replicated TangoMap              *)
(* ------------------------------------------------------------------ *)

let map_tx rt map dist rng =
  Tango.Runtime.begin_tx rt;
  List.iter (fun k -> ignore (Tango_map.get map k)) (Key_dist.distinct_keys dist rng 3);
  List.iter (fun k -> Tango_map.put map k "v") (Key_dist.distinct_keys dist rng 3);
  match Tango.Runtime.end_tx rt with
  | Tango.Runtime.Committed -> true
  | Tango.Runtime.Aborted -> false

let fig9_point ~nodes ~keys ~zipfian =
  Sim.Engine.run ~seed:(nodes + keys + if zipfian then 1 else 0) (fun () ->
      let cluster = Corfu.Cluster.create ~servers:18 () in
      let dist = if zipfian then Key_dist.zipf ~n:keys () else Key_dist.uniform ~n:keys in
      let m = Load.window () in
      for i = 1 to nodes do
        let rt = new_runtime cluster (Printf.sprintf "node-%d" i) in
        let map = Tango_map.attach rt ~oid:1 in
        let rng = Sim.Rng.split (Sim.Engine.rng ()) in
        for _ = 1 to 32 do
          Load.worker m (fun () -> map_tx rt map dist rng)
        done
      done;
      Load.measure ~warmup_us ~measure_us [ m ];
      let r = Load.report m in
      (r.throughput, r.goodput))

let fig9 () =
  section "Figure 9: fully replicated TangoMap — 3R+3W transactions";
  row "%8s %10s %10s %12s %12s" "dist" "keys" "nodes" "Ktx/s" "Kgoodput/s";
  List.iter
    (fun zipfian ->
      List.iter
        (fun keys ->
          List.iter
            (fun nodes ->
              let tput, goodput = fig9_point ~nodes ~keys ~zipfian in
              row "%8s %10d %10d %12.1f %12.1f"
                (if zipfian then "zipf" else "uniform")
                keys nodes (tput /. 1e3) (goodput /. 1e3))
            [ 2; 3; 4; 6; 8 ])
        [ 100; 10_000; 1_000_000 ])
    [ true; false ]

(* ------------------------------------------------------------------ *)
(* Figure 10 Left: layered partitions scale                           *)
(* ------------------------------------------------------------------ *)

let fig10_left_point ~servers ~clients =
  Sim.Engine.run ~seed:(servers + clients) (fun () ->
      let cluster = Corfu.Cluster.create ~servers () in
      let dist = Key_dist.uniform ~n:100_000 in
      let m = Load.window () in
      for i = 1 to clients do
        let rt = new_runtime cluster (Printf.sprintf "node-%d" i) in
        let map = Tango_map.attach rt ~oid:i in
        let rng = Sim.Rng.split (Sim.Engine.rng ()) in
        for _ = 1 to 24 do
          Load.worker m (fun () -> map_tx rt map dist rng)
        done
      done;
      Load.measure ~warmup_us ~measure_us [ m ];
      (Load.report m).throughput)

let fig10_left () =
  section "Figure 10 (Left): one TangoMap per client — single-partition transactions";
  row "%8s %16s %16s" "clients" "18-srv Ktx/s" "6-srv Ktx/s";
  List.iter
    (fun clients ->
      let big = fig10_left_point ~servers:18 ~clients in
      let small = fig10_left_point ~servers:6 ~clients in
      row "%8d %16.1f %16.1f" clients (big /. 1e3) (small /. 1e3))
    [ 2; 4; 6; 8; 10; 12; 14; 16; 18 ]

(* ------------------------------------------------------------------ *)
(* Figure 10 Middle: cross-partition transactions, Tango vs 2PL       *)
(* ------------------------------------------------------------------ *)

let fig10_mid_tango ~clients ~cross_pct =
  Sim.Engine.run ~seed:(clients + cross_pct) (fun () ->
      let cluster = Corfu.Cluster.create ~servers:18 () in
      let dist = Key_dist.uniform ~n:100_000 in
      let m = Load.window () in
      let runtimes = Array.init clients (fun i -> new_runtime cluster (Printf.sprintf "n%d" i)) in
      let maps = Array.mapi (fun i rt -> Tango_map.attach rt ~oid:(i + 1)) runtimes in
      Array.iteri
        (fun i rt ->
          let map = maps.(i) in
          let rng = Sim.Rng.split (Sim.Engine.rng ()) in
          Load.generator ~max_outstanding:64 m ~rate:12_000. (fun () ->
              let cross = Sim.Rng.int rng 100 < cross_pct && clients > 1 in
              Tango.Runtime.begin_tx rt;
              List.iter (fun k -> ignore (Tango_map.get map k)) (Key_dist.distinct_keys dist rng 3);
              List.iter
                (fun k -> Tango_map.put map k "v")
                (Key_dist.distinct_keys dist rng (if cross then 2 else 3));
              if cross then begin
                (* move a key to a remote partition: a remote write *)
                let other = (i + 1 + Sim.Rng.int rng (clients - 1)) mod clients in
                let other = if other = i then (i + 1) mod clients else other in
                Tango_map.remote_put rt ~oid:(other + 1) (Key_dist.sample_key dist rng) "v"
              end;
              match Tango.Runtime.end_tx rt with
              | Tango.Runtime.Committed -> true
              | Tango.Runtime.Aborted -> false))
        runtimes;
      Load.measure ~warmup_us ~measure_us [ m ];
      (Load.report m).goodput)

let fig10_mid_2pl ~clients ~cross_pct =
  Sim.Engine.run ~seed:(1000 + clients + cross_pct) (fun () ->
      let net =
        Sim.Net.create ~latency:Sim.Params.default.Sim.Params.net_latency_us ~bandwidth:125. ()
      in
      let t = Tpl.create ~net in
      let nodes = Array.init clients (fun i -> Tpl.add_node t ~name:(Printf.sprintf "n%d" i)) in
      let dist = Key_dist.uniform ~n:100_000 in
      let m = Load.window () in
      Array.iteri
        (fun i me ->
          let rng = Sim.Rng.split (Sim.Engine.rng ()) in
          Load.generator ~max_outstanding:64 m ~rate:12_000. (fun () ->
              let cross = Sim.Rng.int rng 100 < cross_pct && clients > 1 in
              let reads =
                List.map
                  (fun k ->
                    let _, v = Tpl.read ~from:me me k in
                    (me, k, v))
                  (Key_dist.distinct_keys dist rng 3)
              in
              let local_writes =
                List.map
                  (fun k -> (me, k, "v"))
                  (Key_dist.distinct_keys dist rng (if cross then 2 else 3))
              in
              let writes =
                if cross then begin
                  let other = (i + 1 + Sim.Rng.int rng (clients - 1)) mod clients in
                  let other = if other = i then (i + 1) mod clients else other in
                  (nodes.(other), Key_dist.sample_key dist rng, "v") :: local_writes
                end
                else local_writes
              in
              Tpl.execute t ~from:me ~reads ~writes))
        nodes;
      Load.measure ~warmup_us ~measure_us [ m ];
      (Load.report m).goodput)

let fig10_mid () =
  section "Figure 10 (Middle): % cross-partition transactions — Tango vs 2PL";
  row "%8s %14s %14s" "cross-%" "Tango Ktx/s" "2PL Ktx/s";
  List.iter
    (fun pct ->
      let tango = fig10_mid_tango ~clients:18 ~cross_pct:pct in
      let tpl = fig10_mid_2pl ~clients:18 ~cross_pct:pct in
      row "%8d %14.1f %14.1f" pct (tango /. 1e3) (tpl /. 1e3))
    [ 0; 1; 2; 4; 8; 16; 32; 64; 100 ]

(* ------------------------------------------------------------------ *)
(* Figure 10 Right: transactions on a shared object                   *)
(* ------------------------------------------------------------------ *)

let fig10_right_point ~common_pct =
  Sim.Engine.run ~seed:(2000 + common_pct) (fun () ->
      let cluster = Corfu.Cluster.create ~servers:18 () in
      let clients = 4 in
      let dist = Key_dist.uniform ~n:100_000 in
      let common_oid = 100 in
      let m = Load.window () in
      for i = 1 to clients do
        let rt = new_runtime cluster (Printf.sprintf "n%d" i) in
        let priv = Tango_map.attach rt ~oid:i in
        (* the shared object is marked: its commit records need
           decision records for clients lacking the private read sets *)
        let common = Tango_map.attach rt ~oid:common_oid ~needs_decision:true in
        let rng = Sim.Rng.split (Sim.Engine.rng ()) in
        for _ = 1 to 12 do
          Load.worker m (fun () ->
              let shared = Sim.Rng.int rng 100 < common_pct in
              Tango.Runtime.begin_tx rt;
              List.iter (fun k -> ignore (Tango_map.get priv k)) (Key_dist.distinct_keys dist rng 2);
              List.iter (fun k -> Tango_map.put priv k "v") (Key_dist.distinct_keys dist rng 2);
              if shared then begin
                ignore (Tango_map.get common (Key_dist.sample_key dist rng));
                Tango_map.put common (Key_dist.sample_key dist rng) "v"
              end;
              match Tango.Runtime.end_tx rt with
              | Tango.Runtime.Committed -> true
              | Tango.Runtime.Aborted -> false)
        done
      done;
      Load.measure ~warmup_us ~measure_us [ m ];
      let r = Load.report m in
      (r.throughput, r.goodput))

let fig10_right () =
  section "Figure 10 (Right): 4 clients, private + shared TangoMap";
  row "%9s %12s %14s" "common-%" "Ktx/s" "Kgoodput/s";
  List.iter
    (fun pct ->
      let tput, goodput = fig10_right_point ~common_pct:pct in
      row "%9d %12.1f %14.1f" pct (tput /. 1e3) (goodput /. 1e3))
    [ 0; 1; 2; 4; 8; 16; 32; 64; 100 ]

(* ------------------------------------------------------------------ *)
(* §6.3 tables: TangoZK and TangoBK                                   *)
(* ------------------------------------------------------------------ *)

let tbl_zk_independent ~clients =
  Sim.Engine.run ~seed:31 (fun () ->
      let cluster = Corfu.Cluster.create ~servers:18 () in
      let m = Load.window () in
      for i = 1 to clients do
        let rt = new_runtime cluster (Printf.sprintf "zk-%d" i) in
        let zk = Tango_zk.attach rt ~oid:i in
        (match Tango_zk.create zk "/data" "" with Ok _ | Error _ -> ());
        for f = 0 to 9 do
          match Tango_zk.create zk (Printf.sprintf "/data/f%d" f) "x" with
          | Ok _ | Error _ -> ()
        done;
        for w = 0 to 11 do
          (* each worker owns one file: independent-namespace traffic
             should be conflict-free, as in the paper *)
          let f = Printf.sprintf "/data/f%d" (w mod 10) in
          ignore f;
          let f = Printf.sprintf "/data/w%d" w in
          (match Tango_zk.create zk f "x" with Ok _ | Error _ -> ());
          Load.worker m (fun () ->
              match Tango_zk.set_data zk f "y" with Ok () -> true | Error _ -> false)
        done
      done;
      Load.measure ~warmup_us ~measure_us [ m ];
      (Load.report m).goodput)

let tbl_zk_moves ~clients =
  Sim.Engine.run ~seed:32 (fun () ->
      let cluster = Corfu.Cluster.create ~servers:18 () in
      let m = Load.window () in
      let zks =
        Array.init clients (fun i ->
            let rt = new_runtime cluster (Printf.sprintf "zk-%d" i) in
            Tango_zk.attach rt ~oid:(i + 1))
      in
      Array.iteri
        (fun i zk ->
          let rng = Sim.Rng.split (Sim.Engine.rng ()) in
          let dst_oid = ((i + 1) mod clients) + 1 in
          let counter = ref 0 in
          for _ = 1 to 4 do
            Load.worker m (fun () ->
                (* create a fresh file locally, then move it atomically
                   to the neighbouring namespace *)
                incr counter;
                let path = Printf.sprintf "/m%d-%d-%d" i !counter (Sim.Rng.int rng 1_000_000) in
                match Tango_zk.create zk path "payload" with
                | Error _ -> false
                | Ok p -> Tango_zk.move zk ~dst_oid p)
          done)
        zks;
      Load.measure ~warmup_us ~measure_us [ m ];
      (Load.report m).goodput)

let tbl_zk () =
  section "Section 6.3: TangoZK (ops within namespaces; moves across namespaces)";
  let independent = tbl_zk_independent ~clients:18 in
  row "%-44s %10.1f Ktx/s" "18 clients, independent namespaces:" (independent /. 1e3);
  let moves = tbl_zk_moves ~clients:18 in
  row "%-44s %10.1f Ktx/s" "18 clients, cross-namespace atomic moves:" (moves /. 1e3)

let tbl_bk () =
  section "Section 6.3: TangoBK ledger append throughput (4KB entries)";
  let rate =
    Sim.Engine.run ~seed:33 (fun () ->
        let params = { Sim.Params.default with Sim.Params.commit_batch = 1 } in
        let cluster = Corfu.Cluster.create ~params ~servers:18 () in
        let m = Load.window () in
        let payload = Bytes.make 3000 'x' in
        for i = 1 to 18 do
          let rt = new_runtime cluster (Printf.sprintf "bk-%d" i) in
          let bk = Tango_bk.attach rt ~oid:i in
          let ledger = Tango_bk.create_ledger bk in
          for _ = 1 to 12 do
            Load.worker m (fun () ->
                match Tango_bk.add_entry bk ~ledger payload with Ok _ -> true | Error _ -> false)
          done
        done;
        Load.measure ~warmup_us ~measure_us [ m ];
        (Load.report m).goodput)
  in
  row "18 clients, one ledger each: %.1f Kwrites/s" (rate /. 1e3)

(* ------------------------------------------------------------------ *)
(* Ablations                                                          *)
(* ------------------------------------------------------------------ *)

let ablation_k () =
  section "Ablation: backpointer redundancy K vs stream rebuild cost";
  row "%4s %10s %14s %16s" "K" "entries" "sync reads" "reads/entry";
  List.iter
    (fun k ->
      let n = 512 in
      let reads =
        Sim.Engine.run ~seed:(40 + k) (fun () ->
            let params = { Sim.Params.default with Sim.Params.backpointer_k = k } in
            let cluster = Corfu.Cluster.create ~params ~servers:4 () in
            let w = Corfu.Cluster.new_client cluster ~name:"writer" in
            for i = 0 to n - 1 do
              ignore (Corfu.Client.append w ~streams:[ 1 ] (Bytes.of_string (string_of_int i)))
            done;
            let r = Corfu.Cluster.new_client cluster ~name:"reader" in
            let s = Corfu.Stream.attach r 1 in
            ignore (Corfu.Stream.sync s);
            Corfu.Stream.sync_reads s)
      in
      row "%4d %10d %14d %16.3f" k n reads (float_of_int reads /. float_of_int n))
    [ 4; 8; 16 ]

let ablation_decision () =
  section "Ablation: decision records — remote-write vs local-write transaction latency";
  let latency remote =
    Sim.Engine.run ~seed:51 (fun () ->
        let cluster = Corfu.Cluster.create ~servers:18 () in
        let rt = new_runtime cluster "producer" in
        let src = Tango_map.attach rt ~oid:1 in
        let _local_dst = Tango_map.attach rt ~oid:2 in
        let rt2 = new_runtime cluster "consumer" in
        let _remote_dst = Tango_map.attach rt2 ~oid:3 in
        Tango_map.put src "k" "v";
        let m = Load.window () in
        for _ = 1 to 4 do
          Load.worker m (fun () ->
              Tango.Runtime.begin_tx rt;
              ignore (Tango_map.get src "k");
              let dst_oid = if remote then 3 else 2 in
              Tango_map.remote_put rt ~oid:dst_oid "k" "v";
              match Tango.Runtime.end_tx rt with
              | Tango.Runtime.Committed -> true
              | Tango.Runtime.Aborted -> false)
        done;
        Load.measure ~warmup_us ~measure_us [ m ];
        (Load.report m).latency_mean_us /. 1e3)
  in
  row "local-write transaction:  %.2f ms" (latency false);
  row "remote-write transaction: %.2f ms (adds the decision-record phase)" (latency true);
  (* collaborative remote-read transactions (§4.1 D, future work) *)
  let collab_latency =
    Sim.Engine.run ~seed:52 (fun () ->
        let cluster = Corfu.Cluster.create ~servers:18 () in
        let rt_a = new_runtime cluster "reader-host" in
        let rt_b = new_runtime cluster "value-host" in
        let src = Tango_map.attach rt_a ~oid:1 in
        let m2 = Tango_map.attach rt_b ~oid:2 in
        Tango_map.serve_reads m2;
        Tango.Runtime.connect_peer rt_a ~oid:2 (Tango.Runtime.remote_read_service rt_b);
        Tango_map.put m2 "k" "v";
        Tango_map.put src "local" "x";
        (* keep the value host playing, as a live replica would *)
        Sim.Engine.spawn (fun () ->
            let rec live () =
              ignore (Tango_map.get m2 "k");
              Sim.Engine.sleep 200.;
              live ()
            in
            live ());
        let m = Load.window () in
        for _ = 1 to 4 do
          Load.worker m (fun () ->
              Tango.Runtime.begin_tx rt_a;
              ignore (Tango_map.get src "local");
              ignore (Tango_map.get_remote rt_a ~oid:2 "k");
              Tango_map.put src "out" "y";
              match Tango.Runtime.end_tx rt_a with
              | Tango.Runtime.Committed -> true
              | Tango.Runtime.Aborted -> false)
        done;
        Load.measure ~warmup_us ~measure_us [ m ];
        (Load.report m).latency_mean_us /. 1e3)
  in
  row "collaborative remote-read transaction: %.2f ms (partial + final decision records)"
    collab_latency

let ablation_versioning () =
  section "Ablation: fine-grained (per-key) vs coarse (per-object) versioning — abort rate";
  let abort_rate fine =
    Sim.Engine.run ~seed:61 (fun () ->
        let cluster = Corfu.Cluster.create ~servers:18 () in
        let dist = Key_dist.uniform ~n:10_000 in
        let m = Load.window () in
        for i = 1 to 4 do
          let rt = new_runtime cluster (Printf.sprintf "n%d" i) in
          let map = Tango_map.attach rt ~oid:1 in
          let rng = Sim.Rng.split (Sim.Engine.rng ()) in
          for _ = 1 to 8 do
            Load.worker m (fun () ->
                Tango.Runtime.begin_tx rt;
                if fine then begin
                  List.iter
                    (fun k -> ignore (Tango_map.get map k))
                    (Key_dist.distinct_keys dist rng 3);
                  List.iter (fun k -> Tango_map.put map k "v") (Key_dist.distinct_keys dist rng 3)
                end
                else begin
                  (* coarse: read/write the whole object's version *)
                  Tango.Runtime.query_helper rt ~oid:1 ();
                  List.iter
                    (fun k -> Tango_map.coarse_put map k "v")
                    (Key_dist.distinct_keys dist rng 3)
                end;
                match Tango.Runtime.end_tx rt with
                | Tango.Runtime.Committed -> true
                | Tango.Runtime.Aborted -> false)
          done
        done;
        Load.measure ~warmup_us ~measure_us [ m ];
        let r = Load.report m in
        if r.samples = 0 then 0.
        else 100. *. float_of_int (r.samples - r.succeeded) /. float_of_int r.samples)
  in
  row "per-key versioning abort rate:    %5.1f %%" (abort_rate true);
  row "per-object versioning abort rate: %5.1f %%" (abort_rate false)

let ablation_seqbatch () =
  section "Ablation: sequencer batching (Fig. 2 with batch 1 vs 4)";
  row "%8s %14s %14s" "clients" "batch-1 Kreq/s" "batch-4 Kreq/s";
  List.iter
    (fun clients ->
      let b1 = sequencer_rate ~clients ~batch:1 in
      let b4 = sequencer_rate ~clients ~batch:4 in
      row "%8d %14.0f %14.0f" clients (b1 /. 1e3) (b4 /. 1e3))
    [ 10; 20; 40 ]

let ablation_seqckpt () =
  section "Ablation: sequencer checkpoints — failover rebuild scan length";
  row "%10s %14s %18s" "log size" "full scan" "with checkpoints";
  List.iter
    (fun n ->
      let scan scribe =
        Sim.Engine.run ~seed:(70 + n + if scribe then 1 else 0) (fun () ->
            let cluster = Corfu.Cluster.create ~servers:4 () in
            if scribe then Corfu.Cluster.start_checkpoint_scribe cluster ~interval_us:30_000.;
            let c = Corfu.Cluster.new_client cluster ~name:"writer" in
            for i = 0 to n - 1 do
              ignore (Corfu.Client.append c ~streams:[ 1 + (i mod 4) ] (Bytes.of_string "x"));
              Sim.Engine.sleep 400.
            done;
            ignore (Corfu.Cluster.replace_sequencer cluster);
            match Corfu.Cluster.reconfigs cluster with
            | [ { rc_change = Sequencer_replaced { scanned }; _ } ] -> scanned
            | _ -> -1)
      in
      row "%10d %14d %18d" n (scan false) (scan true))
    [ 200; 500; 1000 ]

(* ------------------------------------------------------------------ *)
(* Chaos: storage-node crash under append load                        *)
(* ------------------------------------------------------------------ *)

module Chaos = Tango_harness.Chaos

let chaos_crash_point ~workers =
  Sim.Engine.run ~seed:(3000 + workers) (fun () ->
      let cluster = Corfu.Cluster.create ~servers:6 () in
      let victim = (Corfu.Cluster.storage_nodes cluster).(0) in
      let crash_at = warmup_us +. (measure_us /. 4.) in
      let fault =
        Chaos.install ~seed:7
          ~plan:[ (crash_at, Sim.Fault.Crash (Corfu.Storage_node.name victim)) ]
          cluster
      in
      Corfu.Cluster.start_failure_monitor cluster;
      let rec_ = Chaos.recorder () in
      let m = Load.window () in
      let clients =
        Array.init workers (fun i -> Corfu.Cluster.new_client cluster ~name:(Printf.sprintf "w%d" i))
      in
      Array.iter
        (fun c ->
          Load.worker m (fun () ->
              ignore (Corfu.Client.append c ~streams:[ 1 ] (Bytes.of_string "x"));
              Chaos.note rec_;
              true))
        clients;
      Load.measure ~warmup_us ~measure_us [ m ];
      (* let the recovery finish before collecting incidents; the
         measurement window is already closed, so this only affects the
         audit, not the numbers *)
      Sim.Engine.sleep 300_000.;
      let failures = Array.fold_left (fun a c -> a + Corfu.Client.rpc_failures c) 0 clients in
      ((Load.report m).throughput, failures, Chaos.max_gap_us rec_, Chaos.incidents fault cluster))

let chaos_crash () =
  section "Chaos: crash a chain head mid-window, monitor-driven recovery (6 servers)";
  row "%8s %10s %10s %11s %12s %11s %13s" "workers" "Kapp/s" "failed-rpc" "stall-ms" "window-ms"
    "rebuilt" "rebuilt-bytes";
  List.iter
    (fun workers ->
      let tput, failures, stall, incs = chaos_crash_point ~workers in
      match incs with
      | [ i ] ->
          row "%8d %10.1f %10d %11.1f %12.1f %11d %13d" workers (tput /. 1e3) failures
            (stall /. 1e3)
            (i.Chaos.inc_unavailable_us /. 1e3)
            i.Chaos.inc_rebuild_entries i.Chaos.inc_rebuild_bytes
      | incs ->
          row "%8d %10.1f %10d %11.1f %12s %11s %13s" workers (tput /. 1e3) failures
            (stall /. 1e3)
            (Printf.sprintf "(%d recoveries)" (List.length incs))
            "-" "-")
    [ 4; 8; 16; 32 ]

(* ------------------------------------------------------------------ *)
(* Scale-out: live segment reconfiguration under constant load        *)
(* ------------------------------------------------------------------ *)

(* 16 hosts offer ~80K appends/s against a 6-server log that sustains
   ~37.5K/s (3 chains × 12.5K writes/s per chain); mid-run the cluster
   scales to 18 servers (9 chains, ~112.5K/s) with Cluster.scale_out —
   no data copied, the tail segment just reopens over the wider
   stripe. Throughput steps up live; pre-reconfiguration offsets stay
   readable through their original segment. *)
let scale_out_bench () =
  section "Scale-out: online segment reconfiguration under constant offered load";
  let seed = 77 in
  let servers = 6 and add_servers = 12 and hosts = 16 in
  let rate = 5_000. in
  let phase_us = 300_000. in
  let settle_us = 100_000. in
  let bucket_us = 50_000. in
  let ( before_s,
        after_s,
        ratio,
        boundary,
        epoch,
        install_us,
        old_ok,
        old_total,
        copied,
        series,
        end_us ) =
    Sim.Engine.run ~seed (fun () ->
        let cluster = Corfu.Cluster.create ~servers () in
        (* Watermark telemetry only (probes — log tail, grant backlog):
           the raw-append load carries no Tango records, so there is no
           runtime to play back and the playback-lag series lives in
           fig5 instead. *)
        Sim.Timeseries.start ~track_metrics:false ();
        let total = ref 0 in
        let buckets : (int, int) Hashtbl.t = Hashtbl.create 64 in
        let note_append () =
          incr total;
          let b = int_of_float (Sim.Engine.now () /. bucket_us) in
          Hashtbl.replace buckets b (1 + Option.value (Hashtbl.find_opt buckets b) ~default:0)
        in
        for i = 1 to hosts do
          let c = Corfu.Cluster.new_client cluster ~name:(Printf.sprintf "load-%d" i) in
          Load.generator ~max_outstanding:64 (Load.window ()) ~rate (fun () ->
              ignore (Corfu.Client.append c ~streams:[ 1 + (i mod 4) ] (Bytes.make 64 'x'));
              note_append ();
              true)
        done;
        Sim.Engine.sleep warmup_us;
        let c0 = !total in
        Sim.Engine.sleep phase_us;
        let before_count = !total - c0 in
        let t_scale = Sim.Engine.now () in
        let epoch = Corfu.Cluster.scale_out cluster ~add_servers in
        let install_us = Sim.Engine.now () -. t_scale in
        Sim.Engine.sleep settle_us;
        let c1 = !total in
        Sim.Engine.sleep phase_us;
        let after_count = !total - c1 in
        let boundary =
          match Corfu.Cluster.reconfigs cluster with
          | [ { rc_change = Scaled_out { boundary }; _ } ] -> boundary
          | _ -> -1
        in
        (* the acceptance check: offsets granted before the
           reconfiguration resolve through the old (bounded) segment,
           from a client that never saw the old epoch *)
        let r = Corfu.Cluster.new_client cluster ~name:"post-reader" in
        let samples =
          List.filter (fun o -> o >= 0 && o < boundary)
            [ 0; 1; boundary / 4; boundary / 2; (3 * boundary / 4); boundary - 2; boundary - 1 ]
        in
        let old_ok =
          List.length
            (List.filter
               (fun off ->
                 match Corfu.Client.read_resolved r off with
                 | Corfu.Client.Data _ | Corfu.Client.Junk -> true
                 | _ -> false)
               samples)
        in
        let copied =
          List.fold_left
            (fun a (rc : Corfu.Cluster.reconfig) ->
              match rc.rc_change with
              | Replication_restored { copied_entries; _ } -> a + copied_entries
              | _ -> a)
            0
            (Corfu.Cluster.reconfigs cluster)
        in
        let series =
          List.sort compare (Hashtbl.fold (fun b n acc -> (b, n) :: acc) buckets [])
        in
        let before_s = float_of_int before_count /. (phase_us /. 1e6) in
        let after_s = float_of_int after_count /. (phase_us /. 1e6) in
        ( before_s,
          after_s,
          (if before_s > 0. then after_s /. before_s else 0.),
          boundary,
          epoch,
          install_us,
          old_ok,
          List.length samples,
          copied,
          series,
          Sim.Engine.now () ))
  in
  row "offered %.0fK appends/s from %d hosts; %d -> %d servers at epoch %d"
    (rate *. float_of_int hosts /. 1e3) hosts servers (servers + add_servers) epoch;
  row "sealed tail segment at offset %d; reconfiguration installed in %.0f us" boundary install_us;
  row "throughput: %.1fK/s before -> %.1fK/s after (x%.2f), %d entries copied" (before_s /. 1e3)
    (after_s /. 1e3) ratio copied;
  row "pre-reconfiguration offsets readable after: %d/%d" old_ok old_total;
  row "%10s %12s" "bucket-ms" "Kappends/s";
  List.iter
    (fun (b, n) ->
      row "%10.0f %12.1f"
        (float_of_int b *. bucket_us /. 1e3)
        (float_of_int n /. (bucket_us /. 1e6) /. 1e3))
    series;
  (* Watermark table (EXPERIMENTS.md §scale-out): log tail vs. the
     sequencer grant backlog per telemetry window, subsampled so the
     full sweep fits a dozen rows. *)
  (match
     ( Sim.Timeseries.find ~series:"probe:log.tail" ~col:"last",
       Sim.Timeseries.find ~series:"probe:sequencer-0.seq.grant_backlog" ~col:"max" )
   with
  | Some tail_sel, Some backlog_sel ->
      let n = Sim.Timeseries.windows () in
      let step = max 1 (n / 12) in
      row "%10s %12s %14s" "window-ms" "log-tail" "grant-backlog";
      let j = ref 0 in
      while !j < n do
        let tail = Sim.Timeseries.window_value tail_sel !j in
        let backlog = Sim.Timeseries.window_value backlog_sel !j in
        if Float.is_nan tail |> not then
          row "%10.0f %12.0f %14.0f"
            (Sim.Timeseries.window_start !j /. 1e3)
            tail
            (if Float.is_nan backlog then 0. else backlog);
        j := !j + step
      done
  | _ -> row "watermark series missing");
  Report.add_scenario ~name:"scale-out" ~seed
    ~params:
      [
        ("servers_before", string_of_int servers);
        ("servers_after", string_of_int (servers + add_servers));
        ("hosts", string_of_int hosts);
        ("offered_per_s", Printf.sprintf "%.0f" (rate *. float_of_int hosts));
        ("phase_us", Printf.sprintf "%.0f" phase_us);
      ]
    ~summary:
      [
        ("appends_per_s_before", before_s);
        ("appends_per_s_after", after_s);
        ("speedup", ratio);
        ("sealed_at", float_of_int boundary);
        ("epoch", float_of_int epoch);
        ("install_us", install_us);
        ("copied_entries", float_of_int copied);
        ("old_reads_ok", float_of_int old_ok);
        ("old_reads_total", float_of_int old_total);
        ("telemetry_windows", float_of_int (Sim.Timeseries.windows ()));
      ]
    ~timeseries_json:(Sim.Timeseries.to_json ())
    ~virtual_end_us:end_us ~metrics_json:(Sim.Metrics.to_json ()) ()

(* ------------------------------------------------------------------ *)
(* Hot-path kernels: ns/op and minor-words/op per kernel              *)
(* ------------------------------------------------------------------ *)

(* Hand-rolled because the regression gate needs {e allocation
   counts}, and [Gc.minor_words] deltas over a fixed op count are
   exactly reproducible, which adaptive sampling is not. Each kernel is the data path of one hot layer with the I/O
   boundary cut off; ops are sized so a run takes milliseconds. *)

let hot_measure ~ops f =
  for _ = 1 to max 1 (ops / 10) do
    f ()
  done;
  let w0 = Gc.minor_words () in
  let t0 = Unix.gettimeofday () in
  for _ = 1 to ops do
    f ()
  done;
  let t1 = Unix.gettimeofday () in
  let w1 = Gc.minor_words () in
  ((t1 -. t0) *. 1e9 /. float_of_int ops, (w1 -. w0) /. float_of_int ops)

let hot_report ~name ns words =
  row "%-24s %12.1f ns/op %12.3f minor-words/op" name ns words;
  Report.add_scenario ~name:("micro/" ^ name) ~seed:0
    ~summary:[ ("ns_per_op", ns); ("minor_words_per_op", words) ]
    ~virtual_end_us:0. ~metrics_json:"{}" ()

(* Shared sample data: the paper's 4-commit entry shape. *)
let hot_sample_records =
  List.init 4 (fun i ->
      Tango.Record.Commit
        {
          Tango.Record.c_reads =
            [ (1, Some "k00000001", 40 + i); (2, Some "k00000002", 41 + i); (3, None, 42 + i) ];
          c_writes =
            [
              { Tango.Record.u_oid = 1; u_key = Some "k00000003"; u_data = Bytes.make 32 'x' };
              { Tango.Record.u_oid = 2; u_key = Some "k00000004"; u_data = Bytes.make 32 'y' };
              { Tango.Record.u_oid = 3; u_key = None; u_data = Bytes.make 32 'z' };
            ];
          c_needs_decision = false;
        })

let micro_hotpath () =
  section "Hot-path kernels (ns/op, minor-words/op)";
  let module Wire = Corfu.Wire in
  (* corfu.wire encode: a mixed fixed-width frame through a reused
     arena writer; the [contents] copy is the ownership boundary and
     the kernel's only allocation. *)
  let w = Wire.writer ~size:256 () in
  let encode_frame b =
    for i = 1 to 4 do
      Wire.put_u8 b (i land 0xFF)
    done;
    for i = 1 to 8 do
      Wire.put_u32 b (i * 1000)
    done;
    for i = 1 to 16 do
      Wire.put_u64 b (i * 1_000_000)
    done;
    Wire.put_string b "k1234567"
  in
  let ns, words =
    hot_measure ~ops:200_000 (fun () ->
        Wire.reset w;
        encode_frame w;
        ignore (Wire.contents w))
  in
  hot_report ~name:"wire-encode" ns words;
  (* corfu.wire decode: the fixed-width fields back through a reused
     cursor — value-materialising reads (strings, bytes) are ownership
     boundaries measured by record-decode instead. *)
  let frame = Wire.to_bytes encode_frame in
  let cur = Wire.reader frame in
  let ns, words =
    hot_measure ~ops:200_000 (fun () ->
        Wire.reset_reader cur frame;
        let acc = ref 0 in
        for _ = 1 to 4 do
          acc := !acc + Wire.get_u8 cur
        done;
        for _ = 1 to 8 do
          acc := !acc + Wire.get_u32 cur
        done;
        for _ = 1 to 16 do
          acc := !acc + Wire.get_u64 cur
        done;
        ignore !acc)
  in
  hot_report ~name:"wire-decode" ns words;
  (* record encode/decode: whole-entry payloads; decode owns its
     output records, so its floor is the decoded structure itself. *)
  let sample_payload = Tango.Record.encode_payload hot_sample_records in
  let ns, words =
    hot_measure ~ops:100_000 (fun () -> ignore (Tango.Record.encode_payload hot_sample_records))
  in
  hot_report ~name:"record-encode" ns words;
  let ns, words =
    hot_measure ~ops:100_000 (fun () -> ignore (Tango.Record.decode_payload sample_payload))
  in
  hot_report ~name:"record-decode" ns words;
  (* batcher drain bookkeeping: submit 4 records, seal, group, pop,
     encode, recycle — the whole Batch_core cycle minus the RPCs.
     Reported per record. *)
  let core = Tango.Batch_core.create ~cap:4 ~dummy:(Sim.Ivar.create ()) in
  let recs = Array.of_list hot_sample_records in
  let ns, words =
    hot_measure ~ops:50_000 (fun () ->
        for i = 0 to 3 do
          ignore (Tango.Batch_core.submit core recs.(i) [ 7 ] (Sim.Ivar.create ()))
        done;
        Tango.Batch_core.seal core;
        let count = Tango.Batch_core.group core ~max_run:8 in
        ignore (Tango.Batch_core.front_streams core);
        for _ = 1 to count do
          let b = Tango.Batch_core.pop core in
          ignore (Tango.Batch_core.encode core b);
          for slot = 0 to Tango.Batch_core.length b - 1 do
            ignore (Tango.Batch_core.data b slot)
          done;
          Tango.Batch_core.recycle core b
        done)
  in
  hot_report ~name:"batcher-drain" (ns /. 4.) (words /. 4.);
  (* sequencer grant: a 2-stream count-4 range grant against the ring
     core at K=16; the response lists are the boundary. *)
  let seq_core = Corfu.Sequencer.Core.create ~k:16 () in
  let ns, words =
    hot_measure ~ops:200_000 (fun () ->
        ignore (Corfu.Sequencer.Core.grant seq_core ~streams:[ 7; 9 ] ~count:4))
  in
  hot_report ~name:"seq-grant" ns words;
  (* engine dispatch: drain-only over a prefilled queue, the exact
     peek/pop sequence of the run loop — [next_time_into], then the
     lane/heap split pop. Must report 0.000 (the capacity covers all
     4096 pushes, so the heap never grows, and a pop only moves
     scalars). *)
  let noop () = () in
  let q = Sim.Eventq.create ~capacity:4096 () in
  let cycles = 100 and n = 4096 in
  let words = ref 0. and time = ref 0. in
  (* Float-array sink, like the engine's own peek scratch: a returned
     float would arrive boxed across the module boundary. *)
  let sink = Array.make 1 0. in
  for _ = 1 to cycles do
    for i = 1 to n do
      ignore (Sim.Eventq.push q (float_of_int (i land 63)) i noop : Sim.Eventq.handle)
    done;
    let w0 = Gc.minor_words () in
    let t0 = Unix.gettimeofday () in
    while not (Sim.Eventq.is_empty q) do
      Sim.Eventq.next_time_into q sink;
      let thunk =
        if Sim.Eventq.next_is_lane q then Sim.Eventq.pop_lane q else Sim.Eventq.pop_heap q
      in
      thunk ()
    done;
    time := !time +. (Unix.gettimeofday () -. t0);
    words := !words +. (Gc.minor_words () -. w0)
  done;
  hot_report ~name:"engine-dispatch"
    (!time *. 1e9 /. float_of_int (cycles * n))
    (!words /. float_of_int (cycles * n));
  (* engine scheduling: push+pop steady state at 1024 pending. *)
  let q = Sim.Eventq.create () in
  for i = 1 to 1024 do
    ignore (Sim.Eventq.push q (float_of_int i) i noop : Sim.Eventq.handle)
  done;
  let seq = ref 1024 in
  let ns, words =
    hot_measure ~ops:200_000 (fun () ->
        (Sim.Eventq.pop q) ();
        incr seq;
        ignore (Sim.Eventq.push q (float_of_int (!seq land 2047)) !seq noop : Sim.Eventq.handle))
  in
  hot_report ~name:"engine-sched" ns words;
  (* deadline cancel: arm a timer among 512 pending ones and cancel it,
     as an answered timed RPC does. Must report 0.000: the handle is an
     immediate int and both heap operations move only scalars. *)
  let ns, words =
    Sim.Engine.run ~seed:0 (fun () ->
        for i = 1 to 512 do
          ignore (Sim.Engine.schedule ~after:(float_of_int i) noop : Sim.Engine.timer)
        done;
        hot_measure ~ops:200_000 (fun () ->
            ignore (Sim.Engine.cancel (Sim.Engine.schedule ~after:256.5 noop) : bool)))
  in
  hot_report ~name:"deadline-cancel" ns words;
  (* simulation kernel: the three primitives every simulated event
     pays — a fiber's sleep, an uncontended station service, and one
     RPC with no fault controller (two hops, four NIC services, two
     propagation sleeps, no deadline armed) between two hosts. The
     continuation each suspension captures is OCaml's own and the floor
     of all three. *)
  let timeout_us = Sim.Params.default.Sim.Params.rpc_timeout_us in
  let (sl_ns, sl_words), (ru_ns, ru_words), (nc_ns, nc_words) =
    Sim.Engine.run ~seed:0 (fun () ->
        let sl = hot_measure ~ops:200_000 (fun () -> Sim.Engine.sleep 1.) in
        let r = Sim.Resource.create ~name:"bench.station" ~capacity:1 () in
        let ru = hot_measure ~ops:200_000 (fun () -> Sim.Resource.use r 1.) in
        let net =
          Sim.Net.create ~latency:Sim.Params.default.Sim.Params.net_latency_us ~bandwidth:125. ()
        in
        let client = Sim.Net.add_host net "bench.client" in
        let server = Sim.Net.add_host net "bench.server" in
        let echo = Sim.Net.service server ~name:"bench.echo" (fun x -> x) in
        let nc =
          hot_measure ~ops:100_000 (fun () -> ignore (Sim.Net.call ~timeout_us ~from:client echo 1))
        in
        (sl, ru, nc))
  in
  hot_report ~name:"engine-sleep" sl_ns sl_words;
  hot_report ~name:"resource-use" ru_ns ru_words;
  hot_report ~name:"net-call" nc_ns nc_words;
  (* the same RPC under a fault controller, each on its own fabric, at
     the protocol's deadline: the exchange runs in a pooled job's
     worker fiber, woken rather than spawned, while the caller parks;
     the response feeds the round-trip estimate and cancels the
     deadline.
     net-call-r: under a quiet controller. net-call-faulted: between
     two healthy hosts while a third host is crashed, an unrelated edge
     rule is set and a partition names other hosts; the verdicts index
     arrays by host id, so it costs what net-call-r does. *)
  let (cr_ns, cr_words), (cf_ns, cf_words) =
    Sim.Engine.run ~seed:0 (fun () ->
        let pair name =
          let net =
            Sim.Net.create ~latency:Sim.Params.default.Sim.Params.net_latency_us ~bandwidth:125. ()
          in
          let fault = Sim.Fault.create () in
          Sim.Net.install_fault net fault;
          let client = Sim.Net.add_host net (name ^ ".client") in
          let server = Sim.Net.add_host net (name ^ ".server") in
          (fault, client, Sim.Net.service server ~name:(name ^ ".echo") (fun x -> x))
        in
        let call client echo =
          hot_measure ~ops:100_000 (fun () ->
              match Sim.Net.call ~timeout_us ~from:client echo 1 with
              | _ -> ()
              | exception Sim.Net.Unanswered -> failwith "micro: a healthy pair lost a call")
        in
        let _, client, echo = pair "bench.timed" in
        let cr = call client echo in
        let fault, client, echo = pair "bench.faulted" in
        Sim.Fault.crash fault "bench.faulted.down";
        Sim.Fault.degrade fault ~src:"bench.faulted.x" ~dst:"bench.faulted.y" ~delay_us:100. ();
        Sim.Fault.partition fault [ [ "bench.faulted.x" ]; [ "bench.faulted.y" ] ];
        let cf = call client echo in
        (cr, cf))
  in
  hot_report ~name:"net-call-r" cr_ns cr_words;
  hot_report ~name:"net-call-faulted" cf_ns cf_words;
  (* engine-spawn: a fiber whose body returns at once. The spawner
     queues a batch of them and yields, so each runs before the
     spawner resumes; reported per spawn, the spawner's yield shared
     by the batch. *)
  let sp_ns, sp_words =
    Sim.Engine.run ~seed:0 (fun () ->
        let body () = () in
        let batch = 100 in
        let ns, words =
          hot_measure ~ops:2_000 (fun () ->
              for _ = 1 to batch do
                Sim.Engine.spawn body
              done;
              Sim.Engine.yield ())
        in
        (ns /. float_of_int batch, words /. float_of_int batch))
  in
  hot_report ~name:"engine-spawn" sp_ns sp_words;
  (* blocking kernels: a wait costs a park (the continuation, stored
     with the fiber's id) and an allocation-free wake.
     resource-contended: two fibers alternate on a capacity-1 station,
     so every use but the first waits; reported per use.
     ivar-wake: create an ivar, park one reader on it, fill it from a
     prebuilt thunk. *)
  let (rc_ns, rc_words), (iw_ns, iw_words) =
    Sim.Engine.run ~seed:0 (fun () ->
        let r = Sim.Resource.create ~name:"bench.contended" ~capacity:1 () in
        let alternate ops =
          let partner = Sim.Ivar.create () in
          Sim.Engine.spawn (fun () ->
              for _ = 1 to ops do
                Sim.Resource.use r 1.
              done;
              Sim.Ivar.fill partner ());
          for _ = 1 to ops do
            Sim.Resource.use r 1.
          done;
          Sim.Ivar.read partner
        in
        let ops = 100_000 in
        alternate (ops / 10);
        let w0 = Gc.minor_words () in
        let t0 = Unix.gettimeofday () in
        alternate ops;
        let t1 = Unix.gettimeofday () in
        let w1 = Gc.minor_words () in
        let uses = float_of_int (2 * ops) in
        let rc = ((t1 -. t0) *. 1e9 /. uses, (w1 -. w0) /. uses) in
        let cur = ref (Sim.Ivar.create ()) in
        let fill_cur () = Sim.Ivar.fill !cur () in
        let iw =
          hot_measure ~ops:200_000 (fun () ->
              let iv = Sim.Ivar.create () in
              cur := iv;
              ignore (Sim.Engine.schedule ~after:0. fill_cur : Sim.Engine.timer);
              Sim.Ivar.read iv)
        in
        (rc, iw))
  in
  hot_report ~name:"resource-contended" rc_ns rc_words;
  hot_report ~name:"ivar-wake" iw_ns iw_words;
  (* stream playback: next_offset + readnext per entry over a
     stream whose members all sit in the client cache — the host cost
     playback pays per entry with the I/O cut off. Each cycle attaches
     a fresh iterator and syncs it from the cache (untimed), then times
     the playback. *)
  let ns, words =
    Sim.Engine.run ~seed:0 (fun () ->
        let k = Sim.Params.default.Sim.Params.backpointer_k in
        let cluster = Corfu.Cluster.create ~servers:2 () in
        let cl = Corfu.Cluster.new_client cluster ~name:"bench" in
        let sid = 7 and n = 4096 in
        (* members at every other offset, as when two streams interleave *)
        for i = 0 to n - 1 do
          let off = 2 * i in
          let backptrs = List.filter (fun p -> p >= 0) (List.init k (fun j -> off - (2 * (j + 1)))) in
          let headers =
            Corfu.Stream_header.encode_block ~k ~current:off
              [ { Corfu.Stream_header.stream = sid; backptrs } ]
          in
          Corfu.Client.cache_put cl off { Corfu.Types.headers; payload = Bytes.empty }
        done;
        let ptrs = List.init k (fun j -> 2 * (n - 1 - j)) in
        let cycles = 50 in
        let words = ref 0. and time = ref 0. in
        for _ = 1 to cycles do
          let s = Corfu.Stream.attach cl sid in
          Corfu.Stream.sync_with s ~tail:(2 * n) ~ptrs;
          let rec play () =
            if Corfu.Stream.next_offset s >= 0 then begin
              ignore (Corfu.Stream.readnext s);
              play ()
            end
          in
          let w0 = Gc.minor_words () in
          let t0 = Unix.gettimeofday () in
          play ();
          time := !time +. (Unix.gettimeofday () -. t0);
          words := !words +. (Gc.minor_words () -. w0);
          if Corfu.Stream.cache_misses s > 0 then
            failwith "stream-playback: the kernel left the cached path"
        done;
        let ops = float_of_int (cycles * n) in
        (!time *. 1e9 /. ops, !words /. ops))
  in
  hot_report ~name:"stream-playback" ns words;
  (* concurrent stream sync: 16 fibers sync one stream at the same
     instant against members another client wrote, so every walk
     blocks on an uncached read while the others run — the overlap
     the runtime's transaction and read fibers produce. Timed from the
     spawn until all 16 return (engine, RPC and walk cost included),
     reported per member discovered; a member registered twice fails
     the kernel outright. *)
  let fibers = 16 and per_cycle = 64 and cycles = 200 in
  let ns, words, dups =
    Sim.Engine.run ~seed:0 (fun () ->
        let cluster = Corfu.Cluster.create ~servers:2 () in
        let w = Corfu.Cluster.new_client cluster ~name:"writer" in
        let r = Corfu.Cluster.new_client cluster ~name:"reader" in
        let sid = 7 in
        let s = Corfu.Stream.attach r sid in
        let words = ref 0. and time = ref 0. in
        (* playback must deliver the members in strict log order *)
        let last = ref (-1) and out_of_order = ref 0 in
        for _ = 1 to cycles do
          ignore
            (Corfu.Client.append_range w ~streams:[ sid ]
               (List.init per_cycle (fun _ -> Bytes.empty)));
          let returned = Array.init fibers (fun _ -> Sim.Ivar.create ()) in
          let w0 = Gc.minor_words () in
          let t0 = Unix.gettimeofday () in
          Array.iter
            (fun iv ->
              Sim.Engine.spawn (fun () ->
                  ignore (Corfu.Stream.sync s);
                  Sim.Ivar.fill iv ()))
            returned;
          Array.iter Sim.Ivar.read returned;
          time := !time +. (Unix.gettimeofday () -. t0);
          words := !words +. (Gc.minor_words () -. w0);
          let rec play () =
            match Corfu.Stream.readnext s with
            | None -> ()
            | Some (off, _) ->
                if off <= !last then incr out_of_order;
                last := off;
                play ()
          in
          play ()
        done;
        let written = cycles * per_cycle in
        let dups = Corfu.Stream.discovered s - written + !out_of_order in
        let ops = float_of_int written in
        (!time *. 1e9 /. ops, !words /. ops, dups))
  in
  hot_report ~name:"stream-sync-concurrent" ns words;
  if dups <> 0 then
    failwith
      (Printf.sprintf "stream-sync-concurrent: %d duplicate or out-of-order stream members" dups);
  (* sync round: per iteration a writer appends one register update
     and a reader on another runtime runs one linearizable
     [Tango_register.read]: the sequencer check, the walk that finds
     the update, and its playback, with the RPCs, the storage read and
     the sleeps included. The cluster is otherwise quiet, so the words
     are the round's own. A read that misses the write fails the
     kernel. *)
  let ns, words, wrong =
    Sim.Engine.run ~seed:0 (fun () ->
        let cluster = Corfu.Cluster.create ~servers:2 () in
        let writer = Tango_register.attach (new_runtime cluster "writer") ~oid:1 in
        let reader = Tango_register.attach (new_runtime cluster "reader") ~oid:1 in
        let i = ref 0 and wrong = ref 0 in
        let ns, words =
          hot_measure ~ops:20_000 (fun () ->
              incr i;
              Tango_register.write writer !i;
              if Tango_register.read reader <> !i then incr wrong)
        in
        (ns, words, !wrong))
  in
  hot_report ~name:"sync-round" ns words;
  if wrong <> 0 then
    failwith (Printf.sprintf "sync-round: %d reads missed the write before them" wrong);
  (* append-record: 16 fibers on one runtime each issue [writes]
     register writes back to back over a fault-free 2-server cluster:
     the batched append path from submit to landed position (dispatch
     charge, batch seal, linger timer, range grant, header and payload
     encode, chain write, position wake). Timed from the spawns until
     every fiber's last write has landed, reported per write. The
     log's last record is some fiber's last write, so a lost or
     reordered write shows in the value read back. *)
  let fibers = 16 and writes = 500 in
  let ns, words, last =
    Sim.Engine.run ~seed:0 (fun () ->
        let cluster = Corfu.Cluster.create ~servers:2 () in
        let reg = Tango_register.attach (new_runtime cluster "writer") ~oid:1 in
        let round () =
          let finished = Array.init fibers (fun _ -> Sim.Ivar.create ()) in
          let w0 = Gc.minor_words () in
          let t0 = Unix.gettimeofday () in
          Array.iteri
            (fun f iv ->
              Sim.Engine.spawn (fun () ->
                  for i = 1 to writes do
                    Tango_register.write reg ((f * writes) + i)
                  done;
                  Sim.Ivar.fill iv ()))
            finished;
          Array.iter Sim.Ivar.read finished;
          let t1 = Unix.gettimeofday () in
          let w1 = Gc.minor_words () in
          let ops = float_of_int (fibers * writes) in
          ((t1 -. t0) *. 1e9 /. ops, (w1 -. w0) /. ops)
        in
        ignore (round ());
        let ns, words = round () in
        (ns, words, Tango_register.read reg))
  in
  hot_report ~name:"append-record" ns words;
  if last mod writes <> 0 then
    failwith (Printf.sprintf "append-record: the log ends with %d, no fiber's last write" last);
  (* telemetry-plane kernels: every recording path must hold the
     steady-state allocation discipline. They need the virtual clock
     (flight events and window seals are virtually timestamped), so
     they run inside one engine run; the clock is frozen, which the
     aggregation treats as a zero-length window (rate 0). *)
  let ( (fl_ns, fl_words),
        (ts_ns, ts_words),
        (slo_ns, slo_words),
        (sp_ns, sp_words),
        (st_ns, st_words),
        (an_ns, an_words) ) =
    Sim.Engine.run ~seed:0 (fun () ->
        let flight_was = Sim.Flight.enabled () in
        Sim.Flight.set_enabled true;
        (* flight.record: one ring store per event once the host ring
           exists. *)
        let fl =
          hot_measure ~ops:200_000 (fun () ->
              Sim.Flight.record ~host:"bench" Sim.Flight.Metric ~name:"kernel" ~value:1.)
        in
        Sim.Flight.set_enabled flight_was;
        (* timeseries.tick: one sub-sample of a representative source
           mix (counter, gauge, histogram, probe), sealing a window
           every [subticks] calls into preallocated rings. *)
        let c = Sim.Metrics.counter ~host:"bench" "kernel.ctr" in
        let g = Sim.Metrics.gauge ~host:"bench" "kernel.gauge" in
        let h = Sim.Metrics.histogram ~host:"bench" "kernel.hist" in
        Sim.Metrics.incr c;
        Sim.Metrics.set_gauge g 1.;
        Sim.Metrics.observe h 50.;
        Sim.Timeseries.track_counter c;
        Sim.Timeseries.track_gauge g;
        Sim.Timeseries.track_histogram h;
        Sim.Timeseries.probe ~host:"bench" "kernel.probe" (fun () -> 1.);
        let ts = hot_measure ~ops:200_000 (fun () -> Sim.Timeseries.tick ()) in
        (* slo.eval: one window classification through the burn-rate
           bit ring — the steady no-transition path. *)
        let m =
          Sim.Slo.monitor ~name:"kernel" ~series:"probe:bench.kernel.probe" ~col:"last"
            ~threshold:10. ~objective:0.99 ()
        in
        let slo = hot_measure ~ops:200_000 (fun () -> Sim.Slo.feed m 1.) in
        (* span-off: a span-only section (check_tail, fill, rpc) with
           tracing disabled — two branches, 0.000 minor-words/op.
           section-timed: a section that feeds a histogram (append,
           chain.write, playback.apply) with tracing disabled — a slot,
           two clock reads and an unboxed observation, also 0.000. *)
        assert (not (Sim.Span.enabled ()));
        let work = Sim.Metrics.counter ~host:"bench" "kernel.work" in
        let args k = [ ("k", string_of_int k) ] in
        let span_only = Sim.Span.site ~host:"bench" ~args "bench.op" in
        let sp =
          hot_measure ~ops:200_000 (fun () ->
              let tok = Sim.Span.enter span_only 1 in
              Sim.Metrics.incr work;
              Sim.Span.leave span_only tok)
        in
        let hist = Sim.Metrics.histogram ~host:"bench" "kernel.section_us" in
        let timed = Sim.Span.site ~host:"bench" ~hist ~args "bench.op" in
        let st =
          hot_measure ~ops:200_000 (fun () ->
              let tok = Sim.Span.enter timed 1 in
              Sim.Metrics.incr work;
              Sim.Span.leave timed tok)
        in
        (* announce-off: the guarded Append_acked call-site pattern
           (corfu client) with no trace, flight or subscriber armed —
           the branch must be the whole cost, 0.000 minor-words/op. *)
        assert (not (Sim.Announce.active ()));
        let streams = [ 7 ] in
        let an =
          hot_measure ~ops:200_000 (fun () ->
              if Sim.Announce.active () then
                Sim.Announce.emit
                  (Sim.Announce.Append_acked { client = "bench"; offset = 1; streams }))
        in
        (fl, ts, slo, sp, st, an))
  in
  hot_report ~name:"flight.record" fl_ns fl_words;
  hot_report ~name:"timeseries.tick" ts_ns ts_words;
  hot_report ~name:"slo.eval" slo_ns slo_words;
  hot_report ~name:"span-off" sp_ns sp_words;
  hot_report ~name:"section-timed" st_ns st_words;
  hot_report ~name:"announce-off" an_ns an_words;
  if an_words >= 0.0005 then failwith "announce-off: the disarmed milestone path allocates"

(* Whole-run wall-clock throughput: a fixed fig5-style closed loop,
   reported as simulation events (and appends) per second of real
   time — the end-to-end number the CI gate protects. *)
let micro_events_wall () =
  section "Whole-run wall clock (events/s of real time)";
  let seed = 11 in
  let virtual_us = 4_000_000. in
  let (appends, events), perf =
    Report.with_perf (fun () ->
        Sim.Engine.run ~seed (fun () ->
            let cluster = Corfu.Cluster.create ~servers:4 () in
            let rt = new_runtime cluster "app" in
            let reg = Tango_register.attach rt ~oid:1 in
            let ops = ref 0 in
            for _ = 1 to 8 do
              Sim.Engine.spawn (fun () ->
                  let rec loop () =
                    Tango_register.write reg 1;
                    incr ops;
                    loop ()
                  in
                  loop ())
            done;
            Sim.Engine.sleep virtual_us;
            (!ops, Sim.Engine.events_dispatched ())))
  in
  let events_rate = float_of_int events /. perf.Report.wall_s in
  let appends_rate = float_of_int appends /. perf.Report.wall_s in
  row "%-24s %12.3f wall-s %10d events %12.0f events/wall-s %10.0f appends/wall-s" "events-wall"
    perf.Report.wall_s events events_rate appends_rate;
  Report.add_scenario ~name:"micro/events-wall" ~seed
    ~params:[ ("servers", "4"); ("writers", "8"); ("virtual_us", string_of_float virtual_us) ]
    ~summary:
      [
        ("events", float_of_int events);
        ("appends", float_of_int appends);
        ("events_per_wall_s", events_rate);
        ("appends_per_wall_s", appends_rate);
      ]
    ~perf ~virtual_end_us:virtual_us ~metrics_json:(Sim.Metrics.to_json ()) ()

let micro () =
  micro_hotpath ();
  micro_events_wall ()

(* ------------------------------------------------------------------ *)
(* Driver                                                             *)
(* ------------------------------------------------------------------ *)

(* Experiments share no state: the stdout of one whole-suite process
   is the banner plus each experiment's lone-run stdout, concatenated
   in this order, which is what lets ci/evaluation.out pin them all. *)
let experiments =
  [
    ("fig2", fig2);
    ("fig5", fig5);
    ("fig8-left", fig8_left);
    ("fig8-mid", fig8_mid);
    ("fig8-right", fig8_right);
    ("fig8-window", fig8_window);
    ("fig9", fig9);
    ("fig10-left", fig10_left);
    ("fig10-mid", fig10_mid);
    ("fig10-right", fig10_right);
    ("tbl-zk", tbl_zk);
    ("tbl-bk", tbl_bk);
    ("ablation-k", ablation_k);
    ("ablation-decision", ablation_decision);
    ("ablation-versioning", ablation_versioning);
    ("ablation-seqbatch", ablation_seqbatch);
    ("ablation-seqckpt", ablation_seqckpt);
    ("chaos-crash", chaos_crash);
    ("scale-out", scale_out_bench);
  ]

let () =
  let rec split names json = function
    | [] -> (List.rev names, json)
    | [ "--json" ] ->
        prerr_endline "--json requires a file argument";
        exit 2
    | "--json" :: path :: rest -> split names (Some path) rest
    | x :: rest -> split (x :: names) json rest
  in
  let names, json = split [] None (List.tl (Array.to_list Sys.argv)) in
  if json <> None then Report.enable ();
  (match names with
  | [] ->
      print_endline "Tango evaluation harness";
      List.iter (fun (_, f) -> f ()) experiments
  | names ->
      List.iter
        (fun name ->
          match List.assoc_opt name experiments with
          | Some f -> f ()
          | None when name = "micro" -> micro ()
          | None ->
              Printf.eprintf "unknown experiment %S; known: %s micro\n" name
                (String.concat " " (List.map fst experiments));
              exit 2)
        names);
  match json with
  | None -> ()
  | Some path ->
      Report.write path;
      Printf.eprintf "wrote JSON report to %s\n%!" path
