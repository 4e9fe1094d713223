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
module Load = Tango_harness.Load
module Report = Tango_harness.Report

let warmup_us = 100_000.
let measure_us = 300_000.

(* ------------------------------------------------------------------ *)
(* Output helpers                                                     *)
(* ------------------------------------------------------------------ *)

let section title = Printf.printf "\n=== %s ===\n%!" title
let row fmt = Printf.printf (fmt ^^ "\n%!")
let new_runtime cluster name = Tango.Runtime.create (Corfu.Cluster.new_client cluster ~name)
let commit rt = Tango.Runtime.end_tx rt = Tango.Runtime.Committed

(* A bare fabric (no cluster) at the default latency and RPC cap. *)
let bare_net () =
  Sim.Net.create ~latency:Sim.Params.default.Sim.Params.net_latency_us ~bandwidth:125.
    ~timeout_us:Sim.Params.default.Sim.Params.rpc_timeout_us ()

(* The measure window of every section: in a fresh engine run at
   [seed], [load m] starts the workload on window [m] and returns what
   to read from [m]'s report once the warmup and the measurement have
   passed, still inside the run. Windows in [also] are measured with
   [m]. *)
let measured ~seed ?(also = []) load =
  Sim.Engine.run ~seed (fun () ->
      let m = Load.window () in
      let read = load m in
      Load.measure ~warmup_us ~measure_us (m :: also);
      read (Load.report m))

(* ------------------------------------------------------------------ *)
(* Sweeps                                                             *)
(* ------------------------------------------------------------------ *)

(* A column prints the point's param [name], padded to [width] (on the
   right when the width is negative), or else the row's value [name]
   to [decimals] places ("-" for nan). [head] heads it. *)
type column = { name : string; head : string; width : int; decimals : int }

let col ?head name width decimals =
  { name; head = Option.value head ~default:name; width; decimals }

(* One run of a point: its figures, named by their columns. *)
type row = (string * float) list

(* An evaluation section is a parameter sweep: one line per point, the
   point's params and its row's values in the columns' order, under a
   line of the column heads unless [header] is off. [seed p] is point
   [p]'s seed; a row that takes several runs derives theirs from it. *)
type 'p sweep = {
  name : string;
  title : string;
  header : bool;
  columns : column list;
  points : 'p list;
  params : 'p -> (string * string) list;
  seed : 'p -> int;
  run : seed:int -> 'p -> row;
}

(* A section is a sweep, or a single run that prints tables of its own
   and reports itself. *)
type experiment = Sweep : 'p sweep -> experiment | Single of string * (unit -> unit)

let sweep ?(header = true) ~name ~title ~columns ~params ~seed points run =
  Sweep { name; title; header; columns; points; params; seed; run }

let int_param name n = [ (name, string_of_int n) ]

let workers m n op =
  for _ = 1 to n do
    Load.worker m op
  done

let grid xs ys = List.concat_map (fun x -> List.map (fun y -> (x, y)) ys) xs

(* A section of "label value unit" lines has no header: a point is one
   line, and its label and unit are its params. *)
let label_columns ~label value = [ col "label" label 0; value; col "unit" 0 0 ]
let label_params label unit = [ ("label", label); ("unit", unit) ]

(* Prints the sweep's table and reports each row as one scenario named
   after the section, with the point's params and the row's values. *)
let run_sweep sw =
  section sw.title;
  let line cells = print_endline (String.concat " " cells) in
  let pad (c : column) s = Printf.sprintf "%*s" c.width s in
  if sw.header then line (List.map (fun c -> pad c c.head) sw.columns);
  List.iter
    (fun p ->
      let seed = sw.seed p and params = sw.params p in
      let row = sw.run ~seed p in
      let cell (c : column) =
        match List.assoc_opt c.name params with
        | Some s -> pad c s
        | None ->
            let v = List.assoc c.name row in
            if Float.is_nan v then pad c "-" else Printf.sprintf "%*.*f" c.width c.decimals v
      in
      line (List.map cell sw.columns);
      Report.add_scenario ~name:sw.name ~seed ~params ~summary:row ~virtual_end_us:0.
        ~metrics_json:"{}" ())
    sw.points

(* ------------------------------------------------------------------ *)
(* Figures 2 and 8: the sequencer and one register view               *)
(* ------------------------------------------------------------------ *)

let sequencer_rate ~seed ~clients ~batch =
  measured ~seed (fun m ->
      let cluster = Corfu.Cluster.create ~servers:2 () in
      let seq = Corfu.Cluster.sequencer cluster in
      for i = 1 to clients do
        let client = Corfu.Cluster.new_client cluster ~name:(Printf.sprintf "c%d" i) in
        let host = Corfu.Client.host client in
        (* a window of 2 outstanding requests per client, as a
           pipelined sequencer client would run *)
        workers m 2 (fun () ->
            match
              Sim.Net.call ~from:host (Corfu.Sequencer.increment_service seq)
                { Corfu.Sequencer.iepoch = 0; istreams = []; icount = batch }
            with
            | Corfu.Sequencer.Seq_ok _ -> true
            | Corfu.Sequencer.Seq_sealed _ -> false)
      done;
      fun r -> r.throughput *. float_of_int batch /. 1e3)

let fig2 =
  sweep ~name:"fig2" ~title:"Figure 2: sequencer throughput (Ks of requests/sec vs clients)"
    ~columns:[ col "clients" 8 0; col "Kreq/s" 14 0 ]
    ~params:(int_param "clients") ~seed:(fun clients -> 101 + clients)
    [ 1; 2; 5; 10; 15; 20; 25; 30; 35; 40 ]
    (fun ~seed clients -> [ ("Kreq/s", sequencer_rate ~seed ~clients ~batch:1) ])

let fig8_left =
  sweep ~name:"fig8-left"
    ~title:"Figure 8 (Left): single view — latency vs throughput per write ratio"
    ~columns:
      [
        col "write-ratio" 12 0; col "window" 8 0; col "Kops/s" 10 1; col "mean-ms" 10 2;
        col "p99-ms" 10 2;
      ]
    ~params:(fun (ratio, window) ->
      [ ("write-ratio", Printf.sprintf "%.1f" ratio); ("window", string_of_int window) ])
    ~seed:(fun (ratio, window) -> int_of_float (ratio *. 100.) + window)
    (grid [ 1.0; 0.9; 0.5; 0.1; 0.0 ] [ 8; 16; 32; 64; 128; 256 ])
    (fun ~seed (ratio, window) ->
      measured ~seed (fun m ->
          let cluster = Corfu.Cluster.create ~servers:18 () in
          let rt = new_runtime cluster "app" in
          let reg = Tango_register.attach rt ~oid:1 in
          let rng = Sim.Rng.split (Sim.Engine.rng ()) in
          workers m window (fun () ->
              if Sim.Rng.bool rng ratio then Tango_register.write reg 1
              else ignore (Tango_register.read reg);
              true);
          fun r ->
            [
              ("Kops/s", r.throughput /. 1e3);
              ("mean-ms", r.latency_mean_us /. 1e3);
              ("p99-ms", r.latency_p99_us /. 1e3);
            ]))

let fig8_mid =
  sweep ~name:"fig8-mid"
    ~title:"Figure 8 (Middle): primary/backup — reads on one view, writes on the other"
    ~columns:
      [
        col "target-writes/s" 16 0; col "Kreads/s" 12 1; col "Kwrites/s" 12 1;
        col "read-mean-ms" 14 2;
      ]
    ~params:(fun rate -> [ ("target-writes/s", Printf.sprintf "%.0f" rate) ])
    ~seed:(fun rate -> int_of_float rate + 7)
    [ 0.; 5_000.; 10_000.; 20_000.; 30_000.; 40_000. ]
    (fun ~seed rate ->
      let writes = Load.window () in
      measured ~seed ~also:[ writes ] (fun reads ->
          let cluster = Corfu.Cluster.create ~servers:18 () in
          let rt_w = new_runtime cluster "primary" in
          let rt_r = new_runtime cluster "backup" in
          let reg_w = Tango_register.attach rt_w ~oid:1 in
          let reg_r = Tango_register.attach rt_r ~oid:1 in
          if rate > 0. then
            Load.generator writes ~rate (fun () ->
                Tango_register.write reg_w 1;
                true);
          workers reads 64 (fun () ->
              ignore (Tango_register.read reg_r);
              true);
          fun r ->
            [
              ("Kreads/s", r.throughput /. 1e3);
              ("Kwrites/s", (Load.report writes).throughput /. 1e3);
              ("read-mean-ms", r.latency_mean_us /. 1e3);
            ]))

let fig8_right_point ~seed ~servers ~readers =
  measured ~seed (fun reads ->
      let cluster = Corfu.Cluster.create ~servers () in
      let reg_w = Tango_register.attach (new_runtime cluster "writer") ~oid:1 in
      Load.generator (Load.window ()) ~rate:10_000. (fun () ->
          Tango_register.write reg_w 1;
          true);
      for i = 1 to readers do
        let rt = new_runtime cluster (Printf.sprintf "reader-%d" i) in
        let reg = Tango_register.attach rt ~oid:1 in
        Load.generator ~max_outstanding:64 reads ~rate:10_000. (fun () ->
            ignore (Tango_register.read reg);
            true)
      done;
      fun r -> r.throughput /. 1e3)

let fig8_right =
  sweep ~name:"fig8-right"
    ~title:"Figure 8 (Right): read elasticity — N readers at 10K reads/s, 10K writes/s"
    ~columns:[ col "readers" 8 0; col "18-srv Kreads/s" 16 1; col "2-srv Kreads/s" 16 1 ]
    ~params:(int_param "readers") ~seed:(fun readers -> 18 + readers)
    [ 2; 4; 6; 8; 10; 12; 14; 16; 18 ]
    (fun ~seed readers ->
      [
        ("18-srv Kreads/s", fig8_right_point ~seed ~servers:18 ~readers);
        ("2-srv Kreads/s", fig8_right_point ~seed:(seed - 16) ~servers:2 ~readers);
      ])

let fig8_window =
  sweep ~name:"fig8-window"
    ~title:"Figure 8 (window sweep): 64 closed-loop writers vs append window"
    ~columns:
      [
        col "window" 8 0; col "Kwrites/s" 10 1; col "entries" 9 0; col "grants" 8 0;
        col "grant-occ" 11 2; col "peak-depth" 11 0; col "cache-hit" 10 0; col "cache-miss" 11 0;
      ]
    ~params:(int_param "window") ~seed:(fun window -> 900 + window)
    [ 1; 2; 4; 8; 16; 32 ]
    (fun ~seed append_window ->
      measured ~seed (fun m ->
          let params = { Sim.Params.default with Sim.Params.append_window } in
          let cluster = Corfu.Cluster.create ~params ~servers:18 () in
          let rt = new_runtime cluster "writer" in
          let reg = Tango_register.attach rt ~oid:1 in
          workers m 64 (fun () ->
              Tango_register.write reg 1;
              true);
          fun r ->
            let s = Tango.Runtime.append_stats rt and n = float_of_int in
            let occ = if s.as_grants = 0 then 0. else n s.as_granted_entries /. n s.as_grants in
            [
              ("Kwrites/s", r.throughput /. 1e3); ("entries", n s.as_entries);
              ("grants", n s.as_grants); ("grant-occ", occ); ("peak-depth", n s.as_inflight_peak);
              ("cache-hit", n s.as_cache_hits); ("cache-miss", n s.as_cache_misses);
            ]))

(* ------------------------------------------------------------------ *)
(* Figure 5: latency decomposition of appends and reads               *)
(* ------------------------------------------------------------------ *)

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
  let r = Load.window () in
  let appends_s, reads_s, end_us =
    measured ~seed ~also:[ r ] (fun w ->
        let cluster = Corfu.Cluster.create ~servers () in
        let rt = new_runtime cluster "app" in
        let reg = Tango_register.attach rt ~oid:1 in
        Sim.Metrics.start_sampler ();
        Sim.Timeseries.start ();
        fig5_monitors ();
        workers w writers (fun () ->
            Tango_register.write reg 1;
            true);
        workers r readers (fun () ->
            ignore (Tango_register.read reg);
            true);
        fun wr -> (wr.throughput, (Load.report r).throughput, Sim.Engine.now ()))
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
(* Figures 9 and 10: transactions on TangoMaps                        *)
(* ------------------------------------------------------------------ *)

let map_tx rt map dist rng =
  Tango.Runtime.begin_tx rt;
  List.iter (fun k -> ignore (Tango_map.get map k)) (Key_dist.distinct_keys dist rng 3);
  List.iter (fun k -> Tango_map.put map k "v") (Key_dist.distinct_keys dist rng 3);
  commit rt

let fig9 =
  sweep ~name:"fig9" ~title:"Figure 9: fully replicated TangoMap — 3R+3W transactions"
    ~columns:
      [ col "dist" 8 0; col "keys" 10 0; col "nodes" 10 0; col "Ktx/s" 12 1; col "Kgoodput/s" 12 1 ]
    ~params:(fun (zipfian, (keys, nodes)) ->
      ("dist", if zipfian then "zipf" else "uniform")
      :: (int_param "keys" keys @ int_param "nodes" nodes))
    ~seed:(fun (zipfian, (keys, nodes)) -> nodes + keys + if zipfian then 1 else 0)
    (grid [ true; false ] (grid [ 100; 10_000; 1_000_000 ] [ 2; 3; 4; 6; 8 ]))
    (fun ~seed (zipfian, (keys, nodes)) ->
      measured ~seed (fun m ->
          let cluster = Corfu.Cluster.create ~servers:18 () in
          let dist = if zipfian then Key_dist.zipf ~n:keys () else Key_dist.uniform ~n:keys in
          for i = 1 to nodes do
            let rt = new_runtime cluster (Printf.sprintf "node-%d" i) in
            let map = Tango_map.attach rt ~oid:1 in
            let rng = Sim.Rng.split (Sim.Engine.rng ()) in
            workers m 32 (fun () -> map_tx rt map dist rng)
          done;
          fun r -> [ ("Ktx/s", r.throughput /. 1e3); ("Kgoodput/s", r.goodput /. 1e3) ]))

let fig10_left_point ~seed ~servers ~clients =
  measured ~seed (fun m ->
      let cluster = Corfu.Cluster.create ~servers () in
      let dist = Key_dist.uniform ~n:100_000 in
      for i = 1 to clients do
        let rt = new_runtime cluster (Printf.sprintf "node-%d" i) in
        let map = Tango_map.attach rt ~oid:i in
        let rng = Sim.Rng.split (Sim.Engine.rng ()) in
        workers m 24 (fun () -> map_tx rt map dist rng)
      done;
      fun r -> r.throughput /. 1e3)

let fig10_left =
  sweep ~name:"fig10-left"
    ~title:"Figure 10 (Left): one TangoMap per client — single-partition transactions"
    ~columns:[ col "clients" 8 0; col "18-srv Ktx/s" 16 1; col "6-srv Ktx/s" 16 1 ]
    ~params:(int_param "clients") ~seed:(fun clients -> 18 + clients)
    [ 2; 4; 6; 8; 10; 12; 14; 16; 18 ]
    (fun ~seed clients ->
      [
        ("18-srv Ktx/s", fig10_left_point ~seed ~servers:18 ~clients);
        ("6-srv Ktx/s", fig10_left_point ~seed:(seed - 12) ~servers:6 ~clients);
      ])

let fig10_mid_tango ~seed ~clients ~cross_pct =
  measured ~seed (fun m ->
      let cluster = Corfu.Cluster.create ~servers:18 () in
      let dist = Key_dist.uniform ~n:100_000 in
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
              commit rt))
        runtimes;
      fun r -> r.goodput /. 1e3)

let fig10_mid_2pl ~seed ~clients ~cross_pct =
  measured ~seed (fun m ->
      let net = bare_net () in
      let t = Tpl.create ~net in
      let nodes = Array.init clients (fun i -> Tpl.add_node t ~name:(Printf.sprintf "n%d" i)) in
      let dist = Key_dist.uniform ~n:100_000 in
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
      fun r -> r.goodput /. 1e3)

let fig10_mid =
  sweep ~name:"fig10-mid" ~title:"Figure 10 (Middle): % cross-partition transactions — Tango vs 2PL"
    ~columns:[ col "cross-%" 8 0; col "Tango Ktx/s" 14 1; col "2PL Ktx/s" 14 1 ]
    ~params:(int_param "cross-%") ~seed:(fun pct -> 18 + pct)
    [ 0; 1; 2; 4; 8; 16; 32; 64; 100 ]
    (fun ~seed cross_pct ->
      [
        ("Tango Ktx/s", fig10_mid_tango ~seed ~clients:18 ~cross_pct);
        ("2PL Ktx/s", fig10_mid_2pl ~seed:(seed + 1000) ~clients:18 ~cross_pct);
      ])

let fig10_right =
  sweep ~name:"fig10-right" ~title:"Figure 10 (Right): 4 clients, private + shared TangoMap"
    ~columns:[ col "common-%" 9 0; col "Ktx/s" 12 1; col "Kgoodput/s" 14 1 ]
    ~params:(int_param "common-%") ~seed:(fun pct -> 2000 + pct)
    [ 0; 1; 2; 4; 8; 16; 32; 64; 100 ]
    (fun ~seed common_pct ->
      measured ~seed (fun m ->
          let cluster = Corfu.Cluster.create ~servers:18 () in
          let dist = Key_dist.uniform ~n:100_000 in
          let common_oid = 100 in
          for i = 1 to 4 do
            let rt = new_runtime cluster (Printf.sprintf "n%d" i) in
            let priv = Tango_map.attach rt ~oid:i in
            (* the shared object is marked: its commit records need
               decision records for clients lacking the private read sets *)
            let common = Tango_map.attach rt ~oid:common_oid ~needs_decision:true in
            let rng = Sim.Rng.split (Sim.Engine.rng ()) in
            workers m 12 (fun () ->
                let shared = Sim.Rng.int rng 100 < common_pct in
                Tango.Runtime.begin_tx rt;
                List.iter
                  (fun k -> ignore (Tango_map.get priv k))
                  (Key_dist.distinct_keys dist rng 2);
                List.iter (fun k -> Tango_map.put priv k "v") (Key_dist.distinct_keys dist rng 2);
                if shared then begin
                  ignore (Tango_map.get common (Key_dist.sample_key dist rng));
                  Tango_map.put common (Key_dist.sample_key dist rng) "v"
                end;
                commit rt)
          done;
          fun r -> [ ("Ktx/s", r.throughput /. 1e3); ("Kgoodput/s", r.goodput /. 1e3) ]))

(* ------------------------------------------------------------------ *)
(* §6.3 tables: TangoZK and TangoBK                                   *)
(* ------------------------------------------------------------------ *)

let tbl_zk_independent m ~clients cluster =
  for i = 1 to clients do
    let rt = new_runtime cluster (Printf.sprintf "zk-%d" i) in
    let zk = Tango_zk.attach rt ~oid:i in
    (match Tango_zk.create zk "/data" "" with Ok _ | Error _ -> ());
    for f = 0 to 9 do
      match Tango_zk.create zk (Printf.sprintf "/data/f%d" f) "x" with Ok _ | Error _ -> ()
    done;
    for w = 0 to 11 do
      (* each worker owns one file: independent-namespace traffic
         should be conflict-free, as in the paper *)
      let f = Printf.sprintf "/data/w%d" w in
      (match Tango_zk.create zk f "x" with Ok _ | Error _ -> ());
      Load.worker m (fun () ->
          match Tango_zk.set_data zk f "y" with Ok () -> true | Error _ -> false)
    done
  done

let tbl_zk_moves m ~clients cluster =
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
      workers m 4 (fun () ->
          (* create a fresh file locally, then move it atomically to
             the neighbouring namespace *)
          incr counter;
          let path = Printf.sprintf "/m%d-%d-%d" i !counter (Sim.Rng.int rng 1_000_000) in
          match Tango_zk.create zk path "payload" with
          | Error _ -> false
          | Ok p -> Tango_zk.move zk ~dst_oid p))
    zks

let tbl_zk =
  sweep ~header:false ~name:"tbl-zk"
    ~title:"Section 6.3: TangoZK (ops within namespaces; moves across namespaces)"
    ~columns:(label_columns ~label:(-44) (col "Ktx/s" 10 1))
    ~params:(fun independent ->
      label_params
        (if independent then "18 clients, independent namespaces:"
         else "18 clients, cross-namespace atomic moves:")
        "Ktx/s")
    ~seed:(fun independent -> if independent then 31 else 32)
    [ true; false ]
    (fun ~seed independent ->
      let load = if independent then tbl_zk_independent else tbl_zk_moves in
      measured ~seed (fun m ->
          load m ~clients:18 (Corfu.Cluster.create ~servers:18 ());
          fun r -> [ ("Ktx/s", r.goodput /. 1e3) ]))

let tbl_bk =
  sweep ~header:false ~name:"tbl-bk"
    ~title:"Section 6.3: TangoBK ledger append throughput (4KB entries)"
    ~columns:(label_columns ~label:0 (col "Kwrites/s" 0 1))
    ~params:(fun clients ->
      label_params (Printf.sprintf "%d clients, one ledger each:" clients) "Kwrites/s")
    ~seed:(fun _ -> 33) [ 18 ]
    (fun ~seed clients ->
      measured ~seed (fun m ->
          let params = { Sim.Params.default with Sim.Params.commit_batch = 1 } in
          let cluster = Corfu.Cluster.create ~params ~servers:18 () in
          let payload = Bytes.make 3000 'x' in
          for i = 1 to clients do
            let rt = new_runtime cluster (Printf.sprintf "bk-%d" i) in
            let bk = Tango_bk.attach rt ~oid:i in
            let ledger = Tango_bk.create_ledger bk in
            workers m 12 (fun () ->
                match Tango_bk.add_entry bk ~ledger payload with Ok _ -> true | Error _ -> false)
          done;
          fun r -> [ ("Kwrites/s", r.goodput /. 1e3) ]))

(* ------------------------------------------------------------------ *)
(* Ablations                                                          *)
(* ------------------------------------------------------------------ *)

let ablation_k =
  sweep ~name:"ablation-k" ~title:"Ablation: backpointer redundancy K vs stream rebuild cost"
    ~columns:
      [
        col "K" 4 0; col "entries" 10 0; col ~head:"sync reads" "sync-reads" 14 0;
        col "reads/entry" 16 3;
      ]
    ~params:(int_param "K") ~seed:(fun k -> 40 + k)
    [ 4; 8; 16 ]
    (fun ~seed k ->
      let n = 512 in
      let reads =
        Sim.Engine.run ~seed (fun () ->
            let params = { Sim.Params.default with Sim.Params.backpointer_k = k } in
            let cluster = Corfu.Cluster.create ~params ~servers:4 () in
            let w = Corfu.Cluster.new_client cluster ~name:"writer" in
            for i = 0 to n - 1 do
              ignore (Corfu.Client.append w ~streams:[ 1 ] (Bytes.of_string (string_of_int i)))
            done;
            let r = Corfu.Cluster.new_client cluster ~name:"reader" in
            let s = Corfu.Stream.attach r 1 in
            ignore (Corfu.Stream.sync s);
            float_of_int (Corfu.Stream.sync_reads s))
      in
      let n = float_of_int n in
      [ ("entries", n); ("sync-reads", reads); ("reads/entry", reads /. n) ])

(* A local write, a remote write (which adds the decision-record
   phase), and a collaborative remote read (§4.1 D, future work). *)
let decision_latency m = function
  | (`Local | `Remote) as dst ->
      let cluster = Corfu.Cluster.create ~servers:18 () in
      let rt = new_runtime cluster "producer" in
      let src = Tango_map.attach rt ~oid:1 in
      let _local_dst = Tango_map.attach rt ~oid:2 in
      let rt2 = new_runtime cluster "consumer" in
      let _remote_dst = Tango_map.attach rt2 ~oid:3 in
      Tango_map.put src "k" "v";
      workers m 4 (fun () ->
          Tango.Runtime.begin_tx rt;
          ignore (Tango_map.get src "k");
          Tango_map.remote_put rt ~oid:(if dst = `Remote then 3 else 2) "k" "v";
          commit rt)
  | `Collab ->
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
      workers m 4 (fun () ->
          Tango.Runtime.begin_tx rt_a;
          ignore (Tango_map.get src "local");
          ignore (Tango_map.get_remote rt_a ~oid:2 "k");
          Tango_map.put src "out" "y";
          commit rt_a)

let ablation_decision =
  sweep ~header:false ~name:"ablation-decision"
    ~title:"Ablation: decision records — remote-write vs local-write transaction latency"
    ~columns:(label_columns ~label:(-25) (col "mean-ms" 0 2))
    ~params:(function
      | `Local -> label_params "local-write transaction:" "ms"
      | `Remote -> label_params "remote-write transaction:" "ms (adds the decision-record phase)"
      | `Collab ->
          label_params "collaborative remote-read transaction:"
            "ms (partial + final decision records)")
    ~seed:(function `Local | `Remote -> 51 | `Collab -> 52)
    [ `Local; `Remote; `Collab ]
    (fun ~seed p ->
      measured ~seed (fun m ->
          decision_latency m p;
          fun r -> [ ("mean-ms", r.latency_mean_us /. 1e3) ]))

let ablation_versioning =
  sweep ~header:false ~name:"ablation-versioning"
    ~title:"Ablation: fine-grained (per-key) vs coarse (per-object) versioning — abort rate"
    ~columns:(label_columns ~label:(-33) (col "abort-%" 5 1))
    ~params:(fun fine ->
      label_params
        (if fine then "per-key versioning abort rate:" else "per-object versioning abort rate:")
        "%")
    ~seed:(fun _ -> 61) [ true; false ]
    (fun ~seed fine ->
      measured ~seed (fun m ->
          let cluster = Corfu.Cluster.create ~servers:18 () in
          let dist = Key_dist.uniform ~n:10_000 in
          for i = 1 to 4 do
            let rt = new_runtime cluster (Printf.sprintf "n%d" i) in
            let map = Tango_map.attach rt ~oid:1 in
            let rng = Sim.Rng.split (Sim.Engine.rng ()) in
            workers m 8 (fun () ->
                Tango.Runtime.begin_tx rt;
                let keys () = Key_dist.distinct_keys dist rng 3 in
                if fine then begin
                  List.iter (fun k -> ignore (Tango_map.get map k)) (keys ());
                  List.iter (fun k -> Tango_map.put map k "v") (keys ())
                end
                else begin
                  (* coarse: read/write the whole object's version *)
                  Tango.Runtime.query_helper rt ~oid:1 ();
                  List.iter (fun k -> Tango_map.coarse_put map k "v") (keys ())
                end;
                commit rt)
          done;
          fun r ->
            let aborted = float_of_int (r.samples - r.succeeded) in
            let samples = float_of_int r.samples in
            [ ("abort-%", if r.samples = 0 then 0. else 100. *. aborted /. samples) ]))

let ablation_seqbatch =
  sweep ~name:"ablation-seqbatch" ~title:"Ablation: sequencer batching (Fig. 2 with batch 1 vs 4)"
    ~columns:[ col "clients" 8 0; col "batch-1 Kreq/s" 14 0; col "batch-4 Kreq/s" 14 0 ]
    ~params:(int_param "clients") ~seed:(fun clients -> 101 + clients)
    [ 10; 20; 40 ]
    (fun ~seed clients ->
      [
        ("batch-1 Kreq/s", sequencer_rate ~seed ~clients ~batch:1);
        ("batch-4 Kreq/s", sequencer_rate ~seed:(seed + 3) ~clients ~batch:4);
      ])

(* The rebuild scan's length, and the virtual time from the seal to the
   install. *)
let failover ~seed ~scribe n =
  Sim.Engine.run ~seed (fun () ->
      let cluster = Corfu.Cluster.create ~servers:4 () in
      if scribe then Corfu.Cluster.start_checkpoint_scribe cluster ~interval_us:30_000.;
      let c = Corfu.Cluster.new_client cluster ~name:"writer" in
      for i = 0 to n - 1 do
        ignore (Corfu.Client.append c ~streams:[ 1 + (i mod 4) ] (Bytes.of_string "x"));
        Sim.Engine.sleep 400.
      done;
      ignore (Corfu.Cluster.replace_sequencer cluster);
      match Corfu.Cluster.reconfigs cluster with
      | [ { rc_change = Sequencer_replaced { scanned }; rc_started_us; rc_installed_us; _ } ] ->
          (float_of_int scanned, (rc_installed_us -. rc_started_us) /. 1e3)
      | _ -> (Float.nan, Float.nan))

let ablation_seqckpt =
  sweep ~name:"ablation-seqckpt"
    ~title:"Ablation: sequencer checkpoints — failover rebuild scan length"
    ~columns:
      [
        col ~head:"log size" "log-size" 10 0;
        col ~head:"full scan" "full-scan" 14 0;
        col ~head:"failover-ms" "full-failover-ms" 12 1;
        col ~head:"with checkpoints" "ckpt-scan" 18 0;
        col ~head:"failover-ms" "ckpt-failover-ms" 12 1;
      ]
    ~params:(int_param "log-size") ~seed:(fun n -> 70 + n)
    [ 200; 500; 1000 ]
    (fun ~seed n ->
      let full, full_ms = failover ~seed ~scribe:false n in
      let ckpt, ckpt_ms = failover ~seed:(seed + 1) ~scribe:true n in
      [
        ("full-scan", full); ("full-failover-ms", full_ms);
        ("ckpt-scan", ckpt); ("ckpt-failover-ms", ckpt_ms);
      ])

(* ------------------------------------------------------------------ *)
(* Chaos: storage-node crash under append load                        *)
(* ------------------------------------------------------------------ *)

module Chaos = Tango_harness.Chaos

(* The incident columns read "-" unless the crash led to exactly one
   recovery; the row's [recoveries] counts them. *)
let chaos_crash =
  sweep ~name:"chaos-crash"
    ~title:"Chaos: crash a chain head mid-window, monitor-driven recovery (6 servers)"
    ~columns:
      [
        col "workers" 8 0; col "Kapp/s" 10 1; col "failed-rpc" 10 0; col "stall-ms" 11 1;
        col "window-ms" 12 1; col "rebuilt" 11 0; col "rebuilt-bytes" 13 0;
      ]
    ~params:(int_param "workers") ~seed:(fun workers -> 3000 + workers)
    [ 4; 8; 16; 32 ]
    (fun ~seed workers ->
      measured ~seed (fun m ->
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
          let clients =
            Array.init workers (fun i ->
                Corfu.Cluster.new_client cluster ~name:(Printf.sprintf "w%d" i))
          in
          Array.iter
            (fun c ->
              Load.worker m (fun () ->
                  ignore (Corfu.Client.append c ~streams:[ 1 ] (Bytes.of_string "x"));
                  Chaos.note rec_;
                  true))
            clients;
          fun r ->
            (* let the recovery finish before collecting incidents; the
               measurement window is already closed, so this only affects
               the audit, not the numbers *)
            Sim.Engine.sleep 300_000.;
            let failures = Array.fold_left (fun a c -> a + Corfu.Client.rpc_failures c) 0 clients in
            let incs = Chaos.incidents fault cluster in
            let incident f = match incs with [ i ] -> f i | _ -> Float.nan in
            [
              ("Kapp/s", r.throughput /. 1e3);
              ("failed-rpc", float_of_int failures);
              ("stall-ms", Chaos.max_gap_us rec_ /. 1e3);
              ("window-ms", incident (fun i -> i.Chaos.inc_unavailable_us /. 1e3));
              ("rebuilt", incident (fun i -> float_of_int i.Chaos.inc_rebuild_entries));
              ("rebuilt-bytes", incident (fun i -> float_of_int i.Chaos.inc_rebuild_bytes));
              ("recoveries", float_of_int (List.length incs));
            ]))

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
        Tango.Batch_core.seal core ~now:0.;
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
     propagation sleeps, no deadline armed) between two hosts. Each
     runs in a lone fiber, so every sleep's wake-up is the next event
     and resumes in place: these measure that path, and
     engine-sleep-suspend below the suspension it skips. *)
  let (sl_ns, sl_words), (ru_ns, ru_words), (nc_ns, nc_words) =
    Sim.Engine.run ~seed:0 (fun () ->
        let sl = hot_measure ~ops:200_000 (fun () -> Sim.Engine.sleep 1.) in
        let r = Sim.Resource.create ~name:"bench.station" ~capacity:1 () in
        let ru = hot_measure ~ops:200_000 (fun () -> Sim.Resource.use r 1.) in
        let net = bare_net () in
        let client = Sim.Net.add_host net "bench.client" in
        let server = Sim.Net.add_host net "bench.server" in
        let echo = Sim.Net.service server ~name:"bench.echo" (fun x -> x) in
        let nc =
          hot_measure ~ops:100_000 (fun () -> ignore (Sim.Net.call ~from:client echo 1))
        in
        (sl, ru, nc))
  in
  hot_report ~name:"engine-sleep" sl_ns sl_words;
  hot_report ~name:"resource-use" ru_ns ru_words;
  hot_report ~name:"net-call" nc_ns nc_words;
  (* engine-sleep-suspend: a partner fiber sleeps the same period half
     a period out of phase, so each sleep of either fiber finds the
     other's wake-up pending first and suspends: a continuation, a heap
     push and pop and a [continue]. Reported per sleep, two per op. *)
  let ss_ns, ss_words =
    Sim.Engine.run ~seed:0 (fun () ->
        Sim.Engine.spawn (fun () ->
            Sim.Engine.sleep 0.5;
            while true do
              Sim.Engine.sleep 1.
            done);
        (* the partner starts, and its first sleep resumes in place *)
        Sim.Engine.sleep 1.;
        let in_place = Sim.Engine.resumed_in_place () in
        let ns, words = hot_measure ~ops:100_000 (fun () -> Sim.Engine.sleep 1.) in
        if Sim.Engine.resumed_in_place () <> in_place then
          failwith "engine-sleep-suspend: a sleep resumed in place";
        (ns /. 2., words /. 2.))
  in
  hot_report ~name:"engine-sleep-suspend" ss_ns ss_words;
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
          let net = bare_net () in
          let fault = Sim.Fault.create () in
          Sim.Net.install_fault net fault;
          let client = Sim.Net.add_host net (name ^ ".client") in
          let server = Sim.Net.add_host net (name ^ ".server") in
          (fault, client, Sim.Net.service server ~name:(name ^ ".echo") (fun x -> x))
        in
        let call client echo =
          hot_measure ~ops:100_000 (fun () ->
              match Sim.Net.call ~from:client echo 1 with
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
  (* client entry cache: cache the entry at the next offset (a client
     that writes one offset in three, as the commit marker caches its
     own appends) and hit the one 100 adds back. 200,000 adds pass the
     16,384-entry cap a dozen times; the pages the adds fill are the
     kernel's only allocation. *)
  let ns, words =
    Sim.Engine.run ~seed:0 (fun () ->
        let cluster = Corfu.Cluster.create ~servers:2 () in
        let cl = Corfu.Cluster.new_client cluster ~name:"bench" in
        let e = { Corfu.Types.headers = Bytes.empty; payload = Bytes.empty } in
        let next = ref 0 in
        hot_measure ~ops:200_000 (fun () ->
            let off = !next in
            next := off + 3;
            Corfu.Client.cache_put cl off e;
            if off >= 300 then ignore (Corfu.Client.find_cached cl (off - 300) : Corfu.Types.entry)))
  in
  hot_report ~name:"entry-cache" ns words;
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
     charge, batch seal, the linger timer armed and cancelled, range
     grant, header and payload encode, chain write, position wake).
     Timed from the spawns until every fiber's last write has landed,
     reported per write. The
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
  let (appends, (events, in_place)), perf =
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
            (!ops, (Sim.Engine.events_dispatched (), Sim.Engine.resumed_in_place ()))))
  in
  let events_rate = float_of_int events /. perf.Report.wall_s in
  let appends_rate = float_of_int appends /. perf.Report.wall_s in
  let in_place_share = float_of_int in_place /. float_of_int events in
  row "%-24s %12.3f wall-s %10d events %12.0f events/wall-s %10.0f appends/wall-s %5.1f%% in place"
    "events-wall" perf.Report.wall_s events events_rate appends_rate (100. *. in_place_share);
  Report.add_scenario ~name:"micro/events-wall" ~seed
    ~params:[ ("servers", "4"); ("writers", "8"); ("virtual_us", string_of_float virtual_us) ]
    ~summary:
      [
        ("events", float_of_int events);
        ("appends", float_of_int appends);
        ("events_per_wall_s", events_rate);
        ("appends_per_wall_s", appends_rate);
        ("in_place_share", in_place_share);
      ]
    ~perf ~virtual_end_us:virtual_us ~metrics_json:(Sim.Metrics.to_json ()) ()

let micro () =
  micro_hotpath ();
  micro_events_wall ()

(* ------------------------------------------------------------------ *)
(* Driver                                                             *)
(* ------------------------------------------------------------------ *)

let experiment_name = function Sweep sw -> sw.name | Single (name, _) -> name
let run_experiment = function Sweep sw -> run_sweep sw | Single (_, f) -> f ()

(* Experiments share no state: the stdout of one whole-suite process
   is the banner plus each experiment's lone-run stdout, concatenated
   in this order, which is what lets ci/evaluation.out pin them all. *)
let experiments =
  [
    fig2; Single ("fig5", fig5); fig8_left; fig8_mid; fig8_right; fig8_window; fig9; fig10_left;
    fig10_mid; fig10_right; tbl_zk; tbl_bk; ablation_k; ablation_decision; ablation_versioning;
    ablation_seqbatch; ablation_seqckpt; chaos_crash; Single ("scale-out", scale_out_bench);
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
      List.iter run_experiment experiments
  | names ->
      List.iter
        (fun name ->
          match List.find_opt (fun e -> experiment_name e = name) experiments with
          | Some e -> run_experiment e
          | None when name = "micro" -> micro ()
          | None ->
              Printf.eprintf "unknown experiment %S; known: %s micro\n" name
                (String.concat " " (List.map experiment_name experiments));
              exit 2)
        names);
  match json with
  | None -> ()
  | Some path ->
      Report.write path;
      Printf.eprintf "wrote JSON report to %s\n%!" path
