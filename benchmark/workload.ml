(* One repetition of one workload, run inside the current process.

   The benchmark drives the libraries only through their public
   functions and reads only their public counters. A repetition has
   three phases in virtual time: set-up and warm-up, the measured
   window [w0, w1], then quiescing and the correctness checks. The main
   fiber reads the wall clock and the GC counters at w0 and w1, so the
   host cost covers exactly the simulation of the window. *)

module Engine = Sim.Engine
module Runtime = Tango.Runtime
module Client = Corfu.Client
module Verifier = Tango_harness.Verifier
open Tango_objects

(* ------------------------------------------------------------------ *)
(* Samples                                                            *)
(* ------------------------------------------------------------------ *)

(* Unboxed, growable sample buffer: recording a latency allocates
   nothing between doublings. *)
module Samples = struct
  type t = { mutable a : Float.Array.t; mutable n : int }

  let create () = { a = Float.Array.create 1024; n = 0 }

  let add t v =
    if t.n = Float.Array.length t.a then begin
      let b = Float.Array.create (2 * t.n) in
      Float.Array.blit t.a 0 b 0 t.n;
      t.a <- b
    end;
    Float.Array.unsafe_set t.a t.n v;
    t.n <- t.n + 1

  (* Nearest-rank percentile of exact sample values; 0 when empty. *)
  let percentile t p =
    if t.n = 0 then 0.
    else begin
      let s = Float.Array.sub t.a 0 t.n in
      Float.Array.sort Float.compare s;
      let rank = int_of_float (Float.ceil (p /. 100. *. float_of_int t.n)) in
      Float.Array.get s (max 0 (min (t.n - 1) (rank - 1)))
    end
end

(* ------------------------------------------------------------------ *)
(* Workload table                                                     *)
(* ------------------------------------------------------------------ *)

type name = Log_append | View_read | Map_tx | Fault

let all = [ Log_append; View_read; Map_tx; Fault ]

let to_string = function
  | Log_append -> "log-append"
  | View_read -> "view-read"
  | Map_tx -> "map-tx"
  | Fault -> "fault"

let of_string s = List.find_opt (fun w -> to_string w = s) all

(* Virtual µs simulated per wall second on the reference host (2-core
   x86-64 VM, Xeon at 2.0 GHz, release build). A repetition's window is
   sized from the run's wall-time budget through this constant, never
   from a clock reading, so every virtual metric stays a pure function
   of (workload, seed, seconds). *)
let virtual_us_per_wall_s = function
  | Log_append -> 2_400_000.
  | View_read -> 940_000.
  | Map_tx -> 550_000.
  | Fault -> 7_500_000.

let warmup_us = function
  | Log_append -> 300_000.
  | View_read -> 300_000.
  | Map_tx -> 300_000.
  | Fault -> 1_000_000.

(* ------------------------------------------------------------------ *)
(* Window bookkeeping                                                 *)
(* ------------------------------------------------------------------ *)

type st = {
  mutable w0 : float;
  mutable w1 : float;
  lat : Samples.t;  (* primary ops: closed loops from issue, open loops from due time *)
  mutable ok : int;  (* primary ops counted in the window *)
  mutable attempted : int;  (* every op of the window, primary and secondary *)
  mutable failed : int;  (* refused or unfinished at the deadline *)
  mutable commits : int;
  mutable aborts : int;
  mutable last_done : float;
  mutable gap_sq : float;
  mutable stop : bool;
  mutable active : int;  (* live closed-loop fibers plus open-loop ops in flight *)
  wlat : Samples.t;  (* Tango_register.write latencies *)
  tx_begin : Samples.t;
  tx_end : Samples.t;
  mutable local_calls : int;  (* in-transaction Tango_map.get/put calls *)
  mutable local_us : float;
  mutable seq_recovery_us : float;
  mutable slice_wall : float list;
  mutable reference_wall : float list;
  mutable violations : string list;
}

let create_st () =
  {
    w0 = Float.infinity;
    w1 = Float.infinity;
    lat = Samples.create ();
    ok = 0;
    attempted = 0;
    failed = 0;
    commits = 0;
    aborts = 0;
    last_done = 0.;
    gap_sq = 0.;
    stop = false;
    active = 0;
    wlat = Samples.create ();
    tx_begin = Samples.create ();
    tx_end = Samples.create ();
    local_calls = 0;
    local_us = 0.;
    seq_recovery_us = 0.;
    slice_wall = [];
    reference_wall = [];
    violations = [];
  }

let violation st fmt = Printf.ksprintf (fun s -> st.violations <- s :: st.violations) fmt
let in_window st t = t >= st.w0 && t <= st.w1

(* A successful primary completion at [t]. A request arriving at a
   uniformly random instant of the window sees the next completion
   after, on average, the sum of squared completion gaps over twice the
   window: an outage counts with the square of its length, while the
   short gaps of a healthy run add almost nothing. *)
let note_completion st t =
  if in_window st t then begin
    let gap = t -. st.last_done in
    st.gap_sq <- st.gap_sq +. (gap *. gap);
    st.last_done <- t
  end

let closed_done st ~started =
  let t = Engine.now () in
  if in_window st t then begin
    st.ok <- st.ok + 1;
    st.attempted <- st.attempted + 1;
    Samples.add st.lat (t -. started)
  end;
  note_completion st t

(* Spawn [fibers] closed-loop fibers, each running [op] until the
   window closes. *)
let closed_loop st ~fibers op =
  for _ = 1 to fibers do
    st.active <- st.active + 1;
    Engine.spawn (fun () ->
        while not st.stop do
          let started = Engine.now () in
          Sim.Span.with_span "bench.op" op;
          closed_done st ~started
        done;
        st.active <- st.active - 1)
  done

(* Poisson arrivals at [rate]/s, each op in its own fiber, at most
   [cap] in flight; an arrival over the cap is refused. A primary op is
   timed from its due time. The generator sleeps to each due time, so
   it is never late. *)
let open_loop st ~rng ~rate ~cap ~primary op =
  let outstanding = ref 0 in
  Engine.spawn (fun () ->
      while not st.stop do
        Engine.sleep (Sim.Rng.exponential rng ~mean:(1e6 /. rate));
        if not st.stop then begin
          let due = Engine.now () in
          let counted = in_window st due in
          if counted then st.attempted <- st.attempted + 1;
          if !outstanding >= cap then (if counted then st.failed <- st.failed + 1)
          else begin
            incr outstanding;
            st.active <- st.active + 1;
            Engine.spawn (fun () ->
                Sim.Span.with_span "bench.op" op;
                decr outstanding;
                st.active <- st.active - 1;
                let t = Engine.now () in
                if primary then begin
                  if counted then begin
                    st.ok <- st.ok + 1;
                    Samples.add st.lat (t -. due)
                  end;
                  note_completion st t
                end)
          end
        end
      done)

(* Close the loops and wait until every workload fiber and op in flight
   has finished, or until [deadline_us] of virtual time has passed; ops
   still running then count as failed. *)
let quiesce st ~deadline_us =
  st.stop <- true;
  let deadline = Engine.now () +. deadline_us in
  while st.active > 0 && Engine.now () < deadline do
    Engine.sleep 1_000.
  done;
  if st.active > 0 then begin
    st.failed <- st.failed + st.active;
    violation st "%d operations unfinished %.0f ms after the window" st.active (deadline_us /. 1e3)
  end

(* ------------------------------------------------------------------ *)
(* Layer counters at the window edges                                 *)
(* ------------------------------------------------------------------ *)

type probe = {
  p_wall : float;
  p_minor : float;
  p_major : float;
  p_events : int;
  p_counters : (string, int) Hashtbl.t;  (* summed over hosts *)
  p_hists : (string, int array) Hashtbl.t;  (* bucket counts summed over hosts *)
  p_cache : int * int;  (* playback entry-cache hits and misses, summed over runtimes *)
}

let take_probe runtimes =
  let counters = Hashtbl.create 64 in
  let hists = Hashtbl.create 16 in
  Sim.Metrics.iter_handles
    ~on_counter:(fun c ->
      let n = Sim.Metrics.counter_name c in
      let prev = Option.value (Hashtbl.find_opt counters n) ~default:0 in
      Hashtbl.replace counters n (prev + Sim.Metrics.counter_value c))
    ~on_gauge:(fun _ -> ())
    ~on_hist:(fun h ->
      let n = Sim.Metrics.hist_name h in
      let b = Array.make Sim.Metrics.num_buckets 0 in
      Sim.Metrics.hist_buckets_into h b;
      match Hashtbl.find_opt hists n with
      | Some acc -> Array.iteri (fun i v -> acc.(i) <- acc.(i) + v) b
      | None -> Hashtbl.replace hists n b);
  (* Clock and GC last at the window start, first at its end (see
     [probe_end]), so the registry walk stays outside the timed span. *)
  let cache =
    List.fold_left
      (fun (h, m) rt ->
        let s = Runtime.append_stats rt in
        (h + s.Runtime.as_cache_hits, m + s.Runtime.as_cache_misses))
      (0, 0) runtimes
  in
  (* [Gc.minor_words] counts the minor heap's live allocation too;
     [Gc.quick_stat] only catches up at the next minor collection. *)
  let major = (Gc.quick_stat ()).Gc.major_words in
  {
    p_wall = Unix.gettimeofday ();
    p_minor = Gc.minor_words ();
    p_major = major;
    p_events = Engine.events_dispatched ();
    p_counters = counters;
    p_hists = hists;
    p_cache = cache;
  }

let probe_end runtimes =
  let wall = Unix.gettimeofday () in
  let minor = Gc.minor_words () in
  let major = (Gc.quick_stat ()).Gc.major_words in
  let events = Engine.events_dispatched () in
  { (take_probe runtimes) with p_wall = wall; p_minor = minor; p_major = major; p_events = events }

let counter_delta a b name =
  let get p = Option.value (Hashtbl.find_opt p.p_counters name) ~default:0 in
  get b - get a

let hist_percentile a b name p =
  match Hashtbl.find_opt b.p_hists name with
  | None -> 0.
  | Some hb ->
      let ha = Option.value (Hashtbl.find_opt a.p_hists name) ~default:(Array.make Sim.Metrics.num_buckets 0) in
      let d = Array.mapi (fun i v -> v - ha.(i)) hb in
      let total = Array.fold_left ( + ) 0 d in
      if total = 0 then 0. else Sim.Metrics.buckets_percentile d ~total p

(* ------------------------------------------------------------------ *)
(* The four workloads                                                 *)
(* ------------------------------------------------------------------ *)

(* What a workload hands back to the measurement frame. *)
type ctx = {
  cluster : Corfu.Cluster.t;
  runtimes : Runtime.t list;
  fault : Sim.Fault.t option;
  check : unit -> unit;  (* quiesce and verify, after the window *)
}

let new_runtime cluster name = Runtime.create (Corfu.Cluster.new_client cluster ~name)

let timed_write st reg v =
  let t0 = Engine.now () in
  Tango_register.write reg v;
  let t1 = Engine.now () in
  if in_window st t1 then Samples.add st.wlat (t1 -. t0)

(* log-append: 6 servers (3 chains of 2), 4 runtimes each writing its
   own register from 16 closed-loop fibers. Writes only, so playback is
   idle. Register [i] receives the values 1, 2, ... in issue order. *)
let log_append st =
  let cluster = Corfu.Cluster.create ~servers:6 () in
  let n = 4 in
  let issued = Array.make n 0 in
  let runtimes = List.init n (fun i -> new_runtime cluster (Printf.sprintf "app-%d" i)) in
  let regs = Array.of_list (List.mapi (fun i rt -> Tango_register.attach rt ~oid:(i + 1)) runtimes) in
  Array.iteri
    (fun i reg ->
      closed_loop st ~fibers:16 (fun () ->
          issued.(i) <- issued.(i) + 1;
          timed_write st reg issued.(i)))
    regs;
  let check () =
    quiesce st ~deadline_us:5_000_000.;
    (* The newest entries of the log must be written, and hold only
       register updates carrying values their writers issued. *)
    let obs = Corfu.Cluster.new_client cluster ~name:"observer" in
    let tail = Client.check obs in
    for off = max 0 (tail - 256) to tail - 1 do
      match Client.read_resolved obs off with
      | Client.Data e ->
          List.iter
            (function
              | Tango.Record.Update { u_oid; u_data; _ } when u_oid >= 1 && u_oid <= n ->
                  let v = Codec.get_int (Codec.reader u_data) in
                  if v < 1 || v > issued.(u_oid - 1) then
                    violation st "offset %d: register %d holds %d, never written" off u_oid v
              | r -> violation st "offset %d: unexpected record %s" off (Format.asprintf "%a" Tango.Record.pp r))
            (Tango.Record.decode_payload e.Corfu.Types.payload)
      | Client.Junk | Client.Trimmed | Client.Unwritten -> violation st "offset %d: no data below the tail" off
    done
  in
  { cluster; runtimes; fault = None; check }

(* view-read: the Figure 8 primary/backup set-up on 18 servers. The
   primary writes an increasing counter in an open loop; four backups
   read it from 16 closed-loop fibers each. *)
let view_read st =
  let cluster = Corfu.Cluster.create ~servers:18 () in
  let primary = new_runtime cluster "primary" in
  let preg = Tango_register.attach primary ~oid:1 in
  let written = ref 0 in
  let rng = Sim.Rng.split (Engine.rng ()) in
  open_loop st ~rng ~rate:5_000. ~cap:256 ~primary:false (fun () ->
      incr written;
      timed_write st preg !written);
  let backup_rts = List.init 4 (fun i -> new_runtime cluster (Printf.sprintf "backup-%d" i)) in
  let backups = Array.of_list (List.map (fun rt -> Tango_register.attach rt ~oid:1) backup_rts) in
  let last = Array.make 4 0 in
  Array.iteri
    (fun i reg ->
      closed_loop st ~fibers:16 (fun () ->
          let v = Tango_register.read reg in
          if v < last.(i) then violation st "backup-%d read %d after %d" i v last.(i);
          last.(i) <- v))
    backups;
  let check () =
    quiesce st ~deadline_us:5_000_000.;
    Array.iteri
      (fun i reg ->
        let v = Tango_register.read reg in
        if v <> !written then violation st "backup-%d final read %d, last acked write %d" i v !written)
      backups
  in
  { cluster; runtimes = primary :: backup_rts; fault = None; check }

(* map-tx: Figure 9 on 18 servers. Four runtimes host one fully
   replicated map; each runs 16 closed-loop transactions of 3 reads and
   3 writes over Zipf(0.99) keys drawn from 100K. *)
let map_tx st =
  let cluster = Corfu.Cluster.create ~servers:18 () in
  let dist = Tango_workloads.Key_dist.zipf ~n:100_000 () in
  let nodes =
    Array.init 4 (fun i ->
        let rt = new_runtime cluster (Printf.sprintf "node-%d" i) in
        (rt, Tango_map.attach rt ~oid:1))
  in
  let txn = ref 0 in
  Array.iter
    (fun (rt, map) ->
      let rng = Sim.Rng.split (Engine.rng ()) in
      closed_loop st ~fibers:16 (fun () ->
          let reads = Tango_workloads.Key_dist.distinct_keys dist rng 3 in
          let writes = Tango_workloads.Key_dist.distinct_keys dist rng 3 in
          incr txn;
          let value = string_of_int !txn in
          let t0 = Engine.now () in
          Sim.Span.with_span "bench.tx_begin" (fun () -> Runtime.begin_tx rt);
          let t1 = Engine.now () in
          (* In-transaction calls are buffered locally, but each still
             queues for the runtime's dispatch station. *)
          List.iter (fun k -> ignore (Tango_map.get map k)) reads;
          List.iter (fun k -> Tango_map.put map k value) writes;
          let t2 = Engine.now () in
          let status = Sim.Span.with_span "bench.tx_end" (fun () -> Runtime.end_tx rt) in
          let t3 = Engine.now () in
          if in_window st t3 then begin
            Samples.add st.tx_begin (t1 -. t0);
            Samples.add st.tx_end (t3 -. t2);
            st.local_calls <- st.local_calls + 6;
            st.local_us <- st.local_us +. (t2 -. t1);
            match status with
            | Runtime.Committed -> st.commits <- st.commits + 1
            | Runtime.Aborted -> st.aborts <- st.aborts + 1
          end))
    nodes;
  let check () =
    quiesce st ~deadline_us:5_000_000.;
    let render map =
      Tango_map.bindings map
      |> List.sort compare
      |> List.map (fun (k, v) -> k ^ "=" ^ v)
      |> String.concat ";"
    in
    let states = Array.to_list (Array.mapi (fun i (_, map) -> (Printf.sprintf "node-%d" i, render map)) nodes) in
    List.iter (fun v -> violation st "%s" (Format.asprintf "%a" Verifier.pp_violation v)) (Verifier.convergence ~states)
  in
  { cluster; runtimes = Array.to_list (Array.map fst nodes); fault = None; check }

(* fault: 6 servers under 8 raw log clients appending 64 B entries in
   an open loop, with the failure monitor and the checkpoint scribe on.
   Inside the window, in this order: replace the sequencer, crash a
   chain head, then degrade one client's links to the storage nodes for
   a while. The replacement comes before the crash because the crash
   can silently stop the scribe (its raw writes have no timeout), and a
   rebuild scan after that reaches back to the last checkpoint before
   the crash: the stall would then depend on the seed's luck, not on
   the code. The degraded client's links to the sequencer and the
   auxiliary stay clean: those RPCs have no timeout either, so one
   dropped message would hang an op for good. *)
let fault st ~seed ~window_us =
  let cluster = Corfu.Cluster.create ~servers:6 () in
  let w0 = warmup_us Fault in
  let at share = w0 +. (share *. window_us) in
  let victim = (Corfu.Cluster.storage_nodes cluster).(0) in
  let fc =
    Tango_harness.Chaos.install ~seed:(seed + 1_000_003)
      ~plan:[ (at 0.4, Sim.Fault.Crash (Corfu.Storage_node.name victim)) ]
      cluster
  in
  Corfu.Cluster.start_failure_monitor cluster;
  Corfu.Cluster.start_checkpoint_scribe cluster ~interval_us:100_000.;
  let clients = Array.init 8 (fun i -> Corfu.Cluster.new_client cluster ~name:(Printf.sprintf "w%d" i)) in
  let acked = ref [] in
  Array.iteri
    (fun i c ->
      let rng = Sim.Rng.split (Engine.rng ()) in
      let seq = ref 0 in
      open_loop st ~rng ~rate:250. ~cap:1024 ~primary:true (fun () ->
          incr seq;
          let payload = Bytes.make 64 '.' in
          let tag = Printf.sprintf "w%d:%d" i !seq in
          Bytes.blit_string tag 0 payload 0 (String.length tag);
          let off = Client.append c ~streams:[ (i mod 4) + 1 ] payload in
          acked := (off, payload) :: !acked))
    clients;
  Engine.spawn ~at:(at 0.2) (fun () ->
      let t0 = Engine.now () in
      ignore (Corfu.Cluster.replace_sequencer cluster);
      st.seq_recovery_us <- Engine.now () -. t0);
  let degraded = Sim.Net.host_name (Client.host clients.(0)) in
  let edges = ref [] in
  Engine.spawn ~at:(at 0.6) (fun () ->
      edges := Array.to_list (Array.map Corfu.Storage_node.name (Corfu.Cluster.storage_nodes cluster));
      List.iter
        (fun dst -> Sim.Fault.degrade fc ~src:degraded ~dst ~drop:0.05 ~delay_us:150. ~jitter_us:100. ())
        !edges);
  Engine.spawn ~at:(at 0.8) (fun () ->
      List.iter (fun dst -> Sim.Fault.clear_edge fc ~src:degraded ~dst) !edges);
  let check () =
    quiesce st ~deadline_us:20_000_000.;
    (* Resolve every offset below the tail once, then judge both
       oracles against those reads. *)
    let obs = Corfu.Cluster.new_client cluster ~name:"observer" in
    let tail = Client.check obs in
    let cells = Array.make tail None in
    for off = 0 to tail - 1 do
      cells.(off) <-
        (match Client.read_resolved obs off with
        | Client.Data e -> Some (Some e.Corfu.Types.payload)
        | Client.Junk -> Some None
        | Client.Trimmed | Client.Unwritten -> None)
    done;
    let read off = if off < tail then Option.join cells.(off) else None in
    let resolve off =
      match cells.(off) with Some (Some _) -> `Data | Some None -> `Junk | None -> `Unresolved
    in
    List.iter
      (fun v -> violation st "%s" (Format.asprintf "%a" Verifier.pp_violation v))
      (Verifier.durability ~acked:!acked ~read @ Verifier.hole_freedom ~tail ~resolve)
  in
  { cluster; runtimes = []; fault = Some fc; check }

(* ------------------------------------------------------------------ *)
(* One repetition                                                     *)
(* ------------------------------------------------------------------ *)

let span_names =
  [
    "append";
    "sequencer.grant";
    "chain.write";
    "commit";
    "check_tail";
    "fill";
    "backpointer.walk";
    "playback.apply";
    "recovery.seal";
    "recovery.copy";
    "recovery.install";
    "recovery.sequencer";
    "rpc";
    "bench.op";
    "bench.tx_begin";
    "bench.tx_end";
  ]

let span_key name =
  if String.length name > 4 && String.sub name 0 4 = "rpc." then "rpc" else name

(* Per-name span count and self time over the window: a span's self
   time is its duration minus the part of it its child spans cover. *)
let span_stats ~w1 =
  let spans = Array.of_list (Sim.Span.spans ()) in
  let end_of (v : Sim.Span.view) = match v.v_end with Some e -> e | None -> w1 in
  let children = Array.make (Array.length spans) [] in
  Array.iter
    (fun (v : Sim.Span.view) ->
      match v.v_parent with
      | Some p -> children.(p) <- (v.v_start, end_of v) :: children.(p)
      | None -> ())
    spans;
  let count = Hashtbl.create 16 and self = Hashtbl.create 16 in
  Array.iteri
    (fun i (v : Sim.Span.view) ->
      let s = v.v_start and e = end_of v in
      let clipped =
        List.filter_map
          (fun (a, b) ->
            let a = Float.max a s and b = Float.min b e in
            if b > a then Some (a, b) else None)
          children.(i)
        |> List.sort compare
      in
      let covered, _ =
        List.fold_left
          (fun (acc, reach) (a, b) ->
            if b <= reach then (acc, reach) else (acc +. (b -. Float.max a reach), b))
          (0., s) clipped
      in
      let k = span_key v.v_name in
      Hashtbl.replace count k (1 + Option.value (Hashtbl.find_opt count k) ~default:0);
      Hashtbl.replace self k (e -. s -. covered +. Option.value (Hashtbl.find_opt self k) ~default:0.))
    spans;
  (Array.length spans, count, self)

(* Mean over the window of each sampled utilization series whose
   resource name ends in [suffix]. *)
let window_utils ~w0 ~w1 suffix =
  let snap = Sim.Metrics.snapshot () in
  List.filter_map
    (fun (s : Sim.Metrics.series_view) ->
      if String.starts_with ~prefix:"util:" s.s_name && String.ends_with ~suffix s.s_name then begin
        let pts = Array.to_list s.s_points |> List.filter (fun (t, _) -> t > w0 && t <= w1) in
        match pts with
        | [] -> None
        | _ -> Some (List.fold_left (fun a (_, v) -> a +. v) 0. pts /. float_of_int (List.length pts))
      end
      else None)
    snap.Sim.Metrics.series

(* The window is cut into equal virtual-time slices, each timed on the
   wall clock: one per 15 ms of expected wall time, at most 200. *)
let slices_of w ~window_us =
  max 1 (min 200 (int_of_float (window_us /. virtual_us_per_wall_s w /. 0.015)))

(* The host this benchmark shares runs at a speed that drifts by tens
   of percent over minutes, with other tenants' load. A fixed kernel
   that shares no code with the repo, run right after every slice,
   tracks that speed: a small interpreter loop over a table of opcodes
   and closures, branchy and call-heavy like the simulator's own code.
   Wall times are scaled by [nominal_s] over the kernel's time, that
   is, to the speed at which one pass takes [nominal_s]. Nothing here
   allocates, however many passes run, so the window's allocation
   count stays exact. *)
module Reference = struct
  let nominal_s = 0.0027
  let program = Array.init 4096 (fun i -> (i * 7919) land 7)

  let ops =
    [|
      (fun x -> x + 1);
      (fun x -> x * 3);
      (fun x -> x lxor 0x55);
      (fun x -> x lsr 1);
      (fun x -> x - 7);
      (fun x -> (x * 5) land 0xFFFF);
      (fun x -> x lor 3);
      (fun x -> x + (x lsr 4));
    |]

  let max_passes = 64
  let passes = Float.Array.make max_passes 0.

  (* Stores the wall seconds of one pass in [passes.(i)]. *)
  let pass i =
    let t0 = Unix.gettimeofday () in
    let acc = ref 1 in
    for round = 0 to 100 do
      for pc = 0 to Array.length program - 1 do
        let op = (program.(pc) + !acc + round) land 7 in
        acc :=
          (match op with
          | 0 -> !acc + pc
          | 1 -> ops.(!acc land 7) !acc
          | 2 -> !acc lxor pc
          | 3 -> if !acc land 1 = 0 then !acc lsr 1 else (3 * !acc) + 1
          | 4 -> ops.((!acc lsr 3) land 7) (!acc + 1)
          | 5 -> !acc * 17
          | 6 -> !acc - pc
          | _ -> (!acc land 0xFFFFF) + 11)
          land 0x3FFFFFFF
      done
    done;
    ignore (Sys.opaque_identity !acc);
    Float.Array.set passes i (Unix.gettimeofday () -. t0)

  (* The host's pass time after [busy_s] wall seconds of simulation:
     the median of one pass per 50 ms of it, so a long slice gets a
     sample as steady as its length deserves. The median is a
     selection, not a sort, to box no floats. *)
  let after busy_s =
    let n = max 1 (min max_passes (int_of_float (busy_s /. 0.05))) in
    for i = 0 to n - 1 do
      pass i
    done;
    let median = ref 0 in
    for i = 0 to n - 1 do
      let x = Float.Array.get passes i and below = ref 0 and equal = ref 0 in
      for j = 0 to n - 1 do
        let y = Float.Array.get passes j in
        if y < x then incr below else if y = x then incr equal
      done;
      if !below <= n / 2 && n / 2 < !below + !equal then median := i
    done;
    Float.Array.get passes !median
end

type result = {
  r_violations : string list;
  r_slices : float list;
  r_reference : float list;
  r_attempted : int;
  r_failed : int;
  r_values : (string * float) list;
}

let ratio a b = if b = 0. then 0. else a /. b

(* [run w ~seed ~window_us ~traced ~started] runs one repetition.
   [started] is the wall time the process began, the start of set-up. *)
let run w ~seed ~window_us ~traced ~started =
  let st = create_st () in
  let values, attempted, failed =
    Engine.run ~seed (fun () ->
        let ctx =
          match w with
          | Log_append -> log_append st
          | View_read -> view_read st
          | Map_tx -> map_tx st
          | Fault -> fault st ~seed ~window_us
        in
        Engine.sleep (warmup_us w);
        st.w0 <- Engine.now ();
        st.last_done <- st.w0;
        if traced then begin
          Sim.Span.set_enabled true;
          Sim.Metrics.start_sampler ()
        end;
        let a = take_probe ctx.runtimes in
        let slices = slices_of w ~window_us in
        let setup_raw_s = a.p_wall -. started in
        let setup_ref_s = Reference.after setup_raw_s in
        (* Wall time per slice of the window: repetitions run the same
           seed, so slice [k] holds the same work in every one of them
           (see [Tango_bench.host_wall_s]). The reference passes after
           each slice are left out of the slice's time. *)
        let sim = Float.Array.make slices 0. and refs = Float.Array.make slices 0. in
        let start = ref (Unix.gettimeofday ()) in
        for k = 0 to slices - 2 do
          Engine.sleep (window_us /. float_of_int slices);
          let busy = Unix.gettimeofday () -. !start in
          Float.Array.set sim k busy;
          Float.Array.set refs k (Reference.after busy);
          start := Unix.gettimeofday ()
        done;
        Engine.sleep (window_us /. float_of_int slices);
        let b = probe_end ctx.runtimes in
        let busy = b.p_wall -. !start in
        Float.Array.set sim (slices - 1) busy;
        Float.Array.set refs (slices - 1) (Reference.after busy);
        st.slice_wall <- Float.Array.to_list sim;
        st.reference_wall <- Float.Array.to_list refs;
        st.w1 <- Engine.now ();
        Sim.Span.set_enabled false;
        note_completion st st.w1;
        let wall_s = List.fold_left ( +. ) 0. st.slice_wall in
        let scaled_wall_s =
          List.fold_left2 (fun acc w r -> acc +. (w *. Reference.nominal_s /. r)) 0. st.slice_wall st.reference_wall
        in
        let ops = float_of_int st.ok in
        let per_op x = ratio x ops in
        let cd = counter_delta a b in
        let cdf name = float_of_int (cd name) in
        let hp = hist_percentile a b in
        let txs = float_of_int (st.commits + st.aborts) in
        let recoveries = List.length (Corfu.Cluster.recoveries ctx.cluster) in
        let crashes, storage_recovery_us =
          match ctx.fault with
          | None -> (0, 0.)
          | Some f ->
              ( List.length
                  (List.filter
                     (fun e -> String.starts_with ~prefix:"crash " e.Sim.Fault.ev_label)
                     (Sim.Fault.events f)),
                List.fold_left
                  (fun acc i -> acc +. i.Tango_harness.Chaos.inc_unavailable_us)
                  0.
                  (Tango_harness.Chaos.incidents f ctx.cluster) )
        in
        let window_s = (st.w1 -. st.w0) /. 1e6 in
        let common =
          [
            ("wall_s", wall_s);
            ("ops", ops);
            ("setup_raw_s", setup_raw_s);
            ("setup_s", setup_raw_s *. Reference.nominal_s /. setup_ref_s);
            ("sim_ops_per_wall_s", ratio ops scaled_wall_s);
            ("alloc_words_per_op", per_op (b.p_minor -. a.p_minor));
            ("throughput_ops_s", ops /. window_s);
            ("latency_p50_us", Samples.percentile st.lat 50.);
            ("latency_p999_us", Samples.percentile st.lat 99.9);
            ("commit_share", if txs = 0. then 1. else float_of_int st.commits /. txs);
            ("completion_wait_ms", st.gap_sq /. (2. *. (st.w1 -. st.w0)) /. 1e3);
          ]
        in
        let layers =
          if traced then begin
            let nspans, count, self = span_stats ~w1:st.w1 in
            let sum l = List.fold_left ( +. ) 0. l in
            [
              ("corfu.sequencer.util", sum (window_utils ~w0:st.w0 ~w1:st.w1 ".counter"));
              ("corfu.storage.util_max", List.fold_left Float.max 0. (window_utils ~w0:st.w0 ~w1:st.w1 ".ssd"));
              ("telemetry.spans_per_op", per_op (float_of_int nspans));
              ("wall_per_op_s", per_op scaled_wall_s);
            ]
            @ List.concat_map
                (fun n ->
                  [
                    ( Printf.sprintf "span.%s.self_us_per_op" n,
                      per_op (Option.value (Hashtbl.find_opt self n) ~default:0.) );
                    ( Printf.sprintf "span.%s.count_per_op" n,
                      per_op (float_of_int (Option.value (Hashtbl.find_opt count n) ~default:0)) );
                  ])
                span_names
          end
          else
            [
              ("sim.engine.events_per_op", per_op (float_of_int (b.p_events - a.p_events)));
              ("sim.engine.events_per_wall_s", ratio (float_of_int (b.p_events - a.p_events)) wall_s);
              ("sim.gc.major_words_per_op", per_op (b.p_major -. a.p_major));
              ("corfu.sequencer.requests_per_op", per_op (cdf "seq.increments" +. cdf "seq.peeks"));
              ("corfu.sequencer.grant_p50_us", hp "sequencer.grant_us" 50.);
              ("corfu.sequencer.grant_p999_us", hp "sequencer.grant_us" 99.9);
              ("corfu.client.chain_write_p50_us", hp "chain.write_us" 50.);
              ("corfu.client.chain_write_p999_us", hp "chain.write_us" 99.9);
              ("corfu.client.read_fetch_p50_us", hp "read.fetch_us" 50.);
              ("corfu.client.read_fetch_p999_us", hp "read.fetch_us" 99.9);
              ("corfu.storage.writes_per_op", per_op (cdf "ssd.writes"));
              ("corfu.storage.reads_per_op", per_op (cdf "ssd.reads"));
              ("corfu.client.retries_per_op", per_op (cdf "client.retries"));
              ("corfu.client.rpc_failures_per_op", per_op (cdf "client.rpc_failures"));
              ("corfu.client.fills_per_op", per_op (cdf "client.fills"));
              ("corfu.cluster.recoveries", float_of_int recoveries);
              ("corfu.cluster.spurious_recoveries", float_of_int (recoveries - crashes));
              ("corfu.cluster.rebuild_scanned", cdf "cluster.rebuild_scanned");
              ("corfu.cluster.copied_entries", cdf "cluster.copied_entries");
              ("corfu.cluster.storage_recovery_ms", storage_recovery_us /. 1e3);
              ("corfu.cluster.sequencer_recovery_ms", st.seq_recovery_us /. 1e3);
              ("core.batcher.records_per_entry", ratio (cdf "batcher.records") (cdf "batcher.entries"));
              ("core.batcher.entries_per_grant", ratio (cdf "batcher.entries") (cdf "batcher.grants"));
              ("core.runtime.applied_per_op", per_op (cdf "runtime.applied"));
              ( "core.runtime.cache_hit_ratio",
                let hits = float_of_int (fst b.p_cache - fst a.p_cache)
                and misses = float_of_int (snd b.p_cache - snd a.p_cache) in
                ratio hits (hits +. misses) );
              ("core.runtime.playback_p50_us", hp "playback.apply_us" 50.);
              ("core.runtime.playback_p999_us", hp "playback.apply_us" 99.9);
              ("core.runtime.tx_begin_p50_us", Samples.percentile st.tx_begin 50.);
              ("core.runtime.tx_begin_p999_us", Samples.percentile st.tx_begin 99.9);
              ("core.runtime.tx_end_p50_us", Samples.percentile st.tx_end 50.);
              ("core.runtime.tx_end_p999_us", Samples.percentile st.tx_end 99.9);
              ("core.runtime.conflicts_per_tx", ratio (cdf "runtime.version_conflicts") txs);
              ("objects.map.local_call_us", ratio st.local_us (float_of_int st.local_calls));
              ("objects.register.write_p50_us", Samples.percentile st.wlat 50.);
              ("objects.register.write_p999_us", Samples.percentile st.wlat 99.9);
            ]
        in
        ctx.check ();
        (common @ layers, st.attempted, st.failed))
  in
  let gc = Gc.quick_stat () in
  let peak_heap_mb = float_of_int gc.Gc.top_heap_words *. 8. /. 1048576. in
  let attempted = max attempted 1 in
  {
    r_violations = List.rev st.violations;
    r_slices = st.slice_wall;
    r_reference = st.reference_wall;
    r_attempted = attempted;
    r_failed = failed;
    r_values =
      values
      @ [
          ("peak_heap_mb", peak_heap_mb);
          ("success_share", float_of_int (attempted - failed) /. float_of_int attempted);
        ];
  }
