(* The metrics the benchmark reports, by name and unit. BENCHMARK.json
   at the repo root carries the same names and units plus the direction
   and regression bound of each; the test in test/ keeps the two in
   step. README.md says which layer each per-layer metric belongs to
   and which end-to-end metric it should move. *)

type e2e = {
  name : string;
  unit_ : string;
  exact : bool;
      (* a virtual-time metric or a count: repeats exactly under a fixed
         seed, so repetitions must agree and any change is real *)
}

let end_to_end =
  [
    { name = "sim_ops_per_wall_s"; unit_ = "1/s"; exact = false };
    { name = "alloc_words_per_op"; unit_ = "words/op"; exact = true };
    (* The major heap grows by whole pools, and where the OS maps them
       shifts the high-water mark by a few pools from one process to
       the next (about 0.1%), so this one is a median too. *)
    { name = "peak_heap_mb"; unit_ = "MB"; exact = false };
    { name = "setup_s"; unit_ = "s"; exact = false };
    { name = "throughput_ops_s"; unit_ = "1/s"; exact = true };
    { name = "latency_p50_us"; unit_ = "us"; exact = true };
    { name = "latency_p999_us"; unit_ = "us"; exact = true };
    { name = "success_share"; unit_ = "ratio"; exact = true };
    { name = "commit_share"; unit_ = "ratio"; exact = true };
    { name = "completion_wait_ms"; unit_ = "ms"; exact = true };
  ]

(* Where a per-layer value comes from: the untraced repetitions
   (median over them), the traced child, or both (the overhead). *)
type source = Untraced | Traced | Overhead

type layer = { lname : string; lunit : string; source : source }

let span_metrics =
  List.concat_map
    (fun n ->
      [
        { lname = Printf.sprintf "span.%s.self_us_per_op" n; lunit = "us/op"; source = Traced };
        { lname = Printf.sprintf "span.%s.count_per_op" n; lunit = "count/op"; source = Traced };
      ])
    Workload.span_names

let per_layer =
  List.map
    (fun (lname, lunit) -> { lname; lunit; source = Untraced })
    [
      ("sim.engine.events_per_op", "count/op");
      ("sim.engine.events_per_wall_s", "1/s");
      ("sim.gc.major_words_per_op", "words/op");
      ("corfu.sequencer.requests_per_op", "count/op");
      ("corfu.sequencer.grant_p50_us", "us");
      ("corfu.sequencer.grant_p999_us", "us");
      ("corfu.client.chain_write_p50_us", "us");
      ("corfu.client.chain_write_p999_us", "us");
      ("corfu.client.read_fetch_p50_us", "us");
      ("corfu.client.read_fetch_p999_us", "us");
      ("corfu.storage.writes_per_op", "count/op");
      ("corfu.storage.reads_per_op", "count/op");
      ("corfu.client.retries_per_op", "count/op");
      ("corfu.client.rpc_failures_per_op", "count/op");
      ("corfu.client.fills_per_op", "count/op");
      ("corfu.cluster.recoveries", "count");
      ("corfu.cluster.spurious_recoveries", "count");
      ("corfu.cluster.rebuild_scanned", "count");
      ("corfu.cluster.copied_entries", "count");
      ("corfu.cluster.storage_recovery_ms", "ms");
      ("corfu.cluster.sequencer_recovery_ms", "ms");
      ("core.batcher.records_per_entry", "records/entry");
      ("core.batcher.entries_per_grant", "entries/grant");
      ("core.runtime.applied_per_op", "count/op");
      ("core.runtime.cache_hit_ratio", "ratio");
      ("core.runtime.playback_p50_us", "us");
      ("core.runtime.playback_p999_us", "us");
      ("core.runtime.tx_begin_p50_us", "us");
      ("core.runtime.tx_begin_p999_us", "us");
      ("core.runtime.tx_end_p50_us", "us");
      ("core.runtime.tx_end_p999_us", "us");
      ("core.runtime.conflicts_per_tx", "count/tx");
      ("objects.map.local_call_us", "us");
      ("objects.register.write_p50_us", "us");
      ("objects.register.write_p999_us", "us");
    ]
  @ [
      { lname = "corfu.sequencer.util"; lunit = "ratio"; source = Traced };
      { lname = "corfu.storage.util_max"; lunit = "ratio"; source = Traced };
      { lname = "telemetry.trace_overhead"; lunit = "ratio"; source = Overhead };
      { lname = "telemetry.spans_per_op"; lunit = "count/op"; source = Traced };
    ]
  @ span_metrics
