type t = {
  net_latency_us : float;
  net_jitter : float;
  nic_bandwidth : float;
  entry_bytes : int;
  rpc_bytes : int;
  sequencer_service_us : float;
  storage_write_us : float;
  storage_read_us : float;
  storage_capacity : int;
  client_dispatch_us : float;
  apply_record_us : float;
  commit_batch : int;
  backpointer_k : int;
  fill_timeout_us : float;
  append_window : int;
  rpc_timeout_us : float;
}

(* Derivations (see DESIGN.md §1):
   - sequencer_service_us = 1.75: Fig. 2 plateaus at ~570K req/s.
   - storage_write_us = 80: Fig. 10(L) shows a 6-server log (3 replica
     sets) saturating around 150K tx/s with 4 commit records per
     entry, i.e. ~12.5K appends/s per set; the chain head is the
     bottleneck, so one 4KB write is ~80 µs.
   - storage_read_us = 16.6: Fig. 8(R) shows a 2-server log
     bottlenecking at ~120K reads/s; reads of committed entries are
     spread across both replicas, so each sustains ~60K/s.
   - client_dispatch_us = 7: Fig. 8(L) shows a single client topping
     out near 135K linearizable reads/s; the runtime's dispatch thread
     is the cap.
   - apply_record_us = 22: Fig. 9 shows the playback bottleneck
     pinning fully-replicated transaction throughput near 40K/s no
     matter how many clients are added: every client must apply every
     commit record, so one client sustains ~45K records/s.
   - net_latency_us = 50 one-way: sub-millisecond reads (Fig. 8 L)
     with pipelining, ~2 ms writes near saturation. *)
let default =
  {
    net_latency_us = 50.;
    net_jitter = 0.05;
    nic_bandwidth = 125.;
    entry_bytes = 4096;
    rpc_bytes = 64;
    sequencer_service_us = 1.75;
    storage_write_us = 80.;
    storage_read_us = 16.6;
    storage_capacity = 1;
    client_dispatch_us = 7.;
    apply_record_us = 22.;
    commit_batch = 4;
    backpointer_k = 4;
    fill_timeout_us = 100_000.;
    append_window = 8;
    (* The cluster fabric's RPC cap (Net.create): the cap on every
       call's deadline, and the deadline of a call made before its
       (calling host, serving host) pair has any answer; after that
       the deadline follows the measured round trip (Net.call). No
       call site passes a timeout of its own. Cap:
       worst-case queueing on a saturated chain head (64 writers,
       80 µs writes) is a few ms; 50 ms leaves an order of magnitude of
       headroom while still detecting a dead node well inside the
       100 ms fill timeout. *)
    rpc_timeout_us = 50_000.;
  }
