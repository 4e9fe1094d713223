(** Calibration constants for the simulated testbed.

    The paper's cluster (§6): 36 8-core machines in two racks, gigabit
    NICs, 18 CORFU storage nodes (9 replica sets × 2, Intel X25-V
    SSDs), a 32-core sequencer machine, 4KB log entries, and a batch
    of 4 commit records per entry. Each field below is the synthetic
    stand-in for one measured property of that hardware; the
    derivations are in DESIGN.md §1 and the comments in [params.ml].

    All times are microseconds of virtual time. *)

type t = {
  net_latency_us : float;  (** one-way propagation delay *)
  net_jitter : float;  (** multiplicative latency jitter bound *)
  nic_bandwidth : float;  (** bytes/µs per NIC direction (125 = 1 Gbps) *)
  entry_bytes : int;  (** fixed CORFU log-entry size *)
  rpc_bytes : int;  (** size of small control messages *)
  sequencer_service_us : float;  (** per-request time at the sequencer *)
  storage_write_us : float;  (** SSD service time for a 4KB write *)
  storage_read_us : float;  (** SSD service time for a 4KB read *)
  storage_capacity : int;  (** parallel ops per storage node *)
  client_dispatch_us : float;  (** Tango runtime cost to issue one op *)
  apply_record_us : float;  (** cost to apply one update record to a view *)
  commit_batch : int;  (** update/commit records packed per log entry *)
  backpointer_k : int;  (** stream-header backpointers per stream *)
  fill_timeout_us : float;  (** hole-filling timeout (paper: 100 ms) *)
  append_window : int;
      (** max log entries a client keeps in flight concurrently (the
          paper's §6.1 append window, 8–256 in Fig. 8) *)
  rpc_timeout_us : float;
      (** the cluster fabric's RPC cap ({!Net.create}): the cap on
          every call's deadline before the peer is presumed dead, and
          the whole deadline of a call made before its (calling host,
          serving host) pair has an answer; later deadlines follow the
          measured round trip ({!Net.call}). Must exceed the worst
          queueing delay of a saturated node, or healthy-but-busy
          servers get declared failed *)
}

(** The paper-calibrated testbed. *)
val default : t
