type recovery = {
  rec_epoch : Types.epoch;
  rec_dead : string;
  rec_spare : string;
  rec_started_us : float;
  rec_installed_us : float;
  rec_copied_entries : int;
  rec_copied_bytes : int;
}

type scale_kind = Scale_out | Scale_in | Segments_retired

type scale_event = {
  sc_epoch : Types.epoch;
  sc_kind : scale_kind;
  sc_boundary : Types.offset;
  sc_servers_before : int;
  sc_servers_after : int;
  sc_segments : int;
  sc_released : string list;
  sc_started_us : float;
  sc_installed_us : float;
}

type t = {
  cluster_net : Sim.Net.t;
  p : Sim.Params.t;
  mutable nodes : Storage_node.t array;
  aux : Auxiliary.t;
  reconfig_host : Sim.Net.host;
  mutable sequencer_count : int;
  mutable rebuild_scan : int;
  mutable spare_count : int;
  mutable storage_count : int;  (* names the next provisioned storage-N *)
  mutable recoveries : recovery list;  (* newest first *)
  mutable scale_events : scale_event list;  (* newest first *)
  mutable reconfig_busy : bool;  (* cooperative reconfiguration mutex *)
}

type failpoints = {
  mutable fp_skip_rebuild_scan : bool;
  mutable fp_forget_seal_tail : bool;
  mutable fp_skip_storage_seal : bool;
  mutable fp_blind_commit_apply : bool;
  mutable fp_stall_reconfig : bool;
}

let failpoints =
  {
    fp_skip_rebuild_scan = false;
    fp_forget_seal_tail = false;
    fp_skip_storage_seal = false;
    fp_blind_commit_apply = false;
    fp_stall_reconfig = false;
  }

let reset_failpoints () =
  failpoints.fp_skip_rebuild_scan <- false;
  failpoints.fp_forget_seal_tail <- false;
  failpoints.fp_skip_storage_seal <- false;
  failpoints.fp_blind_commit_apply <- false;
  failpoints.fp_stall_reconfig <- false

let enable_failpoint = function
  | "skip-rebuild-scan" -> failpoints.fp_skip_rebuild_scan <- true
  | "forget-seal-tail" -> failpoints.fp_forget_seal_tail <- true
  | "skip-storage-seal" -> failpoints.fp_skip_storage_seal <- true
  | "blind-commit-apply" -> failpoints.fp_blind_commit_apply <- true
  | "stall-reconfig" -> failpoints.fp_stall_reconfig <- true
  | name -> invalid_arg (Printf.sprintf "Cluster.enable_failpoint: unknown failpoint %S" name)

(* Reconfiguration milestones for the temporal spec plane
   (ReconfigTermination): a started/installed pair brackets every
   epoch change. Guarded, so runs without monitors pay one branch. *)
let announce_started kind =
  if Sim.Announce.active () then Sim.Announce.emit (Sim.Announce.Reconfig_started { kind })

let announce_installed kind epoch =
  if Sim.Announce.active () then
    Sim.Announce.emit (Sim.Announce.Reconfig_installed { kind; epoch })

(* Reconfiguration operations are serialized per cluster: the failure
   monitor, scheduled fault-plan actions, and explicit operator calls
   may all reach for the auxiliary concurrently, and two interleaved
   epoch bumps would each propose projections derived from the same
   predecessor — the Conflict the auxiliary exists to reject. Waiters
   queue cooperatively and re-read the projection once they hold the
   lock, so a queued replacement observes its predecessor's result. *)
let with_reconfig t f =
  while t.reconfig_busy do
    Sim.Engine.sleep t.p.retry_sleep_us
  done;
  t.reconfig_busy <- true;
  Fun.protect ~finally:(fun () -> t.reconfig_busy <- false) f

(* Group [nodes] into replica chains: uniform [chain_length] by
   default, or explicit per-chain lengths via [chains] — which is how
   a segment accepts any server count. *)
let chains_of ~context ?(chain_length = 2) ?chains nodes =
  let count = Array.length nodes in
  if count <= 0 then invalid_arg (context ^ ": the segment needs at least one server");
  match chains with
  | Some lengths ->
      List.iter
        (fun l -> if l < 1 then invalid_arg (context ^ ": chain lengths must be at least 1"))
        lengths;
      let total = List.fold_left ( + ) 0 lengths in
      if total <> count then
        invalid_arg
          (Printf.sprintf "%s: chain lengths sum to %d but the segment has %d servers" context
             total count);
      let at = ref 0 in
      Array.of_list
        (List.map
           (fun l ->
             let chain = Array.sub nodes !at l in
             at := !at + l;
             chain)
           lengths)
  | None ->
      if chain_length < 1 then invalid_arg (context ^ ": chain length must be at least 1");
      if count mod chain_length <> 0 then
        invalid_arg
          (Printf.sprintf
             "%s: cannot split %d servers into chains of length %d — pass ~chains with explicit \
              per-chain lengths for uneven geometry"
             context count chain_length);
      Array.init (count / chain_length)
        (fun set -> Array.init chain_length (fun i -> nodes.((set * chain_length) + i)))

let create ?(params = Sim.Params.default) ?(chain_length = 2) ?chains ~servers () =
  let cluster_net =
    Sim.Net.create ~latency:params.net_latency_us ~bandwidth:params.nic_bandwidth
      ~jitter:params.net_jitter ()
  in
  let nodes =
    Array.init servers (fun i ->
        Storage_node.create ~net:cluster_net ~name:(Printf.sprintf "storage-%d" i) ~params ())
  in
  let replica_sets = chains_of ~context:"Cluster.create" ~chain_length ?chains nodes in
  let sequencer = Sequencer.create ~net:cluster_net ~name:"sequencer-0" ~params () in
  let initial = Projection.flat ~epoch:0 ~replica_sets ~sequencer in
  let aux = Auxiliary.create ~net:cluster_net ~initial in
  let reconfig_host = Sim.Net.add_host cluster_net "reconfig-agent" in
  let t =
    {
      cluster_net;
      p = params;
      nodes;
      aux;
      reconfig_host;
      sequencer_count = 1;
      rebuild_scan = 0;
      spare_count = 0;
      storage_count = servers;
      recoveries = [];
      scale_events = [];
      reconfig_busy = false;
    }
  in
  (* Global log-tail watermark; follows the live sequencer across
     failovers via the latest projection. *)
  Sim.Timeseries.probe ~host:"log" "tail" (fun () ->
      float_of_int (Sequencer.current_tail (Auxiliary.latest t.aux).Projection.sequencer));
  t

let params t = t.p
let net t = t.cluster_net
let auxiliary t = t.aux
let storage_nodes t = t.nodes
let sequencer t = (Auxiliary.latest t.aux).Projection.sequencer

let new_client t ~name =
  let host = Sim.Net.add_host t.cluster_net name in
  Client.create ~host ~aux:t.aux ~params:t.p

let client_on t host = Client.create ~host ~aux:t.aux ~params:t.p

(* Raw read used during reconfiguration, bypassing the client library
   (which would chase the not-yet-installed projection). Always reads
   the chain HEAD, and retries it until it answers: the stale-grant
   probe in {!Client} is sound only if everything visible at the head
   was seen by the rebuild scan, so falling back to another replica
   (which may lag a half-completed chain write) is not an option. A
   transiently unreachable head — crashed pending restart, or cut off
   by a partition — just stalls the scan until it comes back; a head
   that is gone for good needs a membership change, which is the
   failure monitor's job, not the scan's. Found by the simulation
   fuzzer: the old untimed RPC left a whole reconfiguration wedged
   (lock held, epoch never published) when the scan hit a partitioned
   head, because a dropped request blocks its caller forever. *)
let raw_read t proj ~epoch off =
  let set = Projection.replica_set proj off in
  let loff = Projection.local_offset proj off in
  let head = set.(0) in
  let rec go () =
    match
      Sim.Net.call_r ~req_bytes:t.p.rpc_bytes ~resp_bytes:t.p.entry_bytes
        ~timeout_us:t.p.rpc_timeout_us ~from:t.reconfig_host
        (Storage_node.read_service head)
        { Storage_node.repoch = epoch; roffset = loff }
    with
    | Ok outcome -> outcome
    | Error _ ->
        Sim.Engine.sleep t.p.retry_sleep_us;
        go ()
  in
  go ()

let last_rebuild_scan t = t.rebuild_scan

(* Raw chain write used by the checkpoint scribe (the snapshot's offset
   comes pre-reserved from the sequencer dump, so the normal append
   path does not apply). *)
let raw_write t proj ~epoch off entry =
  let set = Projection.replica_set proj off in
  let loff = Projection.local_offset proj off in
  let req = { Storage_node.wepoch = epoch; woffset = loff; wcell = Types.Data entry } in
  Array.for_all
    (fun node ->
      match
        Sim.Net.call ~req_bytes:t.p.entry_bytes ~resp_bytes:t.p.rpc_bytes ~from:t.reconfig_host
          (Storage_node.write_service node) req
      with
      | Types.Write_ok | Types.Already_written _ -> true
      | Types.Sealed_at _ | Types.Out_of_space -> false)
    set

let start_checkpoint_scribe t ~interval_us =
  Sim.Engine.spawn (fun () ->
      let rec tick () =
        Sim.Engine.sleep interval_us;
        let proj = Auxiliary.latest t.aux in
        let epoch = proj.Projection.epoch in
        (match
           Sim.Net.call ~from:t.reconfig_host
             (Sequencer.dump_service proj.Projection.sequencer)
             epoch
         with
        | None -> () (* sealed: a reconfiguration is in flight *)
        | Some { Sequencer.dump_offset; dump_state_ptrs; dump_streams } ->
            let snapshot =
              { Seq_checkpoint.snap_tail = dump_offset; snap_streams = dump_streams }
            in
            let headers =
              Stream_header.encode_block ~k:t.p.backpointer_k ~current:dump_offset
                [ { Stream_header.stream = Seq_checkpoint.stream_id; backptrs = dump_state_ptrs } ]
            in
            let entry = { Types.headers; payload = Seq_checkpoint.encode snapshot } in
            ignore (raw_write t proj ~epoch dump_offset entry));
        tick ()
      in
      tick ())

(* Seal every distinct storage node of [proj] at [epoch], collecting
   each reachable node's local tail by name. Sealing {e every}
   segment's nodes — not just the tail's — is what makes stale clients
   safe across a segment-map change: a client still on the old epoch
   that maps a new-segment offset through the old geometry hits a
   sealed node, refreshes, and retries under the new map. [dead] gets
   a short-deadline attempt: if the monitor was wrong and it still
   answers, sealing it prevents stale-epoch clients from completing
   chains through it.

   Every node that {e stays} in the projection must actually seal
   before the reconfiguration proceeds — an unreachable survivor is
   retried until it answers. Skipping it (the old behaviour, now the
   [skip-storage-seal] failpoint's territory) leaves a member frozen at
   the old epoch: once it heals, stale-epoch clients can complete
   chain writes through it {e after} the rebuild scan, landing entries
   the new sequencer has never heard of. Found by the simulation
   fuzzer as a durability/liveness hazard under partition-during-
   reconfiguration. *)
let seal_storage ?dead t proj ~epoch =
  let tails = Hashtbl.create 32 in
  List.iter
    (fun node ->
      Sim.Metrics.incr (Sim.Metrics.counter "cluster.seals");
      let is_dead = match dead with Some d -> node == d | None -> false in
      (* Failpoint (fuzzer sensitivity, DESIGN.md §9): collect the tail
         without sealing, leaving stale-epoch clients able to keep
         writing through the old view. *)
      let service =
        if failpoints.fp_skip_storage_seal then fun n ->
          Sim.Net.call_r ~timeout_us:t.p.rpc_timeout_us ~from:t.reconfig_host
            (Storage_node.tail_service n) ()
        else fun n ->
          Sim.Net.call_r ~timeout_us:t.p.rpc_timeout_us ~from:t.reconfig_host
            (Storage_node.seal_service n) epoch
      in
      if is_dead then begin
        match
          Sim.Net.call_r ~timeout_us:10_000. ~from:t.reconfig_host
            (Storage_node.seal_service node) epoch
        with
        | Ok tail -> Hashtbl.replace tails (Storage_node.name node) tail
        | Error _ -> ()
      end
      else
        let rec go () =
          match service node with
          | Ok tail -> Hashtbl.replace tails (Storage_node.name node) tail
          | Error _ ->
              Sim.Engine.sleep t.p.retry_sleep_us;
              go ()
        in
        go ())
    (Projection.servers proj);
  tails

let replace_sequencer t =
  with_reconfig t
  @@ fun () ->
  Sim.Span.with_span ~host:"reconfig-agent" "recovery.sequencer"
  @@ fun () ->
  Sim.Metrics.incr (Sim.Metrics.counter "cluster.seq_replacements");
  announce_started "sequencer";
  (* Failpoint: wedge the takeover right after it starts — the epoch
     never installs, so ReconfigTermination's deadline fires. *)
  if failpoints.fp_stall_reconfig then Sim.Engine.sleep 60_000_000.;
  let old_proj = Auxiliary.latest t.aux in
  let epoch = old_proj.Projection.epoch + 1 in
  (* 1. Seal the old sequencer so no stale backpointers escape. Its
     answer is the grant frontier: every offset below it was handed
     out under the old epoch, including grants whose chain writes are
     still in flight (and therefore invisible to the storage tails
     collected next). *)
  let seal_tail =
    Sim.Net.call ~from:t.reconfig_host (Sequencer.seal_service old_proj.Projection.sequencer) epoch
  in
  (* 2. Seal every storage node, collecting local tails; the tail
     segment's chain heads carry the highest local tails. *)
  let tails = seal_storage t old_proj ~epoch in
  let tail_seg = Projection.tail_segment old_proj in
  let locals =
    Array.map
      (fun chain ->
        match Hashtbl.find_opt tails (Storage_node.name chain.(0)) with
        | Some tl -> tl
        | None -> -1)
      tail_seg.Projection.seg_sets
  in
  let storage_tail = Projection.global_tail_from_locals old_proj locals in
  (* The new sequencer must start past {e both} frontiers. Starting at
     the storage tail alone re-grants every offset of an unexhausted
     range grant (granted, not yet written) — two clients then hold
     the same offset and one of them loses the write-once race on
     every entry. Found by the simulation fuzzer; the grant holder's
     unwritten slots simply resolve as holes and get filled. *)
  let tail =
    if failpoints.fp_forget_seal_tail then storage_tail else max storage_tail seal_tail
  in
  (* 3. Rebuild per-stream backpointer state by scanning backward,
     stopping at the most recent sequencer checkpoint if one exists
     (§5's proposed optimization, via the scribe) — or at the retired
     boundary, below which everything was prefix-trimmed anyway. *)
  let floor = (Projection.segment old_proj 0).Projection.seg_base in
  let k = t.p.backpointer_k in
  let streams : (Types.stream_id, Types.offset list) Hashtbl.t = Hashtbl.create 64 in
  let scanned = ref 0 in
  let note_headers off (e : Types.entry) =
    List.iter
      (fun (h : Stream_header.t) ->
        let prev = match Hashtbl.find_opt streams h.stream with Some l -> l | None -> [] in
        if List.length prev < k then Hashtbl.replace streams h.stream (prev @ [ off ]))
      (Stream_header.decode_block ~k ~current:off e.Types.headers)
  in
  let rec scan off =
    if off >= floor then begin
      incr scanned;
      match raw_read t old_proj ~epoch off with
      | Types.Read_data e ->
          if Seq_checkpoint.is_snapshot ~k ~current:off e then begin
            let snapshot = Seq_checkpoint.decode e.Types.payload in
            List.iter
              (fun (sid, offs) -> Hashtbl.replace streams sid offs)
              (Seq_checkpoint.merge ~above:streams snapshot ~k)
          end
          else begin
            note_headers off e;
            scan (off - 1)
          end
      | Types.Read_unwritten | Types.Read_junk | Types.Read_trimmed | Types.Read_sealed _ ->
          scan (off - 1)
    end
  in
  (* Failpoint (fuzzer sensitivity, DESIGN.md §9): lose the rebuild —
     the new sequencer comes up with the right tail but no backpointer
     state, so entries appended after the handoff chain to nothing and
     earlier stream history becomes unreachable to fresh readers. *)
  if not failpoints.fp_skip_rebuild_scan then scan (tail - 1);
  t.rebuild_scan <- !scanned;
  Sim.Metrics.add (Sim.Metrics.counter "cluster.rebuild_scanned") !scanned;
  if Sim.Announce.active () then
    Sim.Announce.emit (Sim.Announce.Tail_rebuilt { epoch; tail; scanned = !scanned });
  (* 4. Fresh sequencer seeded with the reconstructed state. *)
  let name = Printf.sprintf "sequencer-%d" t.sequencer_count in
  t.sequencer_count <- t.sequencer_count + 1;
  let initial_streams = Hashtbl.fold (fun sid offs acc -> (sid, offs) :: acc) streams [] in
  let sequencer =
    Sequencer.create ~net:t.cluster_net ~name ~params:t.p ~initial_tail:tail ~initial_streams ()
  in
  (* 5. Install the new view: the same segment map under the new
     sequencer. A single reconfiguration agent runs at a time in the
     simulation, so a conflict is a bug. *)
  let proj = Projection.v ~epoch ~segments:old_proj.Projection.segments ~sequencer in
  (match
     Sim.Net.call ~from:t.reconfig_host (Auxiliary.propose_service t.aux) proj
   with
  | Auxiliary.Installed -> ()
  | Auxiliary.Conflict _ -> failwith "Cluster.replace_sequencer: concurrent reconfiguration");
  announce_installed "sequencer" epoch;
  epoch

(* ------------------------------------------------------------------ *)
(* Storage-node replacement (§2.2 reconfiguration)                    *)
(* ------------------------------------------------------------------ *)

let recoveries t = List.rev t.recoveries

let replace_storage_node ?(copy_window = 16) t ~dead =
  with_reconfig t
  @@ fun () ->
  (* Re-read under the lock: a queued replacement must see its
     predecessor's projection, and the node it came to bury may
     already be gone. *)
  let old_proj = Auxiliary.latest t.aux in
  let epoch = old_proj.Projection.epoch + 1 in
  (* The dead member may serve chains in several segments (scale-out
     reuses the old tail's nodes); collect every (segment, set) slot. *)
  let slots =
    let found = ref [] in
    Array.iteri
      (fun si seg ->
        Array.iteri
          (fun s chain -> if Array.exists (fun node -> node == dead) chain then
              found := (si, s) :: !found)
          seg.Projection.seg_sets)
      old_proj.Projection.segments;
    List.rev !found
  in
  if slots = [] then begin
    (* Already replaced by a concurrent recovery (the monitor and a
       scheduled fault-plan action can race to the same corpse): the
       cluster is in the state the caller wanted. *)
    old_proj.Projection.epoch
  end
  else
  Sim.Span.with_span ~host:"reconfig-agent"
    ~args:(if Sim.Span.enabled () then [ ("dead", Storage_node.name dead) ] else [])
    "recovery"
  @@ fun () ->
  let started = Sim.Engine.now () in
  announce_started "storage";
  (* 1. Seal the sequencer at the new epoch. It stays in the next
     projection — storage replacement does not lose allocation state —
     so this only forces every client through a projection refresh,
     closing the old epoch before the membership changes. *)
  Sim.Span.with_span "recovery.seal" (fun () ->
      ignore
        (Sim.Net.call ~from:t.reconfig_host
           (Sequencer.seal_service old_proj.Projection.sequencer)
           epoch
          : Types.offset));
  (* 2. Seal every storage node, collecting each survivor's local
     tail. *)
  let tails = Sim.Span.with_span "recovery.seal" (fun () -> seal_storage ~dead t old_proj ~epoch) in
  (* 3. Bring up the spare, pre-sealed at the new epoch. *)
  let spare_name = Printf.sprintf "storage-spare-%d" t.spare_count in
  t.spare_count <- t.spare_count + 1;
  let spare = Storage_node.create ~net:t.cluster_net ~name:spare_name ~params:t.p () in
  ignore (Sim.Net.call ~from:t.reconfig_host (Storage_node.seal_service spare) epoch : Types.offset);
  (* 4. Copy the surviving prefix onto the spare, per segment the dead
     member served, [copy_window] local offsets in flight so the
     rebuild is bounded by SSD bandwidth, not round trips. The
     head-most survivor of each chain is authoritative: anything
     acknowledged to a client reached it before the seal. Data present
     only on the dead node (a torn append's head when the head died) is
     unrecoverable, exactly like a replica loss on the real system —
     the slot reads as unwritten and gets hole-filled. *)
  let copied_entries = ref 0 in
  let copied_bytes = ref 0 in
  let copy_range ~src ~lo ~hi =
    let copy_one loff =
      match
        Sim.Net.call_r ~req_bytes:t.p.rpc_bytes ~resp_bytes:t.p.entry_bytes
          ~timeout_us:t.p.rpc_timeout_us ~from:t.reconfig_host (Storage_node.read_service src)
          { Storage_node.repoch = epoch; roffset = loff }
      with
      | Error _ | Ok (Types.Read_sealed _) ->
          () (* survivor unreachable: the next monitor round handles it *)
      | Ok Types.Read_unwritten -> ()
      | Ok Types.Read_trimmed ->
          ignore
            (Sim.Net.call_r ~timeout_us:t.p.rpc_timeout_us ~from:t.reconfig_host
               (Storage_node.trim_service spare)
               { Storage_node.repoch = epoch; roffset = loff }
              : (unit, Sim.Net.rpc_error) result)
      | Ok (Types.Read_data e) -> (
          match
            Sim.Net.call_r ~req_bytes:t.p.entry_bytes ~resp_bytes:t.p.rpc_bytes
              ~timeout_us:t.p.rpc_timeout_us ~from:t.reconfig_host
              (Storage_node.write_service spare)
              { Storage_node.wepoch = epoch; woffset = loff; wcell = Types.Data e }
          with
          | Ok Types.Write_ok ->
              incr copied_entries;
              copied_bytes := !copied_bytes + t.p.entry_bytes
          | Ok _ | Error _ -> ())
      | Ok Types.Read_junk -> (
          match
            Sim.Net.call_r ~req_bytes:t.p.rpc_bytes ~resp_bytes:t.p.rpc_bytes
              ~timeout_us:t.p.rpc_timeout_us ~from:t.reconfig_host
              (Storage_node.write_service spare)
              { Storage_node.wepoch = epoch; woffset = loff; wcell = Types.Junk }
          with
          | Ok Types.Write_ok ->
              incr copied_entries;
              copied_bytes := !copied_bytes + t.p.rpc_bytes
          | Ok _ | Error _ -> ())
    in
    if hi >= lo then begin
      let workers = min copy_window (hi - lo + 1) in
      let remaining = ref workers in
      let all_done = Sim.Ivar.create () in
      let span_parent = Sim.Span.current () in
      for w = 0 to workers - 1 do
        Sim.Engine.spawn (fun () ->
            Sim.Span.with_parent span_parent @@ fun () ->
            let loff = ref (lo + w) in
            while !loff <= hi do
              copy_one !loff;
              loff := !loff + workers
            done;
            decr remaining;
            if !remaining = 0 then Sim.Ivar.fill all_done ())
      done;
      Sim.Ivar.read all_done
    end
  in
  Sim.Span.with_span "recovery.copy" (fun () ->
      List.iter
        (fun (si, s) ->
          let seg = Projection.segment old_proj si in
          let chain = seg.Projection.seg_sets.(s) in
          let survivor =
            let rec first i =
              if i >= Array.length chain then None
              else if chain.(i) != dead && Hashtbl.mem tails (Storage_node.name chain.(i)) then
                Some chain.(i)
              else first (i + 1)
            in
            first 0
          in
          match survivor with
          | None ->
              if Sim.Announce.active () then
                Sim.Announce.emit (Sim.Announce.Prefix_lost { segment = si; set = s })
          | Some src ->
              let src_tail =
                match Hashtbl.find_opt tails (Storage_node.name src) with
                | Some tl -> tl
                | None -> -1
              in
              let lo = seg.Projection.seg_local_base in
              let hi =
                match seg.Projection.seg_limit with
                | None -> src_tail
                | Some limit ->
                    min src_tail
                      (lo + Projection.seg_cells_below seg ~set:s ~rel:(limit - seg.Projection.seg_base) - 1)
              in
              copy_range ~src ~lo ~hi)
        slots);
  Sim.Metrics.add (Sim.Metrics.counter "cluster.copied_entries") !copied_entries;
  (* 5. Substitute the spare into every chain slot the dead member
     held and install the new view. A single reconfiguration agent
     runs at a time, so a conflict is a bug. *)
  (let slot = ref (-1) in
   Array.iteri (fun j n -> if n == dead then slot := j) t.nodes;
   if !slot >= 0 then t.nodes.(!slot) <- spare);
  let segments =
    Array.map
      (fun seg ->
        {
          seg with
          Projection.seg_sets =
            Array.map
              (Array.map (fun node -> if node == dead then spare else node))
              seg.Projection.seg_sets;
        })
      old_proj.Projection.segments
  in
  let proj = Projection.v ~epoch ~segments ~sequencer:old_proj.Projection.sequencer in
  Sim.Span.with_span "recovery.install" (fun () ->
      match Sim.Net.call ~from:t.reconfig_host (Auxiliary.propose_service t.aux) proj with
      | Auxiliary.Installed -> ()
      | Auxiliary.Conflict _ ->
          failwith "Cluster.replace_storage_node: concurrent reconfiguration");
  Sim.Metrics.incr (Sim.Metrics.counter "cluster.recoveries");
  let installed = Sim.Engine.now () in
  t.recoveries <-
    {
      rec_epoch = epoch;
      rec_dead = Storage_node.name dead;
      rec_spare = spare_name;
      rec_started_us = started;
      rec_installed_us = installed;
      rec_copied_entries = !copied_entries;
      rec_copied_bytes = !copied_bytes;
    }
    :: t.recoveries;
  announce_installed "storage" epoch;
  epoch

(* ------------------------------------------------------------------ *)
(* Online scale-out / scale-in (segment-map reconfiguration)          *)
(* ------------------------------------------------------------------ *)

let scale_events t = List.rev t.scale_events

(* Distinct members of the tail segment, in set order. *)
let tail_members proj =
  let seg = Projection.tail_segment proj in
  let seen = ref [] in
  Array.iter
    (Array.iter (fun node -> if not (List.memq node !seen) then seen := node :: !seen))
    seg.Projection.seg_sets;
  Array.of_list (List.rev !seen)

(* First local offset past every segment's local range, with the tail
   segment's extent fixed by the seal point. *)
let next_local_base segments ~seal_tail =
  Array.fold_left
    (fun acc seg ->
      let span =
        match seg.Projection.seg_limit with
        | Some limit -> limit - seg.Projection.seg_base
        | None -> max 0 (seal_tail - seg.Projection.seg_base)
      in
      max acc (seg.Projection.seg_local_base + Projection.seg_local_span seg ~span))
    0 segments

(* The shared §2.2 core of scale_out/scale_in: seal the sequencer at
   the new epoch — its tail is the boundary — seal every storage node
   of every segment, bound the old tail segment at the boundary (drop
   it if nothing was ever appended there), open a new unbounded tail
   segment over [new_sets], and propose. No data moves: old offsets
   keep resolving through the segment that wrote them. *)
let reseal_with_tail t ~kind ~started new_sets_of =
  let kind_name = match kind with Scale_in -> "scale-in" | _ -> "scale-out" in
  announce_started kind_name;
  let old_proj = Auxiliary.latest t.aux in
  let epoch = old_proj.Projection.epoch + 1 in
  let servers_before = Projection.num_servers old_proj in
  let boundary =
    Sim.Span.with_span "scale.seal" (fun () ->
        let boundary =
          Sim.Net.call ~from:t.reconfig_host
            (Sequencer.seal_service old_proj.Projection.sequencer)
            epoch
        in
        ignore (seal_storage t old_proj ~epoch : (string, Types.offset) Hashtbl.t);
        boundary)
  in
  let new_sets = new_sets_of ~epoch in
  let old_segments = old_proj.Projection.segments in
  let last = Array.length old_segments - 1 in
  let kept =
    List.concat
      (Array.to_list
         (Array.mapi
            (fun i seg ->
              if i < last then [ seg ]
              else if boundary > seg.Projection.seg_base then
                (* Bound the old tail at the seal point. *)
                [ { seg with Projection.seg_limit = Some boundary } ]
              else [ (* never appended into: drop the empty segment *) ])
            old_segments))
  in
  let tail_seg =
    {
      Projection.seg_base = boundary;
      seg_limit = None;
      seg_local_base = next_local_base old_segments ~seal_tail:boundary;
      seg_sets = new_sets;
    }
  in
  let segments = Array.of_list (kept @ [ tail_seg ]) in
  let proj = Projection.v ~epoch ~segments ~sequencer:old_proj.Projection.sequencer in
  Sim.Span.with_span "scale.install" (fun () ->
      match Sim.Net.call ~from:t.reconfig_host (Auxiliary.propose_service t.aux) proj with
      | Auxiliary.Installed -> ()
      | Auxiliary.Conflict _ -> failwith "Cluster.scale: concurrent reconfiguration");
  t.nodes <- Array.of_list (Projection.servers proj);
  let installed = Sim.Engine.now () in
  let event =
    {
      sc_epoch = epoch;
      sc_kind = kind;
      sc_boundary = boundary;
      sc_servers_before = servers_before;
      sc_servers_after = Projection.num_servers proj;
      sc_segments = Projection.num_segments proj;
      sc_released = [];
      sc_started_us = started;
      sc_installed_us = installed;
    }
  in
  t.scale_events <- event :: t.scale_events;
  announce_installed kind_name epoch;
  epoch

let scale_out ?chain_length ?chains t ~add_servers =
  if add_servers < 1 then invalid_arg "Cluster.scale_out: add_servers must be at least 1";
  with_reconfig t
  @@ fun () ->
  Sim.Span.with_span ~host:"reconfig-agent"
    ~args:(if Sim.Span.enabled () then [ ("add", string_of_int add_servers) ] else [])
    "scale.out"
  @@ fun () ->
  Sim.Metrics.incr (Sim.Metrics.counter "cluster.scale_outs");
  let started = Sim.Engine.now () in
  let old_proj = Auxiliary.latest t.aux in
  let chain_length =
    match chain_length with
    | Some c -> c
    | None -> Array.length (Projection.tail_segment old_proj).Projection.seg_sets.(0)
  in
  reseal_with_tail t ~kind:Scale_out ~started (fun ~epoch ->
      (* Provision the new nodes pre-sealed at the new epoch, then
         stripe the new tail segment over the enlarged set: the old
         tail's nodes plus the fresh ones. *)
      let fresh =
        Array.init add_servers (fun _ ->
            let name = Printf.sprintf "storage-%d" t.storage_count in
            t.storage_count <- t.storage_count + 1;
            let node = Storage_node.create ~net:t.cluster_net ~name ~params:t.p () in
            ignore
              (Sim.Net.call ~from:t.reconfig_host (Storage_node.seal_service node) epoch
                : Types.offset);
            node)
      in
      let members = Array.append (tail_members old_proj) fresh in
      chains_of ~context:"Cluster.scale_out" ~chain_length ?chains members)

let scale_in ?chain_length ?chains t ~remove_servers =
  with_reconfig t
  @@ fun () ->
  Sim.Span.with_span ~host:"reconfig-agent"
    ~args:(if Sim.Span.enabled () then [ ("remove", string_of_int remove_servers) ] else [])
    "scale.in"
  @@ fun () ->
  Sim.Metrics.incr (Sim.Metrics.counter "cluster.scale_ins");
  let started = Sim.Engine.now () in
  let old_proj = Auxiliary.latest t.aux in
  let members = tail_members old_proj in
  if remove_servers < 1 || remove_servers >= Array.length members then
    invalid_arg "Cluster.scale_in: must remove at least one server and keep at least one";
  let keep = Array.sub members 0 (Array.length members - remove_servers) in
  let chain_length =
    match chain_length with
    | Some c -> c
    | None ->
        min (Array.length keep)
          (Array.length (Projection.tail_segment old_proj).Projection.seg_sets.(0))
  in
  (* The removed nodes stay in the cluster as long as a bounded
     segment still maps onto them; {!retire_trimmed_segments} releases
     them once their data is prefix-trimmed away. *)
  reseal_with_tail t ~kind:Scale_in ~started (fun ~epoch:_ ->
      chains_of ~context:"Cluster.scale_in" ~chain_length ?chains keep)

(* A bounded segment is disposable once every node of every chain has
   prefix-trimmed past the segment's local range. *)
let segment_fully_trimmed seg =
  match seg.Projection.seg_limit with
  | None -> false
  | Some limit ->
      let rel = limit - seg.Projection.seg_base in
      let ok = ref true in
      Array.iteri
        (fun s chain ->
          let watermark =
            seg.Projection.seg_local_base + Projection.seg_cells_below seg ~set:s ~rel
          in
          Array.iter
            (fun node -> if Storage_node.trimmed_below node < watermark then ok := false)
            chain)
        seg.Projection.seg_sets;
      !ok

let retire_trimmed_segments t =
  with_reconfig t
  @@ fun () ->
  let old_proj = Auxiliary.latest t.aux in
  let segments = old_proj.Projection.segments in
  (* Only a prefix of the map can retire: segments tile the offset
     space, so dropping one from the middle would tear a hole. *)
  let retire = ref 0 in
  while
    !retire < Array.length segments - 1 && segment_fully_trimmed segments.(!retire)
  do
    incr retire
  done;
  if !retire = 0 then None
  else begin
    Sim.Span.with_span ~host:"reconfig-agent" "scale.retire"
    @@ fun () ->
    announce_started "retire";
    let started = Sim.Engine.now () in
    let epoch = old_proj.Projection.epoch + 1 in
    let servers_before = Projection.num_servers old_proj in
    let kept = Array.sub segments !retire (Array.length segments - !retire) in
    (* No seal needed: the mapping of every live offset is unchanged,
       and a stale client touching a retired offset gets Trimmed from
       the old nodes — the same answer the new map gives. *)
    let proj = Projection.v ~epoch ~segments:kept ~sequencer:old_proj.Projection.sequencer in
    (match Sim.Net.call ~from:t.reconfig_host (Auxiliary.propose_service t.aux) proj with
    | Auxiliary.Installed -> ()
    | Auxiliary.Conflict _ ->
        failwith "Cluster.retire_trimmed_segments: concurrent reconfiguration");
    let survivors = Projection.servers proj in
    let released =
      List.filter_map
        (fun node ->
          if List.memq node survivors then None else Some (Storage_node.name node))
        (Projection.servers old_proj)
    in
    t.nodes <- Array.of_list survivors;
    let installed = Sim.Engine.now () in
    let event =
      {
        sc_epoch = epoch;
        sc_kind = Segments_retired;
        sc_boundary = kept.(0).Projection.seg_base;
        sc_servers_before = servers_before;
        sc_servers_after = Projection.num_servers proj;
        sc_segments = Projection.num_segments proj;
        sc_released = released;
        sc_started_us = started;
        sc_installed_us = installed;
      }
    in
    t.scale_events <- event :: t.scale_events;
    Sim.Metrics.incr (Sim.Metrics.counter "cluster.segment_retirements");
    announce_installed "retire" epoch;
    Some epoch
  end

(* ------------------------------------------------------------------ *)
(* Failure monitor                                                    *)
(* ------------------------------------------------------------------ *)

let start_failure_monitor ?(probe_interval_us = 20_000.) ?(probe_timeout_us = 10_000.) t =
  Sim.Engine.spawn (fun () ->
      let probe epoch node =
        Sim.Metrics.incr (Sim.Metrics.counter "cluster.probes");
        match
          Sim.Net.call_r ~req_bytes:t.p.rpc_bytes ~resp_bytes:t.p.entry_bytes
            ~timeout_us:probe_timeout_us ~from:t.reconfig_host (Storage_node.read_service node)
            { Storage_node.repoch = epoch; roffset = 0 }
        with
        | Ok _ -> true (* any answer, even a sealed error, proves liveness *)
        | Error _ ->
            Sim.Metrics.incr (Sim.Metrics.counter "cluster.probe_failures");
            false
      in
      let rec loop () =
        Sim.Engine.sleep probe_interval_us;
        let proj = Auxiliary.latest t.aux in
        let epoch = proj.Projection.epoch in
        (* Scan the current membership across every segment; a second
           probe confirms before declaring death, so one unlucky
           timeout cannot trigger a reconfiguration. After a
           replacement the projection is stale, so stop this round and
           rescan. *)
        let rec scan = function
          | [] -> ()
          | node :: rest ->
              if probe epoch node || probe epoch node then scan rest
              else begin
                if Sim.Announce.active () then
                  Sim.Announce.emit (Sim.Announce.Node_dead { node = Storage_node.name node });
                ignore (replace_storage_node t ~dead:node : Types.epoch)
              end
        in
        scan (Projection.servers proj);
        loop ()
      in
      loop ())
