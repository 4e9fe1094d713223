type change =
  | Sequencer_replaced of { scanned : int }
  | Storage_replaced of { dead : string; spare : string }
  | Replication_restored of { spare : string; copied_entries : int; copied_bytes : int }
  | Scaled_out of { boundary : Types.offset }
  | Scaled_in of { boundary : Types.offset }
  | Retired of { released : string list }

type reconfig = {
  rc_epoch : Types.epoch;
  rc_started_us : float;
  rc_installed_us : float;
  rc_change : change;
}

(* A chain slot a storage replacement left short: chain [sl_set] of
   the bounded segment starting at [sl_base] lost its member at
   [sl_pos], and [sl_spare] is being filled to take it back. A
   segment keeps its base across epoch changes (bounding it only sets
   its limit), so the base names it for as long as it stays in the
   map. [sl_missing] lists the local offsets the spare still lacks;
   [None] until the first copy pass has read the whole range. *)
type short_slot = {
  sl_base : Types.offset;
  sl_set : int;
  sl_pos : int;
  mutable sl_spare : Storage_node.t;
  mutable sl_missing : Types.offset list option;
}

type t = {
  cluster_net : Sim.Net.t;
  p : Sim.Params.t;
  mutable nodes : Storage_node.t array;
  aux : Auxiliary.t;
  reconfig_host : Sim.Net.host;
  mutable sequencer_count : int;
  mutable spare_count : int;
  mutable storage_count : int;  (* names the next provisioned storage-N *)
  mutable reconfigs : reconfig list;  (* newest first *)
  reconfig_lock : Sim.Resource.t;  (* one reconfiguration at a time, FIFO *)
  mutable short : short_slot list;  (* oldest first *)
}

type failpoints = {
  mutable fp_skip_rebuild_scan : bool;
  mutable fp_forget_seal_tail : bool;
  mutable fp_skip_storage_seal : bool;
  mutable fp_stall_reconfig : bool;
  mutable fp_skip_rereplication : bool;
}

let failpoints =
  {
    fp_skip_rebuild_scan = false;
    fp_forget_seal_tail = false;
    fp_skip_storage_seal = false;
    fp_stall_reconfig = false;
    fp_skip_rereplication = false;
  }

let reset_failpoints () =
  failpoints.fp_skip_rebuild_scan <- false;
  failpoints.fp_forget_seal_tail <- false;
  failpoints.fp_skip_storage_seal <- false;
  failpoints.fp_stall_reconfig <- false;
  failpoints.fp_skip_rereplication <- false

let enable_failpoint = function
  | "skip-rebuild-scan" -> failpoints.fp_skip_rebuild_scan <- true
  | "forget-seal-tail" -> failpoints.fp_forget_seal_tail <- true
  | "skip-storage-seal" -> failpoints.fp_skip_storage_seal <- true
  | "stall-reconfig" -> failpoints.fp_stall_reconfig <- true
  | "skip-rereplication" -> failpoints.fp_skip_rereplication <- true
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
   queue in FIFO order on a one-server station, the next woken the
   instant the holder installs, and re-read the projection once they
   hold it, so a queued replacement observes its predecessor's
   result. *)
let with_reconfig t f =
  Sim.Resource.acquire t.reconfig_lock;
  Fun.protect ~finally:(fun () -> Sim.Resource.release t.reconfig_lock) f

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
      ~jitter:params.net_jitter ~timeout_us:params.rpc_timeout_us ()
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
      spare_count = 0;
      storage_count = servers;
      reconfigs = [];
      reconfig_lock = Sim.Resource.create ~name:"reconfig-lock" ~capacity:1 ();
      short = [];
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

(* Resend [rpc] until it answers, each resend leaving the moment the
   last one's deadline passed: [Sim.Net] backs that deadline off per
   host pair, so this loop adds no wait of its own. Reconfiguration
   uses this wherever skipping an unreachable node is unsound: the
   rebuild scan's chain-head reads, the sequencer's seal, the seal of
   every surviving storage node and the install proposal. A node that
   is gone for good needs a membership change, which is the failure
   monitor's job, not the caller's. *)
let rec until_answered rpc =
  match rpc () with
  | v -> v
  | exception Sim.Net.Unanswered -> until_answered rpc

(* Raw read used during reconfiguration, bypassing the client library
   (which would chase the not-yet-installed projection). Always reads
   the chain HEAD, and retries it until it answers: the stale-grant
   probe in {!Client} is sound only if everything visible at the head
   was seen by the rebuild scan, so falling back to another replica
   (which may lag a half-completed chain write) is not an option. A
   transiently unreachable head — crashed pending restart, or cut off
   by a partition — just stalls the scan until it comes back. Found by
   the simulation fuzzer: the old untimed RPC left a whole
   reconfiguration wedged (lock held, epoch never published) when the
   scan hit a partitioned head, because a dropped request blocked its
   caller forever. *)
let raw_read t proj ~epoch off =
  let set = Projection.replica_set proj off in
  let loff = Projection.local_offset proj off in
  until_answered (fun () ->
      Sim.Net.call ~req_bytes:t.p.rpc_bytes ~resp_bytes:t.p.entry_bytes ~from:t.reconfig_host
        (Storage_node.read_service set.(0))
        { Storage_node.repoch = epoch; roffset = loff })

(* Raw chain write used by the checkpoint scribe (the snapshot's offset
   comes pre-reserved from the sequencer dump, so the normal append
   path does not apply). A member that does not answer in time ends
   the write: the snapshot's offset stays a hole that readers fill,
   like any abandoned grant. *)
let raw_write t proj ~epoch off entry =
  let set = Projection.replica_set proj off in
  let loff = Projection.local_offset proj off in
  let req = { Storage_node.wepoch = epoch; woffset = loff; wcell = Types.Data entry } in
  Array.for_all
    (fun node ->
      match
        Sim.Net.call ~req_bytes:t.p.entry_bytes ~resp_bytes:t.p.rpc_bytes
          ~from:t.reconfig_host (Storage_node.write_service node) req
      with
      | Types.Write_ok | Types.Already_written _ -> true
      | Types.Sealed_at _ | (exception Sim.Net.Unanswered) -> false)
    set

(* Every RPC of a tick has a deadline, so a crashed chain head or an
   unreachable sequencer costs one skipped snapshot, not the scribe. *)
let start_checkpoint_scribe t ~interval_us =
  Sim.Engine.spawn (fun () ->
      let rec tick () =
        Sim.Engine.sleep interval_us;
        let proj = Auxiliary.latest t.aux in
        let epoch = proj.Projection.epoch in
        (match
           Sim.Net.call ~from:t.reconfig_host (Sequencer.dump_service proj.Projection.sequencer)
             epoch
         with
        | None | (exception Sim.Net.Unanswered) ->
            () (* sealed by a reconfiguration, or unreachable *)
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
   one attempt at the fabric's deadline, which the monitor's probes
   have already learnt and its misses backed off: if the monitor was
   wrong and it still answers, sealing it prevents stale-epoch clients
   from completing chains through it; it is sealed even when the
   projection no longer lists it (a spare still being filled).

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
      if is_dead then begin
        match Sim.Net.call ~from:t.reconfig_host (Storage_node.seal_service node) epoch with
        | tail -> Hashtbl.replace tails (Storage_node.name node) tail
        | exception Sim.Net.Unanswered -> ()
      end
      else
        (* Failpoint (fuzzer sensitivity, DESIGN.md §9): collect the
           tail without sealing, leaving stale-epoch clients able to
           keep writing through the old view. *)
        let tail =
          until_answered (fun () ->
              if failpoints.fp_skip_storage_seal then
                Sim.Net.call ~from:t.reconfig_host (Storage_node.tail_service node) ()
              else
                Sim.Net.call ~from:t.reconfig_host (Storage_node.seal_service node) epoch)
        in
        Hashtbl.replace tails (Storage_node.name node) tail)
    (match dead with
    | Some d when not (List.memq d (Projection.servers proj)) -> Projection.servers proj @ [ d ]
    | Some _ | None -> Projection.servers proj);
  tails

(* ------------------------------------------------------------------ *)
(* The reconfiguration driver (§2.2, §5)                              *)
(* ------------------------------------------------------------------ *)

(* Every reconfiguration section runs on the agent. None feeds a
   histogram, so the sites of the phases and of the copy are
   process-wide, and each operation's is declared with its call. *)
let agent_site ?args name = Sim.Span.site ~host:"reconfig-agent" ?args name
let node_arg key node = [ (key, Storage_node.name node) ]
let copy_s = agent_site "recovery.copy"

(* The sections an operation's seal and install report under. *)
type phases = { seal_s : unit Sim.Span.site; install_s : unit Sim.Span.site }

let phases p = { seal_s = agent_site (p ^ ".seal"); install_s = agent_site (p ^ ".install") }
let recovery_phases = phases "recovery"
let scale_phases = phases "scale"

(* How an operation closes the old epoch. *)
type seal =
  | Unsealed  (* segment retirement: no live offset changes its mapping *)
  | Unspanned  (* sequencer failover: its operation span covers both *)
  | Each_in of phases * Storage_node.t
      (* storage replacement and restore: the sequencer and the storage
         nodes each in their own seal span; the named node (the dead
         one, or the spare) gets one short try *)
  | Both_in of phases  (* scale-out/in: both seals in one span *)

(* What closing the epoch reports to the operation's step: the old
   sequencer's grant frontier — every offset below it was handed out
   under the old epoch, including grants whose chain writes are still
   in flight — and each answering storage node's local tail. *)
type sealed = { frontier : Types.offset; tails : (string, Types.offset) Hashtbl.t }

let in_phase seal phase f =
  match seal with
  | Unsealed | Unspanned -> f ()
  | Each_in (ph, _) | Both_in ph ->
      Sim.Span.within (match phase with `Seal -> ph.seal_s | `Install -> ph.install_s) () f

let close_epoch t seal proj ~epoch =
  let sequencer () =
    until_answered (fun () ->
        Sim.Net.call ~from:t.reconfig_host (Sequencer.seal_service proj.Projection.sequencer)
          epoch)
  in
  match seal with
  | Unsealed -> { frontier = -1; tails = Hashtbl.create 1 }
  | Unspanned ->
      let frontier = sequencer () in
      { frontier; tails = seal_storage t proj ~epoch }
  | Each_in (_, dead) ->
      let frontier = in_phase seal `Seal sequencer in
      { frontier; tails = in_phase seal `Seal (fun () -> seal_storage ~dead t proj ~epoch) }
  | Both_in _ ->
      in_phase seal `Seal (fun () ->
          let frontier = sequencer () in
          { frontier; tails = seal_storage t proj ~epoch })

(* The one epoch change every reconfiguration runs. Under the lock,
   [plan] sees the current projection and either declines — [None]:
   the cluster is already as the caller wants it, so nothing is
   sealed, logged or announced — or returns the operation's own step.
   Otherwise the driver opens the operation's span, announces the
   start, closes the old epoch as [seal] says, lets the step build the
   projection for [epoch + 1], adopts its members, proposes it, and
   logs and announces the install; the time from the seal to the
   install goes to the agent's [reconfig.<kind>_us] histogram. The
   step may not install anything itself: one agent reconfigures at a
   time, so an install conflict is a bug in the step. *)
let reconfigure t ~kind ~site ~arg ~seal plan =
  with_reconfig t
  @@ fun () ->
  let old_proj = Auxiliary.latest t.aux in
  match plan old_proj with
  | None -> None
  | Some step ->
      Sim.Span.within site arg
      @@ fun () ->
      let epoch = old_proj.Projection.epoch + 1 in
      let started = Sim.Engine.now () in
      announce_started kind;
      (* Failpoint: wedge the takeover right after it starts — the
         epoch never installs, so ReconfigTermination's deadline
         fires. *)
      if failpoints.fp_stall_reconfig && String.equal kind "sequencer" then
        Sim.Engine.sleep 60_000_000.;
      let proj, change = step ~epoch (close_epoch t seal old_proj ~epoch) in
      t.nodes <- Array.of_list (Projection.servers proj);
      in_phase seal `Install (fun () ->
          match
            until_answered (fun () ->
                Sim.Net.call ~from:t.reconfig_host (Auxiliary.propose_service t.aux) proj)
          with
          | Auxiliary.Installed -> ()
          | Auxiliary.Conflict _ -> failwith ("Cluster: concurrent reconfiguration during " ^ kind));
      (match change with
      | Storage_replaced _ -> Sim.Metrics.incr (Sim.Metrics.counter "cluster.recoveries")
      | Retired _ -> Sim.Metrics.incr (Sim.Metrics.counter "cluster.segment_retirements")
      | Sequencer_replaced _ | Replication_restored _ | Scaled_out _ | Scaled_in _ -> ());
      let installed = Sim.Engine.now () in
      Sim.Metrics.observe
        (Sim.Metrics.histogram ~host:"reconfig-agent" ("reconfig." ^ kind ^ "_us"))
        (installed -. started);
      t.reconfigs <-
        {
          rc_epoch = epoch;
          rc_started_us = started;
          rc_installed_us = installed;
          rc_change = change;
        }
        :: t.reconfigs;
      announce_installed kind epoch;
      Some epoch

let reconfigs t = List.rev t.reconfigs

let recoveries t =
  List.filter
    (fun r -> match r.rc_change with Storage_replaced _ -> true | _ -> false)
    (reconfigs t)

(* ------------------------------------------------------------------ *)
(* Sequencer failover (§5)                                            *)
(* ------------------------------------------------------------------ *)

let replace_sequencer t =
  let step old_proj ~epoch { frontier = seal_tail; tails } =
    (* The tail segment's chain heads carry the highest local tails. *)
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
    (* The new sequencer must start past {e both} frontiers. Starting
       at the storage tail alone re-grants every offset of an
       unexhausted range grant (granted, not yet written) — two clients
       then hold the same offset and one of them loses the write-once
       race on every entry. Found by the simulation fuzzer; the grant
       holder's unwritten slots simply resolve as holes and get
       filled. *)
    let tail =
      if failpoints.fp_forget_seal_tail then storage_tail else max storage_tail seal_tail
    in
    (* Rebuild per-stream backpointer state by scanning backward,
       stopping at the most recent sequencer checkpoint if one exists
       (§5's proposed optimization, via the scribe) — or at the
       retired boundary, below which everything was prefix-trimmed
       anyway.

       Failpoint (fuzzer sensitivity, DESIGN.md §9): lose the rebuild —
       the new sequencer comes up with the right tail but no backpointer
       state, so entries appended after the handoff chain to nothing and
       earlier stream history becomes unreachable to fresh readers. *)
    let streams, scanned =
      if failpoints.fp_skip_rebuild_scan then (Hashtbl.create 64, 0)
      else
        Seq_checkpoint.rebuild ~k:t.p.backpointer_k
          ~floor:(Projection.segment old_proj 0).Projection.seg_base
          ~read:(raw_read t old_proj ~epoch) (tail - 1)
    in
    Sim.Metrics.add (Sim.Metrics.counter "cluster.rebuild_scanned") scanned;
    if Sim.Announce.active () then
      Sim.Announce.emit (Sim.Announce.Tail_rebuilt { epoch; tail; scanned });
    (* A fresh sequencer seeded with the reconstructed state, over the
       same segment map. *)
    let name = Printf.sprintf "sequencer-%d" t.sequencer_count in
    t.sequencer_count <- t.sequencer_count + 1;
    let initial_streams = Hashtbl.fold (fun sid offs acc -> (sid, offs) :: acc) streams [] in
    let sequencer =
      Sequencer.create ~net:t.cluster_net ~name ~params:t.p ~initial_tail:tail ~initial_streams ()
    in
    ( Projection.v ~epoch ~segments:old_proj.Projection.segments ~sequencer,
      Sequencer_replaced { scanned } )
  in
  Option.get
    (reconfigure t ~kind:"sequencer" ~site:(agent_site "recovery.sequencer") ~arg:() ~seal:Unspanned
       (fun old_proj ->
         Sim.Metrics.incr (Sim.Metrics.counter "cluster.seq_replacements");
         Some (step old_proj)))

(* ------------------------------------------------------------------ *)
(* Online scale-out / scale-in (segment-map reconfiguration)          *)
(* ------------------------------------------------------------------ *)

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

(* The shared §2.2 step of scale_out/scale_in, once the driver has
   sealed everything: the sequencer's frontier is the boundary. Bound
   the old tail segment there (drop it if nothing was ever appended
   into it) and open a new unbounded tail segment over [new_sets]. No
   data moves: old offsets keep resolving through the segment that
   wrote them. *)
let open_tail old_proj ~epoch ~boundary new_sets =
  let old_segments = old_proj.Projection.segments in
  let last = Array.length old_segments - 1 in
  let old_tail = old_segments.(last) in
  let bounded =
    if boundary > old_tail.Projection.seg_base then
      [| { old_tail with Projection.seg_limit = Some boundary } |]
    else [||]
  in
  let new_tail =
    {
      Projection.seg_base = boundary;
      seg_limit = None;
      seg_local_base = next_local_base old_segments ~seal_tail:boundary;
      seg_sets = new_sets;
    }
  in
  Projection.v ~epoch
    ~segments:(Array.concat [ Array.sub old_segments 0 last; bounded; [| new_tail |] ])
    ~sequencer:old_proj.Projection.sequencer

let scale_out ?chains t ~add_servers =
  if add_servers < 1 then invalid_arg "Cluster.scale_out: add_servers must be at least 1";
  Option.get
    (reconfigure t ~kind:"scale-out" ~seal:(Both_in scale_phases) ~arg:add_servers
       ~site:(agent_site ~args:(fun n -> [ ("add", string_of_int n) ]) "scale.out")
       (fun old_proj ->
         Sim.Metrics.incr (Sim.Metrics.counter "cluster.scale_outs");
         Some
           (fun ~epoch { frontier = boundary; _ } ->
             (* Provision the new nodes pre-sealed at the new epoch,
                then stripe the new tail segment over the enlarged
                set: the old tail's nodes plus the fresh ones. *)
             let fresh =
               Array.init add_servers (fun _ ->
                   let name = Printf.sprintf "storage-%d" t.storage_count in
                   t.storage_count <- t.storage_count + 1;
                   let node = Storage_node.create ~net:t.cluster_net ~name ~params:t.p () in
                   ignore
                     (until_answered (fun () ->
                          Sim.Net.call ~from:t.reconfig_host (Storage_node.seal_service node) epoch)
                       : Types.offset);
                   node)
             in
             let chain_length =
               Array.length (Projection.tail_segment old_proj).Projection.seg_sets.(0)
             in
             let members = Array.append (tail_members old_proj) fresh in
             ( open_tail old_proj ~epoch ~boundary
                 (chains_of ~context:"Cluster.scale_out" ~chain_length ?chains members),
               Scaled_out { boundary } ))))

let scale_in t ~remove_servers =
  Option.get
    (reconfigure t ~kind:"scale-in" ~seal:(Both_in scale_phases) ~arg:remove_servers
       ~site:(agent_site ~args:(fun n -> [ ("remove", string_of_int n) ]) "scale.in")
       (fun old_proj ->
         (* Validate before counting: a rejected scale-in seals
            nothing and is not a scale-in. *)
         let members = tail_members old_proj in
         if remove_servers < 1 || remove_servers >= Array.length members then
           invalid_arg "Cluster.scale_in: must remove at least one server and keep at least one";
         let keep = Array.sub members 0 (Array.length members - remove_servers) in
         let chain_length =
           min (Array.length keep)
             (Array.length (Projection.tail_segment old_proj).Projection.seg_sets.(0))
         in
         let sets = chains_of ~context:"Cluster.scale_in" ~chain_length keep in
         Sim.Metrics.incr (Sim.Metrics.counter "cluster.scale_ins");
         (* The removed nodes stay in the cluster as long as a bounded
            segment still maps onto them; {!retire_trimmed_segments}
            releases them once their data is prefix-trimmed away. *)
         Some
           (fun ~epoch { frontier = boundary; _ } ->
             (open_tail old_proj ~epoch ~boundary sets, Scaled_in { boundary }))))

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
  reconfigure t ~kind:"retire" ~site:(agent_site "scale.retire") ~arg:() ~seal:Unsealed
  @@ fun old_proj ->
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
      else
        Some
          (fun ~epoch _ ->
            let kept = Array.sub segments !retire (Array.length segments - !retire) in
            let proj =
              Projection.v ~epoch ~segments:kept ~sequencer:old_proj.Projection.sequencer
            in
            let survivors = Projection.servers proj in
            let released =
              List.filter_map
                (fun node ->
                  if List.memq node survivors then None else Some (Storage_node.name node))
                (Projection.servers old_proj)
            in
            (proj, Retired { released }))

(* ------------------------------------------------------------------ *)
(* Storage-node replacement (§2.2 reconfiguration)                    *)
(* ------------------------------------------------------------------ *)

(* Replacing a dead member takes two epoch changes. The first, the one
   clients wait for, moves no data: it bounds the map at the seal
   frontier, opens a new tail segment with a fresh spare in the dead
   member's chains, and drops the dead member from every older chain,
   so old offsets resolve through the survivors. A background job then
   copies each short chain's range from its survivor onto the spare,
   and a second epoch change, the restore, copies under its seal
   whatever the survivor gained since and puts the spare back into the
   old chains. *)

let probe_interval_us = 20_000.

let segment_at proj base =
  Array.find_opt (fun seg -> seg.Projection.seg_base = base) proj.Projection.segments

(* Every local offset of chain [set] in a bounded segment. *)
let slot_range seg set =
  match seg.Projection.seg_limit with
  | None -> [||] (* only bounded segments have short chains *)
  | Some limit ->
      let lo = seg.Projection.seg_local_base in
      Array.init
        (Projection.seg_cells_below seg ~set ~rel:(limit - seg.Projection.seg_base))
        (fun i -> lo + i)

let awaiting t spare = List.filter (fun sl -> sl.sl_spare == spare) t.short

type copy = Copied of int  (** bytes; 0 when nothing had to move *) | Hole | Failed

(* Copy local cell [loff] from [src] onto [spare]. The survivor is
   authoritative: anything acknowledged to a client reached it. *)
let copy_cell t ~epoch ~src ~spare loff =
  let put cell bytes =
    match
      Sim.Net.call ~req_bytes:bytes ~resp_bytes:t.p.rpc_bytes
        ~from:t.reconfig_host (Storage_node.write_service spare)
        { Storage_node.wepoch = epoch; woffset = loff; wcell = cell }
    with
    | Types.Write_ok -> Copied bytes
    | Types.Already_written _ -> Copied 0
    | Types.Sealed_at _ | (exception Sim.Net.Unanswered) -> Failed
  in
  match
    Sim.Net.call ~req_bytes:t.p.rpc_bytes ~resp_bytes:t.p.entry_bytes
      ~from:t.reconfig_host (Storage_node.read_service src)
      { Storage_node.repoch = epoch; roffset = loff }
  with
  | Types.Read_unwritten -> Hole
  | Types.Read_data e -> put (Types.Data e) t.p.entry_bytes
  | Types.Read_junk -> put Types.Junk t.p.rpc_bytes
  | Types.Read_trimmed -> (
      match
        Sim.Net.call ~from:t.reconfig_host (Storage_node.trim_service spare)
          { Storage_node.repoch = epoch; roffset = loff }
      with
      | () -> Copied 0
      | exception Sim.Net.Unanswered -> Failed)
  | Types.Read_sealed _ | (exception Sim.Net.Unanswered) -> Failed

(* Copy [offs] from [src] onto [spare] while [wanted ()] holds, adding
   the cells and bytes moved to [copied]. {!Fan_out.window} cells are
   in flight, so the copy is bounded by SSD bandwidth, not round
   trips. Returns the offsets the spare still lacks (ascending) and
   how many of those failed rather than were holes. *)
let copy_cells t ~epoch ~wanted ~copied ~src ~spare offs =
  let n = Array.length offs in
  let outcome = Array.make n Hole in
  Sim.Ivar.read
    (Fan_out.start ~n (fun i ->
         outcome.(i) <-
           (if wanted () then copy_cell t ~epoch:(epoch ()) ~src ~spare offs.(i) else Failed);
         true));
  let missing = ref [] and failed = ref 0 and entries = ref 0 and bytes = ref 0 in
  for i = n - 1 downto 0 do
    match outcome.(i) with
    | Copied 0 -> ()
    | Copied b ->
        incr entries;
        bytes := !bytes + b
    | Hole -> missing := offs.(i) :: !missing
    | Failed ->
        incr failed;
        missing := offs.(i) :: !missing
  done;
  Sim.Metrics.add (Sim.Metrics.counter "cluster.copied_entries") !entries;
  copied := (fst !copied + !entries, snd !copied + !bytes);
  (!missing, !failed)

(* Copy one short chain's missing cells from its head-most survivor in
   [proj]: the whole range on the first pass, then only what is still
   missing. Returns the count of failed cells, or [None] when the
   segment has been retired from the map. *)
let copy_slot t proj ~epoch ~wanted ~copied sl =
  match segment_at proj sl.sl_base with
  | None -> None
  | Some seg ->
      let offs =
        match sl.sl_missing with Some l -> Array.of_list l | None -> slot_range seg sl.sl_set
      in
      let missing, failed =
        copy_cells t ~epoch ~wanted ~copied ~src:seg.Projection.seg_sets.(sl.sl_set).(0)
          ~spare:sl.sl_spare offs
      in
      sl.sl_missing <- Some missing;
      Some failed

let answers t node =
  match
    Sim.Net.call ~from:t.reconfig_host (Storage_node.tail_service node) ()
  with
  | _ -> true
  | exception Sim.Net.Unanswered -> false

(* The second epoch change. Under the seal no old-epoch write can land
   on a survivor, so after the copy of every cell the spare still
   lacks, each short chain whose copy fully succeeded takes the spare
   back at its old position. A spare that does not answer restores
   nothing; its chains stay short until it answers or is replaced. *)
let restore t spare ~copied =
  ignore
    (reconfigure t ~kind:"restore" ~seal:(Each_in (recovery_phases, spare)) ~arg:spare
       ~site:(agent_site ~args:(node_arg "spare") "recovery.restore")
       (fun old_proj ->
         if awaiting t spare = [] || not (answers t spare) then None
         else
           Some
             (fun ~epoch { tails; _ } ->
               let restored =
                 if not (Hashtbl.mem tails (Storage_node.name spare)) then []
                 else
                   Sim.Span.within copy_s () (fun () ->
                       List.filter
                         (fun sl ->
                           copy_slot t old_proj ~epoch:(fun () -> epoch) ~wanted:(fun () -> true)
                             ~copied sl
                           = Some 0)
                         (awaiting t spare))
               in
               t.short <-
                 List.filter
                   (fun sl ->
                     (not (List.memq sl restored)) && segment_at old_proj sl.sl_base <> None)
                   t.short;
               let segments =
                 Array.map
                   (fun seg ->
                     let seg_sets = Array.copy seg.Projection.seg_sets in
                     List.iter
                       (fun sl ->
                         if sl.sl_base = seg.Projection.seg_base then begin
                           let chain = seg_sets.(sl.sl_set) in
                           let pos = min sl.sl_pos (Array.length chain) in
                           seg_sets.(sl.sl_set) <-
                             Array.concat
                               [
                                 Array.sub chain 0 pos;
                                 [| spare |];
                                 Array.sub chain pos (Array.length chain - pos);
                               ]
                         end)
                       restored;
                     { seg with Projection.seg_sets })
                   old_proj.Projection.segments
               in
               let copied_entries, copied_bytes = !copied in
               copied := (0, 0);
               ( Projection.v ~epoch ~segments ~sequencer:old_proj.Projection.sequencer,
                 Replication_restored
                   { spare = Storage_node.name spare; copied_entries; copied_bytes } )))
      : Types.epoch option)

(* The background half of a replacement: copy every chain waiting for
   [spare] outside any seal, then restore; retry what is left (a copy
   that failed, a spare that did not answer) every probe interval. The
   job ends once no chain waits for [spare]: all restored, or handed on
   to the spare that replaced it. *)
let rereplicate t spare =
  (* Failpoint (fuzzer sensitivity, DESIGN.md §9): never re-replicate,
     leaving the old range on one replica for good. *)
  if not failpoints.fp_skip_rereplication then
    Sim.Engine.spawn (fun () ->
        let copied = ref (0, 0) in
        let wanted () = awaiting t spare <> [] in
        let epoch () = (Auxiliary.latest t.aux).Projection.epoch in
        let rec attempt () =
          match awaiting t spare with
          | [] -> ()
          | slots ->
              Sim.Span.within copy_s () (fun () ->
                  List.iter
                    (fun sl ->
                      match copy_slot t (Auxiliary.latest t.aux) ~epoch ~wanted ~copied sl with
                      | Some _ -> ()
                      | None -> t.short <- List.filter (fun s -> s != sl) t.short)
                    slots);
              restore t spare ~copied;
              if wanted () then begin
                Sim.Engine.sleep probe_interval_us;
                attempt ()
              end
        in
        attempt ())

let replace_storage_node t ~dead =
  let spare = ref None in
  let step old_proj ~epoch { frontier; _ } =
    (* Bring up the spare, pre-sealed at the new epoch. *)
    let spare_name = Printf.sprintf "storage-spare-%d" t.spare_count in
    t.spare_count <- t.spare_count + 1;
    let node = Storage_node.create ~net:t.cluster_net ~name:spare_name ~params:t.p () in
    ignore
      (until_answered (fun () ->
           Sim.Net.call ~from:t.reconfig_host (Storage_node.seal_service node) epoch)
        : Types.offset);
    spare := Some node;
    (* The new tail takes the spare in the dead member's place... *)
    let swap = Array.map (fun n -> if n == dead then node else n) in
    let opened =
      open_tail old_proj ~epoch ~boundary:frontier
        (Array.map swap (Projection.tail_segment old_proj).Projection.seg_sets)
    in
    (* ...and every bounded chain drops it, leaving its survivors to
       serve the old range until the restore. A chain with no survivor
       takes the empty spare: data that reached only the dead node is
       unrecoverable, exactly like a replica loss on the real system,
       and its slots read as unwritten and get hole-filled. *)
    let last = Projection.num_segments opened - 1 in
    let short = ref [] in
    let segments =
      Array.mapi
        (fun si seg ->
          if si = last then seg
          else
            {
              seg with
              Projection.seg_sets =
                Array.mapi
                  (fun s chain ->
                    match Array.find_index (fun n -> n == dead) chain with
                    | None -> chain
                    | Some _ when Array.length chain = 1 ->
                        if Sim.Announce.active () then
                          Sim.Announce.emit (Sim.Announce.Prefix_lost { segment = si; set = s });
                        [| node |]
                    | Some pos ->
                        short :=
                          {
                            sl_base = seg.Projection.seg_base;
                            sl_set = s;
                            sl_pos = pos;
                            sl_spare = node;
                            sl_missing = None;
                          }
                          :: !short;
                        Array.of_list (List.filter (fun n -> n != dead) (Array.to_list chain)))
                  seg.Projection.seg_sets;
            })
        opened.Projection.segments
    in
    (* Chains that were waiting for [dead] (a spare that died while
       being filled) now wait for its replacement, from scratch. *)
    List.iter
      (fun sl ->
        if sl.sl_spare == dead then begin
          sl.sl_spare <- node;
          sl.sl_missing <- None
        end)
      t.short;
    t.short <- t.short @ List.rev !short;
    ( Projection.v ~epoch ~segments ~sequencer:old_proj.Projection.sequencer,
      Storage_replaced { dead = Storage_node.name dead; spare = spare_name } )
  in
  match
    reconfigure t ~kind:"storage" ~seal:(Each_in (recovery_phases, dead)) ~arg:dead
      ~site:(agent_site ~args:(node_arg "dead") "recovery")
      (fun old_proj ->
        (* Decline if [dead] is already gone: the monitor and a
           scheduled fault-plan action can race to the same corpse. *)
        if List.memq dead (Projection.servers old_proj) || awaiting t dead <> [] then
          Some (step old_proj)
        else None)
  with
  | Some epoch ->
      Option.iter (rereplicate t) !spare;
      epoch
  | None -> (Auxiliary.latest t.aux).Projection.epoch

let await_replication t =
  while t.short <> [] do
    Sim.Engine.sleep probe_interval_us
  done

(* ------------------------------------------------------------------ *)
(* Failure monitor                                                    *)
(* ------------------------------------------------------------------ *)

let start_failure_monitor t =
  Sim.Engine.spawn (fun () ->
      (* Each counter is looked up once, on its first increment: a run
         that never probes, or never fails a probe, lists no zero
         counter for it. *)
      let probes = ref None and failures = ref None in
      let bump cell name =
        match !cell with
        | Some c -> Sim.Metrics.incr c
        | None ->
            let c = Sim.Metrics.counter name in
            cell := Some c;
            Sim.Metrics.incr c
      in
      let probe epoch node =
        bump probes "cluster.probes";
        match
          Sim.Net.call ~req_bytes:t.p.rpc_bytes ~resp_bytes:t.p.entry_bytes
            ~from:t.reconfig_host (Storage_node.read_service node)
            { Storage_node.repoch = epoch; roffset = 0 }
        with
        | _ -> true (* any answer, even a sealed error, proves liveness *)
        | exception Sim.Net.Unanswered ->
            bump failures "cluster.probe_failures";
            false
      in
      let rec loop () =
        let proj = Auxiliary.latest t.aux in
        let epoch = proj.Projection.epoch in
        (* Scan the current membership across every segment, and the
           spares still being filled; a node is dead only after three
           consecutive unanswered probes, so neither one unlucky
           timeout nor a probe queued behind a burst can trigger a
           reconfiguration. A probe waits the fabric's deadline for the
           (agent, node) pair, so with Karn's doubling three misses
           take about 7 RTOs. The first round runs before the first
           sleep: every member then has an answered round trip, and a
           learnt deadline, before any fault. After a replacement the
           projection is stale, so stop this round and rescan. *)
        let rec scan = function
          | [] -> ()
          | node :: rest ->
              if probe epoch node || probe epoch node || probe epoch node then scan rest
              else begin
                if Sim.Announce.active () then
                  Sim.Announce.emit (Sim.Announce.Node_dead { node = Storage_node.name node });
                ignore (replace_storage_node t ~dead:node : Types.epoch)
              end
        in
        scan
          (List.fold_left
             (fun acc sl -> if List.memq sl.sl_spare acc then acc else acc @ [ sl.sl_spare ])
             (Projection.servers proj) t.short);
        Sim.Engine.sleep probe_interval_us;
        loop ()
      in
      loop ())
