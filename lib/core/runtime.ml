type callbacks = {
  apply : pos:int -> key:string option -> bytes -> unit;
  checkpoint : (unit -> bytes) option;
  load_checkpoint : (bytes -> unit) option;
}

type tx_status = Committed | Aborted

exception No_transaction
exception Nested_transaction

(* Buffered work for an object frozen behind an undecided commit.
   [Commit_point] marks the position of a commit record involving the
   object: applying past it requires the commit's outcome; its writes
   for this object (if any) are applied when the outcome is commit. *)
type pending_action =
  | Apply_update of Record.update
  | Commit_point of { cpos : int; writes : Record.update list }
  | Apply_checkpoint of { base : int; data : bytes }

type hosted = {
  oid : int;
  cb : callbacks;
  stream : Corfu.Stream.t;
  marked_needs_decision : bool;
  mutable blocked_on : int option;
  mutable gap_pending : bool;
      (* the stream skipped trimmed history and no checkpoint has
         repaired the view yet: buffer records, because the checkpoint
         record (which lies ahead in the log) will replace the state
         as of its base and would otherwise swallow them *)
  mutable serve_read : (string option -> bytes option) option;
      (* answers peer clients' remote reads from this view (§4.1 D) *)
  mutable extra_views : callbacks list;
      (* additional in-memory representations sharing this stream *)
  waiting : (int * pending_action) Queue.t;
}

type txctx = {
  mutable tx_reads : (int * string option * int) list;  (* newest first *)
  mutable tx_writes : Record.update list;  (* newest first *)
  mutable tx_remote_reads : bool;  (* some read came from a peer view *)
  tx_t0 : float;  (* virtual time at begin_tx *)
}

type remote_read_request = { rr_oid : int; rr_key : string option }

(* [None]: the peer does not host/serve the object. Otherwise the
   serving callback's answer plus the peer view's version. *)
type remote_read_response = (bytes option * int) option

type t = {
  cl : Corfu.Client.t;
  batcher : Batcher.t;
  dispatch : Sim.Resource.t;
  play_lock : Sim.Resource.t;
  objects : (int, hosted) Hashtbl.t;
  last_any : (int, int) Hashtbl.t;
  last_key : (int * string, int) Hashtbl.t;
  last_whole : (int, int) Hashtbl.t;
  processed : (int, unit) Hashtbl.t;
  decided : (int, bool) Hashtbl.t;
  undecided : (int, Record.commit) Hashtbl.t;
  own_commits : (int, Record.commit) Hashtbl.t;
      (* commit records this runtime generated: needed to combine
         partial verdicts for fully-remote transactions *)
  partials : (int, (int, bool) Hashtbl.t) Hashtbl.t;  (* cpos -> oid -> verdict *)
  partials_emitted : (int * int, unit) Hashtbl.t;  (* (cpos, oid) *)
  remote_peers : (int, (remote_read_request, remote_read_response) Sim.Net.service) Hashtbl.t;
  mutable rr_service : (remote_read_request, remote_read_response) Sim.Net.service option;
  txs : (int, txctx) Hashtbl.t;
  decision_timeout_us : float;
  apply_record_us : float;
  dispatch_us : float;
  retry_sleep_us : float;
  retry_backoff_max_us : float;
  mutable stats_applied : int;
  mutable stats_commits : int;
  mutable stats_aborts : int;
  (* Lag watermarks: the highest global tail learned from the
     sequencer, the exclusive offset playback has consumed to, and the
     trim horizon — their gaps are the playback-lag and trim-lag
     timeseries probes. *)
  mutable known_tail : int;
  mutable played_upto : int;
  mutable trimmed_below : int;
  applied_c : Sim.Metrics.counter;
  commits_c : Sim.Metrics.counter;
  aborts_c : Sim.Metrics.counter;
  conflicts_c : Sim.Metrics.counter;
  apply_h : Sim.Metrics.histogram;  (* one playback sweep *)
  tx_h : Sim.Metrics.histogram;  (* begin_tx .. end_tx *)
}

let create ?batch_size ?linger_us ?(decision_timeout_us = 50_000.) cl =
  let p = Corfu.Client.params cl in
  let batch_size = Option.value batch_size ~default:p.Sim.Params.commit_batch in
  let host_name = Sim.Net.host_name (Corfu.Client.host cl) in
  let t =
  {
    cl;
    batcher = Batcher.create ~client:cl ~batch_size ?linger_us ();
    dispatch = Sim.Resource.create ~name:(host_name ^ ".tango-dispatch") ~capacity:1 ();
    play_lock = Sim.Resource.create ~name:(host_name ^ ".tango-playback") ~capacity:1 ();
    objects = Hashtbl.create 16;
    last_any = Hashtbl.create 64;
    last_key = Hashtbl.create 256;
    last_whole = Hashtbl.create 64;
    processed = Hashtbl.create 4096;
    decided = Hashtbl.create 256;
    undecided = Hashtbl.create 16;
    own_commits = Hashtbl.create 16;
    partials = Hashtbl.create 16;
    partials_emitted = Hashtbl.create 16;
    remote_peers = Hashtbl.create 8;
    rr_service = None;
    txs = Hashtbl.create 8;
    decision_timeout_us;
    apply_record_us = p.Sim.Params.apply_record_us;
    dispatch_us = p.Sim.Params.client_dispatch_us;
    retry_sleep_us = p.Sim.Params.retry_sleep_us;
    retry_backoff_max_us = p.Sim.Params.retry_backoff_max_us;
    stats_applied = 0;
    stats_commits = 0;
    stats_aborts = 0;
    known_tail = 0;
    played_upto = 0;
    trimmed_below = 0;
    applied_c = Sim.Metrics.counter ~host:host_name "runtime.applied";
    commits_c = Sim.Metrics.counter ~host:host_name "runtime.commits";
    aborts_c = Sim.Metrics.counter ~host:host_name "runtime.aborts";
    conflicts_c = Sim.Metrics.counter ~host:host_name "runtime.version_conflicts";
    apply_h = Sim.Metrics.histogram ~host:host_name "playback.apply_us";
    tx_h = Sim.Metrics.histogram ~host:host_name "tx.duration_us";
  }
  in
  Sim.Timeseries.probe ~host:host_name "lag.playback" (fun () ->
      float_of_int (Stdlib.max 0 (t.known_tail - t.played_upto)));
  Sim.Timeseries.probe ~host:host_name "lag.trim" (fun () ->
      float_of_int (Stdlib.max 0 (t.known_tail - t.trimmed_below)));
  t

let client t = t.cl

let register t ~oid ?(needs_decision = false) cb =
  if Hashtbl.mem t.objects oid then invalid_arg "Runtime.register: OID already hosted";
  Hashtbl.replace t.objects oid
    {
      oid;
      cb;
      stream = Corfu.Stream.attach t.cl oid;
      marked_needs_decision = needs_decision;
      blocked_on = None;
      gap_pending = false;
      serve_read = None;
      extra_views = [];
      waiting = Queue.create ();
    }

let register_extra_view t ~oid cb =
  match Hashtbl.find_opt t.objects oid with
  | Some ho -> ho.extra_views <- cb :: ho.extra_views
  | None -> invalid_arg "Runtime.register_extra_view: object not hosted"

let is_hosted t oid = Hashtbl.mem t.objects oid
let hosted_oids t =
  Hashtbl.fold (fun oid _ acc -> oid :: acc) t.objects [] |> List.sort Int.compare
let hosted_list t = Hashtbl.fold (fun _ ho acc -> ho :: acc) t.objects []

(* ------------------------------------------------------------------ *)
(* Versions                                                           *)
(* ------------------------------------------------------------------ *)

let find_version tbl key = match Hashtbl.find_opt tbl key with Some v -> v | None -> -1

let version_of t ~oid ?key () =
  match key with
  | None -> find_version t.last_any oid
  | Some k -> max (find_version t.last_key (oid, k)) (find_version t.last_whole oid)

let bump_version t oid key pos =
  Hashtbl.replace t.last_any oid pos;
  match key with
  | None -> Hashtbl.replace t.last_whole oid pos
  | Some k -> Hashtbl.replace t.last_key (oid, k) pos

(* ------------------------------------------------------------------ *)
(* Applying records                                                   *)
(* ------------------------------------------------------------------ *)

(* CPU accounting happens per *record* (see [charge_apply]); a commit
   record applying three writes costs one apply slot, matching the
   paper's per-record playback cost model. *)
let apply_now t ho pos (u : Record.update) =
  ho.cb.apply ~pos ~key:u.u_key u.u_data;
  List.iter (fun (cb : callbacks) -> cb.apply ~pos ~key:u.u_key u.u_data) ho.extra_views;
  bump_version t ho.oid u.u_key pos;
  t.stats_applied <- t.stats_applied + 1;
  Sim.Metrics.incr t.applied_c

let charge_apply t = Sim.Engine.sleep t.apply_record_us

(* Note a trim gap reported by the stream. Only checkpointable objects
   go into buffering mode — an object without [load_checkpoint] cannot
   be repaired, so its records keep applying best-effort. *)
let refresh_gap ho =
  if Corfu.Stream.has_trim_gap ho.stream then begin
    Corfu.Stream.clear_trim_gap ho.stream;
    if ho.cb.load_checkpoint <> None then ho.gap_pending <- true
  end

(* Drop buffered actions the snapshot already contains. *)
let purge_below ho base =
  let keep = Queue.create () in
  Queue.iter (fun ((pos, _) as item) -> if pos > base then Queue.add item keep) ho.waiting;
  Queue.clear ho.waiting;
  Queue.transfer keep ho.waiting

(* A checkpoint record lands later in the log than the state it
   captures. Load it when (a) the view has not reached its base
   version, or (b) the view is gapped (trimmed history was skipped),
   in which case the snapshot is the repair: records buffered since
   the gap that the snapshot covers (pos <= base) are discarded, the
   rest replay after it. Otherwise skip it — the view is ahead. *)
let load_checkpoint_now t ho ~base data =
  match ho.cb.load_checkpoint with
  | Some load ->
      if ho.gap_pending || find_version t.last_any ho.oid < base then begin
        load data;
        List.iter
          (fun (cb : callbacks) ->
            match cb.load_checkpoint with Some f -> f data | None -> ())
          ho.extra_views;
        ho.gap_pending <- false;
        purge_below ho base;
        if base >= 0 && find_version t.last_any ho.oid < base then
          bump_version t ho.oid None base
      end
  | None -> ()

let hosts_all_reads t (c : Record.commit) =
  List.for_all (fun (oid, _, _) -> Hashtbl.mem t.objects oid) c.c_reads

let involved_hosted t (c : Record.commit) =
  let oids =
    List.map (fun (oid, _, _) -> oid) c.c_reads
    @ List.map (fun (u : Record.update) -> u.u_oid) c.c_writes
  in
  List.sort_uniq Int.compare oids |> List.filter_map (Hashtbl.find_opt t.objects)

(* Runtime milestones (Sim.Announce): decision recorded, commit writes
   applied, commit parked, decision timeout, transaction boundaries.
   Every emission is guarded, so runs with nothing armed pay one branch
   and allocate nothing. *)
let announce_host t = Sim.Net.host_name (Corfu.Client.host t.cl)

let announce_decided t pos committed =
  if Sim.Announce.active () then
    Sim.Announce.emit (Sim.Announce.Commit_decided { client = announce_host t; pos; committed })

let announce_applied t pos =
  if Sim.Announce.active () then
    Sim.Announce.emit (Sim.Announce.Commit_applied { client = announce_host t; pos })

(* Forward reference: [eager_outcome] needs the resolution machinery's
   types but is more readable next to [handle_commit]. *)
let eager_outcome_ref : (t -> int -> Record.commit -> bool option) ref =
  ref (fun _ _ _ -> None)

(* Mutually recursive resolution machinery: resolving a decision
   drains frozen queues, which can surface the next commit point,
   which may now be decidable. *)
let rec resolve t target committed =
  if not (Hashtbl.mem t.decided target) then begin
    Hashtbl.replace t.decided target committed;
    announce_decided t target committed;
    match Hashtbl.find_opt t.undecided target with
    | None -> ()
    | Some c ->
        Hashtbl.remove t.undecided target;
        List.iter
          (fun ho ->
            if ho.blocked_on = Some target then begin
              ho.blocked_on <- None;
              drain t ho
            end)
          (involved_hosted t c)
  end

and drain t ho =
  if ho.blocked_on = None && (not ho.gap_pending) && not (Queue.is_empty ho.waiting) then begin
    let pos, action = Queue.peek ho.waiting in
    match action with
    | Apply_update u ->
        (* CPU was charged when the record was processed; draining the
           buffer is free. *)
        ignore (Queue.pop ho.waiting);
        apply_now t ho pos u;
        drain t ho
    | Apply_checkpoint { base; data } ->
        ignore (Queue.pop ho.waiting);
        load_checkpoint_now t ho ~base data;
        drain t ho
    | Commit_point { cpos; writes } -> (
        match Hashtbl.find_opt t.decided cpos with
        | Some committed ->
            ignore (Queue.pop ho.waiting);
            if committed then begin
              announce_applied t cpos;
              List.iter
                (fun (u : Record.update) -> if u.Record.u_oid = ho.oid then apply_now t ho cpos u)
                writes
            end;
            drain t ho
        | None ->
            (* Frozen again at the next undecided commit. *)
            ho.blocked_on <- Some cpos;
            emit_partials t cpos;
            try_decide t cpos)
  end

(* A parked commit becomes decidable once draining uncovers enough of
   the frozen queues: the conflict check runs against applied versions
   plus the (known) queued records below the commit position, so it is
   identical to the one the generator ran. [eager_outcome] is defined
   below; it only returns [None] while an undecided commit still masks
   a read key. *)
and try_decide t cpos =
  match Hashtbl.find_opt t.undecided cpos with
  | None -> ()
  | Some c -> (
      match !eager_outcome_ref t cpos c with
      | Some committed -> resolve t cpos committed
      | None -> ())

(* Freeze all hosted involved objects at [cpos] and queue the commit
   point; every object is exactly at [cpos] when this is called. *)
and park_commit t cpos (c : Record.commit) ~involved =
  if Sim.Announce.active () then
    Sim.Announce.emit
      (Sim.Announce.Commit_parked
         {
           client = announce_host t;
           pos = cpos;
           reads = List.length c.c_reads;
           writes = List.length c.c_writes;
         });
  Hashtbl.replace t.undecided cpos c;
  List.iter
    (fun ho ->
      Queue.add (cpos, Commit_point { cpos; writes = c.c_writes }) ho.waiting;
      if ho.blocked_on = None then begin
        ho.blocked_on <- Some cpos;
        try_decide t cpos
      end)
    involved;
  emit_partials t cpos;
  spawn_decision_watchdog t cpos c

(* --- Collaborative conflict resolution (§4.1 D, the paper's future
   work): hosts of read-set objects publish per-object verdicts as
   partial-decision records; once published verdicts cover the read
   set, any participant combines them into the final decision. --- *)

(* Streams that carry a transaction's coordination records. *)
and involved_streams (c : Record.commit) =
  List.sort_uniq Int.compare
    (List.map (fun (oid, _, _) -> oid) c.c_reads
    @ List.map (fun (u : Record.update) -> u.u_oid) c.c_writes)

(* Publish this client's verdicts for the read-set objects it hosts
   that are frozen exactly at [cpos] (their versions are then as of
   the commit position, so each verdict is deterministic). *)
and emit_partials t cpos =
  match Hashtbl.find_opt t.undecided cpos with
  | None -> ()
  | Some c ->
      let read_oids =
        List.sort_uniq Int.compare (List.map (fun (oid, _, _) -> oid) c.c_reads)
      in
      let verdicts =
        List.filter_map
          (fun oid ->
            match Hashtbl.find_opt t.objects oid with
            | Some ho
              when ho.blocked_on = Some cpos
                   && not (Hashtbl.mem t.partials_emitted (cpos, oid)) ->
                Hashtbl.replace t.partials_emitted (cpos, oid) ();
                let ok =
                  List.for_all
                    (fun (roid, key, recorded) ->
                      roid <> oid || version_of t ~oid ?key () <= recorded)
                    c.c_reads
                in
                if not ok then Sim.Metrics.incr t.conflicts_c;
                Some (oid, ok)
            | Some _ | None -> None)
          read_oids
      in
      if verdicts <> [] then begin
        note_partials t cpos verdicts;
        let streams = involved_streams c in
        Sim.Engine.spawn (fun () ->
            ignore
              (Batcher.submit t.batcher ~streams
                 (Record.Partial { p_target = cpos; p_verdicts = verdicts })))
      end

and note_partials t cpos verdicts =
  let tbl =
    match Hashtbl.find_opt t.partials cpos with
    | Some tbl -> tbl
    | None ->
        let tbl = Hashtbl.create 4 in
        Hashtbl.replace t.partials cpos tbl;
        tbl
  in
  List.iter (fun (oid, ok) -> Hashtbl.replace tbl oid ok) verdicts;
  maybe_combine t cpos

(* When published verdicts cover the whole read set, combine: the
   final outcome is their conjunction — identical from any combiner. *)
and maybe_combine t cpos =
  if not (Hashtbl.mem t.decided cpos) then begin
    let c_opt =
      match Hashtbl.find_opt t.undecided cpos with
      | Some c -> Some c
      | None -> Hashtbl.find_opt t.own_commits cpos
    in
    match (c_opt, Hashtbl.find_opt t.partials cpos) with
    | Some c, Some verdicts ->
        let read_oids =
          List.sort_uniq Int.compare (List.map (fun (oid, _, _) -> oid) c.c_reads)
        in
        if List.for_all (Hashtbl.mem verdicts) read_oids then begin
          let final = List.for_all (Hashtbl.find verdicts) read_oids in
          let publisher =
            Hashtbl.mem t.own_commits cpos
            || List.exists
                 (fun (u : Record.update) -> Hashtbl.mem t.objects u.u_oid)
                 c.c_writes
          in
          resolve t cpos final;
          if publisher then
            publish_decision t cpos c final
        end
    | _, _ -> ()
  end

and publish_decision t cpos c final =
  let streams = involved_streams c in
  Sim.Engine.spawn (fun () ->
      ignore
        (Batcher.submit t.batcher ~streams
           (Record.Decision { d_target = cpos; d_committed = final })))

(* If no decision record shows up (the generator crashed between the
   commit and decision appends), reconstruct the outcome
   deterministically from the log and publish it (§4.1, Failure
   Handling). *)
and spawn_decision_watchdog t cpos c =
  Sim.Engine.spawn (fun () ->
      Sim.Engine.sleep t.decision_timeout_us;
      if Hashtbl.mem t.undecided cpos then begin
        if Sim.Announce.active () then
          Sim.Announce.emit
            (Sim.Announce.Decision_timeout { client = announce_host t; pos = cpos });
        let committed = reconstruct_outcome t cpos c in
        Sim.Resource.acquire t.play_lock;
        Fun.protect
          ~finally:(fun () -> Sim.Resource.release t.play_lock)
          (fun () -> resolve t cpos committed);
        let streams =
          List.sort_uniq Int.compare (List.map (fun (u : Record.update) -> u.Record.u_oid) c.c_writes)
        in
        ignore
          (Batcher.submit t.batcher ~streams
             (Record.Decision { d_target = cpos; d_committed = committed }))
      end)

(* Deterministic replay of the read set's streams: did any read key
   change between its recorded version and the commit position? Inner
   commit records met during the scan are resolved from decision
   records in the log, previously known outcomes, or recursively. *)
and reconstruct_outcome t cpos (c : Record.commit) =
  let memo = Hashtbl.create 8 in
  let key_conflicts wkey rkey =
    match (wkey, rkey) with None, _ | _, None -> true | Some a, Some b -> String.equal a b
  in
  let scan_records oid =
    (* Fresh stream walk over [oid]'s history; positions ascending. *)
    let s = Corfu.Stream.attach t.cl oid in
    ignore (Corfu.Stream.sync s);
    let rec collect acc =
      match Corfu.Stream.readnext s with
      | None -> List.rev acc
      | Some (off, entry) ->
          let records = Record.decode_payload entry.Corfu.Types.payload in
          let tagged = List.mapi (fun slot r -> (Record.pos ~offset:off ~slot, r)) records in
          collect (List.rev_append tagged acc)
    in
    collect []
  in
  let rec outcome_of pos (c : Record.commit) =
    match Hashtbl.find_opt t.decided pos with
    | Some o -> o
    | None -> (
        match Hashtbl.find_opt memo pos with
        | Some o -> o
        | None ->
            let o =
              List.for_all
                (fun (oid, key, recorded) -> not (modified_between oid key ~after:recorded ~before:pos))
                c.c_reads
            in
            Hashtbl.replace memo pos o;
            o)
  and modified_between oid key ~after ~before =
    let records = scan_records oid in
    let decisions =
      List.filter_map
        (function
          | _, Record.Decision { d_target; d_committed } -> Some (d_target, d_committed)
          | _ -> None)
        records
    in
    List.exists
      (fun (pos, r) ->
        pos > after && pos < before
        &&
        match r with
        | Record.Update u -> u.Record.u_oid = oid && key_conflicts u.Record.u_key key
        | Record.Commit inner ->
            List.exists
              (fun (u : Record.update) -> u.Record.u_oid = oid && key_conflicts u.Record.u_key key)
              inner.Record.c_writes
            &&
            (match List.assoc_opt pos decisions with
            | Some committed -> committed
            | None -> outcome_of pos inner)
        | Record.Decision _ | Record.Partial _ | Record.Checkpoint _ -> false)
      records
  in
  outcome_of cpos c

(* ------------------------------------------------------------------ *)
(* Playback                                                           *)
(* ------------------------------------------------------------------ *)

let deliver_update t pos (u : Record.update) =
  match Hashtbl.find_opt t.objects u.u_oid with
  | None -> ()
  | Some ho ->
      refresh_gap ho;
      if ho.blocked_on <> None || ho.gap_pending then Queue.add (pos, Apply_update u) ho.waiting
      else apply_now t ho pos u

let key_overlaps wkey rkey =
  match (wkey, rkey) with None, _ | _, None -> true | Some a, Some b -> String.equal a b

(* Can the commit at [pos] be decided right now, even though some read
   object is frozen behind an undecided commit? Its queued records are
   known, so we can often prove the read window clean (or certainly
   dirty) without waiting — only an {e undecided} queued write to a
   read key forces parking. This keeps one stalled remote-write
   transaction from convoying every local transaction behind it. *)
let eager_outcome t pos (c : Record.commit) =
  if not (hosts_all_reads t c) then None
  else begin
    let rec check = function
      | [] -> Some true
      | (oid, key, recorded) :: rest -> (
          match Hashtbl.find_opt t.objects oid with
          | None -> None
          | Some ho ->
              refresh_gap ho;
              if ho.gap_pending then None
              else if version_of t ~oid ?key () > recorded then begin
                Sim.Metrics.incr t.conflicts_c;
                Some false
              end
              else if ho.blocked_on = None then check rest
              else begin
                let conflict = ref false in
                let unknown = ref false in
                Queue.iter
                  (fun (qpos, action) ->
                    if qpos > recorded && qpos < pos then
                      match action with
                      | Apply_update u ->
                          if u.Record.u_oid = oid && key_overlaps u.Record.u_key key then
                            conflict := true
                      | Commit_point { cpos; writes } ->
                          let touches =
                            List.exists
                              (fun (u : Record.update) ->
                                u.Record.u_oid = oid && key_overlaps u.Record.u_key key)
                              writes
                          in
                          if touches then begin
                            match Hashtbl.find_opt t.decided cpos with
                            | Some true -> conflict := true
                            | Some false -> ()
                            | None -> unknown := true
                          end
                      | Apply_checkpoint _ -> ())
                  ho.waiting;
                if !conflict then begin
                  Sim.Metrics.incr t.conflicts_c;
                  Some false
                end
                else if !unknown then None
                else check rest
              end)
    in
    check c.c_reads
  end

let () = eager_outcome_ref := eager_outcome

(* [involved] is [involved_hosted t c], computed once by the caller
   (the playback loop also needs it to decide whether to charge
   CPU). *)
let handle_commit t pos ~involved (c : Record.commit) =
  match Hashtbl.find_opt t.decided pos with
  | Some committed ->
      if committed then begin
        announce_applied t pos;
        List.iter (deliver_update t pos) c.c_writes
      end
  | None -> (
      List.iter refresh_gap involved;
      (* Failpoint: apply the writes while the verdict is still
         unknown — the §3c discipline (decide, then apply) is broken
         on purpose so the ReadCommitted spec machine has a live
         sensitivity gate. The normal decision machinery still runs
         below, so the run proceeds (and later re-applies). *)
      if Corfu.Cluster.failpoints.Corfu.Cluster.fp_blind_commit_apply then begin
        announce_applied t pos;
        List.iter (deliver_update t pos) c.c_writes
      end;
      match eager_outcome t pos c with
      | Some committed ->
          (* Merged-order playback guarantees every hosted view is at
             exactly [pos] (frozen queues included), so this decision
             matches the generator's. *)
          Hashtbl.replace t.decided pos committed;
          announce_decided t pos committed;
          if committed then begin
            announce_applied t pos;
            List.iter (deliver_update t pos) c.c_writes
          end;
          (* If waiters elsewhere rely on a decision record and the
             generator cannot produce it (collaborative commits), any
             full-read-set host publishes — the verdict is the same
             from everyone. *)
          if c.Record.c_needs_decision && not (Hashtbl.mem t.own_commits pos) then
            publish_decision t pos c committed
      | None -> park_commit t pos c ~involved)

let process_entry t off (entry : Corfu.Types.entry) =
  if not (Hashtbl.mem t.processed off) then begin
    Hashtbl.replace t.processed off ();
    let records = Record.decode_payload entry.Corfu.Types.payload in
    List.iteri
      (fun slot r ->
        let pos = Record.pos ~offset:off ~slot in
        match r with
        | Record.Update u ->
            if Hashtbl.mem t.objects u.Record.u_oid then charge_apply t;
            deliver_update t pos u
        | Record.Commit c ->
            let involved = involved_hosted t c in
            if involved <> [] then charge_apply t;
            handle_commit t pos ~involved c
        | Record.Decision { d_target; d_committed } ->
            charge_apply t;
            resolve t d_target d_committed
        | Record.Partial { p_target; p_verdicts } ->
            charge_apply t;
            note_partials t p_target p_verdicts
        | Record.Checkpoint { k_oid; k_base; k_data } -> (
            match Hashtbl.find_opt t.objects k_oid with
            | None -> ()
            | Some ho ->
                charge_apply t;
                refresh_gap ho;
                if ho.blocked_on <> None then
                  Queue.add (pos, Apply_checkpoint { base = k_base; data = k_data }) ho.waiting
                else begin
                  load_checkpoint_now t ho ~base:k_base k_data;
                  (* records buffered during the gap and not covered by
                     the snapshot replay now *)
                  drain t ho
                end))
      records
  end

(* Consume hosted streams merged by offset so records apply in global
   log order (see the .mli preamble). [upto] is exclusive. *)
let play_merged t ~upto =
  let hos = hosted_list t in
  let rec loop () =
    let best =
      List.fold_left
        (fun acc ho ->
          match Corfu.Stream.peek_next_offset ho.stream with
          | Some off when off < upto -> (
              match acc with Some (boff, _) when boff <= off -> acc | _ -> Some (off, ho))
          | Some _ | None -> acc)
        None hos
    in
    match best with
    | None -> ()
    | Some (_, ho) ->
        (match Corfu.Stream.readnext ho.stream with
        | Some (off, entry) -> process_entry t off entry
        | None -> ());
        loop ()
  in
  loop ()

let with_play_lock t f =
  Sim.Resource.acquire t.play_lock;
  Fun.protect ~finally:(fun () -> Sim.Resource.release t.play_lock) f

(* One sequencer round trip refreshes membership of every hosted
   stream; returns the global tail. *)
let sync_all t =
  let hos = hosted_list t in
  let tail =
    match hos with
    | [] -> Corfu.Client.check t.cl
    | _ ->
        let sids = List.map (fun ho -> ho.oid) hos in
        let tail, tails = Corfu.Client.peek_streams t.cl sids in
        List.iter
          (fun ho ->
            match List.assoc_opt ho.oid tails with
            | Some ptrs -> Corfu.Stream.sync_with ho.stream ~tail ~ptrs
            | None -> ())
          hos;
        tail
  in
  if tail > t.known_tail then t.known_tail <- tail;
  tail

let play_to t upto =
  with_play_lock t (fun () ->
      (* Tracing-disabled playback must not build the span args. *)
      if Sim.Span.enabled () then
        Sim.Span.with_span
          ~host:(Sim.Net.host_name (Corfu.Client.host t.cl))
          ~args:[ ("upto", string_of_int upto) ]
          "playback.apply"
          (fun () -> Sim.Metrics.time t.apply_h (fun () -> play_merged t ~upto))
      else Sim.Metrics.time t.apply_h (fun () -> play_merged t ~upto);
      if upto > t.played_upto then t.played_upto <- upto)

let obj_settled ho = ho.blocked_on = None && Queue.is_empty ho.waiting

(* Bring [ho]'s view up to the log tail (bounded by [upto]) and wait
   out any undecided commits freezing it. *)
let linearizable_sync t ?upto ho =
  let rec attempt backoff =
    let tail = sync_all t in
    let bound = match upto with Some u -> min u tail | None -> tail in
    play_to t bound;
    if obj_settled ho then ()
    else begin
      (* Frozen behind an undecided commit whose decision record lies
         beyond [bound]; keep consuming until it resolves. *)
      Sim.Engine.sleep backoff;
      attempt (Float.min (2. *. backoff) t.retry_backoff_max_us)
    end
  in
  attempt t.retry_sleep_us

(* ------------------------------------------------------------------ *)
(* Public object-facing API                                           *)
(* ------------------------------------------------------------------ *)

let current_tx t = Hashtbl.find_opt t.txs (Sim.Engine.fiber_id ())

let charge_dispatch t = Sim.Resource.use t.dispatch t.dispatch_us

(* Buffered in-transaction operations never leave the runtime — they
   cons onto the context — so they cost a token amount, not a full
   dispatch (the dispatch constant models the runtime's per-external-op
   hot loop; see Params). *)
let charge_tx_op t = Sim.Resource.use t.dispatch 1.0

let update_helper t ~oid ?key data =
  match current_tx t with
  | Some ctx ->
      charge_tx_op t;
      ctx.tx_writes <- { Record.u_oid = oid; u_key = key; u_data = data } :: ctx.tx_writes
  | None ->
      charge_dispatch t;
      ignore
        (Batcher.submit t.batcher ~streams:[ oid ]
           (Record.Update { Record.u_oid = oid; u_key = key; u_data = data }))

let query_helper t ~oid ?key ?upto () =
  match current_tx t with
  | Some ctx ->
      charge_tx_op t;
      if upto <> None then invalid_arg "Runtime.query_helper: no historical reads in transactions";
      if not (Hashtbl.mem t.objects oid) then
        invalid_arg "Runtime.query_helper: remote reads in transactions are not supported (§4.1 D)";
      ctx.tx_reads <- (oid, key, version_of t ~oid ?key ()) :: ctx.tx_reads
  | None -> (
      charge_dispatch t;
      match Hashtbl.find_opt t.objects oid with
      | Some ho -> linearizable_sync t ?upto ho
      | None -> invalid_arg "Runtime.query_helper: object not hosted")

(* ------------------------------------------------------------------ *)
(* Remote reads (§4.1 D)                                              *)
(* ------------------------------------------------------------------ *)

let expose_read t ~oid serve =
  match Hashtbl.find_opt t.objects oid with
  | Some ho -> ho.serve_read <- Some serve
  | None -> invalid_arg "Runtime.expose_read: object not hosted"

let remote_read_service t =
  match t.rr_service with
  | Some svc -> svc
  | None ->
      let svc =
        Sim.Net.service
          (Corfu.Client.host t.cl)
          ~name:"tango-remote-read"
          (fun { rr_oid; rr_key } ->
            Sim.Resource.use t.dispatch t.dispatch_us;
            match Hashtbl.find_opt t.objects rr_oid with
            | Some { serve_read = Some serve; _ } ->
                Some (serve rr_key, version_of t ~oid:rr_oid ?key:rr_key ())
            | Some _ | None -> None)
      in
      t.rr_service <- Some svc;
      svc

let connect_peer t ~oid svc = Hashtbl.replace t.remote_peers oid svc

let query_remote t ~oid ?key () =
  charge_dispatch t;
  match current_tx t with
  | None -> invalid_arg "Runtime.query_remote: only usable inside a transaction"
  | Some ctx -> (
      match Hashtbl.find_opt t.remote_peers oid with
      | None -> invalid_arg "Runtime.query_remote: no peer connected for this object"
      | Some svc -> (
          match Sim.Net.call ~from:(Corfu.Client.host t.cl) svc { rr_oid = oid; rr_key = key } with
          | None -> invalid_arg "Runtime.query_remote: peer does not serve this object"
          | Some (value, version) ->
              ctx.tx_reads <- (oid, key, version) :: ctx.tx_reads;
              ctx.tx_remote_reads <- true;
              value))

let fetch t ?oid pos =
  let off = Record.pos_offset pos in
  let slot = Record.pos_slot pos in
  let entry =
    match Corfu.Client.read_resolved t.cl off with
    | Corfu.Client.Data e -> e
    | Corfu.Client.Junk | Corfu.Client.Trimmed | Corfu.Client.Unwritten -> raise Not_found
  in
  let records = Record.decode_payload entry.Corfu.Types.payload in
  match List.nth_opt records slot with
  | Some (Record.Update u) -> (
      match oid with Some o when o <> u.Record.u_oid -> raise Not_found | _ -> u.Record.u_data)
  | Some (Record.Commit c) -> (
      match oid with
      | Some o -> (
          match List.find_opt (fun (u : Record.update) -> u.Record.u_oid = o) c.Record.c_writes with
          | Some u -> u.Record.u_data
          | None -> raise Not_found)
      | None -> raise Not_found)
  | Some (Record.Decision _ | Record.Partial _ | Record.Checkpoint _) | None -> raise Not_found

(* ------------------------------------------------------------------ *)
(* Transactions                                                       *)
(* ------------------------------------------------------------------ *)

let begin_tx t =
  charge_dispatch t;
  let fid = Sim.Engine.fiber_id () in
  if Hashtbl.mem t.txs fid then raise Nested_transaction;
  (* Refresh the local snapshot so reads record current versions;
     accessors inside the transaction then stay purely local (§3.2). *)
  let tail = sync_all t in
  play_to t tail;
  Hashtbl.replace t.txs fid
    { tx_reads = []; tx_writes = []; tx_remote_reads = false; tx_t0 = Sim.Engine.now () };
  if Sim.Announce.active () then
    Sim.Announce.emit (Sim.Announce.Tx_begin { client = announce_host t })

let abort_tx t =
  let fid = Sim.Engine.fiber_id () in
  if not (Hashtbl.mem t.txs fid) then raise No_transaction;
  Hashtbl.remove t.txs fid

let in_tx t = current_tx t <> None

let check_reads t reads =
  List.for_all (fun (oid, key, recorded) -> version_of t ~oid ?key () <= recorded) reads

let await_decided t pos =
  let rec wait backoff =
    match Hashtbl.find_opt t.decided pos with
    | Some o -> o
    | None ->
        Sim.Engine.sleep backoff;
        let tail = sync_all t in
        play_to t tail;
        wait (Float.min (2. *. backoff) t.retry_backoff_max_us)
  in
  wait t.retry_sleep_us

let read_objects_settled t reads =
  List.for_all
    (fun (oid, _, _) ->
      match Hashtbl.find_opt t.objects oid with Some ho -> obj_settled ho | None -> true)
    reads

(* A generator hosting none of a collaborative transaction's objects
   follows the coordination records by scanning one involved stream
   directly: partial verdicts accumulate until it can combine (it is
   the generator, so it publishes the final decision). *)
let await_decided_scanning t cpos (c : Record.commit) =
  let sid = List.hd (involved_streams c) in
  let s = Corfu.Stream.attach t.cl sid in
  (* Partial verdicts only flow while the read-set hosts are playing
     the log; if they are idle past the decision timeout, fall back to
     the deterministic reconstruction (same as the consumer-side
     watchdog). *)
  let deadline = Sim.Engine.now () +. t.decision_timeout_us in
  let rec loop backoff =
    match Hashtbl.find_opt t.decided cpos with
    | Some outcome -> outcome
    | None ->
        ignore (Corfu.Stream.sync s);
        let rec consume () =
          match Corfu.Stream.readnext s with
          | None -> ()
          | Some (_, entry) ->
              List.iter
                (fun r ->
                  match r with
                  | Record.Partial { p_target; p_verdicts } when p_target = cpos ->
                      note_partials t cpos p_verdicts
                  | Record.Decision { d_target; d_committed } when d_target = cpos ->
                      resolve t d_target d_committed
                  | Record.Update _ | Record.Commit _ | Record.Decision _ | Record.Partial _
                  | Record.Checkpoint _ ->
                      ())
                (Record.decode_payload entry.Corfu.Types.payload);
              consume ()
        in
        consume ();
        if Hashtbl.mem t.decided cpos then loop backoff
        else if Sim.Engine.now () > deadline then begin
          let outcome = reconstruct_outcome t cpos c in
          resolve t cpos outcome;
          publish_decision t cpos c outcome;
          outcome
        end
        else begin
          Sim.Engine.sleep backoff;
          loop (Float.min (2. *. backoff) t.retry_backoff_max_us)
        end
  in
  loop t.retry_sleep_us

let end_tx ?(stale = false) t =
  charge_dispatch t;
  let fid = Sim.Engine.fiber_id () in
  let ctx = match Hashtbl.find_opt t.txs fid with Some c -> c | None -> raise No_transaction in
  Hashtbl.remove t.txs fid;
  let finish status =
    (match status with
    | Committed ->
        t.stats_commits <- t.stats_commits + 1;
        Sim.Metrics.incr t.commits_c
    | Aborted ->
        t.stats_aborts <- t.stats_aborts + 1;
        Sim.Metrics.incr t.aborts_c);
    Sim.Metrics.observe t.tx_h (Sim.Engine.now () -. ctx.tx_t0);
    if Sim.Announce.active () then
      Sim.Announce.emit
        (Sim.Announce.Tx_finish { client = announce_host t; committed = status = Committed });
    status
  in
  match (List.rev ctx.tx_reads, List.rev ctx.tx_writes) with
  | [], [] -> finish Committed
  | reads, [] ->
      (* Read-only: no commit record. Stale mode decides against the
         local snapshot; otherwise play to the tail first (one
         sequencer round trip when the system is quiet, §3.2). *)
      if stale then begin
        let ok = check_reads t reads in
        if not ok then Sim.Metrics.incr t.conflicts_c;
        finish (if ok then Committed else Aborted)
      end
      else begin
        let rec settle backoff =
          let tail = sync_all t in
          play_to t tail;
          if read_objects_settled t reads then ()
          else begin
            Sim.Engine.sleep backoff;
            settle (Float.min (2. *. backoff) t.retry_backoff_max_us)
          end
        in
        settle t.retry_sleep_us;
        let ok = check_reads t reads in
        if not ok then Sim.Metrics.incr t.conflicts_c;
        finish (if ok then Committed else Aborted)
      end
  | reads, writes ->
      let collaborative = ctx.tx_remote_reads && reads <> [] in
      let wstreams =
        List.sort_uniq Int.compare (List.map (fun (u : Record.update) -> u.Record.u_oid) writes)
      in
      let needs_decision =
        collaborative
        || List.exists
             (fun soid ->
               match Hashtbl.find_opt t.objects soid with
               | None -> true (* a remote write: its host may lack our read set *)
               | Some ho -> ho.marked_needs_decision)
             wstreams
      in
      let commit = { Record.c_reads = reads; c_writes = writes; c_needs_decision = needs_decision } in
      (* Collaborative commits travel on the read streams too, so
         every read-set host can publish its partial verdict. *)
      let streams =
        if collaborative then
          List.sort_uniq Int.compare (wstreams @ List.map (fun (oid, _, _) -> oid) reads)
        else wstreams
      in
      let cpos = Batcher.submit t.batcher ~streams (Record.Commit commit) in
      Hashtbl.replace t.own_commits cpos commit;
      let commit_off = Record.pos_offset cpos in
      let committed =
        if reads = [] then begin
          (* Write-only: commits immediately, no playback (§3.2). *)
          Hashtbl.replace t.decided cpos true;
          announce_decided t cpos true;
          true
        end
        else if collaborative then begin
          (* The outcome is assembled from the read hosts' partial
             verdicts (we publish ours through playback like everyone
             else). With no hosted participant, scan a coordination
             stream directly. *)
          if List.exists (Hashtbl.mem t.objects) streams then await_decided t cpos
          else await_decided_scanning t cpos commit
        end
        else begin
          let hosted_write = List.exists (Hashtbl.mem t.objects) wstreams in
          ignore (sync_all t);
          if hosted_write then begin
            (* Our own playback of the commit entry decides it. *)
            play_to t (commit_off + 1);
            await_decided t cpos
          end
          else begin
            (* Remote-only writes: play to just before the commit
               point, then decide from local read versions — parking
               like a consumer if a read object is frozen. *)
            play_to t commit_off;
            with_play_lock t (fun () ->
                match Hashtbl.find_opt t.decided cpos with
                | Some _ -> ()
                | None -> (
                    match eager_outcome t cpos commit with
                    | Some outcome ->
                        Hashtbl.replace t.decided cpos outcome;
                        announce_decided t cpos outcome
                    | None -> park_commit t cpos commit ~involved:(involved_hosted t commit)));
            await_decided t cpos
          end
        end
      in
      if needs_decision && not collaborative then
        ignore
          (Batcher.submit t.batcher ~streams:wstreams
             (Record.Decision { d_target = cpos; d_committed = committed }));
      finish (if committed then Committed else Aborted)

(* ------------------------------------------------------------------ *)
(* Checkpoints and GC                                                 *)
(* ------------------------------------------------------------------ *)

type checkpoint_info = { ckpt_pos : int; ckpt_base : int }

let checkpoint t ~oid =
  charge_dispatch t;
  match Hashtbl.find_opt t.objects oid with
  | None -> invalid_arg "Runtime.checkpoint: object not hosted"
  | Some ho -> (
      match ho.cb.checkpoint with
      | None -> invalid_arg "Runtime.checkpoint: object has no checkpoint callback"
      | Some snapshot ->
          let data = snapshot () in
          let base = find_version t.last_any oid in
          let pos =
            Batcher.submit t.batcher ~streams:[ oid ]
              (Record.Checkpoint { k_oid = oid; k_base = base; k_data = data })
          in
          { ckpt_pos = pos; ckpt_base = base })

let trim_below t off =
  Corfu.Client.prefix_trim t.cl off;
  if off > t.trimmed_below then t.trimmed_below <- off;
  let below_pos = off * Record.slots_per_entry in
  let prune tbl pred = Hashtbl.filter_map_inplace (fun k v -> if pred k then None else Some v) tbl in
  prune t.processed (fun o -> o < off);
  prune t.decided (fun p -> p < below_pos)

(* ------------------------------------------------------------------ *)
(* Introspection                                                      *)
(* ------------------------------------------------------------------ *)

let applied_records t = t.stats_applied
let commits t = t.stats_commits
let aborts t = t.stats_aborts

type append_stats = {
  as_entries : int;
  as_records : int;
  as_inflight : int;
  as_inflight_peak : int;
  as_grants : int;
  as_granted_entries : int;
  as_cache_hits : int;
  as_cache_misses : int;
}

let append_stats t =
  let hits, misses =
    Hashtbl.fold
      (fun _ ho (h, m) ->
        (h + Corfu.Stream.cache_hits ho.stream, m + Corfu.Stream.cache_misses ho.stream))
      t.objects (0, 0)
  in
  {
    as_entries = Batcher.entries_appended t.batcher;
    as_records = Batcher.records_submitted t.batcher;
    as_inflight = Batcher.inflight t.batcher;
    as_inflight_peak = Batcher.inflight_peak t.batcher;
    as_grants = Batcher.grants t.batcher;
    as_granted_entries = Batcher.granted_entries t.batcher;
    as_cache_hits = hits;
    as_cache_misses = misses;
  }
