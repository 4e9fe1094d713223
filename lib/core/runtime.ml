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

module Key_tbl = Hashtbl.Make (String)

type hosted = {
  oid : int;
  cb : callbacks;
  stream : Corfu.Stream.t;
  marked_needs_decision : bool;
  joined_at : int;
      (* the playback frontier when the object registered: entries at
         or below it reach the object through [catch_up] *)
  (* Versions (log positions) of the last applied write: to any part of
     the object, to the whole object (an unkeyed update), and per key.
     -1 = never written. *)
  mutable v_any : int;
  mutable v_whole : int;
  v_key : int Key_tbl.t;
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
  (* [objects] in its fold order, and their stream ids: what every
     sync and playback sweep iterates, rebuilt by [register] *)
  mutable hosted : hosted list;
  mutable hosted_sids : int list;
  (* Highest log offset playback has handled. Merged playback hands
     out offsets in ascending order, so an entry at or below it is a
     duplicate — except for objects that joined after it. *)
  mutable frontier : int;
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
  apply_s : int Sim.Span.site;  (* one playback sweep, entered with its target *)
  tx_h : Sim.Metrics.histogram;  (* begin_tx .. end_tx *)
}

(* The runtime's failpoint (DESIGN.md §9), read by [handle_commit]. *)
let blind_commit_apply = ref false

let enable_failpoint = function
  | "blind-commit-apply" -> blind_commit_apply := true
  | name -> Corfu.Cluster.enable_failpoint name

let reset_failpoints () =
  blind_commit_apply := false;
  Corfu.Cluster.reset_failpoints ()

let create ?batch_size ?(decision_timeout_us = 50_000.) cl =
  let p = Corfu.Client.params cl in
  let batch_size = Option.value batch_size ~default:p.Sim.Params.commit_batch in
  let host_name = Sim.Net.host_name (Corfu.Client.host cl) in
  let t =
  {
    cl;
    batcher = Batcher.create ~client:cl ~batch_size ();
    dispatch = Sim.Resource.create ~name:(host_name ^ ".tango-dispatch") ~capacity:1 ();
    play_lock = Sim.Resource.create ~name:(host_name ^ ".tango-playback") ~capacity:1 ();
    objects = Hashtbl.create 16;
    hosted = [];
    hosted_sids = [];
    frontier = -1;
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
    apply_s =
      Sim.Span.site ~host:host_name
        ~hist:(Sim.Metrics.histogram ~host:host_name "playback.apply_us")
        ~args:(fun upto -> [ ("upto", string_of_int upto) ])
        "playback.apply";
    tx_h = Sim.Metrics.histogram ~host:host_name "tx.duration_us";
  }
  in
  Sim.Timeseries.probe ~host:host_name "lag.playback" (fun () ->
      float_of_int (Stdlib.max 0 (t.known_tail - t.played_upto)));
  Sim.Timeseries.probe ~host:host_name "lag.trim" (fun () ->
      float_of_int (Stdlib.max 0 (t.known_tail - t.trimmed_below)));
  t

let client t = t.cl

let release_play_lock_reraise t e =
  let bt = Printexc.get_raw_backtrace () in
  Sim.Resource.release t.play_lock;
  Printexc.raise_with_backtrace e bt

let with_play_lock t f =
  Sim.Resource.acquire t.play_lock;
  match f () with
  | r ->
      Sim.Resource.release t.play_lock;
      r
  | exception e -> release_play_lock_reraise t e

(* Under the play lock: a playback round already running iterates the
   hosted list it started with, so the join mark must not be taken
   while that round can still move the frontier. *)
let register t ~oid ?(needs_decision = false) cb =
  with_play_lock t (fun () ->
      if Hashtbl.mem t.objects oid then invalid_arg "Runtime.register: OID already hosted";
      Hashtbl.replace t.objects oid
        {
          oid;
          cb;
          stream = Corfu.Stream.attach t.cl oid;
          marked_needs_decision = needs_decision;
          joined_at = t.frontier;
          v_any = -1;
          v_whole = -1;
          v_key = Key_tbl.create 16;
          blocked_on = None;
          gap_pending = false;
          serve_read = None;
          extra_views = [];
          waiting = Queue.create ();
        };
      t.hosted <- Hashtbl.fold (fun _ ho acc -> ho :: acc) t.objects [];
      t.hosted_sids <- List.map (fun ho -> ho.oid) t.hosted)

let register_extra_view t ~oid cb =
  match Hashtbl.find_opt t.objects oid with
  | Some ho -> ho.extra_views <- cb :: ho.extra_views
  | None -> invalid_arg "Runtime.register_extra_view: object not hosted"

let is_hosted t oid = Hashtbl.mem t.objects oid
let hosted_oids t =
  Hashtbl.fold (fun oid _ acc -> oid :: acc) t.objects [] |> List.sort Int.compare

(* ------------------------------------------------------------------ *)
(* Versions                                                           *)
(* ------------------------------------------------------------------ *)

let hosted_version ho key =
  match key with
  | None -> ho.v_any
  | Some k -> (
      match Key_tbl.find ho.v_key k with
      | v -> max v ho.v_whole
      | exception Not_found -> ho.v_whole)

let version_of t ~oid ?key () =
  match Hashtbl.find t.objects oid with
  | ho -> hosted_version ho key
  | exception Not_found -> -1

let bump_version ho key pos =
  ho.v_any <- pos;
  match key with None -> ho.v_whole <- pos | Some k -> Key_tbl.replace ho.v_key k pos

(* ------------------------------------------------------------------ *)
(* Applying records                                                   *)
(* ------------------------------------------------------------------ *)

(* CPU accounting happens per *record* (see [charge_apply]); a commit
   record applying three writes costs one apply slot, matching the
   paper's per-record playback cost model. *)
let rec apply_extra pos (u : Record.update) = function
  | [] -> ()
  | (cb : callbacks) :: rest ->
      cb.apply ~pos ~key:u.u_key u.u_data;
      apply_extra pos u rest

let apply_now t ho pos (u : Record.update) =
  ho.cb.apply ~pos ~key:u.u_key u.u_data;
  apply_extra pos u ho.extra_views;
  bump_version ho u.u_key pos;
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
let load_checkpoint_now ho ~base data =
  match ho.cb.load_checkpoint with
  | Some load ->
      if ho.gap_pending || ho.v_any < base then begin
        load data;
        List.iter
          (fun (cb : callbacks) ->
            match cb.load_checkpoint with Some f -> f data | None -> ())
          ho.extra_views;
        ho.gap_pending <- false;
        purge_below ho base;
        if base >= 0 && ho.v_any < base then bump_version ho None base
      end
  | None -> ()

let rec hosts_all t = function
  | [] -> true
  | (oid, _, _) :: rest -> Hashtbl.mem t.objects oid && hosts_all t rest

(* Ascending, duplicate-free oid sets built by insertion: a commit
   names a handful of objects, usually one, so the set is a short list
   and a repeated oid returns the list unchanged without allocating. *)
let rec insert_by_oid (oid_of : 'a -> int) x = function
  | [] -> [ x ]
  | y :: rest as l ->
      if oid_of x < oid_of y then x :: l
      else if oid_of x = oid_of y then l
      else
        let rest' = insert_by_oid oid_of x rest in
        if rest' == rest then l else y :: rest'

let add_oid oid acc = insert_by_oid Fun.id oid acc

let read_oids (c : Record.commit) = List.fold_left (fun acc (oid, _, _) -> add_oid oid acc) [] c.c_reads

let write_oids acc writes =
  List.fold_left (fun acc (u : Record.update) -> add_oid u.u_oid acc) acc writes

(* Does [u] write [key] of object [oid]? An unkeyed write, or an
   unkeyed read, covers every key. *)
let writes_key oid key (u : Record.update) =
  u.u_oid = oid
  && match (u.u_key, key) with None, _ | _, None -> true | Some a, Some b -> String.equal a b

(* Sync [s] and hand each newly delivered record to [f] with its
   position, in log order. *)
let scan_records s f =
  ignore (Corfu.Stream.sync s);
  let rec consume () =
    match Corfu.Stream.readnext s with
    | None -> ()
    | Some (off, entry) ->
        List.iteri
          (fun slot r -> f (Record.pos ~offset:off ~slot) r)
          (Record.decode_entry ~offset:off entry.Corfu.Types.payload);
        consume ()
  in
  consume ()

(* Streams that carry a transaction's coordination records. *)
let involved_streams (c : Record.commit) = write_oids (read_oids c) c.c_writes

(* Top-level recursion, like the rest of the per-record playback
   step: a commit's hosted set allocates only its own cells. *)
let hosted_oid ho = ho.oid

let add_hosted t oid acc =
  match Hashtbl.find t.objects oid with
  | ho -> insert_by_oid hosted_oid ho acc
  | exception Not_found -> acc

let rec hosted_reads t acc = function
  | [] -> acc
  | (oid, _, _) :: rest -> hosted_reads t (add_hosted t oid acc) rest

let rec hosted_writes t acc = function
  | [] -> acc
  | (u : Record.update) :: rest -> hosted_writes t (add_hosted t u.u_oid acc) rest

let involved_hosted t (c : Record.commit) = hosted_writes t (hosted_reads t [] c.c_reads) c.c_writes

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
    match Hashtbl.find t.undecided target with
    | exception Not_found -> ()
    | c ->
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
        load_checkpoint_now ho ~base data;
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

(* Publish this client's verdicts for the read-set objects it hosts
   that are frozen exactly at [cpos] (their versions are then as of
   the commit position, so each verdict is deterministic). *)
and emit_partials t cpos =
  match Hashtbl.find_opt t.undecided cpos with
  | None -> ()
  | Some c ->
      let verdicts =
        List.filter_map
          (fun oid ->
            match Hashtbl.find t.objects oid with
            | ho
              when ho.blocked_on = Some cpos
                   && not (Hashtbl.mem t.partials_emitted (cpos, oid)) ->
                Hashtbl.replace t.partials_emitted (cpos, oid) ();
                let ok =
                  List.for_all
                    (fun (roid, key, recorded) ->
                      roid <> oid || hosted_version ho key <= recorded)
                    c.c_reads
                in
                if not ok then Sim.Metrics.incr t.conflicts_c;
                Some (oid, ok)
            | _ | (exception Not_found) -> None)
          (read_oids c)
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
        if List.for_all (fun (oid, _, _) -> Hashtbl.mem verdicts oid) c.c_reads then begin
          let final = List.for_all (fun (oid, _, _) -> Hashtbl.find verdicts oid) c.c_reads in
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
        with_play_lock t (fun () -> resolve t cpos committed);
        append_decision t cpos c committed
      end)

(* The decision record a generator (or a watchdog standing in for it)
   owes the write streams' hosts. *)
and append_decision t cpos (c : Record.commit) committed =
  ignore
    (Batcher.submit t.batcher ~streams:(write_oids [] c.c_writes)
       (Record.Decision { d_target = cpos; d_committed = committed }))

(* Deterministic replay of the read set's streams: did any read key
   change between its recorded version and the commit position? Inner
   commit records met during the scan are resolved from decision
   records in the log, previously known outcomes, or recursively. *)
and reconstruct_outcome t cpos (c : Record.commit) =
  let memo = Hashtbl.create 8 in
  let history oid =
    (* Fresh stream walk over [oid]'s history; positions ascending. *)
    let acc = ref [] in
    scan_records (Corfu.Stream.attach t.cl oid) (fun pos r -> acc := (pos, r) :: !acc);
    List.rev !acc
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
    let records = history oid in
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
        | Record.Update u -> writes_key oid key u
        | Record.Commit inner ->
            List.exists (writes_key oid key) inner.Record.c_writes
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

let deliver_to t ho pos (u : Record.update) =
  refresh_gap ho;
  if ho.blocked_on <> None || ho.gap_pending then Queue.add (pos, Apply_update u) ho.waiting
  else apply_now t ho pos u

let deliver_update t pos (u : Record.update) =
  match Hashtbl.find t.objects u.u_oid with
  | ho -> deliver_to t ho pos u
  | exception Not_found -> ()

let rec deliver_all t pos = function
  | [] -> ()
  | u :: rest ->
      deliver_update t pos u;
      deliver_all t pos rest

let apply_commit t pos (c : Record.commit) =
  announce_applied t pos;
  deliver_all t pos c.c_writes

let deliver_checkpoint t ho pos ~base data =
  refresh_gap ho;
  if ho.blocked_on <> None then Queue.add (pos, Apply_checkpoint { base; data }) ho.waiting
  else begin
    load_checkpoint_now ho ~base data;
    (* records buffered during the gap and not covered by the snapshot
       replay now *)
    drain t ho
  end

(* Can the commit at [pos] be decided right now, even though some read
   object is frozen behind an undecided commit? Its queued records are
   known, so we can often prove the read window clean (or certainly
   dirty) without waiting — only an {e undecided} queued write to a
   read key forces parking. This keeps one stalled remote-write
   transaction from convoying every local transaction behind it. *)
(* What the records queued on a frozen [ho] say about the read of
   [(oid, key)] at version [recorded], for the commit at [pos]. A
   conflict outranks an undecided commit that writes the key. *)
type queued = Clean | Unknown | Conflict

let queued_verdict t pos oid key recorded ho =
  Queue.fold
    (fun v (qpos, action) ->
      if v = Conflict || qpos <= recorded || qpos >= pos then v
      else
        match action with
        | Apply_update u -> if writes_key oid key u then Conflict else v
        | Commit_point { cpos; writes } ->
            if List.exists (writes_key oid key) writes then
              match Hashtbl.find t.decided cpos with
              | true -> Conflict
              | false -> v
              | exception Not_found -> Unknown
            else v
        | Apply_checkpoint _ -> v)
    Clean ho.waiting

let rec eager_check t pos = function
  | [] -> Some true
  | (oid, key, recorded) :: rest -> (
      match Hashtbl.find t.objects oid with
      | exception Not_found -> None
      | ho ->
          refresh_gap ho;
          if ho.gap_pending then None
          else if hosted_version ho key > recorded then begin
            Sim.Metrics.incr t.conflicts_c;
            Some false
          end
          else if ho.blocked_on = None then eager_check t pos rest
          else
            match queued_verdict t pos oid key recorded ho with
            | Conflict ->
                Sim.Metrics.incr t.conflicts_c;
                Some false
            | Unknown -> None
            | Clean -> eager_check t pos rest)

let eager_outcome t pos (c : Record.commit) =
  if not (hosts_all t c.c_reads) then None else eager_check t pos c.c_reads

let () = eager_outcome_ref := eager_outcome

(* [involved] is [involved_hosted t c], computed once by the caller
   (the playback loop also needs it to decide whether to charge
   CPU). *)
let handle_commit t pos ~involved (c : Record.commit) =
  match Hashtbl.find t.decided pos with
  | committed -> if committed then apply_commit t pos c
  | exception Not_found -> (
      List.iter refresh_gap involved;
      (* Failpoint: apply the writes while the verdict is still
         unknown — the §3c discipline (decide, then apply) is broken
         on purpose so the ReadCommitted spec machine has a live
         sensitivity gate. The normal decision machinery still runs
         below, so the run proceeds (and later re-applies). *)
      if !blind_commit_apply then apply_commit t pos c;
      match eager_outcome t pos c with
      | Some committed ->
          (* Merged-order playback guarantees every hosted view is at
             exactly [pos] (frozen queues included), so this decision
             matches the generator's. *)
          resolve t pos committed;
          if committed then apply_commit t pos c;
          (* If waiters elsewhere rely on a decision record and the
             generator cannot produce it (collaborative commits), any
             full-read-set host publishes — the verdict is the same
             from everyone. *)
          if c.Record.c_needs_decision && not (Hashtbl.mem t.own_commits pos) then
            publish_decision t pos c committed
      | None -> park_commit t pos c ~involved)

(* Late registration: [ho] joined after playback handled [off], so the
   entry's other records are history and only [ho]'s are delivered. A
   commit's outcome comes from [decided] when this runtime saw the
   commit, from the log's deterministic replay when it did not. *)
let catch_up t ho off (entry : Corfu.Types.entry) =
  let mine (u : Record.update) = u.u_oid = ho.oid in
  List.iteri
    (fun slot r ->
      let pos = Record.pos ~offset:off ~slot in
      match r with
      | Record.Update u when mine u ->
          charge_apply t;
          deliver_update t pos u
      | Record.Commit c when List.exists mine c.c_writes -> (
          charge_apply t;
          let apply () =
            announce_applied t pos;
            List.iter (fun u -> if mine u then deliver_update t pos u) c.c_writes
          in
          match Hashtbl.find_opt t.decided pos with
          | Some committed -> if committed then apply ()
          | None when Hashtbl.mem t.undecided pos ->
              (* still parked: [ho] waits for the outcome like the
                 objects that saw the commit live *)
              Queue.add (pos, Commit_point { cpos = pos; writes = c.c_writes }) ho.waiting;
              if ho.blocked_on = None then ho.blocked_on <- Some pos
          | None ->
              let committed = reconstruct_outcome t pos c in
              resolve t pos committed;
              if committed then apply ())
      | Record.Checkpoint { k_oid; k_base; k_data } when k_oid = ho.oid ->
          charge_apply t;
          deliver_checkpoint t ho pos ~base:k_base k_data
      | Record.Update _ | Record.Commit _ | Record.Checkpoint _ | Record.Decision _
      | Record.Partial _ ->
          ())
    (Record.decode_entry ~offset:off entry.Corfu.Types.payload)

(* The per-record playback step. The play lock is held, so the hosted
   table cannot change while [charge_apply] sleeps. *)
let rec process_records t off slot = function
  | [] -> ()
  | r :: rest ->
      let pos = Record.pos ~offset:off ~slot in
      (match r with
      | Record.Update u -> (
          match Hashtbl.find t.objects u.Record.u_oid with
          | ho ->
              charge_apply t;
              deliver_to t ho pos u
          | exception Not_found -> ())
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
          match Hashtbl.find t.objects k_oid with
          | ho ->
              charge_apply t;
              deliver_checkpoint t ho pos ~base:k_base k_data
          | exception Not_found -> ()));
      process_records t off (slot + 1) rest

let process_entry t ho off (entry : Corfu.Types.entry) =
  if off <= t.frontier then begin
    if off <= ho.joined_at then catch_up t ho off entry
  end
  else begin
    t.frontier <- off;
    process_records t off 0 (Record.decode_entry ~offset:off entry.Corfu.Types.payload)
  end

(* The cell of [hos] whose stream delivers the lowest next offset below
   [upto] (the earliest cell on ties), or [[]]: the list's own cells
   stand in for an [option], so picking builds nothing. *)
let rec earliest upto best_off best = function
  | [] -> best
  | (ho :: rest) as cell ->
      let off = Corfu.Stream.next_offset ho.stream in
      if off >= 0 && off < upto && off < best_off then earliest upto off cell rest
      else earliest upto best_off best rest

(* Consume hosted streams merged by offset so records apply in global
   log order (see the .mli preamble). [upto] is exclusive. *)
let rec play_merged t hos upto =
  match earliest upto max_int [] hos with
  | [] -> ()
  | ho :: _ ->
      (match Corfu.Stream.readnext ho.stream with
      | Some (off, entry) -> process_entry t ho off entry
      | None -> ());
      play_merged t hos upto

(* One sequencer round trip refreshes membership of every hosted
   stream; returns the global tail. The reply lists the requested
   streams in request order, and [hosted_sids] are [hosted]'s oids, so
   the two lists walk in step. *)
let rec sync_each tail hos tails =
  match (hos, tails) with
  | ho :: hos, (_, ptrs) :: tails ->
      Corfu.Stream.sync_with ho.stream ~tail ~ptrs;
      sync_each tail hos tails
  | _ -> ()

let sync_all t =
  let hos = t.hosted in
  let tail =
    match hos with
    | [] -> Corfu.Client.check t.cl
    | _ ->
        let a = Corfu.Client.peek_streams t.cl t.hosted_sids in
        sync_each a.Corfu.Sequencer.base hos a.Corfu.Sequencer.stream_tails;
        a.Corfu.Sequencer.base
  in
  if tail > t.known_tail then t.known_tail <- tail;
  tail

(* Merged playback needs every played stream's membership complete
   below [upto]. A round's [sync_all] covers the streams hosted when it
   started; one registered since syncs here (a no-op for the rest). *)
let rec sync_joined upto = function
  | [] -> ()
  | ho :: rest ->
      Corfu.Stream.sync_until ho.stream upto;
      sync_joined upto rest

(* [play_to] holds the play lock without [with_play_lock]'s closure:
   it runs once per playback round. *)
let play_locked t upto =
  sync_joined upto t.hosted;
  let tok = Sim.Span.enter t.apply_s upto in
  (match play_merged t t.hosted upto with
  | () -> Sim.Span.leave t.apply_s tok
  | exception e -> Sim.Span.leave_raise t.apply_s tok e);
  if upto > t.played_upto then t.played_upto <- upto

let play_to t upto =
  Sim.Resource.acquire t.play_lock;
  match play_locked t upto with
  | () -> Sim.Resource.release t.play_lock
  | exception e -> release_play_lock_reraise t e

(* One sequencer round trip, then playback to the tail (capped at
   [upto]). *)
let play_round ?upto t =
  let tail = sync_all t in
  play_to t (match upto with Some u -> min u tail | None -> tail)

(* The one wait loop: back off, play a round, repeat until [settled ()]
   — typically a decision record beyond the last round's tail. Callers
   test [settled] first, so the common no-wait case builds no
   closure. *)
let play_until ?upto t settled =
  let rec wait backoff =
    Sim.Engine.sleep backoff;
    play_round ?upto t;
    if not (settled ()) then wait (Float.min (2. *. backoff) t.retry_backoff_max_us)
  in
  wait t.retry_sleep_us

let obj_settled ho = ho.blocked_on = None && Queue.is_empty ho.waiting

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
      let ho =
        match Hashtbl.find t.objects oid with
        | ho -> ho
        | exception Not_found ->
            invalid_arg "Runtime.query_helper: remote reads in transactions are not supported (§4.1 D)"
      in
      ctx.tx_reads <- (oid, key, hosted_version ho key) :: ctx.tx_reads
  | None -> (
      charge_dispatch t;
      match Hashtbl.find_opt t.objects oid with
      | Some ho ->
          (* Linearizable: bring the view to the tail (bounded by
             [upto]) and wait out undecided commits freezing it. *)
          play_round ?upto t;
          if not (obj_settled ho) then play_until ?upto t (fun () -> obj_settled ho)
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
            | Some ({ serve_read = Some serve; _ } as ho) ->
                Some (serve rr_key, hosted_version ho rr_key)
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
  let records = Record.decode_entry ~offset:off entry.Corfu.Types.payload in
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
  play_round t;
  Hashtbl.replace t.txs fid
    { tx_reads = []; tx_writes = []; tx_remote_reads = false; tx_t0 = Sim.Engine.now () };
  if Sim.Announce.active () then
    Sim.Announce.emit (Sim.Announce.Tx_begin { client = announce_host t })

let abort_tx t =
  let fid = Sim.Engine.fiber_id () in
  if not (Hashtbl.mem t.txs fid) then raise No_transaction;
  Hashtbl.remove t.txs fid

let check_reads t reads =
  List.for_all (fun (oid, key, recorded) -> version_of t ~oid ?key () <= recorded) reads

let await_decided t pos =
  if not (Hashtbl.mem t.decided pos) then play_until t (fun () -> Hashtbl.mem t.decided pos);
  Hashtbl.find t.decided pos

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
        scan_records s (fun _ r ->
            match r with
            | Record.Partial { p_target; p_verdicts } when p_target = cpos ->
                note_partials t cpos p_verdicts
            | Record.Decision { d_target; d_committed } when d_target = cpos ->
                resolve t d_target d_committed
            | Record.Update _ | Record.Commit _ | Record.Decision _ | Record.Partial _
            | Record.Checkpoint _ ->
                ());
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
        play_round t;
        if not (read_objects_settled t reads) then
          play_until t (fun () -> read_objects_settled t reads);
        let ok = check_reads t reads in
        if not ok then Sim.Metrics.incr t.conflicts_c;
        finish (if ok then Committed else Aborted)
      end
  | reads, writes ->
      let collaborative = ctx.tx_remote_reads && reads <> [] in
      let wstreams = write_oids [] writes in
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
        if collaborative then List.fold_left (fun acc (oid, _, _) -> add_oid oid acc) wstreams reads
        else wstreams
      in
      let cpos = Batcher.submit t.batcher ~streams (Record.Commit commit) in
      Hashtbl.replace t.own_commits cpos commit;
      let commit_off = Record.pos_offset cpos in
      let committed =
        if reads = [] then begin
          (* Write-only: commits immediately, no playback (§3.2). *)
          resolve t cpos true;
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
          if List.exists (Hashtbl.mem t.objects) wstreams then begin
            (* Our own playback of the commit entry decides it. *)
            play_round ~upto:(commit_off + 1) t;
            await_decided t cpos
          end
          else begin
            (* Remote-only writes: play to just before the commit
               point, then decide from local read versions — parking
               like a consumer if a read object is frozen. *)
            play_round ~upto:commit_off t;
            with_play_lock t (fun () ->
                if not (Hashtbl.mem t.decided cpos) then
                  match eager_outcome t cpos commit with
                  | Some outcome -> resolve t cpos outcome
                  | None -> park_commit t cpos commit ~involved:(involved_hosted t commit));
            await_decided t cpos
          end
        end
      in
      (* Every later reader of [own_commits] first checks [decided],
         which now holds [cpos]. *)
      Hashtbl.remove t.own_commits cpos;
      if needs_decision && not collaborative then append_decision t cpos commit committed;
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
          let base = ho.v_any in
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
  prune t.decided (fun p -> p < below_pos);
  prune t.partials (fun p -> p < below_pos);
  prune t.partials_emitted (fun (p, _) -> p < below_pos)

(* ------------------------------------------------------------------ *)
(* Introspection                                                      *)
(* ------------------------------------------------------------------ *)

let applied_records t = t.stats_applied
let own_commits_held t = Hashtbl.length t.own_commits
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
