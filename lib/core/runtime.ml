type callbacks = {
  apply : pos:int -> key:string option -> bytes -> unit;
  checkpoint : (unit -> bytes) option;
  load_checkpoint : (bytes -> unit) option;
}

type tx_status = Committed | Aborted

exception No_transaction
exception Nested_transaction

(* What the shell keeps per hosted object; the freeze state lives in
   the core's [obj] around it. *)
type view = {
  cb : callbacks;
  stream : Corfu.Stream.t;
  marked_needs_decision : bool;
  joined_at : int;
      (* the playback frontier when the object registered: entries at
         or below it reach the object through [catch_up] *)
  mutable serve_read : (string option -> bytes option) option;
      (* answers peer clients' remote reads from this view (§4.1 D) *)
  mutable extra_views : callbacks list;
      (* additional in-memory representations sharing this stream *)
}

module Dc = Decision_core

type hosted = view Dc.obj

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
  dc : view Dc.t;  (* the hosted objects and every commit decision *)
  (* the hosted objects in the core's fold order, and their stream ids:
     what every sync and playback sweep iterates, rebuilt by [register] *)
  mutable hosted : hosted list;
  mutable hosted_sids : int list;
  (* Highest log offset playback has handled. Merged playback hands
     out offsets in ascending order, so an entry at or below it is a
     duplicate — except for objects that joined after it. *)
  mutable frontier : int;
  remote_peers : (int, (remote_read_request, remote_read_response) Sim.Net.service) Hashtbl.t;
  mutable rr_service : (remote_read_request, remote_read_response) Sim.Net.service option;
  txs : txctx Sim.Int_tbl.t;  (* by fiber id *)
  update_streams : int list Sim.Int_tbl.t;  (* oid -> [ oid ], built once *)
  p : Sim.Params.t;  (* the CPU and retry constants *)
  (* Lag watermarks: the highest global tail learned from the
     sequencer, the exclusive offset playback has consumed to, and the
     trim horizon — their gaps are the playback-lag and trim-lag
     timeseries probes. *)
  mutable known_tail : int;
  mutable played_upto : int;
  mutable trimmed_below : int;
  commits_c : Sim.Metrics.counter;
  aborts_c : Sim.Metrics.counter;
  conflicts_c : Sim.Metrics.counter;
  apply_s : int Sim.Span.site;  (* one playback sweep, entered with its target *)
  tx_h : Sim.Metrics.histogram;  (* begin_tx .. end_tx *)
}

let enable_failpoint = function
  | "blind-commit-apply" -> Dc.blind_commit_apply := true
  | name -> Corfu.Cluster.enable_failpoint name

let reset_failpoints () =
  Dc.blind_commit_apply := false;
  Corfu.Cluster.reset_failpoints ()

let release_play_lock_reraise lock e =
  let bt = Printexc.get_raw_backtrace () in
  Sim.Resource.release lock;
  Printexc.raise_with_backtrace e bt

let with_play_lock lock f =
  Sim.Resource.acquire lock;
  match f () with
  | r ->
      Sim.Resource.release lock;
      r
  | exception e -> release_play_lock_reraise lock e

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
let involved_streams (c : Record.commit) = Dc.write_oids (Dc.read_oids c) c.c_writes

(* The decision record a generator (or a watchdog standing in for it)
   owes the write streams' hosts. *)
let append_decision batcher cpos (c : Record.commit) committed =
  ignore
    (Batcher.submit batcher ~streams:(Dc.write_oids [] c.c_writes)
       (Record.Decision { d_target = cpos; d_committed = committed }))

(* A partial verdict or decision on every coordination stream,
   appended by a spawned fiber: whoever publishes it is in the middle
   of playback. *)
let publish batcher c r =
  let streams = involved_streams c in
  Sim.Engine.spawn (fun () -> ignore (Batcher.submit batcher ~streams r))

(* Deterministic replay of the read set's streams: did any read key
   change between its recorded version and the commit position? Inner
   commit records met during the scan are resolved from decision
   records in the log, previously known outcomes, or recursively. Each
   object's history is walked once per reconstruction. *)
let reconstruct_outcome cl dc cpos (c : Record.commit) =
  let memo = Hashtbl.create 8 in
  let histories = Hashtbl.create 4 in
  let history oid =
    (* [oid]'s history, positions ascending, from one fresh stream walk. *)
    match Hashtbl.find_opt histories oid with
    | Some records -> records
    | None ->
        let acc = ref [] in
        scan_records (Corfu.Stream.attach cl oid) (fun pos r -> acc := (pos, r) :: !acc);
        let records = List.rev !acc in
        Hashtbl.replace histories oid records;
        records
  in
  let rec outcome_of pos (c : Record.commit) =
    match Dc.outcome dc pos with
    | o -> o
    | exception Not_found -> (
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
    let logged pos =
      List.find_map
        (function
          | _, Record.Decision { d_target; d_committed } when d_target = pos -> Some d_committed
          | _ -> None)
        records
    in
    List.exists
      (fun (pos, r) ->
        pos > after && pos < before
        &&
        match r with
        | Record.Update u -> Dc.writes_key oid key u
        | Record.Commit inner ->
            List.exists (Dc.writes_key oid key) inner.Record.c_writes
            &&
            (match logged pos with
            | Some committed -> committed
            | None -> outcome_of pos inner)
        | Record.Decision _ | Record.Partial _ | Record.Checkpoint _ -> false)
      records
  in
  outcome_of cpos c

let rec apply_extra pos (u : Record.update) = function
  | [] -> ()
  | (cb : callbacks) :: rest ->
      cb.apply ~pos ~key:u.u_key u.u_data;
      apply_extra pos u rest

(* The core's effects, built once per runtime. Milestones (Sim.Announce:
   decision recorded, commit writes applied, commit parked, decision
   timeout) are guarded, so runs with nothing armed pay one branch and
   allocate nothing. *)
let effects cl batcher play_lock client conflicts_c =
  let applied_c = Sim.Metrics.counter ~host:client "runtime.applied" in
  {
    Dc.gap =
      (fun v ->
        Corfu.Stream.has_trim_gap v.stream
        && (Corfu.Stream.clear_trim_gap v.stream;
            v.cb.load_checkpoint <> None));
    apply =
      (fun v pos u ->
        v.cb.apply ~pos ~key:u.u_key u.u_data;
        apply_extra pos u v.extra_views;
        Sim.Metrics.incr applied_c);
    load =
      (fun v data ->
        v.cb.load_checkpoint <> None
        && (List.iter (fun cb -> Option.iter (fun f -> f data) cb.load_checkpoint) (v.cb :: v.extra_views);
            true));
    announce_decided =
      (fun pos committed ->
        if Sim.Announce.active () then
          Sim.Announce.emit (Sim.Announce.Commit_decided { client; pos; committed }));
    announce_applied =
      (fun pos ->
        if Sim.Announce.active () then Sim.Announce.emit (Sim.Announce.Commit_applied { client; pos }));
    announce_parked =
      (fun pos (c : Record.commit) ->
        if Sim.Announce.active () then
          Sim.Announce.emit
            (Sim.Announce.Commit_parked
               { client; pos; reads = List.length c.c_reads; writes = List.length c.c_writes }));
    conflict = (fun () -> Sim.Metrics.incr conflicts_c);
    publish = publish batcher;
    (* If no decision record shows up (the generator crashed between
       the commit and decision appends), reconstruct the outcome
       deterministically from the log and publish it (§4.1, Failure
       Handling). *)
    arm_watchdog =
      (fun dc cpos c ->
        Sim.Engine.spawn (fun () ->
            Sim.Engine.sleep Dc.timeout_us;
            if Dc.is_undecided dc cpos then begin
              if Sim.Announce.active () then
                Sim.Announce.emit (Sim.Announce.Decision_timeout { client; pos = cpos });
              let committed = reconstruct_outcome cl dc cpos c in
              with_play_lock play_lock (fun () -> Dc.resolve dc cpos committed);
              append_decision batcher cpos c committed
            end));
    reconstruct = reconstruct_outcome cl;
  }

let create cl =
  let p = Corfu.Client.params cl in
  let host_name = Sim.Net.host_name (Corfu.Client.host cl) in
  let batcher = Batcher.create ~client:cl ~batch_size:p.Sim.Params.commit_batch in
  let play_lock = Sim.Resource.create ~name:(host_name ^ ".tango-playback") ~capacity:1 () in
  let conflicts_c = Sim.Metrics.counter ~host:host_name "runtime.version_conflicts" in
  let t =
  {
    cl;
    batcher;
    dispatch = Sim.Resource.create ~name:(host_name ^ ".tango-dispatch") ~capacity:1 ();
    play_lock;
    dc = Dc.create (effects cl batcher play_lock host_name conflicts_c);
    hosted = [];
    hosted_sids = [];
    frontier = -1;
    remote_peers = Hashtbl.create 8;
    rr_service = None;
    txs = Sim.Int_tbl.create 8;
    update_streams = Sim.Int_tbl.create 8;
    p;
    known_tail = 0;
    played_upto = 0;
    trimmed_below = 0;
    commits_c = Sim.Metrics.counter ~host:host_name "runtime.commits";
    aborts_c = Sim.Metrics.counter ~host:host_name "runtime.aborts";
    conflicts_c;
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

(* Under the play lock: a playback round already running iterates the
   hosted list it started with, so the join mark must not be taken
   while that round can still move the frontier. *)
let register t ~oid ?(needs_decision = false) cb =
  with_play_lock t.play_lock (fun () ->
      if Dc.mem t.dc oid then invalid_arg "Runtime.register: OID already hosted";
      Dc.register t.dc ~oid
        {
          cb;
          stream = Corfu.Stream.attach t.cl oid;
          marked_needs_decision = needs_decision;
          joined_at = t.frontier;
          serve_read = None;
          extra_views = [];
        };
      t.hosted <- Dc.hosted t.dc;
      t.hosted_sids <- List.map (fun (ho : hosted) -> ho.oid) t.hosted)

let register_extra_view t ~oid cb =
  match Dc.find_opt t.dc oid with
  | Some ho -> ho.view.extra_views <- cb :: ho.view.extra_views
  | None -> invalid_arg "Runtime.register_extra_view: object not hosted"

let is_hosted t oid = Dc.mem t.dc oid
let hosted_oids t = List.sort Int.compare t.hosted_sids

let version_of t ~oid ?key () =
  match Dc.find t.dc oid with ho -> Dc.version ho key | exception Not_found -> -1

let charge_apply t = Sim.Engine.sleep t.p.apply_record_us

(* Late registration: [ho] joined after playback handled [off], so the
   entry's other records are history and only [ho]'s are delivered
   (see [Dc.catch_up_commit] for a commit's outcome). *)
let catch_up t (ho : hosted) off (entry : Corfu.Types.entry) =
  let mine (u : Record.update) = u.u_oid = ho.oid in
  List.iteri
    (fun slot r ->
      let pos = Record.pos ~offset:off ~slot in
      match r with
      | Record.Update u when mine u ->
          charge_apply t;
          Dc.deliver_update t.dc pos u
      | Record.Commit c when List.exists mine c.c_writes ->
          charge_apply t;
          Dc.catch_up_commit t.dc ho pos c
      | Record.Checkpoint { k_oid; k_base; k_data } when k_oid = ho.oid ->
          charge_apply t;
          Dc.deliver_checkpoint t.dc ho pos ~base:k_base k_data
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
          match Dc.find t.dc u.Record.u_oid with
          | ho ->
              charge_apply t;
              Dc.deliver_to t.dc ho pos u
          | exception Not_found -> ())
      | Record.Commit c ->
          let involved = Dc.involved_hosted t.dc c in
          if involved <> [] then charge_apply t;
          Dc.handle_commit t.dc pos ~involved c
      | Record.Decision { d_target; d_committed } ->
          charge_apply t;
          Dc.resolve t.dc d_target d_committed
      | Record.Partial { p_target; p_verdicts } ->
          charge_apply t;
          Dc.note_partials t.dc p_target p_verdicts
      | Record.Checkpoint { k_oid; k_base; k_data } -> (
          match Dc.find t.dc k_oid with
          | ho ->
              charge_apply t;
              Dc.deliver_checkpoint t.dc ho pos ~base:k_base k_data
          | exception Not_found -> ()));
      process_records t off (slot + 1) rest

let process_entry t (ho : hosted) off (entry : Corfu.Types.entry) =
  if off <= t.frontier then begin
    if off <= ho.view.joined_at then catch_up t ho off entry
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
      let off = Corfu.Stream.next_offset ho.Dc.view.stream in
      if off >= 0 && off < upto && off < best_off then earliest upto off cell rest
      else earliest upto best_off best rest

(* Consume hosted streams merged by offset so records apply in global
   log order (see the .mli preamble). [upto] is exclusive. *)
let rec play_merged t hos upto =
  match earliest upto max_int [] hos with
  | [] -> ()
  | ho :: _ ->
      (match Corfu.Stream.readnext ho.Dc.view.stream with
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
      Corfu.Stream.sync_with ho.Dc.view.stream ~tail ~ptrs;
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
      Corfu.Stream.sync_until ho.Dc.view.stream upto;
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
  | exception e -> release_play_lock_reraise t.play_lock e

(* One sequencer round trip, then playback to the tail (capped at
   [upto]). *)
let play_round ?upto t =
  let tail = sync_all t in
  play_to t (match upto with Some u -> min u tail | None -> tail)

(* The decision polls' schedule: the first wait, doubled up to the
   bound. A poll waits for other clients' records to reach the log, not
   for an RPC (an unanswered one has already waited its deadline). *)
let poll_first_us = 200.
let poll_max_us = 1_600.

(* The one wait loop: back off, play a round, repeat until [settled ()]
   — typically a decision record beyond the last round's tail. Callers
   test [settled] first, so the common no-wait case builds no
   closure. *)
let play_until ?upto t settled =
  let rec wait backoff =
    Sim.Engine.sleep backoff;
    play_round ?upto t;
    if not (settled ()) then wait (Float.min (2. *. backoff) poll_max_us)
  in
  wait poll_first_us

(* ------------------------------------------------------------------ *)
(* Public object-facing API                                           *)
(* ------------------------------------------------------------------ *)

let current_tx t = Sim.Int_tbl.find_opt t.txs (Sim.Engine.fiber_id ())

let charge_dispatch t = Sim.Resource.use t.dispatch t.p.client_dispatch_us

(* Buffered in-transaction operations never leave the runtime — they
   cons onto the context — so they cost a token amount, not a full
   dispatch (the dispatch constant models the runtime's per-external-op
   hot loop; see Params). *)
let charge_tx_op t = Sim.Resource.use t.dispatch 1.0

(* The target list of [oid]'s updates, one per object. *)
let update_streams t oid =
  match Sim.Int_tbl.find t.update_streams oid with
  | streams -> streams
  | exception Not_found ->
      let streams = [ oid ] in
      Sim.Int_tbl.add t.update_streams oid streams;
      streams

let update_helper t ~oid ?key data =
  match current_tx t with
  | Some ctx ->
      charge_tx_op t;
      ctx.tx_writes <- { Record.u_oid = oid; u_key = key; u_data = data } :: ctx.tx_writes
  | None ->
      charge_dispatch t;
      ignore
        (Batcher.submit t.batcher ~streams:(update_streams t oid)
           (Record.Update { Record.u_oid = oid; u_key = key; u_data = data }))

let query_helper t ~oid ?key ?upto () =
  match current_tx t with
  | Some ctx ->
      charge_tx_op t;
      if upto <> None then invalid_arg "Runtime.query_helper: no historical reads in transactions";
      let ho =
        match Dc.find t.dc oid with
        | ho -> ho
        | exception Not_found ->
            invalid_arg "Runtime.query_helper: remote reads in transactions are not supported (§4.1 D)"
      in
      ctx.tx_reads <- (oid, key, Dc.version ho key) :: ctx.tx_reads
  | None -> (
      charge_dispatch t;
      match Dc.find_opt t.dc oid with
      | Some ho ->
          (* Linearizable: bring the view to the tail (bounded by
             [upto]) and wait out undecided commits freezing it. *)
          play_round ?upto t;
          if not (Dc.settled ho) then play_until ?upto t (fun () -> Dc.settled ho)
      | None -> invalid_arg "Runtime.query_helper: object not hosted")

(* ------------------------------------------------------------------ *)
(* Remote reads (§4.1 D)                                              *)
(* ------------------------------------------------------------------ *)

let expose_read t ~oid serve =
  match Dc.find_opt t.dc oid with
  | Some ho -> ho.view.serve_read <- Some serve
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
            Sim.Resource.use t.dispatch t.p.client_dispatch_us;
            match Dc.find_opt t.dc rr_oid with
            | Some ({ view = { serve_read = Some serve; _ }; _ } as ho) ->
                Some (serve rr_key, Dc.version ho rr_key)
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
          (* An unanswered read is resent, as soon as its deadline
             passed, until the peer answers: the transaction cannot
             decide without the value. *)
          let rec ask () =
            match
              Sim.Net.call ~from:(Corfu.Client.host t.cl) svc
                { rr_oid = oid; rr_key = key }
            with
            | r -> r
            | exception Sim.Net.Unanswered -> ask ()
          in
          match ask () with
          | None -> invalid_arg "Runtime.query_remote: peer does not serve this object"
          | Some (value, version) ->
              ctx.tx_reads <- (oid, key, version) :: ctx.tx_reads;
              ctx.tx_remote_reads <- true;
              value))

let fetch t ?oid ?(select = fun ~key:_ _ -> true) pos =
  let off = Record.pos_offset pos in
  let slot = Record.pos_slot pos in
  let entry =
    match Corfu.Client.read_resolved t.cl off with
    | Corfu.Client.Data e -> e
    | Corfu.Client.Junk | Corfu.Client.Trimmed | Corfu.Client.Unwritten -> raise Not_found
  in
  let records = Record.decode_entry ~offset:off entry.Corfu.Types.payload in
  let wanted (u : Record.update) =
    (match oid with Some o -> o = u.Record.u_oid | None -> true)
    && select ~key:u.Record.u_key u.Record.u_data
  in
  match List.nth_opt records slot with
  | Some (Record.Update u) when wanted u -> u.Record.u_data
  | Some (Record.Commit c) when oid <> None -> (
      (* The commit's writes apply in order, so the last selected one
         is the write a view holding [pos] reflects. *)
      match List.fold_left (fun last u -> if wanted u then Some u else last) None c.Record.c_writes with
      | Some u -> u.Record.u_data
      | None -> raise Not_found)
  | Some _ | None -> raise Not_found

(* ------------------------------------------------------------------ *)
(* Transactions                                                       *)
(* ------------------------------------------------------------------ *)

let begin_tx t =
  charge_dispatch t;
  let fid = Sim.Engine.fiber_id () in
  if Sim.Int_tbl.mem t.txs fid then raise Nested_transaction;
  (* Refresh the local snapshot so reads record current versions;
     accessors inside the transaction then stay purely local (§3.2). *)
  play_round t;
  Sim.Int_tbl.replace t.txs fid
    { tx_reads = []; tx_writes = []; tx_remote_reads = false; tx_t0 = Sim.Engine.now () };
  if Sim.Announce.active () then
    Sim.Announce.emit (Sim.Announce.Tx_begin { client = Sim.Net.host_name (Corfu.Client.host t.cl) })

let abort_tx t =
  let fid = Sim.Engine.fiber_id () in
  if not (Sim.Int_tbl.mem t.txs fid) then raise No_transaction;
  Sim.Int_tbl.remove t.txs fid

let check_reads t reads =
  List.for_all (fun (oid, key, recorded) -> version_of t ~oid ?key () <= recorded) reads

let await_decided t pos =
  if not (Dc.is_decided t.dc pos) then play_until t (fun () -> Dc.is_decided t.dc pos);
  Dc.outcome t.dc pos

let read_objects_settled t reads =
  List.for_all
    (fun (oid, _, _) ->
      match Dc.find_opt t.dc oid with Some ho -> Dc.settled ho | None -> true)
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
  let deadline = Sim.Engine.now () +. Dc.timeout_us in
  let rec loop backoff =
    match Dc.outcome t.dc cpos with
    | outcome -> outcome
    | exception Not_found ->
        scan_records s (fun _ r ->
            match r with
            | Record.Partial { p_target; p_verdicts } when p_target = cpos ->
                Dc.note_partials t.dc cpos p_verdicts
            | Record.Decision { d_target; d_committed } when d_target = cpos ->
                Dc.resolve t.dc d_target d_committed
            | Record.Update _ | Record.Commit _ | Record.Decision _ | Record.Partial _
            | Record.Checkpoint _ ->
                ());
        if Dc.is_decided t.dc cpos then loop backoff
        else if Sim.Engine.now () > deadline then begin
          let outcome = reconstruct_outcome t.cl t.dc cpos c in
          Dc.resolve t.dc cpos outcome;
          publish t.batcher c (Record.Decision { d_target = cpos; d_committed = outcome });
          outcome
        end
        else begin
          Sim.Engine.sleep backoff;
          loop (Float.min (2. *. backoff) poll_max_us)
        end
  in
  loop poll_first_us

let end_tx ?(stale = false) t =
  charge_dispatch t;
  let fid = Sim.Engine.fiber_id () in
  let ctx = match Sim.Int_tbl.find_opt t.txs fid with Some c -> c | None -> raise No_transaction in
  Sim.Int_tbl.remove t.txs fid;
  let finish status =
    Sim.Metrics.incr (match status with Committed -> t.commits_c | Aborted -> t.aborts_c);
    Sim.Metrics.observe t.tx_h (Sim.Engine.now () -. ctx.tx_t0);
    if Sim.Announce.active () then
      Sim.Announce.emit
        (Sim.Announce.Tx_finish { client = Sim.Net.host_name (Corfu.Client.host t.cl); committed = status = Committed });
    status
  in
  match (List.rev ctx.tx_reads, List.rev ctx.tx_writes) with
  | [], [] -> finish Committed
  | reads, [] ->
      (* Read-only: no commit record. Stale mode decides against the
         local snapshot; otherwise play to the tail first (one
         sequencer round trip when the system is quiet, §3.2). *)
      if not stale then begin
        play_round t;
        if not (read_objects_settled t reads) then
          play_until t (fun () -> read_objects_settled t reads)
      end;
      let ok = check_reads t reads in
      if not ok then Sim.Metrics.incr t.conflicts_c;
      finish (if ok then Committed else Aborted)
  | reads, writes ->
      let collaborative = ctx.tx_remote_reads && reads <> [] in
      let wstreams = Dc.write_oids [] writes in
      let needs_decision =
        collaborative
        || List.exists
             (fun soid ->
               match Dc.find_opt t.dc soid with
               | None -> true (* a remote write: its host may lack our read set *)
               | Some ho -> ho.view.marked_needs_decision)
             wstreams
      in
      let commit = { Record.c_reads = reads; c_writes = writes; c_needs_decision = needs_decision } in
      (* Collaborative commits travel on the read streams too, so
         every read-set host can publish its partial verdict. *)
      let streams =
        if collaborative then List.fold_left (fun acc (oid, _, _) -> Dc.add_oid oid acc) wstreams reads
        else wstreams
      in
      let cpos = Batcher.submit t.batcher ~streams (Record.Commit commit) in
      Dc.hold_own t.dc cpos commit;
      let commit_off = Record.pos_offset cpos in
      let committed =
        if reads = [] then begin
          (* Write-only: commits immediately, no playback (§3.2). *)
          Dc.resolve t.dc cpos true;
          true
        end
        else if collaborative then begin
          (* The outcome is assembled from the read hosts' partial
             verdicts (we publish ours through playback like everyone
             else). With no hosted participant, scan a coordination
             stream directly. *)
          if List.exists (is_hosted t) streams then await_decided t cpos
          else await_decided_scanning t cpos commit
        end
        else begin
          if List.exists (is_hosted t) wstreams then begin
            (* Our own playback of the commit entry decides it. *)
            play_round ~upto:(commit_off + 1) t;
            await_decided t cpos
          end
          else begin
            (* Remote-only writes: play to just before the commit
               point, then decide from local read versions — parking
               like a consumer if a read object is frozen. *)
            play_round ~upto:commit_off t;
            with_play_lock t.play_lock (fun () -> Dc.decide_own t.dc cpos commit);
            await_decided t cpos
          end
        end
      in
      (* Every later reader of [own_commits] first checks [decided],
         which now holds [cpos]. *)
      Dc.release_own t.dc cpos;
      if needs_decision && not collaborative then append_decision t.batcher cpos commit committed;
      finish (if committed then Committed else Aborted)

(* ------------------------------------------------------------------ *)
(* Checkpoints and GC                                                 *)
(* ------------------------------------------------------------------ *)

type checkpoint_info = { ckpt_pos : int; ckpt_base : int }

let checkpoint t ~oid =
  charge_dispatch t;
  match Dc.find_opt t.dc oid with
  | None -> invalid_arg "Runtime.checkpoint: object not hosted"
  | Some ho -> (
      match ho.view.cb.checkpoint with
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
  Dc.prune t.dc (off * Record.slots_per_entry)

(* ------------------------------------------------------------------ *)
(* Introspection                                                      *)
(* ------------------------------------------------------------------ *)

let applied_records t = Dc.applied t.dc
let own_commits_held t = Dc.own_held t.dc

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
    List.fold_left
      (fun (h, m) (ho : hosted) ->
        (h + Corfu.Stream.cache_hits ho.view.stream, m + Corfu.Stream.cache_misses ho.view.stream))
      (0, 0) t.hosted
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
