(* The freeze-and-decide state machine, split from its I/O shell
   ({!Runtime}); see the .mli preamble. *)

type pending_action =
  | Apply_update of Record.update
  | Commit_point of { cpos : int; writes : Record.update list }
  | Apply_checkpoint of { base : int; data : bytes }

module Key_tbl = Hashtbl.Make (String)

type 'v obj = {
  oid : int;
  view : 'v;
  mutable v_any : int;
  mutable v_whole : int;
  v_key : int Key_tbl.t;
  mutable blocked_on : int option;
  mutable gap_pending : bool;
  waiting : (int * pending_action) Queue.t;
}

type 'v effects = {
  gap : 'v -> bool;
  apply : 'v -> int -> Record.update -> unit;
  load : 'v -> bytes -> bool;
  announce_decided : int -> bool -> unit;
  announce_applied : int -> unit;
  announce_parked : int -> Record.commit -> unit;
  conflict : unit -> unit;
  publish : Record.commit -> Record.t -> unit;
  arm_watchdog : 'v t -> int -> Record.commit -> unit;
  reconstruct : 'v t -> int -> Record.commit -> bool;
}

(* Every per-record lookup is by an int: an oid finds its object by
   binary search in [oids], and a log position its decision in an
   {!Sim.Int_tbl}. Only [hosted]'s order comes from a generic table,
   filled at registration, because playback sweeps the objects in
   that order. *)
and 'v t = {
  fx : 'v effects;
  by_oid : (int, 'v obj) Hashtbl.t;  (* registration only: [hosted]'s order *)
  mutable oids : int array;  (* hosted oids, ascending *)
  mutable objs : 'v obj array;  (* [objs.(i)] is the object of [oids.(i)] *)
  decided : bool Sim.Int_tbl.t;
  undecided : Record.commit Sim.Int_tbl.t;
  own_commits : Record.commit Sim.Int_tbl.t;
  partials : (int, bool) Hashtbl.t Sim.Int_tbl.t;  (* cpos -> oid -> verdict *)
  partials_emitted : (int * int, unit) Hashtbl.t;  (* (cpos, oid) *)
  mutable applied : int;
}

let timeout_us = 50_000.

let create fx =
  {
    fx;
    by_oid = Hashtbl.create 16;
    oids = [||];
    objs = [||];
    decided = Sim.Int_tbl.create 256;
    undecided = Sim.Int_tbl.create 16;
    own_commits = Sim.Int_tbl.create 16;
    partials = Sim.Int_tbl.create 16;
    partials_emitted = Hashtbl.create 16;
    applied = 0;
  }

let register t ~oid view =
  let o =
    {
      oid;
      view;
      v_any = -1;
      v_whole = -1;
      v_key = Key_tbl.create 16;
      blocked_on = None;
      gap_pending = false;
      waiting = Queue.create ();
    }
  in
  Hashtbl.replace t.by_oid oid o;
  let pairs = Hashtbl.fold (fun oid o acc -> (oid, o) :: acc) t.by_oid [] in
  let pairs = Array.of_list (List.sort (fun (a, _) (b, _) -> Int.compare a b) pairs) in
  t.oids <- Array.map fst pairs;
  t.objs <- Array.map snd pairs

(* The index of [oid] in the ascending [oids], or -1. *)
let rec search oids oid lo hi =
  if lo >= hi then -1
  else begin
    let mid = (lo + hi) lsr 1 in
    let m = Array.unsafe_get oids mid in
    if m = oid then mid else if m < oid then search oids oid (mid + 1) hi else search oids oid lo mid
  end

let slot t oid = search t.oids oid 0 (Array.length t.oids)

let find t oid =
  let i = slot t oid in
  if i < 0 then raise_notrace Not_found else Array.unsafe_get t.objs i

let find_opt t oid =
  let i = slot t oid in
  if i < 0 then None else Some (Array.unsafe_get t.objs i)

let mem t oid = slot t oid >= 0
let hosted t = Hashtbl.fold (fun _ o acc -> o :: acc) t.by_oid []
let settled o = o.blocked_on = None && Queue.is_empty o.waiting

(* Frozen at exactly [pos]; a match, where [=] on the option would call
   the polymorphic comparison. *)
let blocked_at o pos = match o.blocked_on with Some p -> p = pos | None -> false
let is_decided t pos = Sim.Int_tbl.mem t.decided pos
let outcome t pos = Sim.Int_tbl.find t.decided pos
let is_undecided t pos = Sim.Int_tbl.mem t.undecided pos
let hold_own t cpos c = Sim.Int_tbl.replace t.own_commits cpos c
let release_own t cpos = Sim.Int_tbl.remove t.own_commits cpos
let own_held t = Sim.Int_tbl.length t.own_commits
let applied t = t.applied

let prune t below_pos =
  let below p v = if p < below_pos then None else Some v in
  Sim.Int_tbl.filter_map_inplace below t.decided;
  Sim.Int_tbl.filter_map_inplace below t.partials;
  Hashtbl.filter_map_inplace (fun (p, _) v -> below p v) t.partials_emitted

let version o key =
  match key with
  | None -> o.v_any
  | Some k -> (
      match Key_tbl.find o.v_key k with
      | v -> max v o.v_whole
      | exception Not_found -> o.v_whole)

let bump_version o key pos =
  o.v_any <- pos;
  match key with None -> o.v_whole <- pos | Some k -> Key_tbl.replace o.v_key k pos

(* CPU is the shell's to charge, per *record*: a commit record applying
   three writes costs one apply slot, matching the paper's per-record
   playback cost model. *)
let apply_now t o pos (u : Record.update) =
  t.fx.apply o.view pos u;
  bump_version o u.u_key pos;
  t.applied <- t.applied + 1

(* Note a trim gap reported by the stream. Only checkpointable objects
   go into buffering mode ([gap] says so) — an object without a loader
   cannot be repaired, so its records keep applying best-effort. *)
let refresh_gap t o = if t.fx.gap o.view then o.gap_pending <- true

let rec refresh_gaps t = function
  | [] -> ()
  | o :: rest ->
      refresh_gap t o;
      refresh_gaps t rest

(* Drop buffered actions the snapshot already contains. *)
let purge_below o base =
  let keep = Queue.create () in
  Queue.iter (fun ((pos, _) as item) -> if pos > base then Queue.add item keep) o.waiting;
  Queue.clear o.waiting;
  Queue.transfer keep o.waiting

(* A checkpoint record lands later in the log than the state it
   captures. Load it when (a) the view has not reached its base
   version, or (b) the view is gapped (trimmed history was skipped),
   in which case the snapshot is the repair: records buffered since
   the gap that the snapshot covers (pos <= base) are discarded, the
   rest replay after it. Otherwise skip it — the view is ahead. *)
let load_checkpoint_now t o ~base data =
  if (o.gap_pending || o.v_any < base) && t.fx.load o.view data then begin
    o.gap_pending <- false;
    purge_below o base;
    if base >= 0 && o.v_any < base then bump_version o None base
  end

let rec hosts_all t = function
  | [] -> true
  | (oid, _, _) :: rest -> mem t oid && hosts_all t rest

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

let writes_key oid key (u : Record.update) =
  u.u_oid = oid
  && match (u.u_key, key) with None, _ | _, None -> true | Some a, Some b -> String.equal a b

(* Top-level recursion, like the rest of the per-record playback
   step: a commit's hosted set allocates only its own cells. *)
let obj_oid o = o.oid

let add_hosted t oid acc =
  let i = slot t oid in
  if i < 0 then acc else insert_by_oid obj_oid (Array.unsafe_get t.objs i) acc

let rec hosted_reads t acc = function
  | [] -> acc
  | (oid, _, _) :: rest -> hosted_reads t (add_hosted t oid acc) rest

let rec hosted_writes t acc = function
  | [] -> acc
  | (u : Record.update) :: rest -> hosted_writes t (add_hosted t u.u_oid acc) rest

let involved_hosted t (c : Record.commit) = hosted_writes t (hosted_reads t [] c.c_reads) c.c_writes

(* Can the commit at [pos] be decided right now, even though some read
   object is frozen behind an undecided commit? Its queued records are
   known, so we can often prove the read window clean (or certainly
   dirty) without waiting — only an {e undecided} queued write to a
   read key forces parking. This keeps one stalled remote-write
   transaction from convoying every local transaction behind it. *)
(* What the records queued on a frozen [o] say about the read of
   [(oid, key)] at version [recorded], for the commit at [pos]. A
   conflict outranks an undecided commit that writes the key. *)
type queued = Clean | Unknown | Conflict

let queued_verdict t pos oid key recorded o =
  Queue.fold
    (fun v (qpos, action) ->
      if v = Conflict || qpos <= recorded || qpos >= pos then v
      else
        match action with
        | Apply_update u -> if writes_key oid key u then Conflict else v
        | Commit_point { cpos; writes } ->
            if List.exists (writes_key oid key) writes then
              match Sim.Int_tbl.find t.decided cpos with
              | true -> Conflict
              | false -> v
              | exception Not_found -> Unknown
            else v
        | Apply_checkpoint _ -> v)
    Clean o.waiting

let rec eager_check t pos = function
  | [] -> Some true
  | (oid, key, recorded) :: rest ->
      let i = slot t oid in
      if i < 0 then None
      else begin
        let o = Array.unsafe_get t.objs i in
        refresh_gap t o;
        (* past [pos] only if it joined after the commit parked: its
           versions no longer show the read window *)
        if o.gap_pending || o.v_any > pos then None
        else if version o key > recorded then begin
          t.fx.conflict ();
          Some false
        end
        else if o.blocked_on = None then eager_check t pos rest
        else
          match queued_verdict t pos oid key recorded o with
          | Conflict ->
              t.fx.conflict ();
              Some false
          | Unknown -> None
          | Clean -> eager_check t pos rest
      end

(* [None] only while a read object is unhosted, gapped, past [pos], or
   masked by an undecided commit that writes a read key. *)
let eager_outcome t pos (c : Record.commit) =
  if not (hosts_all t c.c_reads) then None else eager_check t pos c.c_reads

(* Mutually recursive resolution machinery: resolving a decision
   drains frozen queues, which can surface the next commit point,
   which may now be decidable. *)
let rec resolve t target committed =
  if not (Sim.Int_tbl.mem t.decided target) then begin
    Sim.Int_tbl.replace t.decided target committed;
    t.fx.announce_decided target committed;
    match Sim.Int_tbl.find t.undecided target with
    | exception Not_found -> ()
    | c ->
        Sim.Int_tbl.remove t.undecided target;
        List.iter
          (fun o ->
            if blocked_at o target then begin
              o.blocked_on <- None;
              drain t o
            end)
          (involved_hosted t c)
  end

and drain t o =
  if o.blocked_on = None && (not o.gap_pending) && not (Queue.is_empty o.waiting) then begin
    let pos, action = Queue.peek o.waiting in
    match action with
    | Apply_update u ->
        (* CPU was charged when the record was processed; draining the
           buffer is free. *)
        ignore (Queue.pop o.waiting);
        apply_now t o pos u;
        drain t o
    | Apply_checkpoint { base; data } ->
        ignore (Queue.pop o.waiting);
        load_checkpoint_now t o ~base data;
        drain t o
    | Commit_point { cpos; writes } -> (
        match Sim.Int_tbl.find_opt t.decided cpos with
        | Some committed ->
            ignore (Queue.pop o.waiting);
            if committed then begin
              t.fx.announce_applied cpos;
              List.iter (fun (u : Record.update) -> if u.u_oid = o.oid then apply_now t o cpos u) writes
            end;
            drain t o
        | None ->
            (* Frozen again at the next undecided commit. *)
            o.blocked_on <- Some cpos;
            emit_partials t cpos;
            try_decide t cpos)
  end

(* A parked commit becomes decidable once draining uncovers enough of
   the frozen queues: the conflict check runs against applied versions
   plus the (known) queued records below the commit position, so it is
   identical to the one the generator ran. *)
and try_decide t cpos =
  match Sim.Int_tbl.find_opt t.undecided cpos with
  | None -> ()
  | Some c -> ( match eager_outcome t cpos c with Some committed -> resolve t cpos committed | None -> ())

(* Freeze all hosted involved objects at [cpos] and queue the commit
   point; every object is exactly at [cpos] when this is called. *)
and park_commit t cpos (c : Record.commit) ~involved =
  t.fx.announce_parked cpos c;
  Sim.Int_tbl.replace t.undecided cpos c;
  List.iter
    (fun o ->
      Queue.add (cpos, Commit_point { cpos; writes = c.c_writes }) o.waiting;
      if o.blocked_on = None then begin
        o.blocked_on <- Some cpos;
        try_decide t cpos
      end)
    involved;
  emit_partials t cpos;
  t.fx.arm_watchdog t cpos c

(* --- Collaborative conflict resolution (§4.1 D, the paper's future
   work): hosts of read-set objects publish per-object verdicts as
   partial-decision records; once published verdicts cover the read
   set, any participant combines them into the final decision. --- *)

(* Publish this client's verdicts for the read-set objects it hosts
   that are frozen exactly at [cpos] (their versions are then as of
   the commit position, so each verdict is deterministic). *)
and emit_partials t cpos =
  match Sim.Int_tbl.find_opt t.undecided cpos with
  | None -> ()
  | Some c ->
      let verdicts =
        List.filter_map
          (fun oid ->
            match find t oid with
            | o when blocked_at o cpos && not (Hashtbl.mem t.partials_emitted (cpos, oid)) ->
                Hashtbl.replace t.partials_emitted (cpos, oid) ();
                let ok =
                  List.for_all (fun (roid, key, recorded) -> roid <> oid || version o key <= recorded) c.c_reads
                in
                if not ok then t.fx.conflict ();
                Some (oid, ok)
            | _ | (exception Not_found) -> None)
          (read_oids c)
      in
      if verdicts <> [] then begin
        note_partials t cpos verdicts;
        t.fx.publish c (Record.Partial { p_target = cpos; p_verdicts = verdicts })
      end

and note_partials t cpos verdicts =
  let tbl =
    match Sim.Int_tbl.find_opt t.partials cpos with
    | Some tbl -> tbl
    | None ->
        let tbl = Hashtbl.create 4 in
        Sim.Int_tbl.replace t.partials cpos tbl;
        tbl
  in
  List.iter (fun (oid, ok) -> Hashtbl.replace tbl oid ok) verdicts;
  maybe_combine t cpos

(* When published verdicts cover the whole read set, combine: the
   final outcome is their conjunction — identical from any combiner. *)
and maybe_combine t cpos =
  if not (Sim.Int_tbl.mem t.decided cpos) then begin
    let c_opt =
      match Sim.Int_tbl.find_opt t.undecided cpos with
      | Some c -> Some c
      | None -> Sim.Int_tbl.find_opt t.own_commits cpos
    in
    match (c_opt, Sim.Int_tbl.find_opt t.partials cpos) with
    | Some c, Some verdicts ->
        if List.for_all (fun (oid, _, _) -> Hashtbl.mem verdicts oid) c.c_reads then begin
          let final = List.for_all (fun (oid, _, _) -> Hashtbl.find verdicts oid) c.c_reads in
          let publisher =
            Sim.Int_tbl.mem t.own_commits cpos
            || List.exists (fun (u : Record.update) -> mem t u.u_oid) c.c_writes
          in
          resolve t cpos final;
          if publisher then t.fx.publish c (Record.Decision { d_target = cpos; d_committed = final })
        end
    | _, _ -> ()
  end

(* Playback arrivals. *)

let deliver_to t o pos (u : Record.update) =
  refresh_gap t o;
  if o.blocked_on <> None || o.gap_pending then Queue.add (pos, Apply_update u) o.waiting
  else apply_now t o pos u

let deliver_update t pos (u : Record.update) =
  let i = slot t u.u_oid in
  if i >= 0 then deliver_to t (Array.unsafe_get t.objs i) pos u

let rec deliver_all t pos = function
  | [] -> ()
  | u :: rest ->
      deliver_update t pos u;
      deliver_all t pos rest

let apply_commit t pos (c : Record.commit) =
  t.fx.announce_applied pos;
  deliver_all t pos c.c_writes

let deliver_checkpoint t o pos ~base data =
  refresh_gap t o;
  if o.blocked_on <> None then Queue.add (pos, Apply_checkpoint { base; data }) o.waiting
  else begin
    load_checkpoint_now t o ~base data;
    (* records buffered during the gap and not covered by the snapshot
       replay now *)
    drain t o
  end

(* The runtime's failpoint (DESIGN.md §9), read by [handle_commit]. *)
let blind_commit_apply = ref false

(* [involved] is [involved_hosted t c], computed once by the caller
   (the playback loop also needs it to decide whether to charge
   CPU). *)
let handle_commit t pos ~involved (c : Record.commit) =
  match Sim.Int_tbl.find t.decided pos with
  | committed -> if committed then apply_commit t pos c
  | exception Not_found -> (
      refresh_gaps t involved;
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
          if c.c_needs_decision && not (Sim.Int_tbl.mem t.own_commits pos) then
            t.fx.publish c (Record.Decision { d_target = pos; d_committed = committed })
      | None ->
          (* A commit that touches nothing hosted here (it shares an
             entry with a hosted record) and is not ours is left
             undecided: nothing waits on it, and a later decision
             record, or [catch_up_commit] on a late registration,
             settles it. Parking would arm a watchdog that replays the
             read streams and appends a decision nobody reads. *)
          if involved <> [] || Sim.Int_tbl.mem t.own_commits pos then park_commit t pos c ~involved)

(* A generator whose commit reaches none of its hosted objects decides
   from its read versions at [cpos], parking like a consumer if a read
   object is frozen. *)
let decide_own t cpos (c : Record.commit) =
  if not (Sim.Int_tbl.mem t.decided cpos) then
    match eager_outcome t cpos c with
    | Some outcome -> resolve t cpos outcome
    | None -> park_commit t cpos c ~involved:(involved_hosted t c)

let catch_up_commit t o pos (c : Record.commit) =
  let apply () =
    t.fx.announce_applied pos;
    List.iter (fun (u : Record.update) -> if u.u_oid = o.oid then deliver_update t pos u) c.c_writes
  in
  match Sim.Int_tbl.find_opt t.decided pos with
  | Some committed -> if committed then apply ()
  | None when Sim.Int_tbl.mem t.undecided pos ->
      (* still parked: [o] waits for the outcome like the objects that
         saw the commit live *)
      Queue.add (pos, Commit_point { cpos = pos; writes = c.c_writes }) o.waiting;
      if o.blocked_on = None then o.blocked_on <- Some pos
  | None ->
      let committed = t.fx.reconstruct t pos c in
      resolve t pos committed;
      if committed then apply ()
