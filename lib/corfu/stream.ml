type t = {
  cl : Client.t;
  sid : Types.stream_id;
  mutable offsets : int array;  (* member offsets, strictly ascending *)
  mutable len : int;
  mutable cursor : int;
  mutable horizon : Types.offset;  (* membership complete below this *)
  mutable sync_read_count : int;
  mutable trim_gap : bool;  (* reclaimed history was skipped *)
  mutable cache_hits : int;
  mutable cache_misses : int;
  walk_s : Types.offset Sim.Span.site;  (* entered with the walk's target tail *)
}

let attach cl sid =
  let stream = [ ("stream", string_of_int sid) ] in
  {
    cl;
    sid;
    offsets = Array.make 64 0;
    len = 0;
    cursor = 0;
    horizon = 0;
    sync_read_count = 0;
    trim_gap = false;
    cache_hits = 0;
    cache_misses = 0;
    walk_s =
      Sim.Span.site
        ~host:(Sim.Net.host_name (Client.host cl))
        ~args:(fun tail -> stream @ [ ("tail", string_of_int tail) ])
        "backpointer.walk";
  }

let id t = t.sid
let client t = t.cl
let append t payload = Client.append t.cl ~streams:[ t.sid ] payload
let pending t = t.len - t.cursor
let discovered t = t.len
let sync_reads t = t.sync_read_count
let cache_hits t = t.cache_hits
let cache_misses t = t.cache_misses
let has_trim_gap t = t.trim_gap
let clear_trim_gap t = t.trim_gap <- false

let known_max t = if t.len > 0 then t.offsets.(t.len - 1) else -1

(* Append the walk's newly discovered [members] (any order; the sync
   walk hands them over ascending, so the sort is usually skipped) and
   start fetching them so the upcoming playback finds them cached.
   Syncs of one stream run concurrently, each walk covering (its floor,
   its tail] with its floor read from an earlier completed push; a
   walk that finished first has therefore registered every member up
   to the current [known_max], and anything at or below it is a
   duplicate. Dropping those keeps [offsets] strictly ascending. *)
let push_members t members =
  let floor = known_max t in
  let n = List.fold_left (fun n off -> if off > floor then n + 1 else n) 0 members in
  if n > 0 then begin
    if t.len + n > Array.length t.offsets then begin
      let bigger = Array.make (max (2 * Array.length t.offsets) (t.len + n)) 0 in
      Array.blit t.offsets 0 bigger 0 t.len;
      t.offsets <- bigger
    end;
    let start = t.len in
    let ascending = ref true in
    List.iter
      (fun off ->
        if off > floor then begin
          if t.len > start && off < t.offsets.(t.len - 1) then ascending := false;
          t.offsets.(t.len) <- off;
          t.len <- t.len + 1
        end)
      members;
    if not !ascending then begin
      let fresh = Array.sub t.offsets start n in
      Array.sort Int.compare fresh;
      Array.blit fresh 0 t.offsets start n
    end;
    for i = start to t.len - 1 do
      Client.prefetch t.cl t.offsets.(i)
    done
  end

(* Fetch the entry at [off] through the client-wide cache, resolving
   holes (blocking with backoff, then filling). *)
let resolve t off =
  match Client.cached t.cl off with
  | Some e ->
      t.cache_hits <- t.cache_hits + 1;
      Client.Data e
  | None ->
      t.cache_misses <- t.cache_misses + 1;
      t.sync_read_count <- t.sync_read_count + 1;
      Client.read_shared t.cl off

let header_for t off entry =
  let k = (Client.params t.cl).Sim.Params.backpointer_k in
  Stream_header.lookup ~k ~current:off entry.Types.headers t.sid

(* Backward walk from the sequencer's last-K pointers down to what we
   already know. Strides K entries per read in the common case; junk
   degrades to a linear backward scan (§5, Failure Handling). *)
let sync_with t ~tail ~ptrs =
  if tail > t.horizon then begin
    let tok = Sim.Span.enter t.walk_s tail in
    let floor = known_max t in
    (* Every offset the walk registers lies below all earlier ones
       (backpointers point down, the scan moves down), so [members]
       comes out ascending and an offset below [lowest] is new without
       a lookup; only pointers out of that order pay a list scan. *)
    let members = ref [] in
    let lowest = ref max_int in
    let junk = ref [] in
    let note off =
      if off > floor && not (off >= !lowest && List.mem off !members) then begin
        members := off :: !members;
        if off < !lowest then lowest := off;
        true
      end
      else false
    in
    let rec walk ptrs =
      (* [ptrs]: member candidates, most recent first. Register all of
         them, then read only the oldest to continue the chain. *)
      let oldest = List.fold_left (fun oldest p -> if note p then p else oldest) (-1) ptrs in
      if oldest >= 0 then follow oldest
    and follow off =
      match resolve t off with
      | Client.Data e -> (
          match header_for t off e with
          | Some h -> walk h.Stream_header.backptrs
          | None ->
              (* An offset the sequencer issued for this stream whose
                 winning entry carries no header for it: the slot was
                 lost to a competing append and re-used; treat like
                 junk and rescan. *)
              junk := off :: !junk;
              scan_backward (off - 1))
      | Client.Junk ->
          junk := off :: !junk;
          scan_backward (off - 1)
      | Client.Trimmed ->
          (* History below here is reclaimed; a checkpoint must cover
             it before the view is complete. *)
          t.trim_gap <- true;
          junk := off :: !junk
      | Client.Unwritten -> assert false (* read_resolved never returns it *)
    and scan_backward off =
      if off > floor then
        match resolve t off with
        | Client.Data e -> (
            match header_for t off e with
            | Some h ->
                if note off then walk h.Stream_header.backptrs
                (* if already known, the chain has reconnected *)
            | None -> scan_backward (off - 1))
        | Client.Junk | Client.Unwritten -> scan_backward (off - 1)
        | Client.Trimmed -> t.trim_gap <- true
    in
    match
      walk ptrs;
      (* Filled holes were registered optimistically; drop them. *)
      let fresh =
        match !junk with
        | [] -> !members
        | junk ->
            let junk_set = Hashtbl.create 8 in
            List.iter (fun o -> Hashtbl.replace junk_set o ()) junk;
            List.filter (fun o -> not (Hashtbl.mem junk_set o)) !members
      in
      push_members t fresh;
      (* A walk for an older tail can finish after one for a newer tail. *)
      if tail > t.horizon then t.horizon <- tail
    with
    | () -> Sim.Span.leave t.walk_s tok
    | exception e -> Sim.Span.leave_raise t.walk_s tok e
  end

let do_sync t =
  let tail, stream_tails = Client.peek_streams t.cl [ t.sid ] in
  (match stream_tails with
  | [ (_, ptrs) ] -> sync_with t ~tail ~ptrs
  | _ -> assert false);
  tail

let sync t = do_sync t

let sync_until t target = if target > t.horizon then ignore (do_sync t)

let rec readnext t =
  if t.cursor >= t.len then None
  else begin
    let off = t.offsets.(t.cursor) in
    match resolve t off with
    | Client.Data e ->
        t.cursor <- t.cursor + 1;
        Some (off, e)
    | Client.Junk ->
        t.cursor <- t.cursor + 1;
        readnext t
    | Client.Trimmed ->
        t.trim_gap <- true;
        t.cursor <- t.cursor + 1;
        readnext t
    | Client.Unwritten -> assert false
  end

let rec peek_next_offset t =
  if t.cursor >= t.len then None
  else begin
    let off = t.offsets.(t.cursor) in
    match resolve t off with
    | Client.Data _ -> Some off
    | Client.Junk ->
        t.cursor <- t.cursor + 1;
        peek_next_offset t
    | Client.Trimmed ->
        t.trim_gap <- true;
        t.cursor <- t.cursor + 1;
        peek_next_offset t
    | Client.Unwritten -> assert false
  end
