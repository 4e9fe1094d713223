type t = {
  cl : Client.t;
  sid : Types.stream_id;
  sids : Types.stream_id list;  (* [[sid]], the peek request's stream list *)
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
    sids = [ sid ];
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
let rec count_above floor n = function
  | [] -> n
  | off :: rest -> count_above floor (if off > floor then n + 1 else n) rest

(* Store the members above [floor] from [t.len] on; true while they
   arrive ascending. *)
let rec store_above t floor start ascending = function
  | [] -> ascending
  | off :: rest ->
      if off > floor then begin
        let ascending = ascending && not (t.len > start && off < t.offsets.(t.len - 1)) in
        t.offsets.(t.len) <- off;
        t.len <- t.len + 1;
        store_above t floor start ascending rest
      end
      else store_above t floor start ascending rest

let push_members t members =
  let floor = known_max t in
  let n = count_above floor 0 members in
  if n > 0 then begin
    if t.len + n > Array.length t.offsets then begin
      let bigger = Array.make (max (2 * Array.length t.offsets) (t.len + n)) 0 in
      Array.blit t.offsets 0 bigger 0 t.len;
      t.offsets <- bigger
    end;
    let start = t.len in
    if not (store_above t floor start true members) then begin
      let fresh = Array.sub t.offsets start n in
      Array.sort Int.compare fresh;
      Array.blit fresh 0 t.offsets start n
    end;
    for i = start to t.len - 1 do
      Client.prefetch t.cl t.offsets.(i)
    done
  end

(* What [resolve] returns for a junk or trimmed offset: private
   sentinels, told apart from log entries by physical equality, so a
   cache hit hands back the cached entry itself and allocates nothing. *)
let junk = { Types.headers = Bytes.create 0; payload = Bytes.create 0 }
let trimmed = { Types.headers = Bytes.create 0; payload = Bytes.create 0 }

(* Fetch the entry at [off] through the client-wide cache, resolving
   holes (blocking with backoff, then filling). *)
let resolve t off =
  match Client.find_cached t.cl off with
  | e ->
      t.cache_hits <- t.cache_hits + 1;
      e
  | exception Not_found -> (
      t.cache_misses <- t.cache_misses + 1;
      t.sync_read_count <- t.sync_read_count + 1;
      match Client.read_shared t.cl off with
      | Client.Data e -> e
      | Client.Junk -> junk
      | Client.Trimmed -> trimmed
      | Client.Unwritten -> assert false (* read_resolved never returns it *))

(* Backward walk from the sequencer's last-K pointers down to what we
   already know. Strides K entries per read in the common case; junk
   degrades to a linear backward scan (§5, Failure Handling). Each
   entry's header is read in place ({!Stream_header.locate} and
   {!Stream_header.backptr}), so a step builds no header or list. One
   walk's state is this record; the steps are top-level recursion. *)
type walk = {
  w_stream : t;
  w_k : int;
  w_floor : Types.offset;  (* the stream's [known_max] when the walk began *)
  mutable w_members : Types.offset list;  (* ascending *)
  mutable w_lowest : Types.offset;
  mutable w_junk : Types.offset list;
}

(* Every offset the walk registers lies below all earlier ones
   (backpointers point down, the scan moves down), so [w_members]
   comes out ascending and an offset below [w_lowest] is new without a
   lookup; only pointers out of that order pay a list scan. *)
let note w off =
  if off > w.w_floor && not (off >= w.w_lowest && List.mem off w.w_members) then begin
    w.w_members <- off :: w.w_members;
    if off < w.w_lowest then w.w_lowest <- off;
    true
  end
  else false

(* Register member candidates, most recent first; the oldest new one
   (or -1) is the only entry read to continue the chain. *)
let rec note_ptrs w oldest = function
  | [] -> oldest
  | p :: rest -> note_ptrs w (if note w p then p else oldest) rest

let rec note_backptrs w block ~current at i oldest =
  let p = Stream_header.backptr ~k:w.w_k ~current block at i in
  if p < 0 then oldest
  else note_backptrs w block ~current at (i + 1) (if note w p then p else oldest)

let rec follow w off =
  let t = w.w_stream in
  let e = resolve t off in
  if e == trimmed then begin
    (* History below here is reclaimed; a checkpoint must cover it
       before the view is complete. *)
    t.trim_gap <- true;
    w.w_junk <- off :: w.w_junk
  end
  else
    match if e == junk then -1 else Stream_header.locate ~k:w.w_k e.Types.headers t.sid with
    | -1 ->
        (* Junk, or an offset the sequencer issued for this stream
           whose winning entry carries no header for it: the slot was
           lost to a competing append and re-used; treat like junk and
           rescan. *)
        w.w_junk <- off :: w.w_junk;
        scan_backward w (off - 1)
    | at -> walk_header w e.Types.headers ~current:off at

and walk_header w block ~current at =
  let oldest = note_backptrs w block ~current at 0 (-1) in
  if oldest >= 0 then follow w oldest

and scan_backward w off =
  if off > w.w_floor then begin
    let t = w.w_stream in
    let e = resolve t off in
    if e == trimmed then t.trim_gap <- true
    else
      match if e == junk then -1 else Stream_header.locate ~k:w.w_k e.Types.headers t.sid with
      | -1 -> scan_backward w (off - 1)
      | at ->
          if note w off then walk_header w e.Types.headers ~current:off at
          (* if already known, the chain has reconnected *)
  end

let rec above floor = function [] -> false | p :: rest -> p > floor || above floor rest

(* The walk proper, entered only when some pointer lies above the
   floor; with none, it would register nothing and push nothing. *)
let walk_and_push t floor ptrs =
  let w =
    {
      w_stream = t;
      w_k = (Client.params t.cl).Sim.Params.backpointer_k;
      w_floor = floor;
      w_members = [];
      w_lowest = max_int;
      w_junk = [];
    }
  in
  let oldest = note_ptrs w (-1) ptrs in
  if oldest >= 0 then follow w oldest;
  (* Filled holes were registered optimistically; drop them. *)
  let fresh =
    match w.w_junk with
    | [] -> w.w_members
    | dropped ->
        let junk_set = Hashtbl.create 8 in
        List.iter (fun o -> Hashtbl.replace junk_set o ()) dropped;
        List.filter (fun o -> not (Hashtbl.mem junk_set o)) w.w_members
  in
  push_members t fresh

let sync_with t ~tail ~ptrs =
  if tail > t.horizon then begin
    let tok = Sim.Span.enter t.walk_s tail in
    match
      let floor = known_max t in
      if above floor ptrs then walk_and_push t floor ptrs;
      (* A walk for an older tail can finish after one for a newer tail. *)
      if tail > t.horizon then t.horizon <- tail
    with
    | () -> Sim.Span.leave t.walk_s tok
    | exception e -> Sim.Span.leave_raise t.walk_s tok e
  end

let do_sync t =
  let a = Client.peek_streams t.cl t.sids in
  (match a.Sequencer.stream_tails with
  | [ (_, ptrs) ] -> sync_with t ~tail:a.Sequencer.base ~ptrs
  | _ -> assert false);
  a.Sequencer.base

let sync t = do_sync t

let sync_until t target = if target > t.horizon then ignore (do_sync t)

let rec readnext t =
  if t.cursor >= t.len then None
  else begin
    let off = t.offsets.(t.cursor) in
    let e = resolve t off in
    t.cursor <- t.cursor + 1;
    if e == junk then readnext t
    else if e == trimmed then begin
      t.trim_gap <- true;
      readnext t
    end
    else Some (off, e)
  end

let rec next_offset t =
  if t.cursor >= t.len then -1
  else begin
    let off = t.offsets.(t.cursor) in
    let e = resolve t off in
    if e == junk then begin
      t.cursor <- t.cursor + 1;
      next_offset t
    end
    else if e == trimmed then begin
      t.trim_gap <- true;
      t.cursor <- t.cursor + 1;
      next_offset t
    end
    else off
  end
