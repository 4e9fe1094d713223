type segment = {
  seg_base : Types.offset;
  seg_limit : Types.offset option;
  seg_local_base : Types.offset;
  seg_sets : Storage_node.t array array;
}

type t = {
  epoch : Types.epoch;
  segments : segment array;
  sequencer : Sequencer.t;
}

type location = Retired | In_segment of int

let seg_nsets seg = Array.length seg.seg_sets

(* How many of [set]'s cells have a relative offset below [rel]: the
   cells are the r < rel with r mod nsets = set. *)
let seg_cells_below seg ~set ~rel =
  if rel <= set then 0 else (rel - set + seg_nsets seg - 1) / seg_nsets seg

(* The number of local offsets the segment occupies on its set-0 nodes
   — the widest set — which is the stride the next segment's local
   base must clear. [span] is the segment's global extent. *)
let seg_local_span seg ~span = seg_cells_below seg ~set:0 ~rel:span

let v ~epoch ~segments ~sequencer =
  let nsegs = Array.length segments in
  if nsegs = 0 then invalid_arg "Projection: need at least one segment";
  Array.iteri
    (fun i seg ->
      if seg.seg_base < 0 then invalid_arg "Projection: negative segment base";
      if seg.seg_local_base < 0 then invalid_arg "Projection: negative segment local base";
      if seg_nsets seg = 0 then invalid_arg "Projection: segment needs at least one replica set";
      Array.iter
        (fun set -> if Array.length set = 0 then invalid_arg "Projection: empty replica set")
        seg.seg_sets;
      (match seg.seg_limit with
      | Some limit ->
          if i = nsegs - 1 then invalid_arg "Projection: the tail segment must be unbounded";
          if limit <= seg.seg_base then invalid_arg "Projection: empty segment range";
          if segments.(i + 1).seg_base <> limit then
            invalid_arg "Projection: segments must tile the offset space contiguously"
      | None -> if i < nsegs - 1 then invalid_arg "Projection: only the tail segment is unbounded");
      (* Local ranges of successive segments must not overlap, so a
         node serving several segments never sees two global offsets
         mapped onto one local cell. *)
      if i > 0 then begin
        let prev = segments.(i - 1) in
        let span = Option.get prev.seg_limit - prev.seg_base in
        if seg.seg_local_base < prev.seg_local_base + seg_local_span prev ~span then
          invalid_arg "Projection: overlapping segment local ranges"
      end)
    segments;
  { epoch; segments; sequencer }

let flat ~epoch ~replica_sets ~sequencer =
  v ~epoch
    ~segments:[| { seg_base = 0; seg_limit = None; seg_local_base = 0; seg_sets = replica_sets } |]
    ~sequencer

let num_segments t = Array.length t.segments
let segment t i = t.segments.(i)
let tail_segment t = t.segments.(num_segments t - 1)

(* The stripe width of the live tail segment: what appends stripe
   over right now. Historical segments keep their own widths. *)
let num_sets t = seg_nsets (tail_segment t)

let locate t off =
  if off < t.segments.(0).seg_base then Retired
  else begin
    (* Last segment whose base is at or below [off]; the maps are tiny
       (one segment per reconfiguration epoch still alive), but keep
       the search logarithmic anyway. *)
    let lo = ref 0 and hi = ref (num_segments t - 1) in
    while !lo < !hi do
      let mid = (!lo + !hi + 1) / 2 in
      if t.segments.(mid).seg_base <= off then lo := mid else hi := mid - 1
    done;
    In_segment !lo
  end

let find_segment t off =
  match locate t off with
  | In_segment i -> t.segments.(i)
  | Retired -> invalid_arg "Projection: offset below the first live segment"

(* [resolve t off] is the full map: (segment index, set index, local
   offset), or [None] when [off] lies below every live segment. *)
let resolve t off =
  match locate t off with
  | Retired -> None
  | In_segment i ->
      let seg = t.segments.(i) in
      let r = off - seg.seg_base in
      let n = seg_nsets seg in
      Some (i, r mod n, seg.seg_local_base + (r / n))

let replica_set t off =
  let seg = find_segment t off in
  seg.seg_sets.((off - seg.seg_base) mod seg_nsets seg)

let local_offset t off =
  let seg = find_segment t off in
  seg.seg_local_base + ((off - seg.seg_base) / seg_nsets seg)

let global_offset t ~seg ~set ~local =
  let s = t.segments.(seg) in
  s.seg_base + ((local - s.seg_local_base) * seg_nsets s) + set

(* Every distinct storage node across every segment, in segment/set
   order. Scale-out reuses the old tail's nodes in the new tail
   segment, so the same node commonly appears in several segments;
   physical equality is the node identity throughout the simulator. *)
let servers t =
  let seen = ref [] in
  Array.iter
    (fun seg ->
      Array.iter
        (Array.iter (fun node -> if not (List.memq node !seen) then seen := node :: !seen))
        seg.seg_sets)
    t.segments;
  List.rev !seen

let num_servers t = List.length (servers t)

let global_tail_from_locals t locals =
  let seg = tail_segment t in
  let n = seg_nsets seg in
  if Array.length locals <> n then
    invalid_arg "Projection.global_tail_from_locals: arity mismatch";
  let highest = ref (seg.seg_base - 1) in
  Array.iteri
    (fun set local ->
      (* A local tail below the segment's local base belongs to an
         earlier segment this node also serves: no writes here yet. *)
      if local >= seg.seg_local_base then begin
        let g = seg.seg_base + ((local - seg.seg_local_base) * n) + set in
        if g > !highest then highest := g
      end)
    locals;
  !highest + 1

(* ------------------------------------------------------------------ *)
(* Wire layout: the projection by name                                 *)
(* ------------------------------------------------------------------ *)

type layout_segment = {
  l_base : Types.offset;
  l_limit : Types.offset option;
  l_local_base : Types.offset;
  l_sets : string array array;
}

type layout = {
  l_epoch : Types.epoch;
  l_sequencer : string;
  l_segments : layout_segment list;
}

let layout t =
  {
    l_epoch = t.epoch;
    l_sequencer = Sequencer.name t.sequencer;
    l_segments =
      Array.to_list
        (Array.map
           (fun seg ->
             {
               l_base = seg.seg_base;
               l_limit = seg.seg_limit;
               l_local_base = seg.seg_local_base;
               l_sets = Array.map (Array.map Storage_node.name) seg.seg_sets;
             })
           t.segments);
  }

let pp_layout ppf l =
  Fmt.pf ppf "epoch %d, %d segment%s, sequencer %s@." l.l_epoch (List.length l.l_segments)
    (if List.length l.l_segments = 1 then "" else "s")
    l.l_sequencer;
  List.iteri
    (fun i seg ->
      (match seg.l_limit with
      | Some limit ->
          Fmt.pf ppf "  segment %d: offsets [%d, %d), local base %d@." i seg.l_base limit
            seg.l_local_base
      | None ->
          Fmt.pf ppf "  segment %d: offsets [%d, ...), local base %d (live tail)@." i seg.l_base
            seg.l_local_base);
      Array.iteri
        (fun s set ->
          Fmt.pf ppf "    chain %d: %s@." s (String.concat " -> " (Array.to_list set)))
        seg.l_sets)
    l.l_segments
