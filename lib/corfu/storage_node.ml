type write_request = { wepoch : Types.epoch; woffset : Types.offset; wcell : Types.cell }
type read_request = { repoch : Types.epoch; roffset : Types.offset }

(* The write-once address space is a spine of fixed-size pages: page
   [p] holds local offsets [p * page_size, (p + 1) * page_size). A
   page is allocated by the first write or trim into it; a page never
   written reads [Unwritten], and one wholly below the trim watermark
   is dropped. Local offsets jump where a new segment starts
   ([seg_local_base]), and the pages between stay unallocated: the
   spine costs one word per [page_size] offsets. *)
let page_bits = 10
let page_size = 1 lsl page_bits
let absent : Types.cell array = [||]

type t = {
  node_name : string;
  node_host : Sim.Net.host;
  ssd : Sim.Resource.t;
  mutable pages : Types.cell array array;  (* [absent] where nothing is held *)
  mutable pages_held : int;
  capacity_entries : int;
  write_us : float;
  read_us : float;
  mutable epoch : Types.epoch;
  mutable local_tail : Types.offset;  (* highest written local offset, -1 if none *)
  mutable trim_watermark : Types.offset;  (* everything below is reclaimed *)
  mutable writes_seen : int;
  writes_c : Sim.Metrics.counter;
  reads_c : Sim.Metrics.counter;
  seals_c : Sim.Metrics.counter;
  write_svc : (write_request, Types.write_result) Sim.Net.service;
  read_svc : (read_request, Types.read_result) Sim.Net.service;
  trim_svc : (read_request, unit) Sim.Net.service;
  prefix_trim_svc : (read_request, unit) Sim.Net.service;
  seal_svc : (Types.epoch, Types.offset) Sim.Net.service;
  tail_svc : (unit, Types.offset) Sim.Net.service;
}

(* Everything below the watermark reads [Trimmed], whatever its page
   still holds. A negative offset lands past the spine's end. *)
let lookup t off =
  if off < t.trim_watermark then Types.Trimmed
  else begin
    let p = off lsr page_bits in
    if p >= Array.length t.pages then Types.Unwritten
    else begin
      let page = Array.unsafe_get t.pages p in
      if page == absent then Types.Unwritten else Array.unsafe_get page (off land (page_size - 1))
    end
  end

let set t off cell =
  if off < 0 then invalid_arg "Storage_node: negative offset";
  let p = off lsr page_bits in
  let n = Array.length t.pages in
  if p >= n then begin
    let spine = Array.make (max (p + 1) (2 * n)) absent in
    Array.blit t.pages 0 spine 0 n;
    t.pages <- spine
  end;
  let page =
    let page = Array.unsafe_get t.pages p in
    if page != absent then page
    else begin
      let page = Array.make page_size Types.Unwritten in
      t.pages.(p) <- page;
      t.pages_held <- t.pages_held + 1;
      page
    end
  in
  page.(off land (page_size - 1)) <- cell

let handle_write t { wepoch; woffset; wcell } =
  if wepoch < t.epoch then Types.Sealed_at t.epoch
  else if woffset >= t.capacity_entries then Types.Out_of_space
  else begin
    Sim.Metrics.incr t.writes_c;
    Sim.Resource.use t.ssd t.write_us;
    match (lookup t woffset, wcell) with
    | Types.Unwritten, (Types.Data _ | Types.Junk) ->
        set t woffset wcell;
        if woffset > t.local_tail then t.local_tail <- woffset;
        t.writes_seen <- t.writes_seen + 1;
        Types.Write_ok
    | Types.Junk, Types.Junk -> Types.Write_ok (* idempotent fill *)
    | (Types.Data _ | Types.Junk | Types.Trimmed), _ ->
        Types.Already_written (lookup t woffset)
    | Types.Unwritten, (Types.Unwritten | Types.Trimmed) ->
        invalid_arg "Storage_node: cannot write an unwritten/trimmed cell"
  end

let handle_read t { repoch; roffset } =
  if repoch < t.epoch then Types.Read_sealed t.epoch
  else begin
    Sim.Metrics.incr t.reads_c;
    Sim.Resource.use t.ssd t.read_us;
    match lookup t roffset with
    | Types.Data e -> Types.Read_data e
    | Types.Unwritten -> Types.Read_unwritten
    | Types.Junk -> Types.Read_junk
    | Types.Trimmed -> Types.Read_trimmed
  end

(* Below the watermark a cell already reads [Trimmed]. *)
let handle_trim t { roffset; _ } =
  Sim.Resource.use t.ssd 2.;
  if roffset >= t.trim_watermark then set t roffset Types.Trimmed

(* Drop every page wholly below the new watermark, and clear the cells
   below it in the page it falls in, so no trimmed entry stays
   reachable. Pages below the old watermark are already gone: nothing
   is written or trimmed there once it passes. *)
let handle_prefix_trim t { roffset; _ } =
  Sim.Resource.use t.ssd 2.;
  if roffset > t.trim_watermark then begin
    let n = Array.length t.pages in
    let first = min (t.trim_watermark lsr page_bits) n and last = min (roffset lsr page_bits) n in
    t.trim_watermark <- roffset;
    for p = first to last - 1 do
      if t.pages.(p) != absent then begin
        t.pages.(p) <- absent;
        t.pages_held <- t.pages_held - 1
      end
    done;
    if last < n && t.pages.(last) != absent then
      Array.fill t.pages.(last) 0 (roffset land (page_size - 1)) Types.Unwritten
  end

let handle_seal t epoch =
  Sim.Metrics.incr t.seals_c;
  if epoch > t.epoch then t.epoch <- epoch;
  t.local_tail

let create ~net ~name ~(params : Sim.Params.t) ?(capacity_entries = max_int) () =
  let node_host = Sim.Net.add_host net name in
  let ssd = Sim.Resource.create ~name:(name ^ ".ssd") ~capacity:params.storage_capacity () in
  Sim.Metrics.track_resource ssd;
  let rec t =
    lazy
      {
        node_name = name;
        node_host;
        ssd;
        pages = [||];
        pages_held = 0;
        capacity_entries;
        write_us = params.storage_write_us;
        read_us = params.storage_read_us;
        epoch = 0;
        local_tail = -1;
        trim_watermark = 0;
        writes_seen = 0;
        writes_c = Sim.Metrics.counter ~host:name "ssd.writes";
        reads_c = Sim.Metrics.counter ~host:name "ssd.reads";
        seals_c = Sim.Metrics.counter ~host:name "node.seals";
        write_svc = Sim.Net.service node_host ~name:"write" (fun r -> handle_write (Lazy.force t) r);
        read_svc = Sim.Net.service node_host ~name:"read" (fun r -> handle_read (Lazy.force t) r);
        trim_svc = Sim.Net.service node_host ~name:"trim" (fun r -> handle_trim (Lazy.force t) r);
        prefix_trim_svc =
          Sim.Net.service node_host ~name:"prefix-trim" (fun r -> handle_prefix_trim (Lazy.force t) r);
        seal_svc = Sim.Net.service node_host ~name:"seal" (fun e -> handle_seal (Lazy.force t) e);
        tail_svc = Sim.Net.service node_host ~name:"tail" (fun () -> (Lazy.force t).local_tail);
      }
  in
  Lazy.force t

let name t = t.node_name
let host t = t.node_host
let ssd t = t.ssd
let write_service t = t.write_svc
let read_service t = t.read_svc
let trim_service t = t.trim_svc
let prefix_trim_service t = t.prefix_trim_svc
let seal_service t = t.seal_svc
let tail_service t = t.tail_svc
let sealed_epoch t = t.epoch
let written_count t = t.writes_seen
let trimmed_below t = t.trim_watermark
let pages_held t = t.pages_held
