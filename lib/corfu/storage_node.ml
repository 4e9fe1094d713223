type write_request = { wepoch : Types.epoch; woffset : Types.offset; wcell : Types.cell }
type read_request = { repoch : Types.epoch; roffset : Types.offset }

(* The write-once address space is offset-paged ({!Pages}): a page is
   allocated by the first write or trim into it, a page never written
   reads [Unwritten], and one wholly below the trim watermark is
   dropped. Local offsets jump where a new segment starts
   ([seg_local_base]); the pages between stay unallocated. *)
type t = {
  node_name : string;
  node_host : Sim.Net.host;
  ssd : Sim.Resource.t;
  cells : Types.cell Pages.t;
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
   still holds. *)
let lookup t off = if off < t.trim_watermark then Types.Trimmed else Pages.get t.cells off

let handle_write t { wepoch; woffset; wcell } =
  if wepoch < t.epoch then Types.Sealed_at t.epoch
  else begin
    Sim.Metrics.incr t.writes_c;
    Sim.Resource.use t.ssd t.write_us;
    match (lookup t woffset, wcell) with
    | Types.Unwritten, (Types.Data _ | Types.Junk) ->
        Pages.set t.cells woffset wcell;
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
  if roffset >= t.trim_watermark then Pages.set t.cells roffset Types.Trimmed

(* Drop every page wholly below the new watermark, and clear the cells
   below it in the page it falls in, so no trimmed entry stays
   reachable. *)
let handle_prefix_trim t { roffset; _ } =
  Sim.Resource.use t.ssd 2.;
  if roffset > t.trim_watermark then begin
    t.trim_watermark <- roffset;
    Pages.drop_below t.cells roffset
  end

let handle_seal t epoch =
  Sim.Metrics.incr t.seals_c;
  if epoch > t.epoch then t.epoch <- epoch;
  t.local_tail

let create ~net ~name ~(params : Sim.Params.t) () =
  let node_host = Sim.Net.add_host net name in
  let ssd = Sim.Resource.create ~name:(name ^ ".ssd") ~capacity:params.storage_capacity () in
  Sim.Metrics.track_resource ssd;
  let rec t =
    lazy
      {
        node_name = name;
        node_host;
        ssd;
        cells = Pages.create ~empty:Types.Unwritten;
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
let pages_held t = Pages.pages_held t.cells
