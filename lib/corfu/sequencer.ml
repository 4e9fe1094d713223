type increment_request = { iepoch : Types.epoch; istreams : Types.stream_id list; icount : int }
type peek_request = { pepoch : Types.epoch; pstreams : Types.stream_id list }

type allocation = {
  base : Types.offset;
  stream_tails : (Types.stream_id * Types.offset list) list;
}

(* The counter core: tail plus per-stream last-K offsets in fixed int
   rings. Issuing an offset is two array stores and an index bump — no
   list cells, no Hashtbl.replace churn. Offset lists materialise only
   at the response boundary, once per stream per issue: each ring
   memoises its [(sid, newest-K)] pair until the next offset issued on
   that stream, and every peek and grant reply in between shares it.
   The pair and its list are immutable, so sharing them is safe. *)
module Core = struct
  type ring = {
    r_buf : int array;
    mutable r_len : int;
    mutable r_newest : int;
    mutable r_tail : Types.stream_id * Types.offset list;  (* valid unless [r_stale] *)
    mutable r_stale : bool;
  }

  type t = {
    core_k : int;
    mutable core_tail : Types.offset;
    core_streams : (Types.stream_id, ring) Hashtbl.t;
  }

  let empty_ring k sid =
    { r_buf = Array.make k 0; r_len = 0; r_newest = 0; r_tail = (sid, []); r_stale = false }

  let fill_ring k sid offs =
    let r = empty_ring k sid in
    (* [offs] arrives newest-first, the order the ring stores. *)
    List.iteri
      (fun i off ->
        if i < k then begin
          r.r_buf.(i) <- off;
          r.r_len <- r.r_len + 1
        end)
      offs;
    r.r_stale <- true;
    r

  let create ~k ?(initial_tail = 0) ?(initial_streams = []) () =
    let core_streams = Hashtbl.create 256 in
    List.iter
      (fun (sid, offs) -> Hashtbl.replace core_streams sid (fill_ring k sid offs))
      initial_streams;
    { core_k = k; core_tail = initial_tail; core_streams }

  let tail t = t.core_tail

  let ring_of t sid =
    match Hashtbl.find t.core_streams sid with
    | r -> r
    | exception Not_found ->
        let r = empty_ring t.core_k sid in
        Hashtbl.add t.core_streams sid r;
        r

  (* O(1), allocation-free once the stream's ring exists. *)
  let note_issue t sid off =
    let r = ring_of t sid in
    let k = t.core_k in
    r.r_newest <- (r.r_newest + k - 1) mod k;
    r.r_buf.(r.r_newest) <- off;
    if r.r_len < k then r.r_len <- r.r_len + 1;
    r.r_stale <- true

  (* Materialise a ring newest-first; a plain counted loop (no
     [List.init] closure) keeps the build down to the list cells. *)
  let ring_list r k =
    let rec build i acc = if i < 0 then acc else build (i - 1) (r.r_buf.((r.r_newest + i) mod k) :: acc) in
    build (r.r_len - 1) []

  let ring_tail t sid r =
    if r.r_stale then begin
      r.r_tail <- (sid, ring_list r t.core_k);
      r.r_stale <- false
    end;
    r.r_tail

  let stream_tail t sid =
    match Hashtbl.find t.core_streams sid with
    | r -> ring_tail t sid r
    | exception Not_found -> (sid, [])

  let last_k t sid = snd (stream_tail t sid)

  (* Top-level recursions instead of closures: a reply allocates only
     its spine, plus each stale stream's memo. *)
  let rec tails_of t = function
    | [] -> []
    | sid :: rest -> stream_tail t sid :: tails_of t rest

  let rec issue_all t base count = function
    | [] -> ()
    | sid :: rest ->
        for i = 0 to count - 1 do
          note_issue t sid (base + i)
        done;
        issue_all t base count rest

  (* A range grant allocates [base .. base+count-1] on every requested
     stream; record them all so later backpointer state stays exact
     (the grantee writes each entry's header chaining through the
     earlier offsets of the same grant). [stream_tails] snapshots the
     pre-grant rings — the response excludes the allocation itself. *)
  let grant t ~streams ~count =
    let base = t.core_tail in
    let stream_tails = tails_of t streams in
    t.core_tail <- base + count;
    issue_all t base count streams;
    { base; stream_tails }

  let peek t ~streams = { base = t.core_tail; stream_tails = tails_of t streams }

  let all_streams t = Hashtbl.fold (fun sid r acc -> ring_tail t sid r :: acc) t.core_streams []
  let nstreams t = Hashtbl.length t.core_streams
end

type response = Seq_ok of allocation | Seq_sealed of Types.epoch

type dump = {
  dump_offset : Types.offset;
  dump_state_ptrs : Types.offset list;
  dump_streams : (Types.stream_id * Types.offset list) list;
}

type t = {
  seq_name : string;
  seq_host : Sim.Net.host;
  counter_cpu : Sim.Resource.t;  (* the single hot loop handing out offsets *)
  core : Core.t;
  mutable epoch : Types.epoch;
  incr_c : Sim.Metrics.counter;
  granted_c : Sim.Metrics.counter;
  peeks_c : Sim.Metrics.counter;
  seals_c : Sim.Metrics.counter;
  incr_svc : (increment_request, response) Sim.Net.service;
  peek_svc : (peek_request, response) Sim.Net.service;
  seal_svc : (Types.epoch, Types.offset) Sim.Net.service;
  dump_svc : (Types.epoch, dump option) Sim.Net.service;
}

let handle_increment t { iepoch; istreams; icount } =
  if iepoch < t.epoch then Seq_sealed t.epoch
  else begin
    Sim.Metrics.incr t.incr_c;
    Sim.Metrics.add t.granted_c (max 1 icount);
    Seq_ok (Core.grant t.core ~streams:istreams ~count:(max 1 icount))
  end

let handle_dump t epoch =
  if epoch < t.epoch then None
  else begin
    let dump_streams = Core.all_streams t.core in
    (* Reserving the snapshot entry is a 1-offset grant on the
       checkpoint stream; the grant's pre-issue tails are exactly the
       state pointers the snapshot's own header chains through. *)
    let a = Core.grant t.core ~streams:[ Seq_checkpoint.stream_id ] ~count:1 in
    Some
      {
        dump_offset = a.base;
        dump_state_ptrs = List.assoc Seq_checkpoint.stream_id a.stream_tails;
        dump_streams;
      }
  end

let handle_peek t { pepoch; pstreams } =
  if pepoch < t.epoch then Seq_sealed t.epoch
  else begin
    Sim.Metrics.incr t.peeks_c;
    Seq_ok (Core.peek t.core ~streams:pstreams)
  end

let create ~net ~name ~(params : Sim.Params.t) ?(initial_tail = 0) ?(initial_streams = []) () =
  let seq_host = Sim.Net.add_host net name in
  let counter_cpu = Sim.Resource.create ~name:(name ^ ".counter") ~capacity:1 () in
  Sim.Metrics.track_resource counter_cpu;
  (* Grant-backlog watermark: fibers queued on the counter CPU are
     grant requests the sequencer has admitted but not yet served. *)
  Sim.Timeseries.probe ~host:name "seq.grant_backlog" (fun () ->
      float_of_int (Sim.Resource.queue_length counter_cpu));
  let service_us = params.sequencer_service_us in
  let rec t =
    lazy
      {
        seq_name = name;
        seq_host;
        counter_cpu;
        core = Core.create ~k:params.backpointer_k ~initial_tail ~initial_streams ();
        epoch = 0;
        incr_c = Sim.Metrics.counter ~host:name "seq.increments";
        granted_c = Sim.Metrics.counter ~host:name "seq.granted_offsets";
        peeks_c = Sim.Metrics.counter ~host:name "seq.peeks";
        seals_c = Sim.Metrics.counter ~host:name "seq.seals";
        incr_svc =
          Sim.Net.service seq_host ~name:"increment" (fun r ->
              Sim.Resource.use counter_cpu service_us;
              handle_increment (Lazy.force t) r);
        peek_svc =
          Sim.Net.service seq_host ~name:"peek" (fun r ->
              Sim.Resource.use counter_cpu service_us;
              handle_peek (Lazy.force t) r);
        seal_svc =
          Sim.Net.service seq_host ~name:"seal" (fun e ->
              let t = Lazy.force t in
              Sim.Metrics.incr t.seals_c;
              if e > t.epoch then t.epoch <- e;
              (* The tail at the seal point: every offset below it has
                 been granted, nothing at or above it ever will be
                 under the old epoch — the boundary a reconfiguration
                 closes the current tail segment at. *)
              Core.tail t.core);
        dump_svc =
          Sim.Net.service seq_host ~name:"dump" (fun e ->
              Sim.Resource.use counter_cpu service_us;
              handle_dump (Lazy.force t) e);
      }
  in
  Lazy.force t

let name t = t.seq_name
let host t = t.seq_host
let increment_service t = t.incr_svc
let peek_service t = t.peek_svc
let seal_service t = t.seal_svc
let dump_service t = t.dump_svc
let current_tail t = Core.tail t.core
let sealed_epoch t = t.epoch
let state_bytes t = Core.nstreams t.core * 8 * t.core.Core.core_k
