(* A pooled grant record plus the number of drain-fiber writes still
   holding it; back to the pool at zero. *)
type grant_slot = { gr_grant : Corfu.Client.grant; mutable gr_refs : int }

(* One entry's chain write: what its fiber needs, and the fiber's body,
   built once with the job. Pooled, so spawning a write builds nothing. *)
type job = {
  mutable j_batch : int Sim.Ivar.t Batch_core.batch;
  mutable j_slot : grant_slot;
  mutable j_index : int;
  mutable j_parent : Sim.Span.id option;
  j_body : unit -> unit;
}

type t = {
  client : Corfu.Client.t;
  batch_size : int;
  append_window : int;
  window : Sim.Resource.t;  (* bounds entries in flight *)
  core : int Sim.Ivar.t Batch_core.t;  (* cell data = the waiter's position ivar *)
  mutable linger : Sim.Engine.timer;  (* the forming batch's, cancelled at its seal *)
  linger_fire : unit -> unit;  (* every linger timer's thunk *)
  mutable drainer_busy : bool;
  grant_pool : grant_slot Sim.Pool.t;
  jobs : job Sim.Pool.t;
  mutable inflight : int;
  mutable inflight_peak : int;
  mutable granted_entries : int;
  grants_c : Sim.Metrics.counter;
  records_c : Sim.Metrics.counter;
  entries_c : Sim.Metrics.counter;
  depth_g : Sim.Metrics.gauge;  (* sealed-batch queue depth *)
}

(* The sealed-queue-age watermark: how long the oldest sealed batch
   still queued has waited. *)
let sealed_age_us t =
  if Batch_core.queued t.core = 0 then 0.
  else Sim.Engine.now () -. Batch_core.front_sealed_us t.core

let linger_us = 30.

let grant_take t =
  if Sim.Pool.is_empty t.grant_pool then
    { gr_grant = Corfu.Client.blank_grant t.client; gr_refs = 0 }
  else Sim.Pool.pop t.grant_pool

(* One entry's chain write, then its waiters' positions. *)
let write_entry t j =
  let batch = j.j_batch and gs = j.j_slot in
  let payload = Batch_core.encode t.core batch in
  let off = Corfu.Client.write_granted t.client gs.gr_grant ~index:j.j_index payload in
  Sim.Metrics.incr t.entries_c;
  for slot = 0 to Batch_core.length batch - 1 do
    Sim.Ivar.fill (Batch_core.data batch slot) (Record.pos ~offset:off ~slot)
  done;
  Batch_core.recycle t.core batch;
  gs.gr_refs <- gs.gr_refs - 1;
  if gs.gr_refs = 0 then Sim.Pool.put t.grant_pool gs;
  Sim.Pool.put t.jobs j;
  t.inflight <- t.inflight - 1;
  Sim.Resource.release t.window

(* A write fiber's body. Its spans hang under the drainer's while
   tracing is on. *)
let run_job t j =
  if Sim.Span.enabled () then Sim.Span.with_parent j.j_parent (fun () -> write_entry t j)
  else write_entry t j

let job_take t ~batch ~slot ~index ~parent =
  if Sim.Pool.is_empty t.jobs then begin
    let rec j =
      {
        j_batch = batch;
        j_slot = slot;
        j_index = index;
        j_parent = parent;
        j_body = (fun () -> run_job t j);
      }
    in
    j
  end
  else begin
    let j = Sim.Pool.pop t.jobs in
    j.j_batch <- batch;
    j.j_slot <- slot;
    j.j_index <- index;
    j.j_parent <- parent;
    j
  end

(* The drainer is the only fiber talking to the sequencer, so landed
   offsets are monotone in seal order: positions handed to waiters are
   consistent with log order. Chain writes for the grant overlap —
   each entry gets its own fiber, gated by the window resource. The
   loop reuses one grant record per group ({!Client.reserve_into});
   the grant recycles only after its last write fiber drops its
   reference, so concurrent [write_granted]s never see a refill. *)
let rec drain t =
  if Batch_core.queued t.core = 0 then t.drainer_busy <- false
  else begin
    let count = Batch_core.group t.core ~max_run:t.append_window in
    let streams = Batch_core.front_streams t.core in
    let gs = grant_take t in
    Corfu.Client.reserve_into t.client gs.gr_grant ~streams ~count;
    gs.gr_refs <- count;
    t.granted_entries <- t.granted_entries + count;
    Sim.Metrics.incr t.grants_c;
    let parent = Sim.Span.current () in
    for index = 0 to count - 1 do
      let batch = Batch_core.pop t.core in
      Sim.Resource.acquire t.window;
      t.inflight <- t.inflight + 1;
      if t.inflight > t.inflight_peak then t.inflight_peak <- t.inflight;
      Sim.Engine.spawn (job_take t ~batch ~slot:gs ~index ~parent).j_body
    done;
    Sim.Metrics.set_gauge t.depth_g (float_of_int (Batch_core.queued t.core));
    drain t
  end

let kick t =
  if not t.drainer_busy then begin
    t.drainer_busy <- true;
    Sim.Engine.spawn (fun () -> drain t)
  end

let flush t =
  if Batch_core.forming_len t.core > 0 then begin
    ignore (Sim.Engine.cancel t.linger : bool);
    Batch_core.seal t.core ~now:(Sim.Engine.now ());
    Sim.Metrics.set_gauge t.depth_g (float_of_int (Batch_core.queued t.core));
    kick t
  end

let create ~client ~batch_size =
  if batch_size < 1 || batch_size > Record.slots_per_entry then
    invalid_arg "Batcher.create: bad batch size";
  let append_window = (Corfu.Client.params client).Sim.Params.append_window in
  if append_window < 1 then invalid_arg "Batcher.create: bad append window";
  let hname = Sim.Net.host_name (Corfu.Client.host client) in
  let window =
    Sim.Resource.create ~name:(hname ^ ".append-window") ~capacity:append_window ()
  in
  Sim.Metrics.track_resource window;
  let rec t =
    {
      client;
      batch_size;
      append_window;
      window;
      core = Batch_core.create ~cap:batch_size ~dummy:(Sim.Ivar.create ());
      linger = Sim.Engine.no_timer;
      linger_fire = (fun () -> flush t);
      drainer_busy = false;
      grant_pool = Sim.Pool.create ();
      jobs = Sim.Pool.create ();
      inflight = 0;
      inflight_peak = 0;
      granted_entries = 0;
      grants_c = Sim.Metrics.counter ~host:hname "batcher.grants";
      records_c = Sim.Metrics.counter ~host:hname "batcher.records";
      entries_c = Sim.Metrics.counter ~host:hname "batcher.entries";
      depth_g = Sim.Metrics.gauge ~host:hname "batcher.sealed_depth";
    }
  in
  Sim.Timeseries.probe ~host:hname "batcher.sealed_age_us" (fun () -> sealed_age_us t);
  t

let submit t ~streams record =
  if streams = [] then invalid_arg "Batcher.submit: no target streams";
  let pos_iv = Sim.Ivar.create () in
  let was_empty = Batch_core.forming_len t.core = 0 in
  let full = Batch_core.submit t.core record streams pos_iv in
  Sim.Metrics.incr t.records_c;
  if full then flush t
  else if was_empty then
    (* First record of a fresh batch arms the linger timer. *)
    t.linger <- Sim.Engine.schedule ~after:linger_us t.linger_fire;
  Sim.Ivar.read pos_iv

let entries_appended t = Sim.Metrics.counter_value t.entries_c
let records_submitted t = Sim.Metrics.counter_value t.records_c
let inflight t = t.inflight
let inflight_peak t = t.inflight_peak
let grants t = Sim.Metrics.counter_value t.grants_c
let granted_entries t = t.granted_entries
