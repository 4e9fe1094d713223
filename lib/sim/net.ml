(* [est] and [inflight] are the round-trip estimator of every pair
   (calling host, this host), indexed by the caller's id: [est] holds
   three slots a caller (smoothed RTT, its variance, RTO; a negative
   RTO until the first answer) and [inflight] the caller's unsettled
   calls to any of this host's services. *)
type host = {
  hname : string;
  hid : int;  (* [Fault.host_id hname] *)
  nic_in_r : Resource.t;
  nic_out_r : Resource.t;
  fabric_latency : float;
  fabric_jitter : float;
  byte_time : float;
  hfault : Fault.t option ref;  (* shared with the owning fabric *)
  cap : float;  (* the fabric's cap on every call's deadline *)
  mutable est : Float.Array.t;
  mutable inflight : int array;
}

type t = {
  latency : float;
  jitter : float;
  byte_time : float;
  timeout_us : float;
  net_fault : Fault.t option ref;
}

(* [ssite] is the "rpc.<sname>" section, built once with its args so a
   call allocates neither. [jobs] holds the service's idle timed
   exchanges. A service with a [hold] parks its callers by design:
   [hold req] is how long it may keep [req]. *)
type ('req, 'resp) service = {
  shost : host;
  sname : string;
  ssite : unit Span.site;
  serve : 'req -> 'resp;
  hold : ('req -> float) option;
  jobs : ('req, 'resp) job Pool.t;
}

(* One [call] under a fault controller: the request, the response, the
   caller's wait queue, the deadline's handle, the call's start time,
   and the job's worker fiber: its body and the queue it parks on
   between exchanges, and the run ([Engine.run_count]) it was spawned
   in. The body and the timer thunk are built once with the job. A job
   is shared by three parties, the caller, the worker's exchange and
   the timer, and goes back to its service's pool when the last of
   them lets go ([x_refs] reaches 0): a timed-out exchange still in
   flight still holds it, so a late settle can never reach a later
   call's job. The timer lets go when it fires or, if the response
   settles the job first, when that settle cancels it. *)
and ('req, 'resp) job = {
  x_svc : ('req, 'resp) service;
  mutable x_from : host;
  mutable x_fault : Fault.t option;
  mutable x_req : 'req;
  mutable x_req_bytes : int;
  mutable x_resp_bytes : int;
  mutable x_parent : Span.id option;
  mutable x_resp : 'resp option;  (* [Some] once a response settled the job *)
  mutable x_settled : bool;
  mutable x_refs : int;
  mutable x_deadline : Engine.timer;  (* the pending timer, while unsettled *)
  x_caller : Engine.waitq;
  x_t0 : Float.Array.t;  (* 1 slot: when the call was issued *)
  mutable x_worker : Engine.waitq;  (* the worker, parked between exchanges *)
  mutable x_run : int;  (* the run the worker lives in, -1 before the first *)
  x_body : unit -> unit;
  x_timer : unit -> unit;
}

let create ~latency ~bandwidth ?(jitter = 0.05) ~timeout_us () =
  if bandwidth <= 0. then invalid_arg "Net.create: bandwidth must be positive";
  { latency; jitter; byte_time = 1. /. bandwidth; timeout_us; net_fault = ref None }

let install_fault t f = t.net_fault := Some f

let add_host t name =
  let h =
    {
      hname = name;
      hid = Fault.host_id name;
      nic_in_r = Resource.create ~name:(name ^ ".nic-in") ~capacity:1 ();
      nic_out_r = Resource.create ~name:(name ^ ".nic-out") ~capacity:1 ();
      fabric_latency = t.latency;
      fabric_jitter = t.jitter;
      byte_time = t.byte_time;
      hfault = t.net_fault;
      cap = t.timeout_us;
      est = Float.Array.make 0 0.;
      inflight = [||];
    }
  in
  Metrics.track_resource h.nic_in_r;
  Metrics.track_resource h.nic_out_r;
  h

let host_name h = h.hname

let service ?hold shost ~name serve =
  let args = [ ("dst", shost.hname) ] in
  {
    shost;
    sname = name;
    ssite = Span.site ~args:(fun () -> args) ("rpc." ^ name);
    serve;
    hold;
    jobs = Pool.create ();
  }

let crashed fault h = match fault with Some f -> Fault.is_crashed_id f h.hid | None -> false

(* A lost request or response. A constant exception rather than an
   [option] result keeps the fault-free exchange allocation-free. *)
exception Lost

(* A hop's service and flight times reach [Resource.use_in] and
   [Engine.sleep_in] through slot 0, so no float is boxed. Both read
   it on entry, before they can park, so one slot serves every fiber.
   Slot 1 takes the fault controller's extra delay, slot 2 a call's
   deadline on its way to [Engine.schedule_in] and slot 3 the clock
   for a round-trip sample. *)
let delay = Float.Array.make 4 0.

(* One message's flight time from [h] into [delay]. Two stores, not
   one store of an [if]: a branch yielding the boxed field would box
   the jittered product too. *)
let[@inline] set_flight h =
  if h.fabric_jitter = 0. then Float.Array.set delay 0 h.fabric_latency
  else
    Float.Array.set delay 0
      (h.fabric_latency *. (1. +. Rng.float (Engine.rng ()) h.fabric_jitter))

(* One message: the sender always pays serialization (the bytes leave
   its NIC whether or not they arrive); an installed controller judges
   the message; a receiver that died while it was in flight never
   takes it off the wire. *)
let hop fault ~(src : host) ~(dst : host) ~bytes =
  let wire = float_of_int bytes *. src.byte_time in
  Float.Array.set delay 0 wire;
  Resource.use_in src.nic_out_r delay 0;
  (match fault with
  | None -> set_flight src
  | Some f ->
      if not (Fault.judge_id f ~src:src.hid ~dst:dst.hid delay 1) then raise Lost;
      set_flight src;
      Float.Array.set delay 0 (Float.Array.get delay 0 +. Float.Array.get delay 1));
  Engine.sleep_in delay 0;
  if crashed fault dst then raise Lost;
  Float.Array.set delay 0 wire;
  Resource.use_in dst.nic_in_r delay 0

(* Request hop, service, response hop. A server that died while
   serving takes the response with it. Raises [Lost], or whatever the
   handler raises. *)
let exchange fault ~req_bytes ~resp_bytes ~from svc req =
  hop fault ~src:from ~dst:svc.shost ~bytes:req_bytes;
  let resp = svc.serve req in
  if crashed fault svc.shost then raise Lost;
  hop fault ~src:svc.shost ~dst:from ~bytes:resp_bytes;
  resp

(* -- round-trip estimator --------------------------------------------- *)

(* RFC 6298's estimator, one per (calling host, serving host), kept on
   the serving host, so every service of a host shares one round trip
   and one backoff per caller: [srtt] and [rttvar] follow answered
   calls with gains 1/8 and 1/4, and the RTO is SRTT + max(4 RTTVAR,
   3 SRTT). An unanswered call doubles the RTO (Karn's backoff), so a
   slow but live peer is reached in the end; the next answer
   recomputes it from the smoothed values. A late answer to an expired
   call is no sample: it settles nothing. The estimator reads and
   writes float-array slots only, so it allocates nothing past the
   arrays' growth. *)

let alpha = 0.125
let beta = 0.25

(* [h]'s estimator arrays cover caller id [hid]. *)
let cover_host h hid =
  let n = Array.length h.inflight in
  if hid >= n then begin
    let m = max (hid + 1) (2 * n) in
    let est = Float.Array.make (3 * m) (-1.) in
    Float.Array.blit h.est 0 est 0 (3 * n);
    let inflight = Array.make m 0 in
    Array.blit h.inflight 0 inflight 0 n;
    h.est <- est;
    h.inflight <- inflight
  end

(* The deadline of a call from [hid] to [h] into [delay] slot 2: the
   fabric's cap before the pair's first answer, else min(cap, RTO x
   (1 + calls already in flight)), since a caller's pipelined calls
   queue behind each other. *)
let deadline_into h hid =
  let rto = Float.Array.get h.est ((3 * hid) + 2) in
  if rto < 0. then Float.Array.set delay 2 h.cap
  else begin
    let d = rto *. float_of_int (1 + Array.unsafe_get h.inflight hid) in
    if d < h.cap then Float.Array.set delay 2 d else Float.Array.set delay 2 h.cap
  end

(* An answered call's round trip, [now - x_t0], updates its pair's
   estimate. *)
let observe j =
  let est = j.x_svc.shost.est and b = 3 * j.x_from.hid in
  Engine.now_into delay 3;
  let r = Float.Array.get delay 3 -. Float.Array.get j.x_t0 0 in
  let srtt = Float.Array.get est b in
  if Float.Array.get est (b + 2) < 0. then begin
    Float.Array.set est b r;
    Float.Array.set est (b + 1) (0.5 *. r)
  end
  else begin
    Float.Array.set est (b + 1)
      (((1. -. beta) *. Float.Array.get est (b + 1)) +. (beta *. Float.abs (srtt -. r)));
    Float.Array.set est b (((1. -. alpha) *. srtt) +. (alpha *. r))
  end;
  let srtt = Float.Array.get est b and var4 = 4. *. Float.Array.get est (b + 1) in
  let srtt3 = 3. *. srtt in
  if var4 > srtt3 then Float.Array.set est (b + 2) (srtt +. var4)
  else Float.Array.set est (b + 2) (srtt +. srtt3)

(* Karn's backoff: an expired call doubles its pair's RTO. *)
let back_off j =
  let i = (3 * j.x_from.hid) + 2 in
  let est = j.x_svc.shost.est in
  let rto = Float.Array.get est i in
  if rto > 0. then Float.Array.set est i (2. *. rto)

(* -- timed exchanges ------------------------------------------------- *)

(* A party is done with [j]; the last one pools it. *)
let release j =
  j.x_refs <- j.x_refs - 1;
  if j.x_refs = 0 then begin
    j.x_resp <- None;
    Pool.put j.x_svc.jobs j
  end

(* The first of response and deadline settles the job and wakes the
   caller; the other finds it settled. Unless the service holds its
   calls, it ends the call's time in flight and feeds the pair's
   estimator: a response (already in [x_resp]) is a round-trip sample,
   a deadline a backoff. *)
let settle j =
  j.x_settled <- true;
  (match j.x_svc.hold with
  | Some _ -> ()
  | None -> (
      let h = j.x_svc.shost and hid = j.x_from.hid in
      Array.unsafe_set h.inflight hid (Array.unsafe_get h.inflight hid - 1);
      match j.x_resp with Some _ -> observe j | None -> back_off j));
  Engine.wake j.x_caller

(* A lost exchange or a failed device simply never settles. A response
   that settles the job cancels its deadline, and releases the timer's
   share on the timer's behalf. *)
let run_exchange j =
  (match
     exchange j.x_fault ~req_bytes:j.x_req_bytes ~resp_bytes:j.x_resp_bytes ~from:j.x_from
       j.x_svc j.x_req
   with
  | resp ->
      if not j.x_settled then begin
        j.x_resp <- Some resp;
        settle j;
        if Engine.cancel j.x_deadline then release j
      end
  | exception (Lost | Resource.Failed _) -> ());
  release j

(* One exchange: its spans hang under the caller's while tracing is
   on. *)
let exchange_body j =
  if Span.enabled () then Span.with_parent j.x_parent (fun () -> run_exchange j)
  else run_exchange j

(* The worker runs one exchange per wake. It lets go of the job before
   it parks, but parks without yielding, so a job back in the pool
   always has its worker parked. *)
let worker j =
  while true do
    exchange_body j;
    Engine.park j.x_worker
  done

let time_out j =
  if not j.x_settled then settle j;
  release j

let job_take svc ~fault ~req_bytes ~resp_bytes ~from req =
  let j =
    if Pool.is_empty svc.jobs then begin
      let rec j =
        {
          x_svc = svc;
          x_from = from;
          x_fault = fault;
          x_req = req;
          x_req_bytes = req_bytes;
          x_resp_bytes = resp_bytes;
          x_parent = None;
          x_resp = None;
          x_settled = false;
          x_refs = 0;
          x_deadline = Engine.no_timer;
          x_caller = Engine.waitq ();
          x_t0 = Float.Array.make 1 0.;
          x_worker = Engine.waitq ();
          x_run = -1;
          x_body = (fun () -> worker j);
          x_timer = (fun () -> time_out j);
        }
      in
      j
    end
    else begin
      let j = Pool.pop svc.jobs in
      j.x_from <- from;
      j.x_fault <- fault;
      j.x_req <- req;
      j.x_req_bytes <- req_bytes;
      j.x_resp_bytes <- resp_bytes;
      j.x_settled <- false;
      j
    end
  in
  j.x_parent <- Span.current ();
  j.x_refs <- 3;
  j

(* Start the job's exchange: wake its worker, or spawn one on the job's
   first use or when its worker belongs to an earlier run. A spawn and a
   wake each push one event due now, so which one runs changes no event
   order, only fiber ids. *)
let start_worker j =
  let run = Engine.run_count () in
  if j.x_run = run then Engine.wake j.x_worker
  else begin
    if j.x_run >= 0 then j.x_worker <- Engine.waitq ();
    j.x_run <- run;
    Engine.spawn j.x_body
  end

exception Unanswered

(* A call that can never be answered, from a crashed host or a loopback
   call whose device failed, still waits its pair's current deadline
   before it is unanswered, so no retry loop spins at one instant. It
   feeds no estimate: nothing crossed the network. *)
let unanswered_at_deadline h hid =
  cover_host h hid;
  deadline_into h hid;
  Engine.sleep_in delay 2;
  raise_notrace Unanswered

(* Under an installed fault controller the exchange runs in the job's
   worker fiber and the caller parks until the first of response and
   deadline settles the job. A held call waits its hold plus the cap. *)
let timed fault ~req_bytes ~resp_bytes ~from svc req =
  if crashed fault from then unanswered_at_deadline svc.shost from.hid
  else if from == svc.shost then (
    match svc.serve req with
    | resp -> resp
    | exception Resource.Failed _ -> unanswered_at_deadline svc.shost from.hid)
  else begin
    let j = job_take svc ~fault ~req_bytes ~resp_bytes ~from req in
    let h = svc.shost in
    (match svc.hold with
    | Some hold -> Float.Array.set delay 2 (hold req +. h.cap)
    | None ->
        let hid = from.hid in
        cover_host h hid;
        deadline_into h hid;
        Array.unsafe_set h.inflight hid (Array.unsafe_get h.inflight hid + 1);
        Engine.now_into j.x_t0 0);
    j.x_deadline <- Engine.schedule_in delay 2 j.x_timer;
    start_worker j;
    Engine.park j.x_caller;
    let r = j.x_resp in
    release j;
    match r with Some resp -> resp | None -> raise_notrace Unanswered
  end

(* Without a controller nothing can be lost, so the exchange runs in
   the calling fiber with no job, no deadline and no box. *)
let call ?(req_bytes = 64) ?(resp_bytes = 64) ~from svc req =
  let tok = Span.enter_at svc.ssite ~host:from.hname () in
  match
    match !(from.hfault) with
    | None ->
        if from == svc.shost then svc.serve req
        else exchange None ~req_bytes ~resp_bytes ~from svc req
    | fault -> timed fault ~req_bytes ~resp_bytes ~from svc req
  with
  | resp ->
      Span.leave svc.ssite tok;
      resp
  | exception e -> Span.leave_raise svc.ssite tok e

let one_way_delay t ~bytes = (2. *. float_of_int bytes *. t.byte_time) +. t.latency
