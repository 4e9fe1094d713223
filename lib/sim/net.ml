type host = {
  hname : string;
  hid : int;  (* [Fault.host_id hname] *)
  nic_in_r : Resource.t;
  nic_out_r : Resource.t;
  cpu : Resource.t;
  fabric_latency : float;
  fabric_jitter : float;
  byte_time : float;
  hfault : Fault.t option ref;  (* shared with the owning fabric *)
}

type t = {
  latency : float;
  jitter : float;
  byte_time : float;
  net_fault : Fault.t option ref;
}

(* [ssite] is the "rpc.<sname>" section, built once with its args so a
   call allocates neither. [jobs] holds the service's idle timed
   exchanges. *)
type ('req, 'resp) service = {
  shost : host;
  sname : string;
  ssite : unit Span.site;
  serve : 'req -> 'resp;
  jobs : ('req, 'resp) job Pool.t;
}

(* One [call] under a fault controller: the request, the response, the
   caller's wait queue, the deadline's handle, and the exchange fiber's
   body and timer thunk, both built once with the job. A job is shared
   by three parties, the caller, the exchange fiber and the timer, and
   goes back to its service's pool when the last of them lets go
   ([x_refs] reaches 0): a timed-out exchange still in flight still
   holds it, so a late settle can never reach a later call's job. The
   timer lets go when it fires or, if the response settles the job
   first, when that settle cancels it. *)
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
  x_body : unit -> unit;
  x_timer : unit -> unit;
}

let create ~latency ~bandwidth ?(jitter = 0.05) () =
  if bandwidth <= 0. then invalid_arg "Net.create: bandwidth must be positive";
  { latency; jitter; byte_time = 1. /. bandwidth; net_fault = ref None }

let install_fault t f = t.net_fault := Some f

let add_host ?(cores = 8) t name =
  let h =
    {
      hname = name;
      hid = Fault.host_id name;
      nic_in_r = Resource.create ~name:(name ^ ".nic-in") ~capacity:1 ();
      nic_out_r = Resource.create ~name:(name ^ ".nic-out") ~capacity:1 ();
      cpu = Resource.create ~name:(name ^ ".cpu") ~capacity:cores ();
      fabric_latency = t.latency;
      fabric_jitter = t.jitter;
      byte_time = t.byte_time;
      hfault = t.net_fault;
    }
  in
  Metrics.track_resource h.nic_in_r;
  Metrics.track_resource h.nic_out_r;
  Metrics.track_resource h.cpu;
  h

let host_name h = h.hname
let host_cpu h = h.cpu

let service shost ~name serve =
  let args = [ ("dst", shost.hname) ] in
  {
    shost;
    sname = name;
    ssite = Span.site ~args:(fun () -> args) ("rpc." ^ name);
    serve;
    jobs = Pool.create ();
  }

let crashed fault h = match fault with Some f -> Fault.is_crashed_id f h.hid | None -> false

(* A lost request or response. A constant exception rather than an
   [option] result keeps the fault-free exchange allocation-free. *)
exception Lost

(* A hop's service and flight times reach [Resource.use_in] and
   [Engine.sleep_in] through slot 0, so no float is boxed. Both read
   it on entry, before they can park, so one slot serves every fiber.
   Slot 1 takes the fault controller's extra delay. *)
let delay = Float.Array.make 2 0.

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

(* -- timed exchanges ------------------------------------------------- *)

(* A party is done with [j]; the last one pools it. *)
let release j =
  j.x_refs <- j.x_refs - 1;
  if j.x_refs = 0 then begin
    j.x_resp <- None;
    Pool.put j.x_svc.jobs j
  end

(* The first of response and deadline settles the job and wakes the
   caller; the other finds it settled. *)
let settle j =
  j.x_settled <- true;
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

(* The exchange fiber's body: its spans hang under the caller's while
   tracing is on. *)
let exchange_body j =
  if Span.enabled () then Span.with_parent j.x_parent (fun () -> run_exchange j)
  else run_exchange j

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
          x_body = (fun () -> exchange_body j);
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

exception Unanswered

(* Under an installed fault controller the exchange runs in a helper
   fiber and the caller parks until the first of response and deadline
   settles the job. *)
let timed fault ~req_bytes ~resp_bytes ~timeout_us ~from svc req =
  if crashed fault from then raise_notrace Unanswered
  else if from == svc.shost then (
    match svc.serve req with
    | resp -> resp
    | exception Resource.Failed _ -> raise_notrace Unanswered)
  else begin
    let j = job_take svc ~fault ~req_bytes ~resp_bytes ~from req in
    j.x_deadline <- Engine.schedule ~after:timeout_us j.x_timer;
    Engine.spawn j.x_body;
    Engine.park j.x_caller;
    let r = j.x_resp in
    release j;
    match r with Some resp -> resp | None -> raise_notrace Unanswered
  end

(* Without a controller nothing can be lost, so the exchange runs in
   the calling fiber with no job, no deadline and no box. *)
let call ?(req_bytes = 64) ?(resp_bytes = 64) ~timeout_us ~from svc req =
  let tok = Span.enter_at svc.ssite ~host:from.hname () in
  match
    match !(from.hfault) with
    | None ->
        if from == svc.shost then svc.serve req
        else exchange None ~req_bytes ~resp_bytes ~from svc req
    | fault -> timed fault ~req_bytes ~resp_bytes ~timeout_us ~from svc req
  with
  | resp ->
      Span.leave svc.ssite tok;
      resp
  | exception e -> Span.leave_raise svc.ssite tok e

let one_way_delay t ~bytes = (2. *. float_of_int bytes *. t.byte_time) +. t.latency
