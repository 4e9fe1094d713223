type host = {
  hname : string;
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
   call allocates neither. *)
type ('req, 'resp) service = {
  shost : host;
  sname : string;
  ssite : unit Span.site;
  serve : 'req -> 'resp;
}

type rpc_error = Rpc_timeout | Rpc_dead

let create ~latency ~bandwidth ?(jitter = 0.05) () =
  if bandwidth <= 0. then invalid_arg "Net.create: bandwidth must be positive";
  { latency; jitter; byte_time = 1. /. bandwidth; net_fault = ref None }

let install_fault t f = t.net_fault := Some f

let add_host ?(cores = 8) t name =
  let h =
    {
      hname = name;
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
  { shost; sname = name; ssite = Span.site ~args:(fun () -> args) ("rpc." ^ name); serve }

let crashed fault name = match fault with Some f -> Fault.is_crashed f name | None -> false

(* A lost request or response. A constant exception rather than an
   [option] result keeps the fault-free exchange allocation-free. *)
exception Lost

(* A hop's service and flight times reach [Resource.use_in] and
   [Engine.sleep_in] through this slot, so no float is boxed. Both read
   it on entry, before they can park, so one slot serves every
   fiber. *)
let delay = Float.Array.make 1 0.

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
  | Some f -> (
      match Fault.judge f ~src:src.hname ~dst:dst.hname with
      | Fault.Drop -> raise Lost
      | Fault.Deliver extra ->
          set_flight src;
          Float.Array.set delay 0 (Float.Array.get delay 0 +. extra)));
  Engine.sleep_in delay 0;
  (match fault with Some f when Fault.is_crashed f dst.hname -> raise Lost | Some _ | None -> ());
  Float.Array.set delay 0 wire;
  Resource.use_in dst.nic_in_r delay 0

(* Request hop, service, response hop. A server that died while
   serving takes the response with it. Raises [Lost], or whatever the
   handler raises. *)
let exchange fault ~req_bytes ~resp_bytes ~from svc req =
  hop fault ~src:from ~dst:svc.shost ~bytes:req_bytes;
  let resp = svc.serve req in
  if crashed fault svc.shost.hname then raise Lost;
  hop fault ~src:svc.shost ~dst:from ~bytes:resp_bytes;
  resp

(* A message that will never be answered: park the fiber forever, on a
   queue nobody else holds. The run discards it when the main fiber
   finishes (or deadlocks if the main fiber depended on it — which is
   exactly the hang a real client without timeouts experiences). *)
let park () =
  Engine.park (Engine.waitq ());
  assert false

let call ?(req_bytes = 64) ?(resp_bytes = 64) ~from svc req =
  let tok = Span.enter_at svc.ssite ~host:from.hname () in
  match
    let fault = !(from.hfault) in
    if crashed fault from.hname then park ()
    else if from == svc.shost then svc.serve req
    else try exchange fault ~req_bytes ~resp_bytes ~from svc req with Lost -> park ()
  with
  | resp ->
      Span.leave svc.ssite tok;
      resp
  | exception e -> Span.leave_raise svc.ssite tok e

(* Without an installed fault controller this is exactly [call] (same
   fiber, same event sequence), so fault-free runs stay byte-identical.
   Under one, the exchange runs in a helper fiber and the caller waits
   for first-of(response, timeout): whichever comes first fills the
   result, the other finds it filled. A lost exchange or a failed
   device simply never settles. *)
let call_r ?(req_bytes = 64) ?(resp_bytes = 64) ~timeout_us ~from svc req =
  match !(from.hfault) with
  | None -> Ok (call ~req_bytes ~resp_bytes ~from svc req)
  | fault -> (
      let tok = Span.enter_at svc.ssite ~host:from.hname () in
      match
        if crashed fault from.hname then Error Rpc_dead
        else if from == svc.shost then (
          match svc.serve req with
          | resp -> Ok resp
          | exception Resource.Failed _ -> Error Rpc_dead)
        else
          let span_parent = Span.current () in
          let result = Ivar.create () in
          let settle r = if not (Ivar.is_filled result) then Ivar.fill result r in
          Engine.schedule ~after:timeout_us (fun () -> settle (Error Rpc_timeout));
          Engine.spawn (fun () ->
              Span.with_parent span_parent @@ fun () ->
              match exchange fault ~req_bytes ~resp_bytes ~from svc req with
              | resp -> settle (Ok resp)
              | exception (Lost | Resource.Failed _) -> ());
          Ivar.read result
      with
      | r ->
          Span.leave svc.ssite tok;
          r
      | exception e -> Span.leave_raise svc.ssite tok e)

let one_way_delay t ~bytes = (2. *. float_of_int bytes *. t.byte_time) +. t.latency
