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

(* [sspan] is the precomputed span name "rpc.<sname>": building it per
   call would allocate even with tracing disabled. *)
type ('req, 'resp) service = { shost : host; sname : string; sspan : string; serve : 'req -> 'resp }

type rpc_error = Rpc_timeout | Rpc_dead

let create ~latency ~bandwidth ?(jitter = 0.05) () =
  if bandwidth <= 0. then invalid_arg "Net.create: bandwidth must be positive";
  { latency; jitter; byte_time = 1. /. bandwidth; net_fault = ref None }

let install_fault t f = t.net_fault := Some f
let fault t = !(t.net_fault)

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
let nic_in h = h.nic_in_r
let nic_out h = h.nic_out_r

let service shost ~name serve = { shost; sname = name; sspan = "rpc." ^ name; serve }
let service_name svc = svc.sname

let propagation h =
  let base = h.fabric_latency in
  if h.fabric_jitter = 0. then base
  else base *. (1. +. Rng.float (Engine.rng ()) h.fabric_jitter)

let transfer ~(src : host) ~(dst : host) ~bytes =
  let wire_time = float_of_int bytes *. src.byte_time in
  Resource.use src.nic_out_r wire_time;
  Engine.sleep (propagation src);
  Resource.use dst.nic_in_r wire_time

let crashed fault name = match fault with Some f -> Fault.is_crashed f name | None -> false

(* A message that will never be answered: park the fiber forever. The
   run discards it when the main fiber finishes (or deadlocks if the
   main fiber depended on it — which is exactly the hang a real client
   without timeouts experiences). *)
let park : unit -> 'a = fun () -> Engine.suspend (fun (_ : 'a Engine.resumer) -> ())

let call_inner ~req_bytes ~resp_bytes ~from svc req =
  match !(from.hfault) with
  | None ->
      if from == svc.shost then svc.serve req
      else begin
        transfer ~src:from ~dst:svc.shost ~bytes:req_bytes;
        let resp = svc.serve req in
        transfer ~src:svc.shost ~dst:from ~bytes:resp_bytes;
        resp
      end
  | Some f ->
      if Fault.is_crashed f from.hname then park ()
      else if from == svc.shost then svc.serve req
      else begin
        (* The sender always pays serialization: the bytes leave the
           NIC whether or not they arrive. *)
        let wire = float_of_int req_bytes *. from.byte_time in
        Resource.use from.nic_out_r wire;
        (match Fault.judge f ~src:from.hname ~dst:svc.shost.hname with
        | Fault.Drop -> park ()
        | Fault.Deliver extra -> Engine.sleep (propagation from +. extra));
        if Fault.is_crashed f svc.shost.hname then park ();
        Resource.use svc.shost.nic_in_r wire;
        let resp = svc.serve req in
        if Fault.is_crashed f svc.shost.hname then park ();
        let wire_r = float_of_int resp_bytes *. svc.shost.byte_time in
        Resource.use svc.shost.nic_out_r wire_r;
        (match Fault.judge f ~src:svc.shost.hname ~dst:from.hname with
        | Fault.Drop -> park ()
        | Fault.Deliver extra -> Engine.sleep (propagation svc.shost +. extra));
        Resource.use from.nic_in_r wire_r;
        resp
      end

(* Tracing-disabled calls must not allocate span args (or a body
   closure): branch before building either. *)
let call ?(req_bytes = 64) ?(resp_bytes = 64) ~from svc req =
  if Span.enabled () then
    Span.with_span ~host:from.hname
      ~args:[ ("dst", svc.shost.hname) ]
      svc.sspan
      (fun () -> call_inner ~req_bytes ~resp_bytes ~from svc req)
  else call_inner ~req_bytes ~resp_bytes ~from svc req

(* The result-typed RPC. Without an installed fault controller this is
   exactly [call] (same fiber, same event sequence), so fault-free runs
   stay byte-identical; with one, the exchange runs in a helper fiber
   and the caller waits for first-of(response, timeout). *)
let call_r_inner ~req_bytes ~resp_bytes ?timeout_us ~from svc req fault f =
      if crashed fault from.hname then Error Rpc_dead
      else if from == svc.shost then begin
        match svc.serve req with
        | resp -> Ok resp
        | exception Resource.Failed _ -> Error Rpc_dead
      end
      else
        let span_parent = Span.current () in
        Engine.suspend (fun resume ->
            let settled = ref false in
            let settle r =
              if not !settled then begin
                settled := true;
                resume r
              end
            in
            (match timeout_us with
            | Some dt -> Engine.schedule ~after:dt (fun () -> settle (Error Rpc_timeout))
            | None -> ());
            Engine.spawn (fun () ->
                Span.with_parent span_parent @@ fun () ->
                try
                  let wire = float_of_int req_bytes *. from.byte_time in
                  Resource.use from.nic_out_r wire;
                  match Fault.judge f ~src:from.hname ~dst:svc.shost.hname with
                  | Fault.Drop -> ()
                  | Fault.Deliver extra ->
                      Engine.sleep (propagation from +. extra);
                      if Fault.is_crashed f svc.shost.hname then ()
                      else begin
                        Resource.use svc.shost.nic_in_r wire;
                        match svc.serve req with
                        | exception Resource.Failed _ -> ()  (* no response: device gone *)
                        | resp ->
                            (* The host may have died while serving: the
                               response is lost with it. *)
                            if Fault.is_crashed f svc.shost.hname then ()
                            else begin
                              let wire_r = float_of_int resp_bytes *. svc.shost.byte_time in
                              Resource.use svc.shost.nic_out_r wire_r;
                              match Fault.judge f ~src:svc.shost.hname ~dst:from.hname with
                              | Fault.Drop -> ()
                              | Fault.Deliver extra ->
                                  Engine.sleep (propagation svc.shost +. extra);
                                  Resource.use from.nic_in_r wire_r;
                                  settle (Ok resp)
                            end
                      end
                with Resource.Failed _ -> ()))

let call_r ?(req_bytes = 64) ?(resp_bytes = 64) ?timeout_us ~from svc req =
  let fault = !(from.hfault) in
  match fault with
  | None -> Ok (call ~req_bytes ~resp_bytes ~from svc req)
  | Some f ->
      if Span.enabled () then
        Span.with_span ~host:from.hname
          ~args:[ ("dst", svc.shost.hname) ]
          svc.sspan
          (fun () -> call_r_inner ~req_bytes ~resp_bytes ?timeout_us ~from svc req fault f)
      else call_r_inner ~req_bytes ~resp_bytes ?timeout_us ~from svc req fault f

let send ?(req_bytes = 64) ~from svc req =
  let span_parent = Span.current () in
  match !(from.hfault) with
  | None ->
      if from == svc.shost then
        Engine.spawn (fun () -> Span.with_parent span_parent (fun () -> svc.serve req))
      else begin
        let wire_time = float_of_int req_bytes *. from.byte_time in
        Resource.use from.nic_out_r wire_time;
        Engine.spawn (fun () ->
            Span.with_parent span_parent @@ fun () ->
            Engine.sleep (propagation from);
            Resource.use svc.shost.nic_in_r wire_time;
            svc.serve req)
      end
  | Some f ->
      if Fault.is_crashed f from.hname then ()
      else if from == svc.shost then
        Engine.spawn (fun () ->
            Span.with_parent span_parent @@ fun () ->
            try svc.serve req with Resource.Failed _ -> ())
      else begin
        let wire_time = float_of_int req_bytes *. from.byte_time in
        Resource.use from.nic_out_r wire_time;
        match Fault.judge f ~src:from.hname ~dst:svc.shost.hname with
        | Fault.Drop -> ()
        | Fault.Deliver extra ->
            Engine.spawn (fun () ->
                Span.with_parent span_parent @@ fun () ->
                Engine.sleep (propagation from +. extra);
                if not (Fault.is_crashed f svc.shost.hname) then begin
                  Resource.use svc.shost.nic_in_r wire_time;
                  try svc.serve req with Resource.Failed _ -> ()
                end)
      end

let one_way_delay t ~bytes = (2. *. float_of_int bytes *. t.byte_time) +. t.latency
