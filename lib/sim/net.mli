(** Simulated datacenter network.

    Hosts own full-duplex NICs modelled as {!Resource.t} pairs; every
    message charges serialization time (bytes / bandwidth) on the
    sender's outbound NIC and the receiver's inbound NIC, plus a
    propagation latency with optional jitter. Services are typed
    request/response endpoints; {!call} performs a blocking RPC with
    both directions paying network costs. Handler code runs in the
    calling fiber but charges its costs to the {e server's} resources,
    so server saturation behaves correctly.

    A {!Fault.t} controller can be installed on the fabric; every
    message direction is then judged by it (crashes, partitions,
    per-edge drop/delay), and a message to or from a crashed host is
    dropped. Both RPC primitives run the same exchange (request hop,
    service, response hop); {!call_r} is the failure-aware variant
    returning a [result] instead of hanging.

    Cost, in minor words on OCaml 5.1 (gated in [BENCH_hotpath.json]):
    a fault-free {!call} between two hosts with jitter on is 16 (six
    sleeps and two jitter draws), and stays 16 under a controller
    whatever faults are in force elsewhere, since each host carries an
    interned id and a verdict indexes arrays ({!Fault.judge_id}). A
    {!call_r} under a controller is 25: the exchange, the helper
    fiber's handler closure, the caller's park and the [Ok]; arming
    and cancelling its deadline costs nothing. *)

type t
type host

(** [create ~latency ~bandwidth ?jitter ()] builds a network fabric.
    [latency] is the one-way propagation delay in µs; [bandwidth] is
    per-NIC-direction in bytes/µs; [jitter] (default 0.05) scales a
    uniform multiplicative perturbation of the latency. *)
val create : latency:float -> bandwidth:float -> ?jitter:float -> unit -> t

(** [add_host t name] registers a machine with its own NIC pair and a
    CPU station ([cores], default 8). *)
val add_host : ?cores:int -> t -> string -> host

val host_name : host -> string
val host_cpu : host -> Resource.t

type ('req, 'resp) service

(** [service host ~name serve] exposes [serve] as an RPC endpoint on
    [host]. [serve] should model its own server-side costs (CPU, SSD)
    via {!Resource.use}. *)
val service : host -> name:string -> ('req -> 'resp) -> ('req, 'resp) service

(** [call ~from svc req] performs a blocking RPC. [req_bytes] and
    [resp_bytes] (default 64) size the two messages. Calls between a
    host and itself skip the network entirely.

    Under an installed fault controller, a dropped message or a dead
    peer makes the call {e hang forever} — the historical footgun this
    models faithfully. Use {!call_r} anywhere a fault may strike. *)
val call :
  ?req_bytes:int -> ?resp_bytes:int -> from:host -> ('req, 'resp) service -> 'req -> 'resp

(** Why an RPC failed: the deadline passed with no response, or the
    failure was evident immediately (caller/callee host crashed, or the
    servicing device raised {!Resource.Failed} on a loopback call). *)
type rpc_error = Rpc_timeout | Rpc_dead

(** [call_r ~timeout_us ~from svc req] is {!call} with a failure path:
    [Error Rpc_timeout] after [timeout_us] with no response (lost
    request, lost response, dead or partitioned peer, failed device),
    [Error Rpc_dead] when failure is known immediately.

    When no fault controller is installed the exchange runs exactly
    like {!call} in the calling fiber (and always returns [Ok]), so
    fault-free simulations are byte-identical with or without the
    wrapper. Under a controller the exchange runs in a helper fiber
    while the caller waits for the first of response and deadline;
    the helper is a job pooled per service, reused only once its
    exchange and its timer have both finished, so a late response or
    an expired call's timer never reaches a later call. A response
    that arrives first cancels the deadline ({!Engine.cancel}), so an
    answered call leaves no event pending once it returns, and its job
    goes back to the pool as soon as its exchange ends. *)
val call_r :
  ?req_bytes:int ->
  ?resp_bytes:int ->
  timeout_us:float ->
  from:host ->
  ('req, 'resp) service ->
  'req ->
  ('resp, rpc_error) result

(** [install_fault t fault] attaches a fault controller to the fabric;
    all subsequent traffic between this fabric's hosts consults it. *)
val install_fault : t -> Fault.t -> unit

(** [one_way_delay t ~bytes] is the modelled cost of moving [bytes]
    one hop, excluding queueing: serialization at both ends plus mean
    propagation latency. Useful for calibration printouts. *)
val one_way_delay : t -> bytes:int -> float
