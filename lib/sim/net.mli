(** Simulated datacenter network.

    Hosts own full-duplex NICs modelled as {!Resource.t} pairs; every
    message charges serialization time (bytes / bandwidth) on the
    sender's outbound NIC and the receiver's inbound NIC, plus a
    propagation latency with optional jitter. Services are typed
    request/response endpoints; {!call} performs a blocking RPC with
    both directions paying network costs and a deadline. Handler code
    runs in the caller's fiber (under a fault controller, the call's
    worker fiber) but charges its costs to the {e server's} resources,
    so server saturation behaves correctly.

    A {!Fault.t} controller can be installed on the fabric; every
    message direction is then judged by it (crashes, partitions,
    per-edge drop/delay), and a message to or from a crashed host is
    dropped. A call whose response does not arrive by its deadline
    raises {!Unanswered} when the deadline passes, and so does a call
    whose caller is dead; there is no RPC that waits forever, and none
    that fails at once.

    Cost, in minor words on OCaml 5.1 (gated in [BENCH_hotpath.json]):
    with no controller a {!call} between two hosts with jitter on is
    16 (six sleeps and two jitter draws), since nothing can be lost and
    the exchange runs in the caller's fiber with no deadline armed.
    Under a controller it is 22 whatever faults are in force elsewhere
    (each host carries an interned id and a verdict indexes arrays,
    {!Fault.judge_id}): the exchange, the caller's park, the worker
    fiber's park and the response's box; arming and cancelling the
    deadline and updating the round-trip estimate cost nothing. *)

type t
type host

(** [create ~latency ~bandwidth ?jitter ~timeout_us ()] builds a
    network fabric. [latency] is the one-way propagation delay in µs;
    [bandwidth] is per-NIC-direction in bytes/µs; [jitter] (default
    0.05) scales a uniform multiplicative perturbation of the latency.
    [timeout_us] caps the deadline of every {!call} on the fabric (see
    there); it is the only RPC timeout, so no call site passes one. *)
val create :
  latency:float -> bandwidth:float -> ?jitter:float -> timeout_us:float -> unit -> t

(** [add_host t name] registers a machine with its own NIC pair and a
    CPU station ([cores], default 8). *)
val add_host : ?cores:int -> t -> string -> host

val host_name : host -> string
val host_cpu : host -> Resource.t

type ('req, 'resp) service

(** [service ?hold host ~name serve] exposes [serve] as an RPC endpoint
    on [host]. [serve] should model its own server-side costs (CPU, SSD)
    via {!Resource.use}. [hold] declares a service that parks its
    callers by design, such as a watch answered only when something
    changes: [hold req] is how long it may keep [req]. Such a call
    waits [hold req] plus the fabric's cap and feeds no round-trip
    estimate, since its round trips say nothing about the network (see
    {!call}). *)
val service : ?hold:('req -> float) -> host -> name:string -> ('req -> 'resp) -> ('req, 'resp) service

(** A call's deadline passed with no response: a lost request or
    response, a dead or partitioned peer, a failed device, a crashed
    caller, or a loopback call whose device failed. It is raised only
    when the deadline passes, so a caller retries at once, with no
    backoff of its own: the deadline is the backoff. *)
exception Unanswered

(** [call ~from svc req] performs a blocking RPC and returns the
    response. [req_bytes] and [resp_bytes] (default 64) size the two
    messages. Calls between a host and itself skip the network
    entirely.

    @raise Unanswered under an installed fault controller, when no
    response arrived by the call's deadline. A call from a crashed host,
    or a loopback call whose device failed, can never be answered: it
    waits its pair's current deadline (below) and feeds no estimate.

    When no fault controller is installed nothing can be lost: the
    exchange runs in the calling fiber with no deadline armed and never
    raises {!Unanswered}.

    Under a controller the fabric alone decides the deadline. For each
    (calling host, serving host) pair it keeps RFC 6298's round-trip
    estimator (gains 1/8 and 1/4 over answered calls; RTO = SRTT +
    max(4 RTTVAR, 3 SRTT)) and counts the caller's calls in flight to
    the host; every service of a host shares them. A call's deadline is
    the fabric's cap ([create]'s [timeout_us]) until the pair's first
    answer, then min(cap, RTO x (1 + calls already in flight)):
    pipelined calls queue behind each other, so each is allowed one RTO
    per call ahead of it. A call that expires doubles the pair's RTO
    (Karn's backoff), so a slow but live peer is reached within a few
    attempts, and a caller that retries at once after an expiry backs
    off with it; the next answer recomputes it. A call to a service with a
    [hold] waits [hold req] plus the cap and feeds no estimate.

    The exchange runs in a worker fiber while the caller waits for the
    first of response and deadline. The worker belongs to a job pooled
    per service; between exchanges it parks on the job, and the next
    call to take the job wakes it. A job is reused only once its
    exchange and its timer have both finished, so a late response or an
    expired call's timer never reaches a later call. A response that
    arrives first cancels the deadline ({!Engine.cancel}), so an
    answered call leaves no event pending once it returns, and its job
    goes back to the pool as soon as its exchange ends. *)
val call : ?req_bytes:int -> ?resp_bytes:int -> from:host -> ('req, 'resp) service -> 'req -> 'resp

(** [install_fault t fault] attaches a fault controller to the fabric;
    all subsequent traffic between this fabric's hosts consults it. *)
val install_fault : t -> Fault.t -> unit

(** [one_way_delay t ~bytes] is the modelled cost of moving [bytes]
    one hop, excluding queueing: serialization at both ends plus mean
    propagation latency. Useful for calibration printouts. *)
val one_way_delay : t -> bytes:int -> float
