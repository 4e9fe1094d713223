(** Queueing stations: the cost model of the simulation.

    A resource models a physical bottleneck — a NIC direction, an SSD,
    a CPU — as [capacity] identical servers in front of a FIFO queue.
    A fiber occupies one server for a service time; when all servers
    are busy the fiber waits in line. Saturation curves in the
    benchmarks emerge from these queues. *)

type t

(** Raised (with the station's name) by {!acquire}/{!use} when the
    station has been failed by {!fail}: the hardware behind the queue
    is gone, so the operation can never complete. *)
exception Failed of string

(** [create ~name ~capacity ()] makes a station with [capacity]
    parallel servers.
    @raise Invalid_argument if [capacity < 1]. *)
val create : name:string -> capacity:int -> unit -> t

val name : t -> string

(** [capacity t] is the number of parallel servers, for utilization
    reporting ([busy_time] / (interval × capacity)). *)
val capacity : t -> int

(** [acquire t] takes one server, waiting in FIFO order if none is
    free.
    @raise Failed if the station is failed (also raised from the wait
    when {!fail} hits a queued fiber). *)
val acquire : t -> unit

(** [release t] frees one server, handing it to the longest-waiting
    fiber if any.
    @raise Invalid_argument if no server is held. *)
val release : t -> unit

(** [use t dt] = acquire, hold for [dt] microseconds, release. This is
    the normal way to charge a cost to the resource. *)
val use : t -> float -> unit

(** [use_in t a i] is [use t (Float.Array.get a i)], reading the
    service time on entry: the form for a service time the caller
    computes, which reaches the station unboxed. *)
val use_in : t -> Float.Array.t -> int -> unit

(** [fail t] breaks the station: subsequent {!acquire}/{!use} raise
    {!Failed}, and every fiber still queued is woken into that same
    failure. Holders of in-flight service times finish normally (the
    request was already on the device), and so does a waiter that
    {!release} already handed a server to, even if it has not run yet.
    Used by the fault plane to model an SSD dying. *)
val fail : t -> unit

(** [repair t] puts a failed station back in service. *)
val repair : t -> unit

val failed : t -> bool

(** [queue_length t] is the number of fibers currently waiting. *)
val queue_length : t -> int

(** [busy_time t] is the total server-busy integral (µs × servers)
    accumulated so far, for utilization reporting. *)
val busy_time : t -> float
