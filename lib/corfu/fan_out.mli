(** Reconfiguration's one bulk-read mechanism: a fixed window of
    requests in flight, so moving a range costs bandwidth, not round
    trips. The storage copy onto a spare ({!Cluster}) and the rebuild
    scan ({!Seq_checkpoint.rebuild}) both run through it. *)

(** Requests in flight at once: 16 fills the reconfiguration agent's
    NIC at 4 KB entries and 50 µs one-way latency. *)
val window : int

(** [start ~n f] runs [f 0], …, [f (n - 1)] on [min window n] new
    fibers, fiber [w] calling [f w], [f (w + fibers)], … in turn, each
    under the caller's current span. A fiber stops early once its [f]
    returns [false]. Returns at once; the ivar is filled when every
    fiber has stopped (at once when [n <= 0]). *)
val start : n:int -> (int -> bool) -> unit Sim.Ivar.t
