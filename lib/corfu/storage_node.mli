(** A CORFU storage node: a flash unit exposing a 64-bit write-once
    address space (paper §2.2).

    Each node owns the {e local} offsets of one replica set; the
    client library maps global offsets onto (replica set, local
    offset) pairs. The node enforces write-once semantics, epoch
    sealing, and explicit trims; every data operation occupies the
    node's simulated SSD for the calibrated service time.

    The cells live in offset pages ({!Pages}, shared with the
    client's entry cache): a read or write is two array loads, a gap in
    the local offsets (a new segment's [seg_local_base]) costs one
    spine word per page it skips, and a prefix trim frees whole
    pages. *)

type t

(** Requests carry the client's epoch; nodes sealed at a higher epoch
    reject them, forcing the client to refresh its projection. *)
type write_request = { wepoch : Types.epoch; woffset : Types.offset; wcell : Types.cell }

type read_request = { repoch : Types.epoch; roffset : Types.offset }

(** [create ~net ~name ~params ()] builds the node and registers its
    RPC services on a fresh host. [capacity_entries] bounds the local
    address space (default: effectively unbounded). *)
val create : net:Sim.Net.t -> name:string -> params:Sim.Params.t -> ?capacity_entries:int -> unit -> t

val name : t -> string
val host : t -> Sim.Net.host

(** The node's simulated flash device. Exposed so fault plans can fail
    it (a plan's [ssd-fail HOST] custom action, which the harness runs
    as {!Sim.Resource.fail}): reads and writes then raise into their
    RPCs, which the failure monitor sees as a dead member. *)
val ssd : t -> Sim.Resource.t

(** {2 RPC endpoints} — fields, so clients embed them in projections. *)

(** Write-once write of data or junk at a local offset. Writing junk
    implements [fill]; a fill that loses to data returns
    [Already_written (Data _)] so the filler can repair the chain. *)
val write_service : t -> (write_request, Types.write_result) Sim.Net.service

val read_service : t -> (read_request, Types.read_result) Sim.Net.service

(** Marks a single local offset reclaimable. *)
val trim_service : t -> (read_request, unit) Sim.Net.service

(** Reclaims every local offset strictly below the argument. *)
val prefix_trim_service : t -> (read_request, unit) Sim.Net.service

(** [seal epoch] refuses all operations tagged with a lower epoch from
    now on and returns the node's local tail — the highest written
    local offset, or -1. Used by reconfiguration and the slow check. *)
val seal_service : t -> (Types.epoch, Types.offset) Sim.Net.service

(** Local tail query (no seal); the slow tail check reads these. *)
val tail_service : t -> (unit, Types.offset) Sim.Net.service

(** {2 Introspection (tests, GC accounting)} *)

val sealed_epoch : t -> Types.epoch
val written_count : t -> int
val trimmed_below : t -> Types.offset

(** Pages of cells the node holds. The address space is stored in
    pages of 1,024 consecutive local offsets, each allocated by the
    first write or trim into it; a prefix trim frees every page wholly
    below its watermark. *)
val pages_held : t -> int
