(** Shared vocabulary for the CORFU log.

    Offsets index the global, 64-bit, write-once address space of the
    shared log; OCaml's 63-bit [int] stands in for them. Epochs number
    membership views ("projections"); every storage and sequencer
    operation carries the client's epoch and is rejected once the node
    has been sealed at a higher one. *)

type offset = int
type epoch = int
type stream_id = int

(** A log entry as stored on a replica: an encoded block of stream
    headers (see {!Stream_header}) followed by an opaque payload. The
    on-disk size is fixed at deployment time ([Params.entry_bytes]);
    we keep the two parts structured but charge the fixed size on
    every transfer. *)
type entry = { headers : bytes; payload : bytes }

(** State of one address on a storage node. [Junk] marks a hole
    patched by [fill]; junk entries carry no headers or payload. *)
type cell = Unwritten | Data of entry | Junk | Trimmed

(** Result of a write (or fill) at one replica. *)
type write_result =
  | Write_ok
  | Already_written of cell  (** write-once conflict; holds the winner *)
  | Sealed_at of epoch  (** node sealed at a higher epoch *)

(** Result of a read at one replica. *)
type read_result =
  | Read_data of entry
  | Read_unwritten
  | Read_junk
  | Read_trimmed
  | Read_sealed of epoch

let pp_write_result ppf = function
  | Write_ok -> Fmt.string ppf "ok"
  | Already_written _ -> Fmt.string ppf "already-written"
  | Sealed_at e -> Fmt.pf ppf "sealed@%d" e

let pp_read_result ppf = function
  | Read_data _ -> Fmt.string ppf "data"
  | Read_unwritten -> Fmt.string ppf "unwritten"
  | Read_junk -> Fmt.string ppf "junk"
  | Read_trimmed -> Fmt.string ppf "trimmed"
  | Read_sealed e -> Fmt.pf ppf "sealed@%d" e
