(** TangoMap: a replicated hash map with fine-grained per-key
    versioning (§3.2, Versioning), the workhorse of the paper's
    transaction benchmarks (Figures 9 and 10).

    Two storage modes (§3.1, Durability):
    - [`Inline]: the view holds the values;
    - [`Indexed]: the view holds log positions and {!get} issues a
      random read to the shared log — the map becomes an index over
      log-structured storage. *)

type t

(** [needs_decision] marks maps that remote-write transactions may
    target on clients lacking the generator's read set (§4.1 case C):
    commit records writing them get follow-up decision records. *)
val attach :
  ?mode:[ `Inline | `Indexed ] -> ?needs_decision:bool -> Tango.Runtime.t -> oid:int -> t
val oid : t -> int

(** [put t k v]: linearizable put (buffered inside transactions).
    Conflicts only with operations on the same key. *)
val put : t -> string -> string -> unit

(** [remove t k]: delete the binding. *)
val remove : t -> string -> unit

(** [get t k]: linearizable (or in-tx snapshot) lookup. *)
val get : t -> string -> string option

(** [mem t k] = [get t k <> None] without fetching indexed values. *)
val mem : t -> string -> bool

val size : t -> int

(** Current bindings (inline values or fetched). Linearizable. *)
val bindings : t -> (string * string) list

(** [remote_put rt ~oid k v]: write into a map that [rt] does not
    host — inside a transaction this is the §4.1 remote write; outside
    it is a plain blind update. *)
val remote_put : Tango.Runtime.t -> oid:int -> string -> string -> unit

(** [coarse_put t k v]: like {!put} but versioned against the whole
    object instead of the key — any concurrent transactional read of
    the map conflicts with it (the §3.2 versioning ablation). *)
val coarse_put : t -> string -> string -> unit

(** The map's wire format, for alternate views sharing its stream
    (§3.1): decode an update record's opaque buffer. Pass the [key]
    the runtime handed the apply callback: when it is [Some k], only
    the value is decoded and the key is [k]. *)
val wire_decode : ?key:string -> bytes -> [ `Put of string * string | `Remove of string ]

(** [serve_reads t] exposes this view to peers' remote reads
    ({!Tango.Runtime.expose_read}); pair with {!get_remote} on the
    reading side. *)
val serve_reads : t -> unit

(** [get_remote rt ~oid k] reads key [k] of an unhosted map through a
    connected peer, inside the current transaction (§4.1 D). *)
val get_remote : Tango.Runtime.t -> oid:int -> string -> string option

(** [get_at t ~upto k]: a historical read of the state as of global
    log offset [upto] (§3.1, History). Use on a fresh view; it never
    advances it past [upto]. *)
val get_at : t -> upto:Corfu.Types.offset -> string -> string option

(** [transfer ~from_map ~to_map key] atomically moves a binding
    between two maps — the paper's cross-partition transaction
    (Figure 10, Middle). Both maps must live on the same runtime; the
    destination may be remote (unhosted). Returns [false] if the key
    was absent or the transaction lost a conflict. *)
val transfer : from_map:t -> to_map_oid:int -> string -> bool
