(** A miniature HDFS namenode over TangoZK + TangoBK (paper §6.3).

    The paper validated its ZooKeeper and BookKeeper implementations
    by running the HDFS namenode on them and demonstrating recovery
    from a reboot and fail-over to a backup. We reproduce the
    architecture of the HDFS high-availability design (HDFS-1623):

    - {e leader election}: an ephemeral znode in TangoZK; the holder
      is the active namenode, others are standbys;
    - {e edit log}: every namespace mutation is an edit appended to a
      TangoBK ledger before being applied to the in-RAM namespace;
      each active term writes its own ledger, registered in TangoZK;
    - {e recovery}: a (re)starting namenode replays every registered
      ledger to rebuild the namespace, then campaigns for leadership.

    Block contents live on (simulated) datanodes and are out of
    scope — the namenode tracks block {e ids} only, as the real one
    tracks block metadata. *)

type t

type error = Not_active | Exists | Missing | Not_dir

(** [start runtime ~name ~zk_oid ~bk_oid] boots a namenode: replays
    the existing edit history, then campaigns. Check {!is_active}. *)
val start : Tango.Runtime.t -> name:string -> zk_oid:int -> bk_oid:int -> t

val name : t -> string

(** Whether this instance currently holds the leader lock. *)
val is_active : t -> bool

(** [campaign t] (re)attempts to become active; returns the new
    status. Standbys call this after the active's session closes. *)
val campaign : t -> bool

(** [crash t] simulates failure: closes the ZK session (dropping the
    leader lock) and discards in-RAM state. The instance is dead
    afterwards; [start] a new one. *)
val crash : t -> unit

(** {2 Namespace operations (active only)} *)

val mkdir : t -> string -> (unit, error) result
val create_file : t -> string -> (unit, error) result

(** [add_block t path] allocates a fresh block id and appends it to
    the file. *)
val add_block : t -> string -> (int, error) result

val delete : t -> string -> (unit, error) result

(** {2 Read-only queries (any instance, after {!refresh})} *)

(** [refresh t] replays any new edits — standbys tail the log. *)
val refresh : t -> unit

val ls : t -> string -> string list option
val file_blocks : t -> string -> int list option
val exists : t -> string -> bool

(** Number of edits this instance has applied (for tests). *)
val edits_applied : t -> int
