(** Global invariant oracles for the simulation fuzzer (DESIGN.md §9).

    Each oracle is a {e pure} function from post-run observations to a
    list of violations; the fuzz harness ({!Fuzz}) collects the
    observations with a fresh observer client after the workload and
    every scheduled fault have settled. Purity keeps the oracles
    unit-testable on hand-built histories and lets the shrinker re-run
    them cheaply against candidate plans. *)

type violation = { v_oracle : string; v_detail : string }

val pp_violation : Format.formatter -> violation -> unit

(** [durability ~acked ~read]: every append acked to a client survives
    — [read off] (the observer's resolved read) returns exactly the
    acked payload. [read] returns [None] for junk/unreadable slots. *)
val durability : acked:(Corfu.Types.offset * bytes) list -> read:(Corfu.Types.offset -> bytes option) -> violation list

(** [hole_freedom ~tail ~resolve]: after settling, every offset below
    the observer's tail resolves to data or junk — the committed
    prefix has no stuck holes. *)
val hole_freedom :
  tail:Corfu.Types.offset -> resolve:(Corfu.Types.offset -> [ `Data | `Junk | `Unresolved ]) -> violation list

(** [stream_order ~acked ~views]: per-stream total order. [views] is
    each client's post-sync playback — [(client, [(stream, member
    offsets in playback order)])]. Checks that every view is strictly
    increasing, that all clients play identical sequences, and that
    every acked [(stream, offset)] appears in every view. *)
val stream_order :
  acked:(Corfu.Types.stream_id * Corfu.Types.offset) list ->
  views:(string * (Corfu.Types.stream_id * Corfu.Types.offset list) list) list ->
  violation list

(** [convergence ~states]: all clients' canonical object-state
    renderings agree after a full sync. *)
val convergence : states:(string * string) list -> violation list

(** One transaction's visibility probe: the unique marker it wrote to
    both objects, the outcome the client was told, and whether the
    marker is visible in each object after settling. *)
type tx_probe = {
  t_tag : string;
  t_committed : bool;
  t_in_map : bool;
  t_in_set : bool;
}

(** [atomicity ~txs]: committed transactions are fully visible, aborted
    ones fully invisible — no torn or leaking transactions. *)
val atomicity : txs:tx_probe list -> violation list

(** [replication ~chain_length proj]: after settling, every chain of
    every live segment of [proj] is back at [chain_length] — each
    storage replacement's restore has run, so no acked entry rests on
    a single replica. *)
val replication : chain_length:int -> Corfu.Projection.t -> violation list
