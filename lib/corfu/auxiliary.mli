(** The auxiliary: a tiny, reliable projection store.

    CORFU keeps the sequence of projections in an external consensus
    service consulted only during reconfiguration. We model it as a
    single always-up host exposing a write-once-per-epoch register:
    [propose] installs a projection if and only if its epoch is
    exactly one past the latest, otherwise the caller learns the
    winning view and retries. Proposing again the projection already
    installed at its epoch (the same {!Projection.layout}) answers
    [Installed] and changes nothing, so a proposer whose answer was
    lost can resend. This serializes concurrent
    reconfigurations without modelling a full Paxos group, which the
    paper also treats as a given.

    Clients that hit a sealed epoch do not poll: {!await_service}
    parks them until the view that closed the old epoch is installed
    (CORFU §2.2 / Tango §5 reconfiguration). *)

type t

type propose_result = Installed | Conflict of Projection.t

(** An epoch watch: wait for a view of epoch [>= at_least], at most
    [wait_us] µs. *)
type await_request = { at_least : Types.epoch; wait_us : float }

val create : net:Sim.Net.t -> initial:Projection.t -> t

val propose_service : t -> (Projection.t, propose_result) Sim.Net.service

(** The epoch watch. Answers at once with the newest projection when
    its epoch is [>= at_least] (so [at_least = 0] simply fetches the
    newest view); otherwise parks the caller until a
    [propose] installs such a view (parked callers wake in arrival
    order). After [wait_us] the newest projection is returned anyway,
    so a reconfiguration that never installs cannot wedge a client.
    The service declares that hold ([Sim.Net.service ~hold]), so a
    watch's deadline is [wait_us] plus the fabric's cap. *)
val await_service : t -> (await_request, Projection.t) Sim.Net.service

(** Direct (non-RPC) accessor for tests and bootstrap. *)
val latest : t -> Projection.t
