(** Minimal deterministic JSON emitter.

    The toolchain has no JSON library, and the observability plane
    ({!Metrics} snapshots, {!Span} timelines, harness run reports) only
    needs to {e write} JSON, never parse it. Output is canonical for a
    given call sequence — no hash-order iteration, fixed float
    formatting — so byte-for-byte comparison of two dumps is a valid
    determinism check. *)

(** [str s] is [s] quoted and escaped as a JSON string literal. *)
val str : string -> string

(** [flt v] formats [v] as a JSON number. Integers up to 2^53 print
    without an exponent; non-finite values print as [null] (JSON has
    no representation for them). *)
val flt : float -> string

(** [exact v] formats a finite [v] so that it parses back to the same
    double: integers up to 2^53 without an exponent, anything else at
    17 significant digits. Documents that must re-run bit for bit
    (fault plans, scenarios) write their floats with it. *)
val exact : float -> string

(** [obj fields] is [{"k": v, ...}] with fields in the given order;
    values must already be serialized JSON. *)
val obj : (string * string) list -> string

(** [arr items] is [[v, ...]]; items must already be serialized. *)
val arr : string list -> string
