(* The simulator's one milestone stream.

   Protocol, fault-plane and harness code report every milestone here
   as one typed [event]; nothing else is a milestone producer. Two
   kinds of consumer play the stream back, in this order: sticky sinks
   (the Flight recorder and the Trace text renderer), which are armed
   once and survive engine resets, and per-run subscribers (the spec
   machines), which a new Engine.run drops. Producers guard every
   emission with [active ()], so a run with nothing armed pays one
   branch and allocates nothing. *)

type event =
  | Append_acked of { client : string; offset : int; streams : int list }
  | Offset_readable of { client : string; offset : int }
  | Tx_begin of { client : string }
  | Tx_finish of { client : string; committed : bool }
  | Commit_decided of { client : string; pos : int; committed : bool }
  | Commit_applied of { client : string; pos : int }
  | Commit_parked of { client : string; pos : int; reads : int; writes : int }
  | Decision_timeout of { client : string; pos : int }
  | Epoch_adopted of { client : string; epoch : int }
  | Hole_filled of { client : string; offset : int }
  | Reconfig_started of { kind : string }
  | Reconfig_installed of { kind : string; epoch : int }
  | Tail_rebuilt of { epoch : int; tail : int; scanned : int }
  | Prefix_lost of { segment : int; set : int }
  | Node_dead of { node : string }
  | Fault_injected of { key : string; host : string; detail : string }
  | Fault_repaired of { key : string; host : string; detail : string }
  | Custom_fault of { name : string }
  | Action_skipped of { action : string; reason : string }
  | Spec_fired of { spec : string; detail : string }
  | Slo_alert of { monitor : string; firing : bool; burn_fast : float }

let no_host = "-"

let host = function
  | Append_acked { client = h; _ }
  | Offset_readable { client = h; _ }
  | Tx_begin { client = h }
  | Tx_finish { client = h; _ }
  | Commit_decided { client = h; _ }
  | Commit_applied { client = h; _ }
  | Commit_parked { client = h; _ }
  | Decision_timeout { client = h; _ }
  | Epoch_adopted { client = h; _ }
  | Hole_filled { client = h; _ }
  | Node_dead { node = h }
  | Fault_injected { host = h; _ }
  | Fault_repaired { host = h; _ } ->
      h
  | _ -> no_host

let classify = function
  | Append_acked _ -> ("corfu", "append-acked")
  | Offset_readable _ -> ("corfu", "offset-readable")
  | Epoch_adopted _ -> ("corfu", "epoch-adopted")
  | Hole_filled _ -> ("corfu", "hole-filled")
  | Tx_begin _ -> ("tango", "tx-begin")
  | Tx_finish _ -> ("tango", "tx-finish")
  | Commit_decided _ -> ("tango", "commit-decided")
  | Commit_applied _ -> ("tango", "commit-applied")
  | Commit_parked _ -> ("tango", "commit-parked")
  | Decision_timeout _ -> ("tango", "decision-timeout")
  | Reconfig_started _ -> ("reconfig", "reconfig-started")
  | Reconfig_installed _ -> ("reconfig", "reconfig-installed")
  | Tail_rebuilt _ -> ("reconfig", "tail-rebuilt")
  | Prefix_lost _ -> ("reconfig", "prefix-lost")
  | Node_dead _ -> ("monitor", "node-dead")
  | Fault_injected _ -> ("fault", "fault-injected")
  | Fault_repaired _ -> ("fault", "fault-repaired")
  | Custom_fault _ -> ("fault", "custom-fault")
  | Action_skipped _ -> ("fuzz", "action-skipped")
  | Spec_fired _ -> ("spec", "spec-fired")
  | Slo_alert _ -> ("slo", "slo-alert")

(* -- sticky sinks ------------------------------------------------------ *)

type sink = { deliver : event -> unit; mutable armed : bool }

let sinks : sink array ref = ref [||]  (* registration order *)
let n_armed = ref 0

let sink deliver =
  let s = { deliver; armed = false } in
  sinks := Array.append !sinks [| s |];
  s

let arm s b =
  if s.armed <> b then begin
    s.armed <- b;
    n_armed := !n_armed + if b then 1 else -1
  end

(* -- per-run subscribers ----------------------------------------------- *)

(* Subscribers of an earlier run are stale: neither counted nor called. *)
let subs : (event -> unit) array ref Engine.per_run = Engine.per_run (fun () -> ref [||])

let subscribe f =
  let s = Engine.this_run subs in
  s := Array.append !s [| f |]

let active () = !n_armed > 0 || Array.length !(Engine.this_run subs) > 0

let emit ev =
  Array.iter (fun s -> if s.armed then s.deliver ev) !sinks;
  Array.iter (fun f -> f ev) !(Engine.this_run subs)
