(* Text rendering of the milestone stream: one line per Announce event,
   to stderr, or to a buffer while capturing so a test can compare two
   runs byte for byte. *)

let out : Format.formatter option ref = ref None

let pp_detail ppf (ev : Announce.event) =
  let p fmt = Format.fprintf ppf fmt in
  match ev with
  | Append_acked { offset; streams; _ } ->
      p " @%d streams [%s]" offset (String.concat "," (List.map string_of_int streams))
  | Offset_readable { offset = n; _ }
  | Hole_filled { offset = n; _ }
  | Commit_applied { pos = n; _ } ->
      p " @%d" n
  | Tx_begin _ | Node_dead _ -> ()
  | Tx_finish { committed; _ } -> p " %s" (if committed then "committed" else "aborted")
  | Commit_decided { pos; committed; _ } ->
      p " @%d -> %s" pos (if committed then "commit" else "abort")
  | Commit_parked { pos; reads; writes; _ } -> p " @%d (reads %d, writes %d)" pos reads writes
  | Decision_timeout { pos; _ } -> p " @%d: reconstructing from the log" pos
  | Epoch_adopted { epoch; _ } -> p " epoch %d" epoch
  | Reconfig_installed { kind; epoch } -> p " %s epoch %d" kind epoch
  | Tail_rebuilt { epoch; tail; scanned } ->
      p " epoch %d: tail %d after scanning %d entries" epoch tail scanned
  | Prefix_lost { segment; set } -> p " set %d of segment %d" set segment
  | Reconfig_started { kind = s }
  | Fault_injected { detail = s; _ }
  | Fault_repaired { detail = s; _ }
  | Custom_fault { name = s } ->
      p " %s" s
  | Action_skipped { action = a; reason = b } | Spec_fired { spec = a; detail = b } ->
      p " %s: %s" a b
  | Slo_alert { monitor; firing; burn_fast } ->
      p " %s %s (fast burn %.2f)" monitor (if firing then "firing" else "resolved") burn_fast

let render ev =
  let ppf = match !out with Some p -> p | None -> Format.err_formatter in
  let clock = try Engine.now () with Invalid_argument _ -> 0. in
  let fiber = try Engine.fiber_id () with Invalid_argument _ -> -1 in
  let span =
    if not (Span.enabled ()) then ""
    else
      match (try Span.current () with Invalid_argument _ -> None) with
      | Some id -> Printf.sprintf " s%-5d" (Span.id_int id)
      | None -> Printf.sprintf " %-6s" "-"
  in
  let component, tag = Announce.classify ev in
  Format.fprintf ppf "[%12.1f] f%-4d%s %-14s %-10s %s%a@." clock fiber span (Announce.host ev)
    component tag pp_detail ev

let sink = Announce.sink render

let () =
  match Sys.getenv_opt "TANGO_TRACE" with
  | Some ("1" | "true") -> Announce.arm sink true
  | _ -> ()

let capture fn =
  let buf = Buffer.create 4096 in
  let ppf = Format.formatter_of_buffer buf in
  let saved_armed = sink.armed in
  let saved_out = !out in
  Announce.arm sink true;
  out := Some ppf;
  let r =
    Fun.protect
      ~finally:(fun () ->
        Format.pp_print_flush ppf ();
        Announce.arm sink saved_armed;
        out := saved_out)
      fn
  in
  (r, Buffer.contents buf)
