type incident = {
  inc_epoch : Corfu.Types.epoch;
  inc_dead : string;
  inc_spare : string;
  inc_crashed_us : float;
  inc_detected_us : float;
  inc_recovered_us : float;
  inc_unavailable_us : float;
  inc_rebuild_entries : int;
  inc_rebuild_bytes : int;
}

let install ?seed ?(plan = []) cluster =
  let f = Sim.Fault.create ?seed () in
  Sim.Net.install_fault (Corfu.Cluster.net cluster) f;
  if plan <> [] then Sim.Fault.plan f plan;
  f

(* A recovery's incident starts at the crash that caused it: the latest
   crash of the dead host at or before the recovery's seal. A monitor
   replacement of a host that never crashed (false positive, or an SSD
   failure injected outside the controller) starts at detection. *)
let incidents fault cluster =
  let evs = Sim.Fault.events fault in
  let crash_before name t0 =
    let lbl = "crash " ^ name in
    List.fold_left
      (fun acc e ->
        if e.Sim.Fault.ev_label = lbl && e.ev_time <= t0 then Some e.ev_time else acc)
      None evs
  in
  Corfu.Cluster.recoveries cluster
  |> List.map (fun (r : Corfu.Cluster.recovery) ->
         let crashed =
           match crash_before r.rec_dead r.rec_started_us with
           | Some t -> t
           | None -> r.rec_started_us
         in
         {
           inc_epoch = r.rec_epoch;
           inc_dead = r.rec_dead;
           inc_spare = r.rec_spare;
           inc_crashed_us = crashed;
           inc_detected_us = r.rec_started_us;
           inc_recovered_us = r.rec_installed_us;
           inc_unavailable_us = r.rec_installed_us -. crashed;
           inc_rebuild_entries = r.rec_copied_entries;
           inc_rebuild_bytes = r.rec_copied_bytes;
         })

let pp_incident ppf i =
  Format.fprintf ppf
    "%s -> %s (epoch %d): crash %.0fus, detected +%.0fus, recovered +%.0fus \
     (window %.1fms), rebuilt %d entries / %d bytes"
    i.inc_dead i.inc_spare i.inc_epoch i.inc_crashed_us
    (i.inc_detected_us -. i.inc_crashed_us)
    (i.inc_recovered_us -. i.inc_crashed_us)
    (i.inc_unavailable_us /. 1_000.)
    i.inc_rebuild_entries i.inc_rebuild_bytes

type recorder = {
  mutable last_us : float;
  mutable max_gap_us : float;
  mutable gap_at_us : float;
  mutable completions : int;
  stall_threshold_us : float;  (* infinity = never a stall *)
}

let recorder ?(stall_threshold_us = infinity) () =
  {
    last_us = Sim.Engine.now ();
    max_gap_us = 0.;
    gap_at_us = 0.;
    completions = 0;
    stall_threshold_us;
  }

let note r =
  let now = Sim.Engine.now () in
  let gap = now -. r.last_us in
  if gap > r.max_gap_us then begin
    (* Snapshot only on a new worst gap past the threshold, so a long
       outage produces one flight capture, not one per completion. *)
    if gap > r.stall_threshold_us then begin
      if Sim.Announce.active () then Sim.Announce.emit (Sim.Announce.Chaos_stall { gap_us = gap });
      Sim.Flight.snapshot ~reason:"chaos-stall"
    end;
    r.max_gap_us <- gap;
    r.gap_at_us <- r.last_us
  end;
  r.last_us <- now;
  r.completions <- r.completions + 1

let max_gap_us r = r.max_gap_us
let max_gap_start_us r = r.gap_at_us
let completions r = r.completions
