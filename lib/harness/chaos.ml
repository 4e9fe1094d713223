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
   crash of the dead host at or before the recovery's seal, and ends
   when the degraded epoch installs, which is when clients resume. A
   monitor replacement of a host that never crashed (false positive,
   or an SSD failure injected outside the controller) starts at
   detection. The rebuild volume is what the restores onto its spare
   copied. *)
let incidents fault cluster =
  let evs = Sim.Fault.events fault in
  let crash_before name t0 =
    let lbl = "crash " ^ name in
    List.fold_left
      (fun acc e ->
        if e.Sim.Fault.ev_label = lbl && e.ev_time <= t0 then Some e.ev_time else acc)
      None evs
  in
  let reconfigs = Corfu.Cluster.reconfigs cluster in
  let rebuilt onto =
    List.fold_left
      (fun (entries, bytes) (r : Corfu.Cluster.reconfig) ->
        match r.rc_change with
        | Replication_restored { spare; copied_entries; copied_bytes } when spare = onto ->
            (entries + copied_entries, bytes + copied_bytes)
        | _ -> (entries, bytes))
      (0, 0) reconfigs
  in
  List.filter_map
    (fun (r : Corfu.Cluster.reconfig) ->
      match r.rc_change with
      | Storage_replaced { dead; spare } ->
          let crashed =
            match crash_before dead r.rc_started_us with Some t -> t | None -> r.rc_started_us
          in
          let entries, bytes = rebuilt spare in
          Some
            {
              inc_epoch = r.rc_epoch;
              inc_dead = dead;
              inc_spare = spare;
              inc_crashed_us = crashed;
              inc_detected_us = r.rc_started_us;
              inc_recovered_us = r.rc_installed_us;
              inc_unavailable_us = r.rc_installed_us -. crashed;
              inc_rebuild_entries = entries;
              inc_rebuild_bytes = bytes;
            }
      | _ -> None)
    reconfigs

type recorder = {
  mutable last_us : float;
  mutable max_gap_us : float;
  mutable completions : int;
  stall_threshold_us : float;  (* infinity = never a stall *)
}

let recorder ?(stall_threshold_us = infinity) () =
  {
    last_us = Sim.Engine.now ();
    max_gap_us = 0.;
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
    r.max_gap_us <- gap
  end;
  r.last_us <- now;
  r.completions <- r.completions + 1

let max_gap_us r = r.max_gap_us
