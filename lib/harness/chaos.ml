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

type op =
  | Replace_sequencer
  | Scale_out of int
  | Scale_in of int
  | Ssd_fail of string
  | Ssd_repair of string

let name_of_op = function
  | Replace_sequencer -> "replace-sequencer"
  | Scale_out k -> "scale-out " ^ string_of_int k
  | Scale_in k -> "scale-in " ^ string_of_int k
  | Ssd_fail h -> "ssd-fail " ^ h
  | Ssd_repair h -> "ssd-repair " ^ h

(* The one parser of custom-action names. A count is written the way
   [name_of_op] writes it, so every op has exactly one name. *)
let op_of_name name =
  let count k =
    match int_of_string_opt k with
    | Some n when n >= 1 && String.equal (string_of_int n) k -> Some n
    | _ -> None
  in
  match String.split_on_char ' ' name with
  | [ "replace-sequencer" ] -> Some Replace_sequencer
  | [ "scale-out"; k ] -> Option.map (fun n -> Scale_out n) (count k)
  | [ "scale-in"; k ] -> Option.map (fun n -> Scale_in n) (count k)
  | [ "ssd-fail"; h ] when h <> "" -> Some (Ssd_fail h)
  | [ "ssd-repair"; h ] when h <> "" -> Some (Ssd_repair h)
  | _ -> None

let custom op = Sim.Fault.Custom (name_of_op op)

let op_exn name =
  match op_of_name name with
  | Some op -> op
  | None -> invalid_arg (Printf.sprintf "Chaos: unknown custom action %S" name)

let validate_plan = List.iter (function _, Sim.Fault.Custom n -> ignore (op_exn n : op) | _ -> ())

let find_node cluster name =
  Array.find_opt
    (fun n -> String.equal (Corfu.Storage_node.name n) name)
    (Corfu.Cluster.storage_nodes cluster)

let tail_members cluster =
  let proj = Corfu.Auxiliary.latest (Corfu.Cluster.auxiliary cluster) in
  Array.fold_left
    (fun acc chain -> acc + Array.length chain)
    0 (Corfu.Projection.tail_segment proj).Corfu.Projection.seg_sets

(* The controller's interpreter. It must not suspend, so cluster
   reconfigurations run in spawned fibers, serialized against the
   failure monitor by the cluster's reconfiguration lock. An op the
   cluster cannot honour is announced as skipped. *)
let run_op cluster op =
  let skipped reason =
    if Sim.Announce.active () then
      Sim.Announce.emit (Sim.Announce.Action_skipped { action = name_of_op op; reason })
  in
  match op with
  | Replace_sequencer ->
      Sim.Engine.spawn (fun () -> ignore (Corfu.Cluster.replace_sequencer cluster))
  | Scale_out k ->
      Sim.Engine.spawn (fun () ->
          if (tail_members cluster + k) mod 2 = 0 then
            ignore (Corfu.Cluster.scale_out cluster ~add_servers:k)
          else skipped "odd tail geometry")
  | Scale_in k ->
      Sim.Engine.spawn (fun () ->
          let members = tail_members cluster in
          if members - k >= 2 && (members - k) mod 2 = 0 then
            ignore (Corfu.Cluster.scale_in cluster ~remove_servers:k)
          else skipped (Printf.sprintf "tail has %d members" members))
  | Ssd_fail node -> (
      match find_node cluster node with
      | Some n -> Sim.Resource.fail (Corfu.Storage_node.ssd n)
      | None -> skipped "node not in cluster")
  | Ssd_repair node -> (
      match find_node cluster node with
      | Some n ->
          let ssd = Corfu.Storage_node.ssd n in
          if Sim.Resource.failed ssd then Sim.Resource.repair ssd
      | None -> skipped "node not in cluster")

let install ?seed ?(plan = []) cluster =
  let f = Sim.Fault.create ?seed ~custom:(fun name -> run_op cluster (op_exn name)) () in
  Sim.Net.install_fault (Corfu.Cluster.net cluster) f;
  if plan <> [] then Sim.Fault.plan f plan;
  f

(* {!Sim.Fault.apply} ignores a restart, heal or clear whose fault is
   no longer in force; an SSD repair is a custom the controller cannot
   see into, so it is guarded here. *)
let make_whole fault cluster plan =
  List.iter
    (fun (_, action) ->
      match action with
      | Sim.Fault.Crash h -> Sim.Fault.apply fault (Sim.Fault.Restart h)
      | Sim.Fault.Partition _ -> Sim.Fault.apply fault Sim.Fault.Heal
      | Sim.Fault.Degrade { d_src; d_dst; _ } ->
          Sim.Fault.apply fault (Sim.Fault.Clear_edge (d_src, d_dst))
      | Sim.Fault.Custom name -> (
          match op_of_name name with
          | Some (Ssd_fail h) -> (
              match find_node cluster h with
              | Some n when Sim.Resource.failed (Corfu.Storage_node.ssd n) ->
                  Sim.Fault.apply fault (custom (Ssd_repair h))
              | _ -> ())
          | _ -> ())
      | Sim.Fault.Restart _ | Sim.Fault.Heal | Sim.Fault.Clear_edge _ -> ())
    plan

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

type recorder = { mutable last_us : float; mutable max_gap_us : float }

let recorder () = { last_us = Sim.Engine.now (); max_gap_us = 0. }

let note r =
  let now = Sim.Engine.now () in
  let gap = now -. r.last_us in
  if gap > r.max_gap_us then r.max_gap_us <- gap;
  r.last_us <- now

let max_gap_us r = r.max_gap_us
