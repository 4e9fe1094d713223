type item = { mutable value : string; mutable version : int; mutable locked_by : int option }

type node = {
  name : string;
  host : Sim.Net.host;
  items : (string, item) Hashtbl.t;
  read_svc : (string, string * int) Sim.Net.service;
  lock_read_svc : (int * (string * int) list, bool) Sim.Net.service;
  lock_write_svc : (int * string list, (string * int) list option) Sim.Net.service;
  commit_svc : (int * (string * string) list, unit) Sim.Net.service;
  unlock_svc : (int * string list, unit) Sim.Net.service;
}

type t = { fabric : Sim.Net.t; ts_host : Sim.Net.host; ts_svc : (unit, int) Sim.Net.service }

let service_us = 2.

let create ~net =
  let ts_host = Sim.Net.add_host ~cores:32 net "2pl-timestamp-server" in
  let counter = ref 0 in
  let counter_cpu = Sim.Resource.create ~name:"2pl-ts.counter" ~capacity:1 () in
  let ts_svc =
    Sim.Net.service ts_host ~name:"timestamp" (fun () ->
        Sim.Resource.use counter_cpu 1.75;
        incr counter;
        !counter)
  in
  { fabric = net; ts_host; ts_svc }

let find_item node key =
  match Hashtbl.find_opt node.items key with
  | Some it -> it
  | None ->
      let it = { value = ""; version = -1; locked_by = None } in
      Hashtbl.replace node.items key it;
      it

let lock_one node ts key =
  let it = find_item node key in
  match it.locked_by with
  | None ->
      it.locked_by <- Some ts;
      true
  | Some owner -> owner = ts (* reentrant for the same transaction *)

let unlock_one node ts key =
  let it = find_item node key in
  if it.locked_by = Some ts then it.locked_by <- None

let add_node t ~name =
  let host = Sim.Net.add_host t.fabric name in
  let charge () = Sim.Resource.use (Sim.Net.host_cpu host) service_us in
  let rec node =
    lazy
      {
        name;
        host;
        items = Hashtbl.create 1024;
        read_svc =
          Sim.Net.service host ~name:"read" (fun key ->
              charge ();
              let it = find_item (Lazy.force node) key in
              (it.value, it.version));
        lock_read_svc =
          (* Lock each read item and validate its version is still the
             one the transaction observed. *)
          Sim.Net.service host ~name:"lock-read" (fun (ts, keyed_versions) ->
              charge ();
              let node = Lazy.force node in
              let rec go locked = function
                | [] -> true
                | (key, expected) :: rest ->
                    let it = find_item node key in
                    if lock_one node ts key && it.version = expected then
                      go (key :: locked) rest
                    else begin
                      List.iter (unlock_one node ts) locked;
                      unlock_one node ts key;
                      false
                    end
              in
              go [] keyed_versions);
        lock_write_svc =
          Sim.Net.service host ~name:"lock-write" (fun (ts, keys) ->
              charge ();
              let node = Lazy.force node in
              let rec go locked acc = function
                | [] -> Some (List.rev acc)
                | key :: rest ->
                    if lock_one node ts key then
                      go (key :: locked) ((key, (find_item node key).version) :: acc) rest
                    else begin
                      List.iter (unlock_one node ts) locked;
                      None
                    end
              in
              go [] [] keys);
        commit_svc =
          Sim.Net.service host ~name:"commit" (fun (ts, writes) ->
              charge ();
              let node = Lazy.force node in
              List.iter
                (fun (key, value) ->
                  let it = find_item node key in
                  it.value <- value;
                  it.version <- ts;
                  it.locked_by <- None)
                writes);
        unlock_svc =
          Sim.Net.service host ~name:"unlock" (fun (ts, keys) ->
              charge ();
              List.iter (unlock_one (Lazy.force node) ts) keys);
      }
  in
  Lazy.force node

let node_name n = n.name
let read ~from target key = Sim.Net.call ~from:from.host target.read_svc key
let peek node key = Option.map (fun it -> it.value) (Hashtbl.find_opt node.items key)

(* Group a keyed list by target node, preserving order within groups. *)
let group_by_node pairs =
  let tbl = Hashtbl.create 8 in
  let order = ref [] in
  List.iter
    (fun (node, payload) ->
      match Hashtbl.find_opt tbl node.name with
      | Some (n, l) -> Hashtbl.replace tbl node.name (n, payload :: l)
      | None ->
          order := node :: !order;
          Hashtbl.replace tbl node.name (node, [ payload ]))
    pairs;
  List.rev_map
    (fun node ->
      let n, l = Hashtbl.find tbl node.name in
      (n, List.rev l))
    !order

let execute t ~from ~reads ~writes =
  let ts = Sim.Net.call ~from:from.host t.ts_svc () in
  let ts_of_read (node, key, version) = (node, (key, version)) in
  let read_groups = group_by_node (List.map ts_of_read reads) in
  let write_groups = group_by_node (List.map (fun (n, k, v) -> (n, (k, v))) writes) in
  let unlock_reads ts upto =
    List.iteri
      (fun i (node, kvs) ->
        if i < upto then
          Sim.Net.call ~from:from.host node.unlock_svc (ts, List.map fst kvs))
      read_groups
  in
  let unlock_writes ts upto =
    List.iteri
      (fun i (node, kvs) ->
        if i < upto then
          Sim.Net.call ~from:from.host node.unlock_svc (ts, List.map fst kvs))
      write_groups
  in
  (* Phase 1: lock + validate the read set. *)
  let rec lock_reads i = function
      | [] -> true
      | (node, kvs) :: rest ->
          if Sim.Net.call ~from:from.host node.lock_read_svc (ts, kvs) then
            lock_reads (i + 1) rest
          else begin
            unlock_reads ts i;
            false
          end
    in
    (* Phase 2: lock the write set, collecting latest versions. *)
    let rec lock_writes i = function
      | [] -> Some []
      | (node, kvs) :: rest -> (
          match Sim.Net.call ~from:from.host node.lock_write_svc (ts, List.map fst kvs) with
          | Some versions -> (
              match lock_writes (i + 1) rest with
              | Some more -> Some (versions @ more)
              | None -> None)
          | None ->
              unlock_writes ts i;
              None)
    in
    if not (lock_reads 0 read_groups) then false
    else
      match lock_writes 0 write_groups with
      | None ->
          unlock_reads ts (List.length read_groups);
          false
      | Some versions ->
          if List.exists (fun (_, v) -> v > ts) versions then begin
            (* Write-write conflict: someone committed past our ts. *)
            unlock_writes ts (List.length write_groups);
            unlock_reads ts (List.length read_groups);
            false
          end
          else begin
            List.iter
              (fun (node, kvs) -> Sim.Net.call ~from:from.host node.commit_svc (ts, kvs))
              write_groups;
            unlock_reads ts (List.length read_groups);
            true
          end
