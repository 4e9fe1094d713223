(* Tests for the Tango object library. *)

open Tango_objects

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_str_opt = Alcotest.(check (option string))
let check_str_list = Alcotest.(check (list string))

let with_cluster ?(seed = 9) ?(servers = 4) ?params body =
  Sim.Engine.run ~seed (fun () ->
      let cluster = Corfu.Cluster.create ?params ~servers () in
      body cluster)

let runtime cluster name = Tango.Runtime.create (Corfu.Cluster.new_client cluster ~name)

let zk_ok = function
  | Ok v -> v
  | Error _ -> Alcotest.fail "unexpected zk error"

let bk_ok = function
  | Ok v -> v
  | Error _ -> Alcotest.fail "unexpected bk error"

(* ------------------------------------------------------------------ *)
(* Register                                                           *)
(* ------------------------------------------------------------------ *)

let test_register () =
  with_cluster (fun cluster ->
      let rt1 = runtime cluster "app-1" in
      let rt2 = runtime cluster "app-2" in
      let r1 = Tango_register.attach rt1 ~oid:1 in
      let r2 = Tango_register.attach rt2 ~oid:1 in
      check_int "initial" 0 (Tango_register.read r1);
      Tango_register.write r1 11;
      check_int "other view" 11 (Tango_register.read r2);
      check_bool "position recorded" true (Tango_register.last_update_pos r2 >= 0))

let test_register_history () =
  with_cluster ~params:{ Sim.Params.default with Sim.Params.commit_batch = 1 } (fun cluster ->
      let rt1 = runtime cluster "w" in
      let r1 = Tango_register.attach rt1 ~oid:1 in
      for i = 1 to 8 do
        Tango_register.write r1 i
      done;
      let rt2 = runtime cluster "h" in
      let r2 = Tango_register.attach rt2 ~oid:1 in
      check_int "as of offset 3" 3 (Tango_register.read_at r2 ~upto:3);
      check_int "full" 8 (Tango_register.read r2))

(* ------------------------------------------------------------------ *)
(* Counter                                                            *)
(* ------------------------------------------------------------------ *)

let test_counter_blind_adds () =
  with_cluster (fun cluster ->
      let rts = List.init 3 (fun i -> runtime cluster (Printf.sprintf "app-%d" i)) in
      let counters = List.map (fun rt -> Tango_counter.attach rt ~oid:1) rts in
      List.iter
        (fun c ->
          Sim.Engine.spawn (fun () ->
              for _ = 1 to 10 do
                Tango_counter.incr c
              done))
        counters;
      Sim.Engine.sleep 1_000_000.;
      List.iter (fun c -> check_int "all increments survive" 30 (Tango_counter.get c)) counters)

let test_counter_next_id_unique () =
  with_cluster (fun cluster ->
      let c1 = Tango_counter.attach (runtime cluster "a") ~oid:1 in
      let c2 = Tango_counter.attach (runtime cluster "b") ~oid:1 in
      let ids = ref [] in
      let grab c n =
        Sim.Engine.spawn (fun () ->
            for _ = 1 to n do
              let id = Tango_counter.next_id c in
              ids := id :: !ids
            done)
      in
      grab c1 5;
      grab c2 5;
      Sim.Engine.sleep 3_000_000.;
      let sorted = List.sort compare !ids in
      Alcotest.(check (list int)) "dense and unique" [ 0; 1; 2; 3; 4; 5; 6; 7; 8; 9 ] sorted)

(* ------------------------------------------------------------------ *)
(* Map                                                                *)
(* ------------------------------------------------------------------ *)

let test_map_basics () =
  with_cluster (fun cluster ->
      let m = Tango_map.attach (runtime cluster "app") ~oid:1 in
      check_str_opt "missing" None (Tango_map.get m "k");
      Tango_map.put m "k" "v1";
      check_str_opt "present" (Some "v1") (Tango_map.get m "k");
      Tango_map.put m "k" "v2";
      check_str_opt "updated" (Some "v2") (Tango_map.get m "k");
      Tango_map.put m "j" "w";
      check_int "size" 2 (Tango_map.size m);
      Alcotest.(check (list (pair string string)))
        "bindings" [ ("j", "w"); ("k", "v2") ] (Tango_map.bindings m);
      Tango_map.remove m "k";
      check_bool "removed" false (Tango_map.mem m "k"))

let test_map_keyed_unkeyed_apply_agree () =
  (* A keyed apply takes the key the runtime passes and decodes only
     the value; an unkeyed one (coarse_put) decodes both. Both, and a
     remove after either, must leave the same state, live and replayed
     by a fresh runtime, in either view mode — and so must an index
     attached beside each map, which decodes the same way. *)
  List.iter
    (fun mode ->
      with_cluster (fun cluster ->
          let rt = runtime cluster "app" in
          let keyed = Tango_map.attach ~mode rt ~oid:1 in
          let unkeyed = Tango_map.attach ~mode rt ~oid:2 in
          let keyed_idx = Tango_map_index.attach rt ~oid:1 in
          let unkeyed_idx = Tango_map_index.attach rt ~oid:2 in
          List.iter
            (fun (k, v) ->
              Tango_map.put keyed k v;
              Tango_map.coarse_put unkeyed k v)
            [ ("a", "1"); ("b", "2"); ("a", "3"); ("c", ""); ("b", "4") ];
          Tango_map.remove keyed "b";
          Tango_map.remove unkeyed "b";
          let expected = [ ("a", "3"); ("c", "") ] in
          let check what m =
            Alcotest.(check (list (pair string string))) what expected (Tango_map.bindings m)
          in
          check "keyed" keyed;
          check "unkeyed" unkeyed;
          List.iter
            (fun (what, idx) ->
              List.iter
                (fun (v, keys) ->
                  check_str_list (Printf.sprintf "%s index: keys with %S" what v) keys
                    (Tango_map_index.keys_with_value idx v))
                [ ("1", []); ("2", []); ("3", [ "a" ]); ("", [ "c" ]); ("4", []) ];
              check_str_list (what ^ " index: key range") [ "a"; "c" ]
                (Tango_map_index.key_range idx ~lo:"a" ~hi:"z"))
            [ ("keyed", keyed_idx); ("unkeyed", unkeyed_idx) ];
          let rt2 = runtime cluster "replay" in
          check "keyed, replayed" (Tango_map.attach ~mode rt2 ~oid:1);
          check "unkeyed, replayed" (Tango_map.attach ~mode rt2 ~oid:2)))
    [ `Inline; `Indexed ]

(* An indexed view keeps one log position per key, and every write of a
   commit record shares the record's position: the fetch must return
   the last write of the key being read, never the record's first
   write to the map. *)
let test_map_indexed_multi_put_commit () =
  with_cluster (fun cluster ->
      let rt = runtime cluster "writer" in
      let m = Tango_map.attach rt ~oid:1 in
      Tango.Runtime.begin_tx rt;
      Tango_map.put m "a" "A";
      Tango_map.put m "b" "B";
      Tango_map.coarse_put m "d" "D";
      Tango_map.coarse_put m "e" "E";
      check_bool "committed" true (Tango.Runtime.end_tx rt = Tango.Runtime.Committed);
      let reader = Tango_map.attach ~mode:`Indexed (runtime cluster "reader") ~oid:1 in
      List.iter
        (fun (k, v) -> check_str_opt k (Some v) (Tango_map.get reader k))
        [ ("a", "A"); ("b", "B"); ("d", "D"); ("e", "E") ])

let test_map_indexed_remove_then_put_commit () =
  with_cluster (fun cluster ->
      let rt = runtime cluster "writer" in
      let m = Tango_map.attach rt ~oid:1 in
      Tango_map.put m "a" "A";
      Tango.Runtime.begin_tx rt;
      Tango_map.remove m "a";
      Tango_map.put m "c" "C";
      Tango_map.put m "c" "C2";
      check_bool "committed" true (Tango.Runtime.end_tx rt = Tango.Runtime.Committed);
      let reader = Tango_map.attach ~mode:`Indexed (runtime cluster "reader") ~oid:1 in
      check_str_opt "removed" None (Tango_map.get reader "a");
      check_str_opt "the commit's last put" (Some "C2") (Tango_map.get reader "c");
      Alcotest.(check (list (pair string string)))
        "bindings" [ ("c", "C2") ] (Tango_map.bindings reader))

let test_map_coarse_put_conflicts () =
  (* A whole-object write versions the map, not the key it names: a
     concurrent transaction that read any key must abort, while a keyed
     put of another key commutes with it. *)
  with_cluster (fun cluster ->
      let rt1 = runtime cluster "app-1" in
      let rt2 = runtime cluster "app-2" in
      let m1 = Tango_map.attach rt1 ~oid:1 in
      let m2 = Tango_map.attach rt2 ~oid:1 in
      Tango_map.put m1 "k" "0";
      check_str_opt "replicated" (Some "0") (Tango_map.get m2 "k");
      let read_k_then_write_x other_write =
        Tango.Runtime.begin_tx rt1;
        ignore (Tango_map.get m1 "k");
        Tango_map.put m1 "x" "1";
        other_write ();
        Tango.Runtime.end_tx rt1
      in
      check_bool "keyed put of another key commutes" true
        (read_k_then_write_x (fun () -> Tango_map.put m2 "other" "v")
        = Tango.Runtime.Committed);
      check_bool "coarse put aborts the keyed read" true
        (read_k_then_write_x (fun () -> Tango_map.coarse_put m2 "other" "w")
        = Tango.Runtime.Aborted);
      check_str_opt "coarse put applied" (Some "w") (Tango_map.get m1 "other");
      check_str_opt "read key untouched" (Some "0") (Tango_map.get m1 "k"))

let test_map_indexed_mode () =
  (* The indexed map stores log positions and fetches values with
     random reads; results must be identical to the inline map. *)
  with_cluster (fun cluster ->
      let writer = Tango_map.attach (runtime cluster "writer") ~oid:1 in
      for i = 0 to 19 do
        Tango_map.put writer (Printf.sprintf "key%d" i) (Printf.sprintf "value%d" i)
      done;
      Tango_map.remove writer "key7";
      let reader = Tango_map.attach ~mode:`Indexed (runtime cluster "reader") ~oid:1 in
      check_str_opt "fetched from log" (Some "value3") (Tango_map.get reader "key3");
      check_str_opt "deleted" None (Tango_map.get reader "key7");
      check_int "size" 19 (Tango_map.size reader);
      check_bool "bindings agree" true (Tango_map.bindings reader = Tango_map.bindings writer))

let test_map_transfer () =
  with_cluster (fun cluster ->
      let rt = runtime cluster "app" in
      let src = Tango_map.attach rt ~oid:1 in
      let dst = Tango_map.attach rt ~oid:2 in
      Tango_map.put src "x" "42";
      check_bool "moves" true (Tango_map.transfer ~from_map:src ~to_map_oid:2 "x");
      check_str_opt "gone" None (Tango_map.get src "x");
      check_str_opt "arrived" (Some "42") (Tango_map.get dst "x");
      check_bool "missing key" false (Tango_map.transfer ~from_map:src ~to_map_oid:2 "nope"))

let test_map_transfer_remote () =
  with_cluster (fun cluster ->
      let rt_src = runtime cluster "src-host" in
      let rt_dst = runtime cluster "dst-host" in
      let src = Tango_map.attach rt_src ~oid:1 in
      let dst = Tango_map.attach rt_dst ~oid:2 in
      Tango_map.put src "x" "payload";
      (* destination map is NOT hosted on rt_src *)
      check_bool "remote move" true (Tango_map.transfer ~from_map:src ~to_map_oid:2 "x");
      check_str_opt "arrived remotely" (Some "payload") (Tango_map.get dst "x"))

(* ------------------------------------------------------------------ *)
(* List                                                               *)
(* ------------------------------------------------------------------ *)

let test_list_order () =
  with_cluster (fun cluster ->
      let l1 = Tango_list.attach (runtime cluster "a") ~oid:1 in
      let l2 = Tango_list.attach (runtime cluster "b") ~oid:1 in
      List.iter (Tango_list.add l1) [ "x"; "y"; "z" ];
      check_str_list "order preserved" [ "x"; "y"; "z" ] (Tango_list.to_list l2);
      Tango_list.remove l2 "y";
      check_str_list "removal replicated" [ "x"; "z" ] (Tango_list.to_list l1);
      check_bool "mem" true (Tango_list.mem l1 "z");
      check_int "length" 2 (Tango_list.length l1))

let test_list_pop_exactly_once () =
  with_cluster (fun cluster ->
      let l0 = Tango_list.attach (runtime cluster "seed") ~oid:1 in
      for i = 0 to 9 do
        Tango_list.add l0 (Printf.sprintf "item%d" i)
      done;
      let popped = ref [] in
      for w = 1 to 2 do
        let l = Tango_list.attach (runtime cluster (Printf.sprintf "worker%d" w)) ~oid:1 in
        Sim.Engine.spawn (fun () ->
            let rec go () =
              match Tango_list.pop l with
              | Some item ->
                  popped := item :: !popped;
                  go ()
              | None -> ()
            in
            go ())
      done;
      Sim.Engine.sleep 5_000_000.;
      check_int "all popped exactly once" 10 (List.length (List.sort_uniq compare !popped));
      check_int "no duplicates" 10 (List.length !popped);
      check_int "list empty" 0 (Tango_list.length l0))

(* ------------------------------------------------------------------ *)
(* Queue                                                              *)
(* ------------------------------------------------------------------ *)

let test_queue_fifo () =
  with_cluster (fun cluster ->
      let q = Tango_queue.attach (runtime cluster "app") ~oid:1 in
      Tango_queue.enqueue q "a";
      Tango_queue.enqueue q "b";
      Tango_queue.enqueue q "c";
      check_str_opt "peek" (Some "a") (Tango_queue.peek q);
      check_int "length" 3 (Tango_queue.length q);
      check_str_opt "1st" (Some "a") (Tango_queue.dequeue q);
      check_str_opt "2nd" (Some "b") (Tango_queue.dequeue q);
      check_str_opt "3rd" (Some "c") (Tango_queue.dequeue q);
      check_str_opt "empty" None (Tango_queue.dequeue q))

let test_queue_remote_producer () =
  (* The producer never hosts the queue (§4.1 case B). *)
  with_cluster (fun cluster ->
      let producer_rt = runtime cluster "producer" in
      let consumer = Tango_queue.attach (runtime cluster "consumer") ~oid:7 in
      Tango_queue.enqueue_remote producer_rt ~oid:7 "job-1";
      Tango_queue.enqueue_remote producer_rt ~oid:7 "job-2";
      check_str_opt "first" (Some "job-1") (Tango_queue.dequeue consumer);
      check_str_opt "second" (Some "job-2") (Tango_queue.dequeue consumer))

let test_queue_competing_consumers () =
  with_cluster (fun cluster ->
      let q0 = Tango_queue.attach (runtime cluster "seed") ~oid:1 in
      for i = 0 to 11 do
        Tango_queue.enqueue q0 (Printf.sprintf "m%02d" i)
      done;
      let got = ref [] in
      for w = 1 to 3 do
        let q = Tango_queue.attach (runtime cluster (Printf.sprintf "c%d" w)) ~oid:1 in
        Sim.Engine.spawn (fun () ->
            let rec go () =
              match Tango_queue.dequeue q with
              | Some item ->
                  got := item :: !got;
                  go ()
              | None -> ()
            in
            go ())
      done;
      Sim.Engine.sleep 5_000_000.;
      check_int "delivered exactly once" 12 (List.length (List.sort_uniq compare !got));
      check_int "no duplicates" 12 (List.length !got))

(* ------------------------------------------------------------------ *)
(* Set                                                                *)
(* ------------------------------------------------------------------ *)

let test_set_ordered_queries () =
  with_cluster (fun cluster ->
      let s = Tango_set.attach (runtime cluster "app") ~oid:1 in
      List.iter (Tango_set.add s) [ "delta"; "alpha"; "charlie"; "bravo" ];
      check_str_opt "min" (Some "alpha") (Tango_set.min_elt s);
      check_str_opt "max" (Some "delta") (Tango_set.max_elt s);
      check_str_list "range" [ "bravo"; "charlie" ] (Tango_set.range s ~lo:"b" ~hi:"d");
      Tango_set.remove s "alpha";
      check_bool "removed" false (Tango_set.mem s "alpha");
      check_int "cardinal" 3 (Tango_set.cardinal s);
      check_str_list "elements sorted" [ "bravo"; "charlie"; "delta" ] (Tango_set.elements s))

(* ------------------------------------------------------------------ *)
(* Map index: an alternate view sharing the map's stream (§3.1)       *)
(* ------------------------------------------------------------------ *)

let test_map_index_alongside () =
  with_cluster (fun cluster ->
      let rt = runtime cluster "app" in
      let m = Tango_map.attach rt ~oid:1 in
      let idx = Tango_map_index.attach rt ~oid:1 in
      Tango_map.put m "/etc/hosts" "cfg";
      Tango_map.put m "/etc/passwd" "cfg";
      Tango_map.put m "/var/log" "data";
      check_str_list "prefix query" [ "/etc/hosts"; "/etc/passwd" ]
        (Tango_map_index.keys_with_prefix idx "/etc");
      check_str_list "inverted index" [ "/etc/hosts"; "/etc/passwd" ]
        (Tango_map_index.keys_with_value idx "cfg");
      Tango_map.remove m "/etc/passwd";
      check_str_list "stays consistent with the map" [ "/etc/hosts" ]
        (Tango_map_index.keys_with_value idx "cfg");
      Tango_map.put m "/etc/hosts" "data";
      check_str_list "rebinding moves the inverted entry" [ "/etc/hosts"; "/var/log" ]
        (Tango_map_index.keys_with_value idx "data");
      check_int "sizes agree" (Tango_map.size m) (Tango_map_index.size idx))

let test_map_index_standalone_client () =
  (* A different client hosts only the index view over the same
     stream: two data structures, one history. *)
  with_cluster (fun cluster ->
      let writer = Tango_map.attach (runtime cluster "writer") ~oid:1 in
      for i = 0 to 9 do
        Tango_map.put writer (Printf.sprintf "user%d" i) (if i mod 2 = 0 then "admin" else "guest")
      done;
      let idx = Tango_map_index.attach (runtime cluster "indexer") ~oid:1 in
      check_int "replayed" 10 (Tango_map_index.size idx);
      check_str_list "admins" [ "user0"; "user2"; "user4"; "user6"; "user8" ]
        (Tango_map_index.keys_with_value idx "admin");
      check_str_list "range" [ "user3"; "user4" ]
        (Tango_map_index.key_range idx ~lo:"user3" ~hi:"user5"))

let test_map_index_in_transactions () =
  with_cluster (fun cluster ->
      let rt = runtime cluster "app" in
      let m = Tango_map.attach rt ~oid:1 in
      let idx = Tango_map_index.attach rt ~oid:1 in
      Tango.Runtime.begin_tx rt;
      Tango_map.put m "a" "x";
      Tango_map.put m "b" "x";
      (match Tango.Runtime.end_tx rt with
      | Tango.Runtime.Committed -> ()
      | Tango.Runtime.Aborted -> Alcotest.fail "tx");
      check_str_list "both views saw the tx atomically" [ "a"; "b" ]
        (Tango_map_index.keys_with_value idx "x"))

(* ------------------------------------------------------------------ *)
(* TangoZK                                                            *)
(* ------------------------------------------------------------------ *)

let zk_pair cluster =
  let z1 = Tango_zk.attach (runtime cluster "zk-1") ~oid:1 in
  let z2 = Tango_zk.attach (runtime cluster "zk-2") ~oid:1 in
  (z1, z2)

let test_zk_create_get_set_delete () =
  with_cluster (fun cluster ->
      let z1, z2 = zk_pair cluster in
      Alcotest.(check string) "created" "/a" (zk_ok (Tango_zk.create z1 "/a" "data0"));
      check_bool "exists on other view" true (Tango_zk.exists z2 "/a");
      (match Tango_zk.get_data z2 "/a" with
      | Some (d, v) ->
          Alcotest.(check string) "data" "data0" d;
          check_int "version 0" 0 v
      | None -> Alcotest.fail "node missing");
      zk_ok (Tango_zk.set_data z2 "/a" "data1");
      (match Tango_zk.get_data z1 "/a" with
      | Some (d, v) ->
          Alcotest.(check string) "new data" "data1" d;
          check_int "version bumped" 1 v
      | None -> Alcotest.fail "node missing");
      zk_ok (Tango_zk.delete z1 "/a");
      check_bool "deleted" false (Tango_zk.exists z2 "/a"))

let test_zk_errors () =
  with_cluster (fun cluster ->
      let z, _ = zk_pair cluster in
      ignore (zk_ok (Tango_zk.create z "/a" ""));
      check_bool "node exists" true (Tango_zk.create z "/a" "" = Error Tango_zk.Node_exists);
      check_bool "no parent" true (Tango_zk.create z "/miss/child" "" = Error Tango_zk.No_node);
      check_bool "no node on set" true (Tango_zk.set_data z "/nope" "" = Error Tango_zk.No_node);
      check_bool "bad version" true
        (Tango_zk.set_data z ~version:7 "/a" "" = Error Tango_zk.Bad_version);
      ignore (zk_ok (Tango_zk.create z "/a/b" ""));
      check_bool "not empty" true (Tango_zk.delete z "/a" = Error Tango_zk.Not_empty);
      check_bool "delete bad version" true
        (Tango_zk.delete z ~version:3 "/a/b" = Error Tango_zk.Bad_version))

let test_zk_children () =
  with_cluster (fun cluster ->
      let z1, z2 = zk_pair cluster in
      ignore (zk_ok (Tango_zk.create z1 "/dir" ""));
      ignore (zk_ok (Tango_zk.create z1 "/dir/one" ""));
      ignore (zk_ok (Tango_zk.create z1 "/dir/two" ""));
      check_str_list "children" [ "one"; "two" ] (zk_ok (Tango_zk.get_children z2 "/dir"));
      check_bool "missing dir" true (Tango_zk.get_children z2 "/none" = Error Tango_zk.No_node);
      check_int "node count includes root" 4 (Tango_zk.node_count z2))

let test_zk_sequential () =
  with_cluster (fun cluster ->
      let z1, z2 = zk_pair cluster in
      ignore (zk_ok (Tango_zk.create z1 "/q" ""));
      let p1 = zk_ok (Tango_zk.create z1 ~sequential:true "/q/job-" "a") in
      let p2 = zk_ok (Tango_zk.create z2 ~sequential:true "/q/job-" "b") in
      let p3 = zk_ok (Tango_zk.create z1 ~sequential:true "/q/job-" "c") in
      Alcotest.(check string) "first" "/q/job-0000000000" p1;
      Alcotest.(check string) "second" "/q/job-0000000001" p2;
      Alcotest.(check string) "third" "/q/job-0000000002" p3)

let test_zk_sequential_concurrent_unique () =
  with_cluster (fun cluster ->
      let z1, z2 = zk_pair cluster in
      ignore (zk_ok (Tango_zk.create z1 "/q" ""));
      let created = ref [] in
      let worker z n =
        Sim.Engine.spawn (fun () ->
            for _ = 1 to n do
              let p = zk_ok (Tango_zk.create z ~sequential:true "/q/n-" "") in
              created := p :: !created
            done)
      in
      worker z1 5;
      worker z2 5;
      Sim.Engine.sleep 5_000_000.;
      check_int "ten distinct names" 10 (List.length (List.sort_uniq compare !created)))

let test_zk_ephemeral_session () =
  with_cluster (fun cluster ->
      let z1, z2 = zk_pair cluster in
      let s = Tango_zk.create_session z1 in
      ignore (zk_ok (Tango_zk.create z1 "/services" ""));
      ignore (zk_ok (Tango_zk.create z1 ~ephemeral:s "/services/me" "alive"));
      ignore (zk_ok (Tango_zk.create z1 "/services/permanent" ""));
      check_bool "ephemeral visible" true (Tango_zk.exists z2 "/services/me");
      Tango_zk.close_session z1 s;
      check_bool "ephemeral gone" false (Tango_zk.exists z2 "/services/me");
      check_bool "permanent stays" true (Tango_zk.exists z2 "/services/permanent");
      check_str_list "children updated" [ "permanent" ]
        (zk_ok (Tango_zk.get_children z2 "/services")))

let test_zk_multi_atomic () =
  with_cluster (fun cluster ->
      let z1, z2 = zk_pair cluster in
      ignore (zk_ok (Tango_zk.create z1 "/cfg" "v"));
      zk_ok
        (Tango_zk.multi z1
           [
             Tango_zk.Check ("/cfg", 0);
             Tango_zk.Create_op ("/cfg/a", "1");
             Tango_zk.Create_op ("/cfg/b", "2");
             Tango_zk.Set_op ("/cfg", "touched");
           ]);
      check_bool "a created" true (Tango_zk.exists z2 "/cfg/a");
      (* Failing batch must change nothing. *)
      check_bool "bad check fails" true
        (Tango_zk.multi z1
           [ Tango_zk.Check ("/cfg", 0); Tango_zk.Create_op ("/cfg/c", "3") ]
        = Error Tango_zk.Bad_version);
      check_bool "c not created" false (Tango_zk.exists z2 "/cfg/c"))

let test_zk_watches () =
  with_cluster (fun cluster ->
      let z1, z2 = zk_pair cluster in
      ignore (zk_ok (Tango_zk.create z1 "/w" "0"));
      check_bool "sync z2" true (Tango_zk.exists z2 "/w");
      let events = ref [] in
      Tango_zk.watch_data z2 "/w" (fun e -> events := e :: !events);
      Tango_zk.watch_children z2 "/w" (fun e -> events := e :: !events);
      zk_ok (Tango_zk.set_data z1 "/w" "1");
      ignore (zk_ok (Tango_zk.create z1 "/w/kid" ""));
      (* watches fire when z2 plays the log *)
      ignore (Tango_zk.exists z2 "/w");
      check_int "both watches fired" 2 (List.length !events);
      (* one-shot: further changes don't re-fire *)
      zk_ok (Tango_zk.set_data z1 "/w" "2");
      ignore (Tango_zk.exists z2 "/w");
      check_int "one-shot" 2 (List.length !events))

let test_zk_ephemeral_sequential_combo () =
  with_cluster (fun cluster ->
      let z, _ = zk_pair cluster in
      let s = Tango_zk.create_session z in
      ignore (zk_ok (Tango_zk.create z "/election" ""));
      let p1 = zk_ok (Tango_zk.create z ~ephemeral:s ~sequential:true "/election/n-" "me") in
      let p2 = zk_ok (Tango_zk.create z ~ephemeral:s ~sequential:true "/election/n-" "me") in
      check_bool "ordered names" true (p1 < p2);
      check_int "two candidates" 2 (List.length (zk_ok (Tango_zk.get_children z "/election")));
      Tango_zk.close_session z s;
      check_int "all ephemeral candidates gone" 0
        (List.length (zk_ok (Tango_zk.get_children z "/election"))))

let test_zk_sessions_are_distinct () =
  with_cluster (fun cluster ->
      let z1, z2 = zk_pair cluster in
      let s1 = Tango_zk.create_session z1 in
      let s2 = Tango_zk.create_session z2 in
      check_bool "distinct ids" true (Tango_zk.session_id s1 <> Tango_zk.session_id s2);
      ignore (zk_ok (Tango_zk.create z1 "/locks" ""));
      ignore (zk_ok (Tango_zk.create z1 ~ephemeral:s1 "/locks/a" ""));
      ignore (zk_ok (Tango_zk.create z2 ~ephemeral:s2 "/locks/b" ""));
      (* closing one session must not kill the other's ephemerals *)
      Tango_zk.close_session z1 s1;
      check_bool "a gone" false (Tango_zk.exists z2 "/locks/a");
      check_bool "b survives" true (Tango_zk.exists z1 "/locks/b"))

let test_zk_path_validation () =
  with_cluster (fun cluster ->
      let z, _ = zk_pair cluster in
      let rejects path =
        match Tango_zk.create z path "" with
        | _ -> Alcotest.failf "path %S must be rejected" path
        | exception Invalid_argument _ -> ()
      in
      rejects "noslash";
      rejects "/trailing/";
      rejects "//double")

let test_zk_move_across_namespaces () =
  (* The §6.3 experiment: two namespace instances; move a subtree
     atomically, destination unhosted at the source. *)
  with_cluster (fun cluster ->
      let ns1 = Tango_zk.attach (runtime cluster "ns1-host") ~oid:1 in
      let ns2 = Tango_zk.attach (runtime cluster "ns2-host") ~oid:2 in
      ignore (zk_ok (Tango_zk.create ns1 "/tree" "root-data"));
      ignore (zk_ok (Tango_zk.create ns1 "/tree/leaf1" "d1"));
      ignore (zk_ok (Tango_zk.create ns1 "/tree/leaf2" "d2"));
      check_bool "move succeeds" true (Tango_zk.move ns1 ~dst_oid:2 "/tree");
      check_bool "gone from ns1" false (Tango_zk.exists ns1 "/tree");
      check_bool "arrived in ns2" true (Tango_zk.exists ns2 "/tree");
      (match Tango_zk.get_data ns2 "/tree/leaf1" with
      | Some (d, _) -> Alcotest.(check string) "leaf data" "d1" d
      | None -> Alcotest.fail "leaf1 missing");
      check_str_list "children intact" [ "leaf1"; "leaf2" ]
        (zk_ok (Tango_zk.get_children ns2 "/tree"));
      check_bool "move of missing path" false (Tango_zk.move ns1 ~dst_oid:2 "/tree"))

(* ------------------------------------------------------------------ *)
(* Graph (provenance)                                                 *)
(* ------------------------------------------------------------------ *)

let test_graph_basics () =
  with_cluster (fun cluster ->
      let g1 = Tango_graph.attach (runtime cluster "a") ~oid:1 in
      let g2 = Tango_graph.attach (runtime cluster "b") ~oid:1 in
      Tango_graph.add_node g1 "raw" "dataset";
      Tango_graph.add_node g1 "clean" "dataset";
      Tango_graph.add_node g1 "model" "artifact";
      check_bool "edge raw->clean" true (Tango_graph.add_edge g1 ~src:"raw" ~dst:"clean");
      check_bool "edge clean->model" true (Tango_graph.add_edge g1 ~src:"clean" ~dst:"model");
      check_bool "missing endpoint" false (Tango_graph.add_edge g1 ~src:"ghost" ~dst:"model");
      (* provenance queries on the other replica *)
      check_str_list "ancestors of model" [ "clean"; "raw" ] (Tango_graph.ancestors g2 "model");
      check_str_list "descendants of raw" [ "clean"; "model" ] (Tango_graph.descendants g2 "raw");
      check_str_list "direct parents" [ "clean" ] (Tango_graph.predecessors g2 "model");
      check_str_opt "label" (Some "artifact") (Tango_graph.label g2 "model");
      check_int "nodes" 3 (Tango_graph.node_count g2);
      check_int "edges" 2 (Tango_graph.edge_count g2))

let test_graph_remove_node_cleans_edges () =
  with_cluster (fun cluster ->
      let g = Tango_graph.attach (runtime cluster "a") ~oid:1 in
      List.iter (fun n -> Tango_graph.add_node g n "") [ "a"; "b"; "c" ];
      ignore (Tango_graph.add_edge g ~src:"a" ~dst:"b");
      ignore (Tango_graph.add_edge g ~src:"b" ~dst:"c");
      check_bool "remove b" true (Tango_graph.remove_node g "b");
      check_bool "remove again" false (Tango_graph.remove_node g "b");
      check_str_list "a's edges gone" [] (Tango_graph.successors g "a");
      check_str_list "c's in-edges gone" [] (Tango_graph.predecessors g "c");
      check_int "edges" 0 (Tango_graph.edge_count g))

let test_graph_cycle_safe_closure () =
  with_cluster (fun cluster ->
      let g = Tango_graph.attach (runtime cluster "a") ~oid:1 in
      List.iter (fun n -> Tango_graph.add_node g n "") [ "x"; "y"; "z" ];
      ignore (Tango_graph.add_edge g ~src:"x" ~dst:"y");
      ignore (Tango_graph.add_edge g ~src:"y" ~dst:"z");
      ignore (Tango_graph.add_edge g ~src:"z" ~dst:"x");
      check_str_list "cycle terminates" [ "x"; "y" ] (Tango_graph.ancestors g "z"))

(* ------------------------------------------------------------------ *)
(* Dedup index                                                        *)
(* ------------------------------------------------------------------ *)

let test_dedup_store_and_hit () =
  with_cluster (fun cluster ->
      let d1 = Tango_dedup.attach (runtime cluster "a") ~oid:1 in
      let d2 = Tango_dedup.attach (runtime cluster "b") ~oid:1 in
      let loc0, kind0 = Tango_dedup.store d1 ~hash:"h-aaa" ~bytes:4096 in
      check_bool "fresh" true (kind0 = `Fresh);
      (* the other client stores the same content: dedup hit *)
      let loc1, kind1 = Tango_dedup.store d2 ~hash:"h-aaa" ~bytes:4096 in
      check_bool "duplicate" true (kind1 = `Duplicate);
      check_int "same location" loc0 loc1;
      let _, kind2 = Tango_dedup.store d2 ~hash:"h-bbb" ~bytes:1024 in
      check_bool "different content is fresh" true (kind2 = `Fresh);
      check_int "chunks" 2 (Tango_dedup.chunk_count d1);
      let logical, physical = Tango_dedup.bytes_stored d1 in
      check_int "logical" (4096 + 4096 + 1024) logical;
      check_int "physical" (4096 + 1024) physical)

let test_dedup_release_refcounts () =
  with_cluster (fun cluster ->
      let d = Tango_dedup.attach (runtime cluster "a") ~oid:1 in
      let loc, _ = Tango_dedup.store d ~hash:"h" ~bytes:100 in
      ignore (Tango_dedup.store d ~hash:"h" ~bytes:100);
      Alcotest.(check (option (pair int int))) "two refs" (Some (loc, 2))
        (Tango_dedup.lookup d ~hash:"h");
      Alcotest.(check (option int)) "still referenced" None (Tango_dedup.release d ~hash:"h");
      Alcotest.(check (option int)) "last ref frees" (Some loc) (Tango_dedup.release d ~hash:"h");
      check_int "gone" 0 (Tango_dedup.chunk_count d);
      match Tango_dedup.release d ~hash:"h" with
      | _ -> Alcotest.fail "releasing unknown hash must raise"
      | exception Not_found -> ())

let test_dedup_concurrent_same_hash () =
  with_cluster (fun cluster ->
      let results = ref [] in
      for i = 1 to 3 do
        let d = Tango_dedup.attach (runtime cluster (Printf.sprintf "c%d" i)) ~oid:1 in
        Sim.Engine.spawn (fun () ->
            let loc, kind = Tango_dedup.store d ~hash:"hot" ~bytes:512 in
            results := (loc, kind) :: !results)
      done;
      Sim.Engine.sleep 2_000_000.;
      check_int "all stored" 3 (List.length !results);
      let locations = List.sort_uniq compare (List.map fst !results) in
      check_int "one physical location" 1 (List.length locations);
      check_int "exactly one fresh" 1
        (List.length (List.filter (fun (_, k) -> k = `Fresh) !results));
      let d = Tango_dedup.attach (runtime cluster "reader") ~oid:1 in
      Alcotest.(check (option (pair int int))) "three refs"
        (Some (List.hd locations, 3))
        (Tango_dedup.lookup d ~hash:"hot"))

(* ------------------------------------------------------------------ *)
(* TangoBK                                                            *)
(* ------------------------------------------------------------------ *)

let test_bk_ledger_lifecycle () =
  with_cluster (fun cluster ->
      let bk = Tango_bk.attach (runtime cluster "writer") ~oid:1 in
      let ledger = Tango_bk.create_ledger bk in
      check_int "first ledger" 0 ledger;
      check_int "entry 0" 0 (bk_ok (Tango_bk.add_entry bk ~ledger (Bytes.of_string "alpha")));
      check_int "entry 1" 1 (bk_ok (Tango_bk.add_entry bk ~ledger (Bytes.of_string "beta")));
      check_int "last id" 1 (bk_ok (Tango_bk.last_entry_id bk ~ledger));
      (match Tango_bk.read_entry bk ~ledger 0 with
      | Some b -> Alcotest.(check string) "entry body from log" "alpha" (Bytes.to_string b)
      | None -> Alcotest.fail "entry 0 missing");
      check_str_list "range read" [ "alpha"; "beta" ]
        (List.map Bytes.to_string (Tango_bk.read_entries bk ~ledger ~lo:0 ~hi:5));
      check_int "close returns last" 1 (bk_ok (Tango_bk.close_ledger bk ~ledger));
      check_bool "closed" true (bk_ok (Tango_bk.is_closed bk ~ledger));
      check_bool "add after close" true
        (Tango_bk.add_entry bk ~ledger (Bytes.of_string "late") = Error Tango_bk.Ledger_closed))

let test_bk_single_writer () =
  with_cluster (fun cluster ->
      let owner = Tango_bk.attach (runtime cluster "owner") ~oid:1 in
      let intruder = Tango_bk.attach (runtime cluster "intruder") ~oid:1 in
      let ledger = Tango_bk.create_ledger owner in
      ignore (bk_ok (Tango_bk.add_entry owner ~ledger (Bytes.of_string "mine")));
      check_bool "intruder rejected" true
        (Tango_bk.add_entry intruder ~ledger (Bytes.of_string "evil") = Error Tango_bk.Not_owner);
      Alcotest.(check string) "owner recorded" "owner" (bk_ok (Tango_bk.writer_of intruder ~ledger));
      check_int "only owner's entry" 0 (bk_ok (Tango_bk.last_entry_id intruder ~ledger)))

let test_bk_reader_replays () =
  with_cluster (fun cluster ->
      let w = Tango_bk.attach (runtime cluster "writer") ~oid:1 in
      let ledger = Tango_bk.create_ledger w in
      for i = 0 to 9 do
        ignore (bk_ok (Tango_bk.add_entry w ~ledger (Bytes.of_string (string_of_int i))))
      done;
      ignore (bk_ok (Tango_bk.close_ledger w ~ledger));
      (* A reader attaching later reconstructs everything, bodies
         fetched from the shared log. *)
      let r = Tango_bk.attach (runtime cluster "reader") ~oid:1 in
      Alcotest.(check (list int)) "ledgers" [ 0 ] (Tango_bk.ledgers r);
      check_str_list "all entries"
        (List.init 10 string_of_int)
        (List.map Bytes.to_string (Tango_bk.read_entries r ~ledger ~lo:0 ~hi:9)))

let test_bk_concurrent_creation () =
  with_cluster (fun cluster ->
      let a = Tango_bk.attach (runtime cluster "a") ~oid:1 in
      let b = Tango_bk.attach (runtime cluster "b") ~oid:1 in
      let la = ref (-1) and lb = ref (-1) in
      Sim.Engine.spawn (fun () -> la := Tango_bk.create_ledger a);
      Sim.Engine.spawn (fun () -> lb := Tango_bk.create_ledger b);
      Sim.Engine.sleep 1_000_000.;
      check_bool "distinct ids" true (!la <> !lb && !la >= 0 && !lb >= 0);
      Alcotest.(check (list int)) "both registered" [ 0; 1 ] (Tango_bk.ledgers a))


(* ------------------------------------------------------------------ *)
(* Model-based testing: TangoZK vs a pure reference model             *)
(* ------------------------------------------------------------------ *)

(* A sequential, in-memory model of the znode semantics we implement:
   random operation sequences must produce identical results and final
   trees on the replicated implementation. *)
module Zk_model = struct
  module M = Map.Make (String)

  type t = { mutable nodes : (string * int) M.t (* path -> data, version *) }

  let create () = { nodes = M.add "/" ("", 0) M.empty }

  let parent p = match String.rindex p '/' with 0 -> "/" | i -> String.sub p 0 i

  let has_children t p =
    let prefix = if p = "/" then "/" else p ^ "/" in
    M.exists
      (fun q _ ->
        q <> p && String.starts_with ~prefix q
        && not (String.contains_from q (String.length prefix) '/'))
      t.nodes
    ||
    (* deeper descendants also count as children of intermediate dirs *)
    M.exists (fun q _ -> q <> p && String.starts_with ~prefix q) t.nodes

  let create_node t path data =
    if M.mem path t.nodes then Error Tango_zk.Node_exists
    else if not (M.mem (parent path) t.nodes) then Error Tango_zk.No_node
    else begin
      t.nodes <- M.add path (data, 0) t.nodes;
      Ok path
    end

  let set_data t path data =
    match M.find_opt path t.nodes with
    | None -> Error Tango_zk.No_node
    | Some (_, v) ->
        t.nodes <- M.add path (data, v + 1) t.nodes;
        Ok ()

  let delete t path =
    match M.find_opt path t.nodes with
    | None -> Error Tango_zk.No_node
    | Some _ when has_children t path -> Error Tango_zk.Not_empty
    | Some _ ->
        t.nodes <- M.remove path t.nodes;
        Ok ()

  let get_data t path = M.find_opt path t.nodes
end

let prop_zk_matches_model =
  QCheck.Test.make ~name:"TangoZK matches the sequential model" ~count:20
    QCheck.(
      pair small_int
        (list_of_size Gen.(5 -- 40)
           (triple (int_range 0 2) (int_range 0 5) (string_of_size Gen.(1 -- 3)))))
    (fun (seed, ops) ->
      Sim.Engine.run ~seed:(seed + 3) (fun () ->
          let cluster = Corfu.Cluster.create ~servers:4 () in
          let zk = Tango_zk.attach (runtime cluster "impl") ~oid:1 in
          let model = Zk_model.create () in
          let paths = [| "/a"; "/b"; "/a/x"; "/a/y"; "/b/z"; "/c" |] in
          List.for_all
            (fun (kind, pidx, data) ->
              let path = paths.(pidx) in
              match kind with
              | 0 ->
                  let got = Tango_zk.create zk path data in
                  let want = Zk_model.create_node model path data in
                  got = want
              | 1 ->
                  let got = Tango_zk.set_data zk path data in
                  let want = Zk_model.set_data model path data in
                  got = want
              | _ ->
                  let got = Tango_zk.delete zk path in
                  let want = Zk_model.delete model path in
                  got = want)
            ops
          &&
          (* final states agree, observed through a fresh replica *)
          let fresh = Tango_zk.attach (runtime cluster "fresh") ~oid:1 in
          Array.for_all
            (fun path -> Tango_zk.get_data fresh path = Zk_model.get_data model path)
            paths))

let () =
  Alcotest.run "tango-objects"
    [
      ( "register",
        [
          Alcotest.test_case "basics" `Quick test_register;
          Alcotest.test_case "history" `Quick test_register_history;
        ] );
      ( "counter",
        [
          Alcotest.test_case "blind adds don't conflict" `Quick test_counter_blind_adds;
          Alcotest.test_case "next_id unique" `Quick test_counter_next_id_unique;
        ] );
      ( "map",
        [
          Alcotest.test_case "basics" `Quick test_map_basics;
          Alcotest.test_case "indexed mode" `Quick test_map_indexed_mode;
          Alcotest.test_case "indexed read of a multi-put commit" `Quick
            test_map_indexed_multi_put_commit;
          Alcotest.test_case "indexed read after a remove in the same commit" `Quick
            test_map_indexed_remove_then_put_commit;
          Alcotest.test_case "coarse put conflicts" `Quick test_map_coarse_put_conflicts;
          Alcotest.test_case "keyed and unkeyed applies agree" `Quick
            test_map_keyed_unkeyed_apply_agree;
          Alcotest.test_case "transfer" `Quick test_map_transfer;
          Alcotest.test_case "remote transfer" `Quick test_map_transfer_remote;
        ] );
      ( "list",
        [
          Alcotest.test_case "ordering" `Quick test_list_order;
          Alcotest.test_case "pop exactly once" `Quick test_list_pop_exactly_once;
        ] );
      ( "queue",
        [
          Alcotest.test_case "fifo" `Quick test_queue_fifo;
          Alcotest.test_case "remote producer" `Quick test_queue_remote_producer;
          Alcotest.test_case "competing consumers" `Quick test_queue_competing_consumers;
        ] );
      ("set", [ Alcotest.test_case "ordered queries" `Quick test_set_ordered_queries ]);
      ( "map-index",
        [
          Alcotest.test_case "alongside the map" `Quick test_map_index_alongside;
          Alcotest.test_case "standalone client" `Quick test_map_index_standalone_client;
          Alcotest.test_case "inside transactions" `Quick test_map_index_in_transactions;
        ] );
      ( "zookeeper",
        [
          Alcotest.test_case "create/get/set/delete" `Quick test_zk_create_get_set_delete;
          Alcotest.test_case "errors" `Quick test_zk_errors;
          Alcotest.test_case "children" `Quick test_zk_children;
          Alcotest.test_case "sequential" `Quick test_zk_sequential;
          Alcotest.test_case "sequential concurrent unique" `Quick
            test_zk_sequential_concurrent_unique;
          Alcotest.test_case "ephemeral sessions" `Quick test_zk_ephemeral_session;
          Alcotest.test_case "multi atomic" `Quick test_zk_multi_atomic;
          Alcotest.test_case "watches" `Quick test_zk_watches;
          Alcotest.test_case "cross-namespace move" `Quick test_zk_move_across_namespaces;
          Alcotest.test_case "ephemeral+sequential" `Quick test_zk_ephemeral_sequential_combo;
          Alcotest.test_case "sessions are distinct" `Quick test_zk_sessions_are_distinct;
          Alcotest.test_case "path validation" `Quick test_zk_path_validation;
        ] );
      ( "graph",
        [
          Alcotest.test_case "provenance queries" `Quick test_graph_basics;
          Alcotest.test_case "remove cleans edges" `Quick test_graph_remove_node_cleans_edges;
          Alcotest.test_case "cycle-safe closure" `Quick test_graph_cycle_safe_closure;
        ] );
      ( "dedup",
        [
          Alcotest.test_case "store and hit" `Quick test_dedup_store_and_hit;
          Alcotest.test_case "release refcounts" `Quick test_dedup_release_refcounts;
          Alcotest.test_case "concurrent same hash" `Quick test_dedup_concurrent_same_hash;
        ] );
      ("model-based", List.map QCheck_alcotest.to_alcotest [ prop_zk_matches_model ]);
      ( "bookkeeper",
        [
          Alcotest.test_case "ledger lifecycle" `Quick test_bk_ledger_lifecycle;
          Alcotest.test_case "single writer" `Quick test_bk_single_writer;
          Alcotest.test_case "reader replays" `Quick test_bk_reader_replays;
          Alcotest.test_case "concurrent creation" `Quick test_bk_concurrent_creation;
        ] );
    ]
