(* Cross-layer integration and fault-injection tests: transactions
   riding through sequencer failover, holes punched under load, GC
   concurrent with writers, and many objects multiplexed on one log. *)

open Tango_objects

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let with_cluster ?(seed = 77) ?(servers = 6) ?params body =
  Sim.Engine.run ~seed (fun () ->
      let cluster = Corfu.Cluster.create ?params ~servers () in
      body cluster)

let runtime cluster name = Tango.Runtime.create (Corfu.Cluster.new_client cluster ~name)

(* ------------------------------------------------------------------ *)
(* Sequencer failover under transactional load                        *)
(* ------------------------------------------------------------------ *)

let test_failover_under_transactions () =
  with_cluster (fun cluster ->
      let clients = 3 in
      let committed = ref 0 in
      let finished = ref 0 in
      let views = ref [] in
      for i = 1 to clients do
        let rt = runtime cluster (Printf.sprintf "app-%d" i) in
        let reg = Tango_register.attach rt ~oid:1 in
        views := reg :: !views;
        Sim.Engine.spawn (fun () ->
            for _ = 1 to 15 do
              Tango.Runtime.begin_tx rt;
              let v = Tango_register.read reg in
              Tango_register.write reg (v + 1);
              (match Tango.Runtime.end_tx rt with
              | Tango.Runtime.Committed -> incr committed
              | Tango.Runtime.Aborted -> ());
              incr finished
            done)
      done;
      (* Replace the sequencer twice while the increments fly. *)
      Sim.Engine.sleep 5_000.;
      let e1 = Corfu.Cluster.replace_sequencer cluster in
      Sim.Engine.sleep 20_000.;
      let e2 = Corfu.Cluster.replace_sequencer cluster in
      check_int "epochs advance" 1 (e2 - e1);
      Sim.Engine.sleep 10_000_000.;
      check_int "every transaction finished" (clients * 15) !finished;
      (* Serializability: the register counts exactly the commits. *)
      List.iter
        (fun reg -> check_int "register equals committed count" !committed (Tango_register.read reg))
        !views;
      check_bool "some commits happened" true (!committed > 0))

(* ------------------------------------------------------------------ *)
(* Holes punched under transactional load                             *)
(* ------------------------------------------------------------------ *)

let test_holes_under_load () =
  with_cluster (fun cluster ->
      let rt1 = runtime cluster "app-1" in
      let rt2 = runtime cluster "app-2" in
      let m1 = Tango_map.attach rt1 ~oid:1 in
      let m2 = Tango_map.attach rt2 ~oid:1 in
      let saboteur = Corfu.Cluster.new_client cluster ~name:"saboteur" in
      (* A crashed client keeps taking offsets on the map's stream and
         never writing them. *)
      Sim.Engine.spawn (fun () ->
          for _ = 1 to 10 do
            Sim.Engine.sleep 2_000.;
            let (_ : Corfu.Sequencer.response) =
              Sim.Net.call ~from:(Corfu.Client.host saboteur)
                (Corfu.Sequencer.increment_service (Corfu.Cluster.sequencer cluster))
                { Corfu.Sequencer.iepoch = 0; istreams = [ 1 ]; icount = 1 }
            in
            ()
          done);
      let writes = 30 in
      Sim.Engine.spawn (fun () ->
          for i = 1 to writes do
            Tango_map.put m1 (Printf.sprintf "k%d" i) (string_of_int i);
            Sim.Engine.sleep 1_000.
          done);
      (* Readers resolve the holes (100 ms fill timeout) and converge. *)
      Sim.Engine.sleep 500_000.;
      check_int "all writes visible on the other view" writes (Tango_map.size m2);
      check_int "views agree" (Tango_map.size m2) (Tango_map.size m1))

(* ------------------------------------------------------------------ *)
(* GC while writers keep going                                        *)
(* ------------------------------------------------------------------ *)

let test_gc_under_load () =
  with_cluster ~params:{ Sim.Params.default with Sim.Params.commit_batch = 1 } (fun cluster ->
      let rt = runtime cluster "app" in
      let dir = Tango.Directory.attach rt in
      let oid = Tango.Directory.declare dir "set" in
      let s = Tango_set.attach rt ~oid in
      let stop = ref false in
      Sim.Engine.spawn (fun () ->
          let i = ref 0 in
          while not !stop do
            incr i;
            Tango_set.add s (Printf.sprintf "elt%03d" !i);
            Sim.Engine.sleep 500.
          done);
      Sim.Engine.sleep 50_000.;
      (* Checkpoint + forget + collect while the writer continues. *)
      ignore (Tango_set.cardinal s);
      let info = Tango.Runtime.checkpoint rt ~oid in
      let safe = info.Tango.Runtime.ckpt_base + 1 in
      Tango.Directory.forget dir ~oid ~below:safe;
      ignore (Tango.Runtime.checkpoint rt ~oid:Tango.Directory.oid);
      Tango.Directory.forget dir ~oid:Tango.Directory.oid ~below:safe;
      let trimmed = Tango.Directory.collect dir in
      check_bool "log was trimmed" true (trimmed > 0);
      Sim.Engine.sleep 50_000.;
      stop := true;
      Sim.Engine.sleep 5_000.;
      let expected = Tango_set.cardinal s in
      (* A cold client recovers checkpoint + post-checkpoint writes. *)
      let rt2 = runtime cluster "cold" in
      let s2 = Tango_set.attach rt2 ~oid in
      check_int "cold view complete after gc" expected (Tango_set.cardinal s2);
      check_bool "saw many elements" true (expected > 50))

(* ------------------------------------------------------------------ *)
(* Many objects multiplexed on one runtime                            *)
(* ------------------------------------------------------------------ *)

let test_object_zoo_on_one_log () =
  with_cluster (fun cluster ->
      let rt1 = runtime cluster "zoo-1" in
      let rt2 = runtime cluster "zoo-2" in
      let dir1 = Tango.Directory.attach rt1 in
      let dir2 = Tango.Directory.attach rt2 in
      let oid1 name = Tango.Directory.declare dir1 name in
      let reg1 = Tango_register.attach rt1 ~oid:(oid1 "reg") in
      let ctr1 = Tango_counter.attach rt1 ~oid:(oid1 "ctr") in
      let map1 = Tango_map.attach rt1 ~oid:(oid1 "map") in
      let set1 = Tango_set.attach rt1 ~oid:(oid1 "set") in
      let q1 = Tango_queue.attach rt1 ~oid:(oid1 "queue") in
      let zk1 = Tango_zk.attach rt1 ~oid:(oid1 "zk") in
      let oid2 name = Option.get (Tango.Directory.lookup dir2 name) in
      let reg2 = Tango_register.attach rt2 ~oid:(oid2 "reg") in
      let ctr2 = Tango_counter.attach rt2 ~oid:(oid2 "ctr") in
      let map2 = Tango_map.attach rt2 ~oid:(oid2 "map") in
      let set2 = Tango_set.attach rt2 ~oid:(oid2 "set") in
      let q2 = Tango_queue.attach rt2 ~oid:(oid2 "queue") in
      let zk2 = Tango_zk.attach rt2 ~oid:(oid2 "zk") in
      (* One transaction across five different data structures. *)
      Tango.Runtime.begin_tx rt1;
      Tango_register.write reg1 7;
      Tango_counter.add ctr1 3;
      Tango_map.put map1 "k" "v";
      Tango_set.add set1 "member";
      Tango_queue.enqueue q1 "work";
      check_bool "tx committed" true (Tango.Runtime.end_tx rt1 = Tango.Runtime.Committed);
      (match Tango_zk.create zk1 "/multiplexed" "yes" with Ok _ -> () | Error _ -> Alcotest.fail "zk");
      (* Everything is visible, atomically, on the other client. *)
      check_int "register" 7 (Tango_register.read reg2);
      check_int "counter" 3 (Tango_counter.get ctr2);
      Alcotest.(check (option string)) "map" (Some "v") (Tango_map.get map2 "k");
      check_bool "set" true (Tango_set.mem set2 "member");
      Alcotest.(check (option string)) "queue" (Some "work") (Tango_queue.dequeue q2);
      check_bool "zk" true (Tango_zk.exists zk2 "/multiplexed"))

(* ------------------------------------------------------------------ *)
(* Remote-write storm against a consumer running local transactions   *)
(* ------------------------------------------------------------------ *)

let test_remote_write_storm () =
  with_cluster (fun cluster ->
      let consumer_rt = runtime cluster "consumer" in
      let inbox = Tango_map.attach consumer_rt ~oid:10 ~needs_decision:true in
      let local = Tango_map.attach consumer_rt ~oid:11 in
      let producers = 3 in
      let sent = ref 0 in
      for p = 1 to producers do
        let rt = runtime cluster (Printf.sprintf "producer-%d" p) in
        let src = Tango_map.attach rt ~oid:(20 + p) in
        Tango_map.put src "seed" "s";
        Sim.Engine.spawn (fun () ->
            for i = 1 to 10 do
              Tango.Runtime.begin_tx rt;
              ignore (Tango_map.get src "seed");
              Tango_map.remote_put rt ~oid:10 (Printf.sprintf "p%d-%d" p i) "x";
              match Tango.Runtime.end_tx rt with
              | Tango.Runtime.Committed -> incr sent
              | Tango.Runtime.Aborted -> ()
            done)
      done;
      (* Meanwhile the consumer hammers its local map. *)
      let local_commits = ref 0 in
      Sim.Engine.spawn (fun () ->
          for i = 1 to 50 do
            Tango.Runtime.begin_tx consumer_rt;
            ignore (Tango_map.get local "mine");
            Tango_map.put local "mine" (string_of_int i);
            match Tango.Runtime.end_tx consumer_rt with
            | Tango.Runtime.Committed -> incr local_commits
            | Tango.Runtime.Aborted -> ()
          done);
      Sim.Engine.sleep 3_000_000.;
      check_int "all remote writes arrived" !sent (Tango_map.size inbox);
      check_int "local transactions unimpeded" 50 !local_commits)

(* ------------------------------------------------------------------ *)
(* Collaborative remote-read transactions (§4.1 D, future work)       *)
(* ------------------------------------------------------------------ *)

let test_remote_read_commit () =
  with_cluster (fun cluster ->
      (* A hosts map 1; B hosts map 2 and serves reads for it. *)
      let rt_a = runtime cluster "node-a" in
      let rt_b = runtime cluster "node-b" in
      let m1 = Tango_map.attach rt_a ~oid:1 in
      let m2 = Tango_map.attach rt_b ~oid:2 in
      Tango_map.serve_reads m2;
      Tango.Runtime.connect_peer rt_a ~oid:2 (Tango.Runtime.remote_read_service rt_b);
      Tango_map.put m2 "rate" "1.25";
      Tango_map.put m1 "balance" "100";
      (* the peer answers from its current view: freshen it *)
      ignore (Tango_map.get m2 "rate");
      (* A's transaction reads the remote rate and writes locally. *)
      Tango.Runtime.begin_tx rt_a;
      let balance = Option.get (Tango_map.get m1 "balance") in
      let rate = Option.get (Tango_map.get_remote rt_a ~oid:2 "rate") in
      Tango_map.put m1 "converted" (Printf.sprintf "%s*%s" balance rate);
      (match Tango.Runtime.end_tx rt_a with
      | Tango.Runtime.Committed -> ()
      | Tango.Runtime.Aborted -> Alcotest.fail "quiet remote-read tx must commit");
      Alcotest.(check (option string)) "applied" (Some "100*1.25") (Tango_map.get m1 "converted"))

let test_remote_read_conflict_aborts () =
  with_cluster (fun cluster ->
      let rt_a = runtime cluster "node-a" in
      let rt_b = runtime cluster "node-b" in
      let m1 = Tango_map.attach rt_a ~oid:1 in
      let m2 = Tango_map.attach rt_b ~oid:2 in
      Tango_map.serve_reads m2;
      Tango.Runtime.connect_peer rt_a ~oid:2 (Tango.Runtime.remote_read_service rt_b);
      Tango_map.put m2 "rate" "1.25";
      ignore (Tango_map.get m2 "rate");
      Tango.Runtime.begin_tx rt_a;
      let _rate = Tango_map.get_remote rt_a ~oid:2 "rate" in
      (* The rate changes before the commit record lands: the remote
         read is stale and the collaborative validation must abort. *)
      Tango_map.put m2 "rate" "1.60";
      Tango_map.put m1 "converted" "stale!";
      (match Tango.Runtime.end_tx rt_a with
      | Tango.Runtime.Aborted -> ()
      | Tango.Runtime.Committed -> Alcotest.fail "stale remote read must abort");
      Alcotest.(check (option string)) "write not applied" None (Tango_map.get m1 "converted"))

let test_remote_read_fully_remote_generator () =
  (* The generator hosts nothing involved: remote read from B, remote
     write to D. B and D are idle, so no partial verdict reaches the
     coordination stream the generator scans; past the decision
     timeout it falls back to reconstructing the outcome from the log
     and publishes the decision D applies. *)
  with_cluster (fun cluster ->
      let rt_b = runtime cluster "node-b" in
      let rt_d = runtime cluster "node-d" in
      let rt_c = runtime cluster "thin-client" in
      let m2 = Tango_map.attach rt_b ~oid:2 in
      let m3 = Tango_map.attach rt_d ~oid:3 ~needs_decision:true in
      Tango_map.serve_reads m2;
      Tango.Runtime.connect_peer rt_c ~oid:2 (Tango.Runtime.remote_read_service rt_b);
      Tango_map.put m2 "config" "blue";
      ignore (Tango_map.get m2 "config");
      Tango.Runtime.begin_tx rt_c;
      let v = Option.get (Tango_map.get_remote rt_c ~oid:2 "config") in
      Tango_map.remote_put rt_c ~oid:3 "copied" v;
      (match Tango.Runtime.end_tx rt_c with
      | Tango.Runtime.Committed -> ()
      | Tango.Runtime.Aborted -> Alcotest.fail "quiet fully-remote tx must commit");
      Alcotest.(check (option string)) "landed at D" (Some "blue") (Tango_map.get m3 "copied"))

let test_remote_read_multi_host_verdicts () =
  (* Read set spans two hosts, and B (hosting the remote read) is idle:
     its partial verdict never comes, so each commit is decided by the
     generator's decision watchdog reconstructing the outcome from the
     log, commit and abort alike (the combined path is the next
     test's). *)
  with_cluster (fun cluster ->
      let rt_a = runtime cluster "node-a" in
      let rt_b = runtime cluster "node-b" in
      let rt_f = runtime cluster "node-f" in
      let m1 = Tango_map.attach rt_a ~oid:1 in
      let m2 = Tango_map.attach rt_b ~oid:2 in
      let sink = Tango_map.attach rt_f ~oid:9 ~needs_decision:true in
      Tango_map.serve_reads m2;
      Tango.Runtime.connect_peer rt_a ~oid:2 (Tango.Runtime.remote_read_service rt_b);
      Tango_map.put m1 "x" "1";
      Tango_map.put m2 "y" "2";
      ignore (Tango_map.get m2 "y");
      Tango.Runtime.begin_tx rt_a;
      let x = Option.get (Tango_map.get m1 "x") in
      let y = Option.get (Tango_map.get_remote rt_a ~oid:2 "y") in
      Tango_map.remote_put rt_a ~oid:9 "sum" (x ^ "+" ^ y);
      (match Tango.Runtime.end_tx rt_a with
      | Tango.Runtime.Committed -> ()
      | Tango.Runtime.Aborted -> Alcotest.fail "must commit");
      Alcotest.(check (option string)) "combined and applied" (Some "1+2")
        (Tango_map.get sink "sum");
      (* and a conflicting run aborts everywhere *)
      Tango.Runtime.begin_tx rt_a;
      ignore (Tango_map.get m1 "x");
      ignore (Tango_map.get_remote rt_a ~oid:2 "y");
      Tango_map.put m2 "y" "9";
      Tango_map.remote_put rt_a ~oid:9 "sum2" "nope";
      (match Tango.Runtime.end_tx rt_a with
      | Tango.Runtime.Aborted -> ()
      | Tango.Runtime.Committed -> Alcotest.fail "stale y must abort");
      Alcotest.(check (option string)) "aborted write absent" None (Tango_map.get sink "sum2"))

let test_remote_read_combined_verdicts () =
  (* As above, but every read-set host keeps playing the log: A awaits
     its own commit and a polling reader keeps B's view fresh. Each
     host publishes its partial verdict as it parks the commit, and A
     combines the two, well inside the decision timeout: no watchdog
     fires, even after the timeout has passed. *)
  with_cluster (fun cluster ->
      let timeouts = ref 0 in
      Sim.Announce.subscribe (function Sim.Announce.Decision_timeout _ -> incr timeouts | _ -> ());
      let rt_a = runtime cluster "node-a" in
      let rt_b = runtime cluster "node-b" in
      let rt_f = runtime cluster "node-f" in
      let m1 = Tango_map.attach rt_a ~oid:1 in
      let m2 = Tango_map.attach rt_b ~oid:2 in
      let sink = Tango_map.attach rt_f ~oid:9 ~needs_decision:true in
      Tango_map.serve_reads m2;
      Tango.Runtime.connect_peer rt_a ~oid:2 (Tango.Runtime.remote_read_service rt_b);
      Tango_map.put m1 "x" "1";
      Tango_map.put m2 "y" "2";
      ignore (Tango_map.get m2 "y");
      let polling = ref true in
      Sim.Engine.spawn (fun () ->
          while !polling do
            ignore (Tango_map.get m2 "y");
            Sim.Engine.sleep 1_000.
          done);
      Tango.Runtime.begin_tx rt_a;
      let x = Option.get (Tango_map.get m1 "x") in
      let y = Option.get (Tango_map.get_remote rt_a ~oid:2 "y") in
      Tango_map.remote_put rt_a ~oid:9 "sum" (x ^ "+" ^ y);
      let t0 = Sim.Engine.now () in
      (match Tango.Runtime.end_tx rt_a with
      | Tango.Runtime.Committed -> ()
      | Tango.Runtime.Aborted -> Alcotest.fail "must commit");
      let took = Sim.Engine.now () -. t0 in
      check_bool
        (Printf.sprintf "decided in %.0f us, inside the decision timeout" took)
        true
        (took < Tango.Decision_core.timeout_us);
      Alcotest.(check (option string)) "applied at the sink" (Some "1+2") (Tango_map.get sink "sum");
      Sim.Engine.sleep (2. *. Tango.Decision_core.timeout_us);
      polling := false;
      check_int "no decision watchdog fired" 0 !timeouts)

(* ------------------------------------------------------------------ *)
(* Convergence property                                               *)
(* ------------------------------------------------------------------ *)

let prop_views_converge =
  QCheck.Test.make ~name:"replicated views converge under mixed load" ~count:10
    QCheck.(int_range 1 1000)
    (fun seed ->
      Sim.Engine.run ~seed (fun () ->
          let cluster = Corfu.Cluster.create ~servers:4 () in
          let nclients = 3 in
          let views = ref [] in
          for i = 1 to nclients do
            let rt = runtime cluster (Printf.sprintf "c%d" i) in
            let map = Tango_map.attach rt ~oid:1 in
            let set = Tango_set.attach rt ~oid:2 in
            views := (rt, map, set) :: !views;
            let rng = Sim.Rng.split (Sim.Engine.rng ()) in
            Sim.Engine.spawn (fun () ->
                for n = 1 to 20 do
                  let k = Printf.sprintf "k%d" (Sim.Rng.int rng 8) in
                  match Sim.Rng.int rng 3 with
                  | 0 -> Tango_map.put map k (Printf.sprintf "%d.%d" i n)
                  | 1 -> Tango_set.add set k
                  | _ -> (
                      Tango.Runtime.begin_tx rt;
                      (match Tango_map.get map k with
                      | Some v -> Tango_map.put map k (v ^ "!")
                      | None -> Tango_map.put map k "tx");
                      Tango_set.add set ("tx-" ^ k);
                      match Tango.Runtime.end_tx rt with
                      | Tango.Runtime.Committed | Tango.Runtime.Aborted -> ())
                done)
          done;
          Sim.Engine.sleep 10_000_000.;
          let states =
            List.map
              (fun (_, map, set) -> (Tango_map.bindings map, Tango_set.elements set))
              !views
          in
          match states with
          | first :: rest -> List.for_all (fun s -> s = first) rest
          | [] -> false))

let test_whole_system_determinism () =
  (* Identical seeds must reproduce the run bit-for-bit: same commit
     counts, same final states, same virtual end time. *)
  let run () =
    Sim.Engine.run ~seed:123 (fun () ->
        let cluster = Corfu.Cluster.create ~servers:6 () in
        Corfu.Cluster.start_checkpoint_scribe cluster ~interval_us:10_000.;
        let commits = ref 0 in
        let maps = ref [] in
        for i = 1 to 3 do
          let rt = runtime cluster (Printf.sprintf "c%d" i) in
          let m = Tango_map.attach rt ~oid:1 in
          maps := m :: !maps;
          let rng = Sim.Rng.split (Sim.Engine.rng ()) in
          Sim.Engine.spawn (fun () ->
              for n = 1 to 15 do
                Tango.Runtime.begin_tx rt;
                let k = Printf.sprintf "k%d" (Sim.Rng.int rng 5) in
                (match Tango_map.get m k with
                | Some v -> Tango_map.put m k (v ^ string_of_int n)
                | None -> Tango_map.put m k "0");
                match Tango.Runtime.end_tx rt with
                | Tango.Runtime.Committed -> incr commits
                | Tango.Runtime.Aborted -> ()
              done)
        done;
        Sim.Engine.sleep 5_000_000.;
        let state = Tango_map.bindings (List.hd !maps) in
        (!commits, state, Sim.Engine.now ()))
  in
  let c1, s1, t1 = run () in
  let c2, s2, t2 = run () in
  check_int "same commits" c1 c2;
  check_bool "same final state" true (s1 = s2);
  check_bool "same virtual end time" true (t1 = t2);
  check_bool "something happened" true (c1 > 0)

(* The paper's §3.1 claim, checked from observations: histories of a
   register with views on several machines are linearizable. *)
module Lin = Tango_harness.Linearizability

let prop_register_linearizable =
  QCheck.Test.make ~name:"register histories are linearizable" ~count:8
    QCheck.(int_range 1 10_000)
    (fun seed ->
      Sim.Engine.run ~seed (fun () ->
          let cluster = Corfu.Cluster.create ~servers:4 () in
          let events = ref [] in
          let record started finished op = events := { Lin.started; finished; op } :: !events in
          for i = 1 to 3 do
            let rt = runtime cluster (Printf.sprintf "c%d" i) in
            let reg = Tango_register.attach rt ~oid:1 in
            let rng = Sim.Rng.split (Sim.Engine.rng ()) in
            Sim.Engine.spawn (fun () ->
                for n = 1 to 6 do
                  let t0 = Sim.Engine.now () in
                  if Sim.Rng.bool rng 0.4 then begin
                    let v = (i * 100) + n in
                    Tango_register.write reg v;
                    record t0 (Sim.Engine.now ()) (Lin.Write v)
                  end
                  else begin
                    let v = Tango_register.read reg in
                    record t0 (Sim.Engine.now ()) (Lin.Read v)
                  end;
                  Sim.Engine.sleep (Sim.Rng.float rng 500.)
                done)
          done;
          Sim.Engine.sleep 10_000_000.;
          Lin.check_register ~initial:0 !events))

let test_linearizable_across_scale_out () =
  (* Register histories must stay linearizable while the log scales
     out underneath the clients: writers and readers straddle the
     epoch bump, and reads span both segments' offsets. *)
  Sim.Engine.run ~seed:31 (fun () ->
      let cluster = Corfu.Cluster.create ~servers:4 () in
      let events = ref [] in
      let record started finished op = events := { Lin.started; finished; op } :: !events in
      for i = 1 to 3 do
        let rt = runtime cluster (Printf.sprintf "c%d" i) in
        let reg = Tango_register.attach rt ~oid:1 in
        Sim.Engine.spawn (fun () ->
            for n = 1 to 8 do
              let t0 = Sim.Engine.now () in
              if n mod 2 = i mod 2 then begin
                let v = (i * 100) + n in
                Tango_register.write reg v;
                record t0 (Sim.Engine.now ()) (Lin.Write v)
              end
              else begin
                let v = Tango_register.read reg in
                record t0 (Sim.Engine.now ()) (Lin.Read v)
              end;
              Sim.Engine.sleep 300.
            done)
      done;
      Sim.Engine.sleep 2_000.;
      ignore (Corfu.Cluster.scale_out cluster ~add_servers:4 : Corfu.Types.epoch);
      Sim.Engine.sleep 10_000_000.;
      check_int "all ops finished" 24 (List.length !events);
      let proj = Corfu.Auxiliary.latest (Corfu.Cluster.auxiliary cluster) in
      check_int "map is segmented" 2 (Corfu.Projection.num_segments proj);
      check_bool "history linearizable across the scale-out" true
        (Lin.check_register ~initial:0 !events))

let () =
  Alcotest.run "integration"
    [
      ( "chaos",
        [
          Alcotest.test_case "failover under transactions" `Quick
            test_failover_under_transactions;
          Alcotest.test_case "holes under load" `Quick test_holes_under_load;
          Alcotest.test_case "gc under load" `Quick test_gc_under_load;
          Alcotest.test_case "remote-write storm" `Quick test_remote_write_storm;
          Alcotest.test_case "whole-system determinism" `Quick test_whole_system_determinism;
          Alcotest.test_case "linearizable across scale-out" `Quick
            test_linearizable_across_scale_out;
        ] );
      ("multiplexing", [ Alcotest.test_case "object zoo on one log" `Quick test_object_zoo_on_one_log ]);
      ( "collaborative-remote-reads",
        [
          Alcotest.test_case "remote read commits" `Quick test_remote_read_commit;
          Alcotest.test_case "stale remote read aborts" `Quick test_remote_read_conflict_aborts;
          Alcotest.test_case "fully-remote generator" `Quick test_remote_read_fully_remote_generator;
          Alcotest.test_case "multi-host verdicts" `Quick test_remote_read_multi_host_verdicts;
          Alcotest.test_case "combined verdicts" `Quick test_remote_read_combined_verdicts;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_views_converge; prop_register_linearizable ] );
    ]
