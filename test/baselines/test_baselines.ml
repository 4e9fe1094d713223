(* Tests for the 2PL comparison baseline. *)

module Tpl = Tango_baselines.Two_phase_locking

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let with_fabric body =
  Sim.Engine.run ~seed:3 (fun () ->
      let net = Sim.Net.create ~latency:50. ~bandwidth:125. ~jitter:0. ~timeout_us:50_000. () in
      let t = Tpl.create ~net in
      body t)

let test_local_commit () =
  with_fabric (fun t ->
      let a = Tpl.add_node t ~name:"a" in
      let _, v = Tpl.read ~from:a a "x" in
      check_int "fresh version" (-1) v;
      check_bool "commit" true (Tpl.execute t ~from:a ~reads:[ (a, "x", v) ] ~writes:[ (a, "x", "1") ]);
      let value, v' = Tpl.read ~from:a a "x" in
      Alcotest.(check string) "written" "1" value;
      check_bool "version advanced" true (v' > v))

let test_cross_node_commit () =
  with_fabric (fun t ->
      let a = Tpl.add_node t ~name:"a" in
      let b = Tpl.add_node t ~name:"b" in
      let _, va = Tpl.read ~from:a a "x" in
      check_bool "remote write commits" true
        (Tpl.execute t ~from:a ~reads:[ (a, "x", va) ] ~writes:[ (a, "x", "1"); (b, "y", "2") ]);
      Alcotest.(check (option string)) "landed remotely" (Some "2") (Tpl.peek b "y"))

let test_stale_read_aborts () =
  with_fabric (fun t ->
      let a = Tpl.add_node t ~name:"a" in
      let _, v = Tpl.read ~from:a a "x" in
      check_bool "w1" true (Tpl.execute t ~from:a ~reads:[] ~writes:[ (a, "x", "1") ]);
      (* v is now stale *)
      check_bool "stale read aborts" false
        (Tpl.execute t ~from:a ~reads:[ (a, "x", v) ] ~writes:[ (a, "x", "2") ]);
      (* locks were released: a fresh attempt succeeds *)
      let _, v' = Tpl.read ~from:a a "x" in
      check_bool "fresh attempt commits" true
        (Tpl.execute t ~from:a ~reads:[ (a, "x", v') ] ~writes:[ (a, "x", "2") ]))

let test_lock_contention () =
  with_fabric (fun t ->
      let a = Tpl.add_node t ~name:"a" in
      let b = Tpl.add_node t ~name:"b" in
      let outcomes = ref [] in
      let attempt from tag =
        Sim.Engine.spawn (fun () ->
            let _, v = Tpl.read ~from a "hot" in
            let ok = Tpl.execute t ~from ~reads:[ (a, "hot", v) ] ~writes:[ (a, "hot", tag) ] in
            outcomes := ok :: !outcomes)
      in
      attempt a "from-a";
      attempt b "from-b";
      Sim.Engine.sleep 1_000_000.;
      check_int "both finished" 2 (List.length !outcomes);
      check_int "exactly one winner" 1 (List.length (List.filter Fun.id !outcomes));
      (* and the item is unlocked: a follow-up commits *)
      let _, v = Tpl.read ~from:a a "hot" in
      check_bool "unlocked afterwards" true
        (Tpl.execute t ~from:a ~reads:[ (a, "hot", v) ] ~writes:[ (a, "hot", "final") ]))

let test_throughput_sanity () =
  (* Local-only transactions should sustain thousands/sec per node. *)
  with_fabric (fun t ->
      let nodes = List.init 4 (fun i -> Tpl.add_node t ~name:(Printf.sprintf "n%d" i)) in
      let committed = ref 0 in
      List.iter
        (fun n ->
          Sim.Engine.spawn (fun () ->
              for i = 0 to 99 do
                let key = Printf.sprintf "k%d" (i mod 10) in
                let _, v = Tpl.read ~from:n n key in
                if Tpl.execute t ~from:n ~reads:[ (n, key, v) ] ~writes:[ (n, key, "v") ] then
                  incr committed
              done))
        nodes;
      Sim.Engine.sleep 1_000_000.;
      check_int "all local txes commit" 400 !committed)

let () =
  Alcotest.run "baselines"
    [
      ( "two-phase-locking",
        [
          Alcotest.test_case "local commit" `Quick test_local_commit;
          Alcotest.test_case "cross-node commit" `Quick test_cross_node_commit;
          Alcotest.test_case "stale read aborts" `Quick test_stale_read_aborts;
          Alcotest.test_case "lock contention" `Quick test_lock_contention;
          Alcotest.test_case "throughput sanity" `Quick test_throughput_sanity;
        ] );
    ]
