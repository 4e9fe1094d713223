(* Tests for the discrete-event simulation substrate. *)

open Sim

let check_float = Alcotest.(check (float 1e-9))
let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ------------------------------------------------------------------ *)
(* Engine                                                             *)
(* ------------------------------------------------------------------ *)

let test_run_returns_result () =
  let r = Engine.run (fun () -> 41 + 1) in
  check_int "result" 42 r

let test_clock_starts_at_zero () =
  let t = Engine.run (fun () -> Engine.now ()) in
  check_float "t0" 0. t

(* A per-run store is built on its first access in each run, keeps
   that one value for the rest of the run and after it, and is built
   afresh by the next run's first access. *)
let test_per_run_store () =
  let builds = ref 0 in
  let store =
    Engine.per_run (fun () ->
        incr builds;
        ref 0)
  in
  check_int "nothing built at creation" 0 !builds;
  let first =
    Engine.run (fun () ->
        Engine.sleep 10.;
        check_int "nothing built before the first access" 0 !builds;
        let v = Engine.this_run store in
        check_int "built on first access" 1 !builds;
        incr v;
        check_bool "a second access returns the same value" true (Engine.this_run store == v);
        check_int "built once" 1 !builds;
        v)
  in
  check_bool "readable after the run" true (Engine.this_run store == first);
  check_int "the value the run left" 1 !(Engine.this_run store);
  check_int "reading after the run builds nothing" 1 !builds;
  Engine.run (fun () ->
      let v = Engine.this_run store in
      check_int "the next run rebuilds" 2 !builds;
      check_bool "a fresh value" true (v != first && !v = 0))

let test_sleep_advances_clock () =
  let t =
    Engine.run (fun () ->
        Engine.sleep 10.;
        Engine.sleep 5.5;
        Engine.now ())
  in
  check_float "now" 15.5 t

let test_negative_sleep_clamped () =
  let t =
    Engine.run (fun () ->
        Engine.sleep (-4.);
        Engine.now ())
  in
  check_float "now" 0. t

let test_spawn_runs_concurrently () =
  let order = ref [] in
  let mark tag = order := tag :: !order in
  Engine.run (fun () ->
      Engine.spawn (fun () ->
          Engine.sleep 2.;
          mark "b");
      Engine.spawn (fun () ->
          Engine.sleep 1.;
          mark "a");
      Engine.sleep 3.;
      mark "main");
  Alcotest.(check (list string)) "order" [ "a"; "b"; "main" ] (List.rev !order)

let test_same_time_fifo () =
  (* Events at the same timestamp run in scheduling order. *)
  let order = ref [] in
  Engine.run (fun () ->
      for i = 1 to 5 do
        Engine.spawn (fun () -> order := i :: !order)
      done;
      Engine.sleep 1.);
  Alcotest.(check (list int)) "fifo" [ 1; 2; 3; 4; 5 ] (List.rev !order)

let test_main_completion_stops_world () =
  (* A server fiber blocked forever must not prevent termination. *)
  let r =
    Engine.run (fun () ->
        let iv : int Ivar.t = Ivar.create () in
        Engine.spawn (fun () ->
            let (_ : int) = Ivar.read iv in
            ());
        Engine.sleep 1.;
        "done")
  in
  Alcotest.(check string) "result" "done" r

let test_deadlock_detected () =
  Alcotest.check_raises "deadlock" Engine.Deadlock (fun () ->
      Engine.run (fun () ->
          let iv : int Ivar.t = Ivar.create () in
          ignore (Ivar.read iv)));
  (* every fiber waits, directly or through another, on an ivar nobody
     fills *)
  Alcotest.check_raises "deadlock through a relay" Engine.Deadlock (fun () ->
      Engine.run (fun () ->
          let never : unit Ivar.t = Ivar.create () in
          let relay = Ivar.create () in
          for _ = 1 to 3 do
            Engine.spawn (fun () -> Ivar.read never)
          done;
          Engine.spawn (fun () ->
              Ivar.read never;
              Ivar.fill relay 1);
          ignore (Ivar.read relay : int)))

let test_horizon () =
  Alcotest.check_raises "horizon" (Engine.Horizon_reached 10.) (fun () ->
      Engine.run ~until:10. (fun () -> Engine.sleep 100.))

let test_fiber_exception_propagates () =
  Alcotest.check_raises "exn" (Failure "boom") (fun () ->
      Engine.run (fun () ->
          Engine.spawn (fun () -> failwith "boom");
          Engine.sleep 1.))

let test_nested_run_rejected () =
  Engine.run (fun () ->
      match Engine.run (fun () -> ()) with
      | () -> Alcotest.fail "nested run should be rejected"
      | exception Invalid_argument _ -> ())

let test_fiber_ids_unique () =
  Engine.run (fun () ->
      let ids = ref [] in
      for _ = 1 to 3 do
        Engine.spawn (fun () -> ids := Engine.fiber_id () :: !ids)
      done;
      Engine.sleep 1.;
      let sorted = List.sort_uniq compare !ids in
      check_int "unique ids" 3 (List.length sorted))

let test_schedule_thunk () =
  Engine.run (fun () ->
      let fired = ref false in
      ignore (Engine.schedule ~after:5. (fun () -> fired := true));
      Engine.sleep 4.;
      check_bool "not yet" false !fired;
      Engine.sleep 2.;
      check_bool "fired" true !fired)

let test_determinism () =
  let experiment () =
    Engine.run ~seed:7 (fun () ->
        let acc = ref 0. in
        for _ = 1 to 50 do
          let d = Rng.float (Engine.rng ()) 10. in
          Engine.sleep d;
          acc := !acc +. Engine.now ()
        done;
        !acc)
  in
  check_float "same trace" (experiment ()) (experiment ())

let test_spawn_past_raises () =
  Engine.run (fun () ->
      Engine.sleep 100.;
      Alcotest.check_raises "past ~at rejected"
        (Invalid_argument "Sim.Engine.spawn: ~at is in the past") (fun () ->
          Engine.spawn ~at:50. (fun () -> ()));
      (* The boundary case — exactly now — is fine. *)
      Engine.spawn ~at:100. (fun () -> ()))

(* ------------------------------------------------------------------ *)
(* Ivar                                                               *)
(* ------------------------------------------------------------------ *)

let test_ivar_fill_then_read () =
  Engine.run (fun () ->
      let iv = Ivar.create () in
      Ivar.fill iv 9;
      check_int "value" 9 (Ivar.read iv))

let test_ivar_blocks_until_filled () =
  Engine.run (fun () ->
      let iv = Ivar.create () in
      Engine.spawn (fun () ->
          Engine.sleep 10.;
          Ivar.fill iv "hello");
      let v = Ivar.read iv in
      Alcotest.(check string) "value" "hello" v;
      check_float "woke at fill time" 10. (Engine.now ()))

let test_ivar_multiple_readers () =
  Engine.run (fun () ->
      let iv = Ivar.create () in
      let order = ref [] in
      List.iter
        (fun (id, at) ->
          Engine.spawn (fun () ->
              Engine.sleep at;
              let v = Ivar.read iv in
              order := (id, v, Engine.now ()) :: !order))
        [ (3, 3.); (1, 1.); (4, 4.); (2, 2.) ];
      Engine.sleep 10.;
      Ivar.fill iv 7;
      Engine.sleep 1.;
      Alcotest.(check (list (triple int int (float 1e-9))))
        "read order, fill time, filled value"
        [ (1, 7, 10.); (2, 7, 10.); (3, 7, 10.); (4, 7, 10.) ]
        (List.rev !order))

(* For 1, 2 and 3 readers parked at different instants, each resumes
   at the fill's instant and in park order: the first parks in the
   ivar's state, and the second moves it into a queue ahead of itself. *)
let test_ivar_readers_resume_in_park_order () =
  List.iter
    (fun n ->
      Engine.run (fun () ->
          let iv = Ivar.create () in
          let order = ref [] in
          (* reader [id] parks at time [id]: spawned last-first *)
          for id = n downto 1 do
            Engine.spawn (fun () ->
                Engine.sleep (float_of_int id);
                let v = Ivar.read iv in
                order := (id, v, Engine.now ()) :: !order)
          done;
          Engine.sleep 10.;
          Ivar.fill iv n;
          Engine.sleep 1.;
          Alcotest.(check (list (triple int int (float 1e-9))))
            (Printf.sprintf "%d readers: park order, fill time, value" n)
            (List.init n (fun i -> (i + 1, n, 10.)))
            (List.rev !order)))
    [ 1; 2; 3 ]

let test_ivar_double_fill_rejected () =
  Engine.run (fun () ->
      let iv = Ivar.create () in
      Ivar.fill iv 1;
      match Ivar.fill iv 2 with
      | () -> Alcotest.fail "double fill should be rejected"
      | exception Invalid_argument _ -> ())

let test_ivar_peek () =
  Engine.run (fun () ->
      let iv = Ivar.create () in
      check_bool "empty" false (Ivar.is_filled iv);
      Alcotest.(check (option int)) "peek empty" None (Ivar.peek iv);
      Ivar.fill iv 3;
      Alcotest.(check (option int)) "peek full" (Some 3) (Ivar.peek iv))

(* ------------------------------------------------------------------ *)
(* Resource                                                           *)
(* ------------------------------------------------------------------ *)

let test_resource_serializes () =
  (* Two fibers share a capacity-1 resource: the second waits. *)
  Engine.run (fun () ->
      let r = Resource.create ~name:"ssd" ~capacity:1 () in
      let finish = ref [] in
      Engine.spawn (fun () ->
          Resource.use r 10.;
          finish := ("a", Engine.now ()) :: !finish);
      Engine.spawn (fun () ->
          Resource.use r 10.;
          finish := ("b", Engine.now ()) :: !finish);
      Engine.sleep 30.;
      Alcotest.(check (list (pair string (float 1e-9))))
        "sequential" [ ("a", 10.); ("b", 20.) ] (List.rev !finish))

let test_resource_parallel_capacity () =
  Engine.run (fun () ->
      let r = Resource.create ~name:"cpu" ~capacity:2 () in
      let finish = ref [] in
      for _ = 1 to 2 do
        Engine.spawn (fun () ->
            Resource.use r 10.;
            finish := Engine.now () :: !finish)
      done;
      Engine.sleep 30.;
      Alcotest.(check (list (float 1e-9))) "parallel" [ 10.; 10. ] !finish)

let test_resource_fifo_queue () =
  (* Waiters join the station's queue in arrival order, whatever order
     their fibers were spawned in, and are served in that order. *)
  Engine.run (fun () ->
      let r = Resource.create ~name:"x" ~capacity:1 () in
      let served = ref [] in
      Resource.acquire r;
      List.iter
        (fun (id, arrive) ->
          Engine.spawn (fun () ->
              Engine.sleep arrive;
              Resource.use r 5.;
              served := (id, Engine.now ()) :: !served))
        [ ("c", 3.); ("a", 1.); ("d", 4.); ("b", 2.) ];
      Engine.sleep 10.;
      check_int "four waiting" 4 (Resource.queue_length r);
      Resource.release r;
      Engine.sleep 100.;
      Alcotest.(check (list (pair string (float 1e-9))))
        "fifo by arrival"
        [ ("a", 15.); ("b", 20.); ("c", 25.); ("d", 30.) ]
        (List.rev !served))

let test_resource_throughput_cap () =
  (* A 10 µs service time caps a saturated resource at 100K ops/s. *)
  let rate =
    Engine.run (fun () ->
        let r = Resource.create ~name:"x" ~capacity:1 () in
        let m = ref 0 in
        for _ = 1 to 8 do
          Engine.spawn (fun () ->
              for _ = 1 to 100 do
                Resource.use r 10.;
                incr m
              done)
        done;
        Engine.sleep 8_000.;
        float_of_int !m /. 8_000. *. 1e6)
  in
  Alcotest.(check bool) "rate close to 100K" true (abs_float (rate -. 100_000.) < 2_000.)

let test_resource_release_without_acquire () =
  Engine.run (fun () ->
      let r = Resource.create ~name:"x" ~capacity:1 () in
      match Resource.release r with
      | () -> Alcotest.fail "release without acquire should be rejected"
      | exception Invalid_argument _ -> ())

let test_resource_busy_time () =
  Engine.run (fun () ->
      let r = Resource.create ~name:"x" ~capacity:1 () in
      Resource.use r 25.;
      Engine.sleep 75.;
      check_float "busy integral" 25. (Resource.busy_time r))

(* ------------------------------------------------------------------ *)
(* Wait queues                                                        *)
(* ------------------------------------------------------------------ *)

let test_waitq_fifo_wake () =
  Engine.run (fun () ->
      let q = Engine.waitq () in
      let order = ref [] in
      (* spawned in reverse, parked in arrival order 1..4 *)
      for i = 4 downto 1 do
        Engine.spawn (fun () ->
            Engine.sleep (float_of_int i);
            Engine.park q;
            order := (i, Engine.now ()) :: !order)
      done;
      Engine.sleep 10.;
      check_int "all parked" 4 (Engine.waiting q);
      Engine.wake q;
      Engine.sleep 1.;
      Engine.wake q;
      Engine.wake_all q;
      check_int "queue drained" 0 (Engine.waiting q);
      Engine.wake q;
      Engine.sleep 1.;
      Alcotest.(check (list (pair int (float 1e-9))))
        "woken once each, in park order"
        [ (1, 10.); (2, 11.); (3, 11.); (4, 11.) ]
        (List.rev !order))

(* A queue that grows (1, 2, 4, ... slots) while its ring has wrapped
   and fibers are parked on it: they wake in park order, and each
   resumes as itself, seeing the [fiber_id] it parked with. *)
let test_waitq_growth_wakes_in_order () =
  Engine.run (fun () ->
      let q = Engine.waitq () in
      let woken = ref [] in
      let parker i =
        Engine.spawn (fun () ->
            let id = Engine.fiber_id () in
            Engine.park q;
            woken := (i, id = Engine.fiber_id ()) :: !woken)
      in
      (* three park and two wake first, so the ring's head has moved
         when it grows *)
      for i = 1 to 3 do
        parker i
      done;
      Engine.yield ();
      Engine.wake q;
      Engine.wake q;
      for i = 4 to 40 do
        parker i
      done;
      Engine.yield ();
      check_int "parked" 38 (Engine.waiting q);
      Engine.wake_all q;
      Engine.yield ();
      check_int "drained" 0 (Engine.waiting q);
      Alcotest.(check (list (pair int bool)))
        "park order, each as itself"
        (List.init 40 (fun i -> (i + 1, true)))
        (List.rev !woken))

(* A grant handed over by [release] stands even if the station fails
   at the same instant, before the grantee runs: the grantee must take
   the server (a failure would leak the slot [release] kept for it),
   while the fibers still queued fail. *)
let test_resource_grant_survives_same_instant_fail () =
  Engine.run (fun () ->
      let r = Resource.create ~name:"ssd" ~capacity:1 () in
      Resource.acquire r;
      let outcome = Array.make 3 "pending" in
      for i = 0 to 2 do
        Engine.spawn (fun () ->
            match Resource.acquire r with
            | () ->
                outcome.(i) <- "acquired";
                Engine.sleep 5.;
                Resource.release r
            | exception Resource.Failed _ -> outcome.(i) <- "failed")
      done;
      Engine.sleep 1.;
      Resource.release r;
      Resource.fail r;
      Engine.sleep 10.;
      Alcotest.(check (array string))
        "first waiter served, the rest failed"
        [| "acquired"; "failed"; "failed" |]
        outcome;
      Resource.repair r;
      (* no slot leaked: the station is free again at once *)
      let t0 = Engine.now () in
      Resource.acquire r;
      check_float "acquired without waiting" t0 (Engine.now ());
      Resource.release r;
      check_float "busy for the two holds" 6. (Resource.busy_time r))

(* ------------------------------------------------------------------ *)
(* Net                                                                *)
(* ------------------------------------------------------------------ *)

(* The cap on a test fabric's RPC deadlines, far past any round trip
   here unless a test sets its own. *)
let timeout_us = 50_000.

let make_net ?(jitter = 0.) ?(timeout_us = timeout_us) () =
  Net.create ~latency:50. ~bandwidth:125. ~jitter ~timeout_us ()

let test_net_rpc_roundtrip () =
  Engine.run (fun () ->
      let net = make_net () in
      let a = Net.add_host net "a" in
      let b = Net.add_host net "b" in
      let echo = Net.service b ~name:"echo" (fun x -> x * 2) in
      let r = Net.call ~from:a echo 21 in
      check_int "resp" 42 r;
      (* Two hops of 64B each way: 2*(2*64/125 + 50) ≈ 102 µs. *)
      let t = Engine.now () in
      check_bool "latency sane" true (t > 100. && t < 110.))

let test_net_loopback_is_free () =
  Engine.run (fun () ->
      let net = make_net () in
      let a = Net.add_host net "a" in
      let echo = Net.service a ~name:"echo" (fun x -> x) in
      let r = Net.call ~from:a echo 5 in
      check_int "resp" 5 r;
      check_float "no time passed" 0. (Engine.now ()))

let test_net_bandwidth_charged () =
  Engine.run (fun () ->
      let net = make_net () in
      let a = Net.add_host net "a" in
      let b = Net.add_host net "b" in
      let sink = Net.service b ~name:"sink" (fun (_ : string) -> ()) in
      Net.call ~req_bytes:4096 ~resp_bytes:64 ~from:a sink "payload";
      (* Request: 2*32.77 + 50; response: 2*0.5 + 50 -> ~166-167 µs *)
      let t = Engine.now () in
      check_bool "4KB serialization charged" true (t > 160. && t < 175.))

let test_net_server_saturation () =
  (* Many clients calling a service that charges 100 µs on one CPU
     core: aggregate throughput caps at 10K/s. *)
  let count =
    Engine.run (fun () ->
        let net = make_net () in
        let server = Net.add_host net "srv" in
        let cpu = Resource.create ~name:"srv.cpu" ~capacity:1 () in
        let svc = Net.service server ~name:"work" (fun () -> Resource.use cpu 100.) in
        let n = ref 0 in
        for i = 1 to 10 do
          let client = Net.add_host net (Printf.sprintf "c%d" i) in
          Engine.spawn (fun () ->
              for _ = 1 to 50 do
                Net.call ~from:client svc ();
                incr n
              done)
        done;
        Engine.sleep 20_000.;
        !n)
  in
  (* 20 ms at 10K/s is ~200 completions. *)
  check_bool "server-bound" true (count > 150 && count <= 210)

(* ------------------------------------------------------------------ *)
(* Fault injection                                                    *)
(* ------------------------------------------------------------------ *)

let test_fault_judge_crash_and_partition () =
  Engine.run (fun () ->
      let f = Fault.create () in
      let deliver src dst = match Fault.judge f ~src ~dst with Fault.Deliver _ -> true | Fault.Drop -> false in
      check_bool "idle delivers" true (deliver "a" "b");
      Fault.crash f "b";
      check_bool "to crashed drops" false (deliver "a" "b");
      check_bool "from crashed drops" false (deliver "b" "a");
      Fault.restart f "b";
      check_bool "restart restores" true (deliver "a" "b");
      Fault.partition f [ [ "a" ]; [ "b" ] ];
      check_bool "across partition drops" false (deliver "a" "b");
      (* hosts named in no component share the implicit one *)
      check_bool "implicit component connected" true (deliver "c" "d");
      check_bool "named to implicit drops" false (deliver "a" "c");
      Fault.heal f;
      check_bool "heal restores" true (deliver "a" "b"))

(* A recovery whose fault is not in force changes nothing, so it leaves
   no event, no milestone and no [fault.injected] count; the same
   recovery with its fault in force leaves one of each. *)
let test_fault_nothing_to_recover () =
  Engine.run (fun () ->
      let f = Fault.create () in
      let milestones = ref 0 in
      Announce.subscribe (fun _ -> incr milestones);
      let injected () =
        List.fold_left
          (fun acc host -> acc + Metrics.counter_value (Metrics.counter ?host "fault.injected"))
          0 [ None; Some "a" ]
      in
      let recoveries =
        [ Fault.Restart "a"; Fault.Heal; Fault.Clear_edge ("a", "b"); Fault.Clear_edge ("a", "*") ]
      in
      List.iter (Fault.apply f) recoveries;
      check_int "no event" 0 (List.length (Fault.events f));
      check_int "no milestone" 0 !milestones;
      check_int "no fault.injected" 0 (injected ());
      (* a degrade of another edge leaves nothing for a clear of this one *)
      Fault.degrade f ~src:"a" ~dst:"*" ~drop:0.5 ();
      Fault.clear_edge f ~src:"a" ~dst:"b";
      check_int "clear of an unmatched edge logs nothing" 1 (List.length (Fault.events f));
      Fault.crash f "a";
      Fault.partition f [ [ "a" ] ];
      List.iter (Fault.apply f) recoveries;
      List.iter (Fault.apply f) recoveries;
      Alcotest.(check (list string))
        "each recovery counted once, while its fault was in force"
        [ "degrade a->* drop=0.500 delay=0+0us"; "crash a"; "partition a"; "restart a"; "heal";
          "clear-edge a->*" ]
        (List.map (fun e -> e.Fault.ev_label) (Fault.events f));
      check_int "one milestone per event" 6 !milestones;
      check_int "one fault.injected per event" 6 (injected ()))

let test_fault_edge_delay_observed () =
  Engine.run (fun () ->
      let net = make_net () in
      let a = Net.add_host net "a" in
      let b = Net.add_host net "b" in
      let c = Net.add_host net "c" in
      let f = Fault.create () in
      Net.install_fault net f;
      let echo = Net.service b ~name:"echo" (fun x -> x) in
      (* The delayed call goes to a service on a third host, whose pair
         with [a] has no answer yet: its deadline is the whole cap, not
         an RTO learnt from the fast round trip to [b]. *)
      let echo' = Net.service c ~name:"echo'" (fun x -> x) in
      (* quiescent controller: same cost as the fault-free path *)
      ignore (Net.call ~from:a echo 0);
      let base = Engine.now () in
      check_bool "baseline sane" true (base > 100. && base < 110.);
      Fault.degrade f ~src:"a" ~dst:"c" ~delay_us:500. ();
      ignore (Net.call ~from:a echo' 0);
      let dt = Engine.now () -. base in
      (* request leg pays the extra 500 µs; response leg is untouched *)
      check_bool "delay added once" true (dt > base +. 490. && dt < base +. 520.);
      Fault.clear_edge f ~src:"a" ~dst:"c";
      let t2 = Engine.now () in
      ignore (Net.call ~from:a echo 0);
      check_bool "clear restores" true (Engine.now () -. t2 < 110.))

let test_fault_resource_fail_repair () =
  Engine.run (fun () ->
      let r = Resource.create ~name:"ssd" ~capacity:1 () in
      Resource.acquire r;
      (* a fiber queued behind the holder must be woken with failure *)
      let outcome = ref "pending" in
      Engine.spawn (fun () ->
          match Resource.acquire r with
          | () -> outcome := "acquired"
          | exception Resource.Failed _ -> outcome := "failed");
      Engine.sleep 1.;
      Resource.fail r;
      Engine.sleep 1.;
      Alcotest.(check string) "waiter drained with failure" "failed" !outcome;
      check_bool "failed flag" true (Resource.failed r);
      (match Resource.use r 1. with
      | () -> Alcotest.fail "use on failed resource must raise"
      | exception Resource.Failed _ -> ());
      Resource.release r;
      Resource.repair r;
      Resource.use r 1.;
      check_bool "repaired" false (Resource.failed r))

(* A call to a dead host waits out its deadline, and so does a call
   from a dead host or a loopback call on a failed device: [Unanswered]
   comes only when a deadline passes, so a retry loop never spins at
   one instant. One answered call of round trip R sets the pair's RTO
   to R + max(4 R/2, 3 R) = 4 R, well inside the fabric's 1 ms cap, so
   the dead server's call waits 4 R. The answered call after the
   restart, of round trip R', recomputes the RTO from the smoothed
   values (RFC 6298: SRTT = 7/8 R + 1/8 R', RTTVAR = 3/4 R/2 + 1/4
   |R - R'|), and the crashed caller waits that RTO and feeds no
   estimate. A host's calls to itself feed none either, so the failed
   device's loopback call waits the whole cap. *)
let test_fault_call_r_paths () =
  Engine.run (fun () ->
      let net = make_net ~timeout_us:1_000. () in
      let a = Net.add_host net "a" in
      let b = Net.add_host net "b" in
      let c = Net.add_host net "c" in
      let f = Fault.create () in
      Net.install_fault net f;
      let echo = Net.service b ~name:"echo" (fun x -> x + 1) in
      let ssd = Resource.create ~name:"c.ssd" ~capacity:1 () in
      let local =
        Net.service c ~name:"local" (fun x ->
            Resource.use ssd 10.;
            x + 1)
      in
      let unanswered what ~from svc x =
        let t0 = Engine.now () in
        match Net.call ~from svc x with
        | r -> Alcotest.failf "%s: answered %d" what r
        | exception Net.Unanswered -> Engine.now () -. t0
      in
      check_int "healthy call" 2 (Net.call ~from:a echo 1);
      let rtt = Engine.now () in
      Fault.crash f "b";
      check_float "dead server: unanswered at the deadline" (4. *. rtt)
        (unanswered "dead server" ~from:a echo 1);
      Fault.restart f "b";
      let t1 = Engine.now () in
      check_int "restart restores the call" 6 (Net.call ~from:a echo 5);
      let rtt' = Engine.now () -. t1 in
      let srtt = (0.875 *. rtt) +. (0.125 *. rtt') in
      let rttvar = (0.75 *. (rtt /. 2.)) +. (0.25 *. Float.abs (rtt -. rtt')) in
      let rto = srtt +. Float.max (4. *. rttvar) (3. *. srtt) in
      Fault.crash f "a";
      check_float "crashed caller: unanswered at its deadline" rto
        (unanswered "crashed caller" ~from:a echo 1);
      check_float "crashed caller: the estimate is unchanged" rto
        (unanswered "crashed caller again" ~from:a echo 1);
      check_int "loopback call on a healthy device" 3 (Net.call ~from:c local 2);
      Resource.fail ssd;
      check_float "loopback on a failed device: unanswered at the cap" 1_000.
        (unanswered "failed device" ~from:c local 2))

(* The response hop drops a message whose receiver died in flight,
   exactly like the request hop: a caller that crashes after the
   server answered never sees the answer, even if it is back before
   its deadline. With latency 50 µs the response leaves the server at
   ~51.5 µs and lands at ~101.5 µs; the caller crashes at 75 µs. No
   call of the pair is ever answered, so each deadline is the fabric's
   whole 1 ms cap. *)
let test_fault_crashed_caller_loses_response () =
  Engine.run (fun () ->
      let net = make_net ~timeout_us:1_000. () in
      let a = Net.add_host net "a" in
      let b = Net.add_host net "b" in
      let f = Fault.create () in
      Net.install_fault net f;
      let served = ref 0 in
      let echo =
        Net.service b ~name:"echo" (fun x ->
            incr served;
            x + 1)
      in
      let call () =
        let t0 = Engine.now () in
        match Net.call ~from:a echo 1 with
        | _ -> Alcotest.fail "response delivered to a crashed caller"
        | exception Net.Unanswered -> Engine.now () -. t0
      in
      (* The caller is back at 500 µs, well before its deadline. *)
      ignore (Engine.schedule ~after:75. (fun () -> Fault.crash f "a"));
      ignore (Engine.schedule ~after:500. (fun () -> Fault.restart f "a"));
      check_float "restarted caller still waits out the deadline" 1_000. (call ());
      check_int "request served" 1 !served;
      ignore (Engine.schedule ~after:75. (fun () -> Fault.crash f "a"));
      check_float "crashed caller times out at the deadline" 1_000. (call ());
      check_int "second request served" 2 !served)

(* A call that times out leaves its exchange in flight, and it must not
   settle a later call on the same service; nor may an answered call's
   deadline, which the answer cancels. With latency 5 µs and no jitter
   a round trip costs 12.048 µs plus the handler's [work]:
   - call 1 (work 1200) times out at 1000 while its request is being
     served; its response lands at 1212, inside call 2;
   - call 2 (work 800) must get its own answer, at 812;
   - call 3 (work 0) is answered at once;
   - call 4 (work 980), issued right after, is answered after call 2's
     deadline (at 2000) and call 3's (at 2812) would have fired, and
     must get its own answer.
   Every deadline is the fabric's 1,000 µs cap: calls 1 and 2 come before any
   answer, and the RTO learnt from call 2 (3,248 µs) and from call 3
   (about 2,850 µs) both exceed it. *)
let test_fault_call_r_late_response () =
  Engine.run (fun () ->
      let timeout_us = 1_000. in
      let net = Net.create ~latency:5. ~bandwidth:125. ~jitter:0. ~timeout_us () in
      let a = Net.add_host net "a" in
      let b = Net.add_host net "b" in
      Net.install_fault net (Fault.create ());
      let served = ref [] in
      let slow =
        Net.service b ~name:"slow" (fun (id, work) ->
            Engine.sleep work;
            served := id :: !served;
            id)
      in
      let call id work =
        let t0 = Engine.now () in
        let r =
          match Net.call ~from:a slow (id, work) with
          | got -> Some got
          | exception Net.Unanswered -> None
        in
        (r, Engine.now () -. t0)
      in
      let answered id work =
        match call id work with
        | Some got, dt ->
            check_int (Printf.sprintf "call %d gets its own answer" id) id got;
            check_bool (Printf.sprintf "call %d answered before its deadline" id) true
              (dt < timeout_us)
        | None, dt -> Alcotest.failf "call %d failed after %g us" id dt
      in
      (match call 1 1_200. with
      | None, dt -> check_float "timed out at exactly its deadline" timeout_us dt
      | Some got, _ -> Alcotest.failf "call 1 answered (%d) past its deadline" got);
      check_int "late request still in service" 0 (List.length !served);
      answered 2 800.;
      Alcotest.(check (list int)) "late request served, then call 2's" [ 2; 1 ] !served;
      answered 3 0.;
      answered 4 980.;
      Engine.sleep 2_000.;
      Alcotest.(check (list int)) "every request served once" [ 4; 3; 2; 1 ] !served)

(* An answered call cancels its deadline: 1,000 calls answered long
   before their 50 ms deadlines leave no event pending behind them. *)
let test_fault_call_r_answered_cancels_deadline () =
  Engine.run (fun () ->
      let net = make_net () in
      let a = Net.add_host net "a" in
      let b = Net.add_host net "b" in
      Net.install_fault net (Fault.create ());
      let echo = Net.service b ~name:"echo" (fun x -> x + 1) in
      let before = Engine.pending_events () in
      for i = 1 to 1_000 do
        check_int "echo" (i + 1) (Net.call ~from:a echo i)
      done;
      check_bool "the calls outlasted a deadline" true (Engine.now () > 50_000.);
      check_int "no deadline left pending" before (Engine.pending_events ()))

(* An installed controller with no active faults changes no outcome and
   no virtual time: a call spends exactly what it spends with no
   controller. Its exchange runs in a helper fiber, which costs exactly
   two dispatched events per call beyond the bare exchange's: the
   helper's start and the caller's wake-up. The answered deadline is
   cancelled, never dispatched. *)
let test_fault_quiet_controller_is_free () =
  let run ~install =
    Engine.run ~seed:3 (fun () ->
        let net = make_net ~jitter:0.05 ~timeout_us:1e6 () in
        let a = Net.add_host net "a" in
        let b = Net.add_host net "b" in
        if install then Net.install_fault net (Fault.create ());
        let echo = Net.service b ~name:"echo" (fun x -> x + 1) in
        let e0 = Engine.events_dispatched () in
        for i = 1 to 20 do
          check_int "echo" (i + 1) (Net.call ~from:a echo i)
        done;
        (Engine.now (), Engine.events_dispatched () - e0))
  in
  let t_bare, ev_bare = run ~install:false in
  let t_call, ev_call = run ~install:true in
  check_bool "calls took time" true (t_bare > 2_000.);
  check_float "same virtual time" t_bare t_call;
  check_int "two events per call" (ev_bare + (2 * 20)) ev_call

(* -- deadlines that follow the round trip ------------------------------ *)

(* Whether a call was answered, and how long it took. *)
let timed_call ~from svc x =
  let t0 = Engine.now () in
  match Net.call ~from svc x with
  | _ -> (true, Engine.now () -. t0)
  | exception Net.Unanswered -> (false, Engine.now () -. t0)

(* A fabric with a controller and no jitter, so every round trip
   between [a] and [b] is the same [rtt]; [answer n] makes [n] answered
   calls on [echo] and returns that round trip. With a constant round
   trip R the RTO is R + max(4 RTTVAR, 3 R) = 4 R, since RTTVAR starts
   at R/2 and only decays. [timeout_us] is the fabric's cap. *)
let with_rtt_pair ?timeout_us body =
  Engine.run (fun () ->
      let net = make_net ?timeout_us () in
      let a = Net.add_host net "a" in
      let b = Net.add_host net "b" in
      let f = Fault.create () in
      Net.install_fault net f;
      let echo = Net.service b ~name:"echo" (fun x -> x) in
      let answer n =
        let rtt = ref 0. in
        for _ = 1 to n do
          match timed_call ~from:a echo 0 with
          | true, dt -> rtt := dt
          | false, _ -> Alcotest.fail "a healthy call went unanswered"
        done;
        !rtt
      in
      body f a echo answer)

(* Before the pair's first answer a call waits the fabric's whole cap,
   and an unanswered call leaves nothing to back off from: the next
   fresh call waits the whole cap again. *)
let test_deadline_first_call_waits_cap () =
  with_rtt_pair ~timeout_us:5_000. (fun f a echo _ ->
      Fault.crash f "b";
      for i = 1 to 2 do
        match timed_call ~from:a echo 0 with
        | false, dt -> check_float (Printf.sprintf "call %d waits timeout_us" i) 5_000. dt
        | true, _ -> Alcotest.fail "a dead server answered"
      done)

(* Once the pair has answers, a call's deadline is min(cap, RTO x
   (1 + calls already in flight)): three calls issued together to a
   dead server expire after 4 R, 8 R and the fabric's 10 R cap (12 R
   uncapped). With no jitter R is two hops of 64 bytes each way. *)
let test_deadline_rto_times_in_flight () =
  let rtt = 2. *. ((2. *. 64. /. 125.) +. 50.) in
  let cap = 10. *. rtt in
  with_rtt_pair ~timeout_us:cap (fun f a echo answer ->
      let r = answer 5 in
      check_float "the round trip" rtt r;
      Fault.crash f "b";
      let waited = Array.make 3 0. in
      let done_ = ref 0 in
      for i = 0 to 2 do
        Engine.spawn (fun () ->
            (match timed_call ~from:a echo 0 with
            | false, dt -> waited.(i) <- dt
            | true, _ -> Alcotest.fail "a dead server answered");
            incr done_)
      done;
      while !done_ < 3 do
        Engine.sleep r
      done;
      check_float "no call ahead: one RTO" (4. *. r) waited.(0);
      check_float "one call ahead: two RTOs" (8. *. r) waited.(1);
      check_float "two calls ahead: the cap" cap waited.(2))

(* An unanswered call doubles the pair's RTO (Karn's backoff); the next
   answer recomputes it from the smoothed round trip. *)
let test_deadline_unanswered_doubles_rto () =
  with_rtt_pair (fun f a echo answer ->
      let r = answer 5 in
      Fault.crash f "b";
      List.iter
        (fun k ->
          match timed_call ~from:a echo 0 with
          | false, dt -> check_float (Printf.sprintf "deadline %g R" k) (k *. r) dt
          | true, _ -> Alcotest.fail "a dead server answered")
        [ 4.; 8.; 16.; 32. ];
      Fault.restart f "b";
      ignore (answer 1 : float);
      Fault.crash f "b";
      match timed_call ~from:a echo 0 with
      | false, dt -> check_float "an answer resets the RTO" (4. *. r) dt
      | true, _ -> Alcotest.fail "a dead server answered")

(* A live peer whose round trip jumps 20x is reached within
   ceil(log2 20) = 5 attempts: each expired attempt doubles the next
   one's deadline, and no attempt's late answer settles another. *)
let test_deadline_slow_peer_reached () =
  with_rtt_pair (fun f a echo answer ->
      let r = answer 5 in
      Fault.degrade f ~src:"a" ~dst:"b" ~delay_us:(19. *. r) ();
      let rec attempt n =
        if n > 5 then Alcotest.fail "the slowed peer was not reached in 5 attempts"
        else
          match timed_call ~from:a echo n with
          | true, dt ->
              check_bool "answered at the new round trip" true (Float.abs (dt -. (20. *. r)) < 1.);
              n
          | false, _ -> attempt (n + 1)
      in
      check_int "attempts: deadlines 4, 8, 16 R miss, 32 R answers" 4 (attempt 1))

(* The estimate belongs to the host pair, not to a service: after
   answered calls to one service of [b], the first call to another
   service of [b], over a link that drops everything, expires at the
   learnt RTO (4 R), not at the fabric's cap. *)
let test_deadline_shared_by_host_services () =
  Engine.run (fun () ->
      let net = make_net () in
      let a = Net.add_host net "a" in
      let b = Net.add_host net "b" in
      let f = Fault.create () in
      Net.install_fault net f;
      let echo = Net.service b ~name:"echo" (fun x -> x) in
      let other = Net.service b ~name:"other" (fun x -> x) in
      let r = ref 0. in
      for _ = 1 to 5 do
        match timed_call ~from:a echo 0 with
        | true, dt -> r := dt
        | false, _ -> Alcotest.fail "a healthy call went unanswered"
      done;
      Fault.degrade f ~src:"a" ~dst:"b" ~drop:1.0 ();
      match timed_call ~from:a other 0 with
      | false, dt -> check_float "the other service's first call waits 4 R" (4. *. !r) dt
      | true, _ -> Alcotest.fail "a dropped call was answered")

(* A service with a hold parks its callers by design, so its calls wait
   their hold plus the cap however fast its earlier answers came; a
   plain service with the same history expires after its RTO. *)
let test_deadline_held_service_not_cut_short () =
  Engine.run (fun () ->
      let net = make_net () in
      let a = Net.add_host net "a" in
      let b = Net.add_host net "b" in
      Net.install_fault net (Fault.create ());
      let hold wait =
        Engine.sleep wait;
        wait
      in
      let held = Net.service ~hold:Fun.id b ~name:"watch" hold in
      let plain = Net.service b ~name:"plain" hold in
      for _ = 1 to 5 do
        ignore (Net.call ~from:a held 0.);
        ignore (Net.call ~from:a plain 0.)
      done;
      (match timed_call ~from:a held 5_000. with
      | true, dt -> check_bool "held call answered after its wait" true (dt > 5_000.)
      | false, _ -> Alcotest.fail "the held call was cut short");
      match timed_call ~from:a plain 5_000. with
      | false, dt -> check_bool "plain call expired after its RTO" true (dt < 1_000.)
      | true, _ -> Alcotest.fail "the plain call waited past its RTO")

let test_fault_schedule_is_virtual_time () =
  Engine.run (fun () ->
      let f = Fault.create () in
      Fault.plan f [ (100., Fault.Crash "x"); (200., Fault.Restart "x") ];
      check_bool "not yet" false (Fault.is_crashed f "x");
      Engine.sleep 150.;
      check_bool "crashed at 100" true (Fault.is_crashed f "x");
      Engine.sleep 100.;
      check_bool "restarted at 200" false (Fault.is_crashed f "x");
      match Fault.events f with
      | [ e1; e2 ] ->
          check_float "first at 100" 100. e1.Fault.ev_time;
          check_float "second at 200" 200. e2.Fault.ev_time
      | evs -> Alcotest.failf "expected 2 events, got %d" (List.length evs))

(* A custom action is a name: the controller runs it through the one
   interpreter it was created with, at the scheduled virtual time, and
   logs it under that name, unless the interpreter says it did not act.
   A controller with no interpreter refuses. *)
let test_fault_custom_interpreter () =
  Engine.run (fun () ->
      let ran = ref [] in
      let f =
        Fault.create
          ~custom:(fun name ->
            ran := (name, Engine.now ()) :: !ran;
            name <> "ssd-fail y")
          ()
      in
      Fault.plan f
        [
          (100., Fault.Custom "ssd-fail x");
          (150., Fault.Custom "ssd-fail y");
          (250., Fault.Custom "ssd-repair x");
        ];
      Engine.sleep 300.;
      check_bool "interpreted by name at the planned times" true
        (List.rev !ran = [ ("ssd-fail x", 100.); ("ssd-fail y", 150.); ("ssd-repair x", 250.) ]);
      check_bool "logged by name, the one that did not act left out" true
        (List.map (fun e -> e.Fault.ev_label) (Fault.events f) = [ "ssd-fail x"; "ssd-repair x" ]);
      match Fault.apply (Fault.create ()) (Fault.Custom "ssd-fail x") with
      | () -> Alcotest.fail "a custom ran with no interpreter"
      | exception Invalid_argument _ -> ())

(* The determinism contract: same seeds, same plan => byte-identical
   trace, including drop decisions from the controller's private rng. *)
let test_fault_trace_deterministic () =
  let scenario () =
    Trace.capture (fun () ->
        Engine.run ~seed:5 (fun () ->
            let net = make_net ~jitter:0.05 ~timeout_us:400. () in
            let a = Net.add_host net "a" in
            let b = Net.add_host net "b" in
            let f = Fault.create ~seed:3 () in
            Net.install_fault net f;
            Fault.degrade f ~src:"a" ~dst:"b" ~drop:0.3 ~delay_us:20. ~jitter_us:10. ();
            Fault.plan f [ (3_000., Fault.Crash "b"); (6_000., Fault.Restart "b") ];
            let echo = Net.service b ~name:"echo" (fun x -> x) in
            let got = ref 0 in
            for i = 1 to 40 do
              (match Net.call ~from:a echo i with
              | _ -> incr got
              | exception Net.Unanswered -> ());
              Engine.sleep 100.
            done;
            (!got, Engine.now ())))
  in
  let r1, t1 = scenario () in
  let r2, t2 = scenario () in
  check_bool "some rpcs lost" true (fst r1 < 40);
  check_bool "same result" true (r1 = r2);
  check_bool "trace holds the fault milestones" true (t1 <> "");
  Alcotest.(check string) "byte-identical trace" t1 t2

(* ------------------------------------------------------------------ *)
(* Stats                                                              *)
(* ------------------------------------------------------------------ *)

let test_series_basics () =
  let s = Stats.Series.create () in
  List.iter (Stats.Series.add s) [ 5.; 1.; 3.; 2.; 4. ];
  check_int "count" 5 (Stats.Series.count s);
  check_float "mean" 3. (Stats.Series.mean s);
  check_float "p0" 1. (Stats.Series.percentile s 0.);
  check_float "p100" 5. (Stats.Series.percentile s 100.);
  check_float "median" 3. (Stats.Series.percentile s 50.)

let test_series_percentile_interpolates () =
  let s = Stats.Series.create () in
  List.iter (Stats.Series.add s) [ 0.; 10. ];
  check_float "p25" 2.5 (Stats.Series.percentile s 25.)

let test_series_grows () =
  let s = Stats.Series.create () in
  for i = 1 to 5000 do
    Stats.Series.add s (float_of_int i)
  done;
  check_int "count" 5000 (Stats.Series.count s);
  check_float "max" 5000. (Stats.Series.percentile s 100.)

let test_series_add_after_percentile () =
  let s = Stats.Series.create () in
  List.iter (Stats.Series.add s) [ 3.; 1. ];
  ignore (Stats.Series.percentile s 50.);
  Stats.Series.add s 2.;
  check_float "median updated" 2. (Stats.Series.percentile s 50.)

let expect_invalid_arg what f =
  match f () with
  | _ -> Alcotest.fail (what ^ ": expected Invalid_argument")
  | exception Invalid_argument _ -> ()

let test_series_percentile_edges () =
  let s = Stats.Series.create () in
  check_bool "empty percentile_opt" true (Stats.Series.percentile_opt s 50. = None);
  expect_invalid_arg "empty percentile" (fun () -> Stats.Series.percentile s 50.);
  Stats.Series.add s 7.;
  check_float "1-sample p0" 7. (Stats.Series.percentile s 0.);
  check_float "1-sample p50" 7. (Stats.Series.percentile s 50.);
  check_float "1-sample p100" 7. (Stats.Series.percentile s 100.);
  List.iter (Stats.Series.add s) [ 1.; 3. ];
  check_float "p0 is min" 1. (Stats.Series.percentile s 0.);
  check_float "p50 is median" 3. (Stats.Series.percentile s 50.);
  check_float "p100 is max" 7. (Stats.Series.percentile s 100.);
  expect_invalid_arg "p > 100" (fun () -> Stats.Series.percentile s 101.);
  expect_invalid_arg "p < 0" (fun () -> Stats.Series.percentile_opt s (-1.));
  expect_invalid_arg "p nan" (fun () -> Stats.Series.percentile s Float.nan)

(* ------------------------------------------------------------------ *)
(* Metrics registry                                                   *)
(* ------------------------------------------------------------------ *)

(* A timed section observes a body that raises, closes its span, and
   re-raises the very exception. *)
exception Boom of int

let test_metrics_time_observes_raise () =
  Span.set_enabled true;
  Fun.protect ~finally:(fun () -> Span.set_enabled false) @@ fun () ->
  Engine.run (fun () ->
      let h = Metrics.histogram "raise_us" in
      let site = Span.site ~host:"h" ~hist:h "raising" in
      let timed body =
        let tok = Span.enter site () in
        match body () with
        | r ->
            Span.leave site tok;
            r
        | exception e -> Span.leave_raise site tok e
      in
      let raised = Boom 7 in
      (match
         timed (fun () ->
             Engine.sleep 4.;
             raise raised)
       with
      | () -> Alcotest.fail "the raise was swallowed"
      | exception e -> check_bool "the same exception re-raised" true (e == raised));
      check_int "observed once" 1 (Metrics.hist_count h);
      (* one observation: the estimate is clamped to it *)
      check_float "elapsed" 4. (Metrics.hist_percentile h 50.);
      (match Span.spans () with
      | [ v ] -> check_bool "span closed" true (v.Span.v_end = Some 4.)
      | l -> Alcotest.failf "expected 1 span, got %d" (List.length l));
      check_int "no stack left open" 0 (Span.open_fibers ());
      check_int "result passes through" 3 (timed (fun () -> 3));
      check_int "observed again" 2 (Metrics.hist_count h))

let test_metrics_get_or_create () =
  Engine.run (fun () ->
      let c1 = Metrics.counter ~host:"h" "ops" in
      let c2 = Metrics.counter ~host:"h" "ops" in
      Metrics.incr c1;
      Metrics.add c2 2;
      check_int "same underlying counter" 3 (Metrics.counter_value c1);
      (* a different host label is a different counter *)
      check_int "host-qualified distinct" 0 (Metrics.counter_value (Metrics.counter "ops"));
      let g = Metrics.gauge "depth" in
      Metrics.set_gauge g 4.;
      check_float "gauge readback" 4. (Metrics.gauge_value g);
      let h = Metrics.histogram ~host:"h" "lat_us" in
      Metrics.observe h 10.;
      Metrics.observe h 1_000.;
      check_int "hist count" 2 (Metrics.hist_count h);
      check_bool "p50 within observed range" true
        (Metrics.hist_percentile h 50. >= 10. && Metrics.hist_percentile h 50. <= 1_000.))

let test_metrics_reset_across_runs () =
  Engine.run (fun () -> Metrics.incr (Metrics.counter "a"));
  (* readable post-mortem: the registry survives the end of the run *)
  check_int "post-run readback" 1 (Metrics.counter_value (Metrics.counter "a"));
  Engine.run (fun () ->
      check_int "fresh registry in new run" 0 (Metrics.counter_value (Metrics.counter "a")))

let test_metrics_sampler_series () =
  Engine.run (fun () ->
      let r = Resource.create ~name:"dev" ~capacity:1 () in
      Metrics.track_resource r;
      Metrics.start_sampler ();
      Engine.spawn (fun () ->
          for _ = 1 to 5 do
            Resource.use r 50.
          done);
      (* samples at 1 000 and 2 000 µs *)
      Engine.sleep 2_500.);
  let snap = Metrics.snapshot () in
  let find name =
    List.find_opt (fun (s : Metrics.series_view) -> String.equal s.Metrics.s_name name)
      snap.Metrics.series
  in
  (match find "util:dev" with
  | Some s ->
      check_bool "util points recorded" true (Array.length s.Metrics.s_points > 0);
      check_bool "busy interval sampled" true
        (Array.exists (fun (_, v) -> v > 0.) s.Metrics.s_points)
  | None -> Alcotest.fail "util:dev series missing");
  check_bool "qlen series present" true (find "qlen:dev" <> None)

(* ------------------------------------------------------------------ *)
(* Spans                                                              *)
(* ------------------------------------------------------------------ *)

let with_spans_on f =
  Span.set_enabled true;
  Fun.protect ~finally:(fun () -> Span.set_enabled false) f

let test_span_nesting () =
  with_spans_on (fun () ->
      Engine.run (fun () ->
          Span.with_span ~host:"h" "outer" (fun () ->
              Engine.sleep 10.;
              Span.with_span "inner" (fun () -> Engine.sleep 5.))));
  match Span.spans () with
  | [ outer; inner ] ->
      check_bool "inner's parent is outer" true (inner.Span.v_parent = Some outer.Span.v_id);
      check_bool "host inherited" true (inner.Span.v_host = Some "h");
      check_float "outer starts at 0" 0. outer.Span.v_start;
      check_float "inner starts after sleep" 10. inner.Span.v_start;
      check_bool "intervals nest" true
        (match (outer.Span.v_end, inner.Span.v_end) with
        | Some oe, Some ie -> ie <= oe && outer.Span.v_start <= inner.Span.v_start
        | _ -> false)
  | l -> Alcotest.fail (Printf.sprintf "expected 2 spans, got %d" (List.length l))

let test_span_cross_fiber_parent () =
  with_spans_on (fun () ->
      Engine.run (fun () ->
          Span.with_span ~host:"h" "root" (fun () ->
              let p = Span.current () in
              Engine.spawn (fun () ->
                  Span.with_parent p (fun () ->
                      Span.with_span "child" (fun () -> Engine.sleep 1.)));
              Engine.sleep 10.)));
  let spans = Span.spans () in
  let find n = List.find (fun (v : Span.view) -> String.equal v.Span.v_name n) spans in
  let root = find "root" in
  let child = find "child" in
  check_bool "cross-fiber parent" true (child.Span.v_parent = Some root.Span.v_id);
  check_bool "distinct fibers" true (child.Span.v_fiber <> root.Span.v_fiber);
  check_bool "host carried across fibers" true (child.Span.v_host = Some "h")

(* A site names its span and its histogram once: for the same call the
   span's duration is exactly the histogram's observation. *)
let test_span_named_once () =
  with_spans_on (fun () ->
      Engine.run (fun () ->
          let h = Metrics.histogram ~host:"h" "walk_us" in
          let args n = [ ("n", string_of_int n) ] in
          let site = Span.site ~host:"h" ~hist:h ~args "walk" in
          let tok = Span.enter site 3 in
          Engine.sleep 2.5;
          Span.leave site tok;
          match Span.spans () with
          | [ v ] ->
              check_bool "args built from the entered value" true (v.Span.v_args = [ ("n", "3") ]);
              check_bool "host from the site" true (v.Span.v_host = Some "h");
              let dur = match v.Span.v_end with Some e -> e -. v.Span.v_start | None -> nan in
              check_int "one observation" 1 (Metrics.hist_count h);
              check_float "span duration = histogram observation" dur
                (Metrics.hist_percentile h 50.)
          | l -> Alcotest.failf "expected 1 span, got %d" (List.length l)))

(* A fiber's span stack leaves the table once its last span closes:
   every fiber below opens and closes spans, including across fibers
   under [with_parent], and none is remembered afterwards. *)
let test_span_stacks_forgotten () =
  with_spans_on (fun () ->
      Engine.run (fun () ->
          Span.with_span ~host:"h" "root" (fun () ->
              let p = Span.current () in
              for _ = 1 to 10 do
                Engine.spawn (fun () ->
                    Span.with_parent p (fun () ->
                        Span.with_span "child" (fun () -> Engine.sleep 1.)))
              done;
              Engine.sleep 5.;
              check_int "only the root's fiber holds a stack" 1 (Span.open_fibers ()));
          check_int "no fiber holds a stack" 0 (Span.open_fibers ())))

let test_span_disabled_records_nothing () =
  Engine.run (fun () -> Span.with_span ~host:"h" "ghost" (fun () -> Engine.sleep 1.));
  check_int "nothing recorded while off" 0 (List.length (Span.spans ()))

(* Two same-seed runs of an instrumented scenario must dump
   byte-identical span timelines and metric snapshots: observability
   never perturbs the schedule, and its own output is canonical. *)
let test_observability_determinism () =
  let scenario () =
    Span.capture (fun () ->
        Engine.run ~seed:11 (fun () ->
            let net = make_net ~jitter:0.1 () in
            let a = Net.add_host net "a" in
            let b = Net.add_host net "b" in
            let svc = Net.service b ~name:"echo" (fun x -> x * 2) in
            Metrics.start_sampler ();
            let h = Metrics.histogram ~host:"a" "echo_us" in
            let op = Span.site ~host:"a" ~hist:h "op" in
            for i = 1 to 25 do
              let tok = Span.enter op () in
              ignore (Net.call ~from:a svc i);
              Span.leave op tok;
              Engine.sleep 50.
            done);
        Metrics.to_json ())
  in
  let m1, s1 = scenario () in
  let m2, s2 = scenario () in
  check_bool "spans non-trivial" true (String.length s1 > 100);
  Alcotest.(check string) "metrics byte-identical" m1 m2;
  Alcotest.(check string) "span dump byte-identical" s1 s2

(* ------------------------------------------------------------------ *)
(* Metrics strict mode: stale handles across engine resets            *)
(* ------------------------------------------------------------------ *)

let with_strict_metrics f =
  Metrics.set_strict true;
  Fun.protect ~finally:(fun () -> Metrics.set_strict false) f

(* A handle minted in one run silently writes into a fresh registry in
   the next run unless strict mode is on — then it raises, naming the
   metric, so tests catch accidentally cached handles. *)
let test_metrics_stale_handle_raises () =
  with_strict_metrics (fun () ->
      let stale = Engine.run (fun () -> Metrics.counter ~host:"n" "ops") in
      Engine.run (fun () ->
          (match Metrics.incr stale with
          | () -> Alcotest.fail "stale incr did not raise"
          | exception Metrics.Stale_handle label ->
              Alcotest.(check string) "label names the metric" "n.ops" label);
          (* a handle minted in this run keeps working *)
          let fresh = Metrics.counter ~host:"n" "ops" in
          Metrics.incr fresh;
          check_int "fresh handle counts" 1 (Metrics.counter_value fresh)))

let test_metrics_stale_handle_all_kinds () =
  with_strict_metrics (fun () ->
      let g, h = Engine.run (fun () -> (Metrics.gauge "depth", Metrics.histogram "lat_us")) in
      Engine.run (fun () ->
          check_bool "stale gauge raises" true
            (match Metrics.set_gauge g 1. with
            | () -> false
            | exception Metrics.Stale_handle _ -> true);
          check_bool "stale histogram raises" true
            (match Metrics.observe h 1. with
            | () -> false
            | exception Metrics.Stale_handle _ -> true)))

(* ------------------------------------------------------------------ *)
(* Timeseries                                                         *)
(* ------------------------------------------------------------------ *)

(* The correctness tests below drive [tick] by hand instead of the
   ticker fiber, pinning window boundaries exactly. The first tick, at
   0, opens window 0; a window seals on its [subticks]-th sub-sample, so
   with sub-ticks [sub_us] apart window 0 (opened by the first
   sub-sample) spans 0..8 000 µs and every later one 10 000 µs. *)
let sub_us = Timeseries.window_us /. float_of_int Timeseries.subticks

let ticks n =
  for _ = 1 to n do
    Engine.sleep sub_us;
    Timeseries.tick ()
  done

(* The first tick at 0, then the rest of window 0. *)
let first_window () =
  Timeseries.tick ();
  ticks (Timeseries.subticks - 1)

let test_timeseries_counter_rate () =
  Engine.run (fun () ->
      let c = Metrics.counter ~host:"n" "ops" in
      Timeseries.track_counter c;
      first_window ();
      (* 10 increments in window 1, none in window 2 *)
      for _ = 1 to 10 do
        Metrics.incr c
      done;
      ticks Timeseries.subticks;
      ticks Timeseries.subticks;
      check_int "three windows sealed" 3 (Timeseries.windows ());
      match Timeseries.find ~series:"counter:n.ops" ~col:"rate" with
      | None -> Alcotest.fail "counter series missing"
      | Some sel ->
          check_float "window 0 rate" 0. (Timeseries.window_value sel 0);
          check_float "window 1 rate: 10 ops / 10ms" 1_000. (Timeseries.window_value sel 1);
          check_float "window 2 rate" 0. (Timeseries.window_value sel 2);
          check_float "last = window 2" 0. (Timeseries.last sel))

let test_timeseries_gauge_minmax_and_probe () =
  Engine.run (fun () ->
      let g = Metrics.gauge ~host:"n" "depth" in
      Timeseries.track_gauge g;
      Timeseries.probe ~host:"n" "lag" (fun () -> Engine.now ());
      (* five sub-samples, [sub_us] apart, seal one window *)
      List.iter
        (fun v ->
          Metrics.set_gauge g v;
          Timeseries.tick ();
          Engine.sleep sub_us)
        [ 5.; 2.; 9.; 4.; 6. ];
      check_int "one window sealed" 1 (Timeseries.windows ());
      let value col series =
        match Timeseries.find ~series ~col with
        | Some sel -> Timeseries.window_value sel 0
        | None -> Alcotest.fail ("missing " ^ series)
      in
      check_float "gauge min" 2. (value "min" "gauge:n.depth");
      check_float "gauge max" 9. (value "max" "gauge:n.depth");
      check_float "gauge last" 6. (value "last" "gauge:n.depth");
      (* the probe sampled the clock at each sub-tick *)
      check_float "probe min is the first sub-tick" 0. (value "min" "probe:n.lag");
      check_float "probe max is the last sub-tick" (4. *. sub_us) (value "max" "probe:n.lag");
      check_float "probe last" (4. *. sub_us) (value "last" "probe:n.lag"))

let test_timeseries_hist_window_percentiles () =
  Engine.run (fun () ->
      let h = Metrics.histogram ~host:"n" "lat_us" in
      (* observations before tracking belong to no window *)
      Metrics.observe h 10_000.;
      Timeseries.track_histogram h;
      first_window ();
      for _ = 1 to 100 do
        Metrics.observe h 100.
      done;
      ticks Timeseries.subticks;
      Metrics.observe h 500.;
      ticks Timeseries.subticks;
      let v col j =
        match Timeseries.find ~series:"hist:n.lat_us" ~col with
        | Some sel -> Timeseries.window_value sel j
        | None -> Alcotest.fail "hist series missing"
      in
      check_float "pre-track observation excluded" 0. (v "count" 0);
      check_float "window 1 count" 100. (v "count" 1);
      check_bool "window 1 p99 near 100us" true (v "p99" 1 >= 80. && v "p99" 1 <= 130.);
      check_float "window 2 count" 1. (v "count" 2);
      check_bool "window 2 p50 near 500us, unpolluted by window 1" true
        (v "p50" 2 >= 400. && v "p50" 2 <= 650.))

(* Virtual time is free, so the ring is filled for real: [slots + 4]
   sealed windows leave windows 4.. retained and 0..3 evicted. *)
let test_timeseries_ring_eviction () =
  Engine.run (fun () ->
      Timeseries.probe "const" (fun () -> 7.);
      first_window ();
      let sealed = Timeseries.slots + 4 in
      ticks ((sealed - 1) * Timeseries.subticks);
      check_int "slots + 4 windows sealed" sealed (Timeseries.windows ());
      match Timeseries.find ~series:"probe:const" ~col:"last" with
      | None -> Alcotest.fail "probe series missing"
      | Some sel ->
          check_bool "window 3 evicted" true (Float.is_nan (Timeseries.window_value sel 3));
          check_float "window 4 retained" 7. (Timeseries.window_value sel 4);
          check_float "newest window retained" 7. (Timeseries.window_value sel (sealed - 1));
          check_bool "start of evicted window is nan" true (Float.is_nan (Timeseries.window_start 3));
          (* window 1 starts where window 0 sealed, 4 sub-ticks in *)
          check_float "start of window 4" ((4. *. sub_us) +. (3. *. Timeseries.window_us))
            (Timeseries.window_start 4))

let test_timeseries_deterministic_dump () =
  let scenario () =
    Engine.run ~seed:7 (fun () ->
        let net = make_net ~jitter:0.2 () in
        let a = Net.add_host net "a" in
        let b = Net.add_host net "b" in
        let svc = Net.service b ~name:"echo" (fun x -> x) in
        let h = Metrics.histogram ~host:"a" "echo_us" in
        Timeseries.start ();
        let echo = Span.timer h in
        for i = 1 to 40 do
          let tok = Span.enter echo () in
          ignore (Net.call ~from:a svc i);
          Span.leave echo tok;
          Engine.sleep 1_000.
        done);
    Timeseries.to_json ()
  in
  let d1 = scenario () in
  let d2 = scenario () in
  check_bool "dump non-trivial" true (String.length d1 > 200);
  Alcotest.(check string) "timeseries dump byte-identical" d1 d2

(* ------------------------------------------------------------------ *)
(* SLO burn-rate monitors                                             *)
(* ------------------------------------------------------------------ *)

(* objective 0.75 -> budget 0.25; a burn of 2.0 fires when the bad
   fraction is at least 0.5 over both the last 3 and the last 12
   windows. *)
let test_slo_fire_and_resolve () =
  Engine.run (fun () ->
      let m =
        Slo.monitor ~name:"lat" ~series:"none" ~col:"last" ~threshold:100. ~objective:0.75
      in
      List.iter (fun v -> Slo.feed m v) [ 50.; 50.; 200. ];
      check_bool "one bad of three: not firing" false (Slo.firing m);
      Slo.feed m 200.;
      (* fast [50 200 200] = 2/3, burn 2.7; slow 2/4, burn 2.0 *)
      check_bool "sustained badness fires" true (Slo.firing m);
      List.iter (fun v -> Slo.feed m v) [ 50.; 50. ];
      (* slow [50 50 200 200 50] = 2/5, burn 1.6 *)
      check_bool "recovery resolves" false (Slo.firing m);
      match Slo.alerts () with
      | [ fired; resolved ] ->
          check_bool "first is a fire" true fired.Slo.al_firing;
          check_bool "second is a resolve" false resolved.Slo.al_firing;
          Alcotest.(check string) "monitor named" "lat" fired.Slo.al_monitor;
          check_float "firing value" 200. fired.Slo.al_value
      | l -> Alcotest.fail (Printf.sprintf "expected 2 transitions, got %d" (List.length l)))

let test_slo_nan_windows_are_good () =
  Engine.run (fun () ->
      let m =
        Slo.monitor ~name:"lat" ~series:"none" ~col:"last" ~threshold:100. ~objective:0.75
      in
      List.iter (fun _ -> Slo.feed m Float.nan) (List.init 12 Fun.id);
      check_bool "nan never fires" false (Slo.firing m))

let test_slo_evaluates_from_timeseries () =
  Engine.run (fun () ->
      let flag = ref 0. in
      Timeseries.probe "err" (fun () -> !flag);
      Timeseries.start ~track_metrics:false ();
      let m =
        Slo.monitor ~name:"err" ~series:"probe:err" ~col:"last" ~threshold:0.5 ~objective:0.75
      in
      Engine.sleep (3. *. Timeseries.window_us);
      check_bool "quiet: not firing" false (Slo.firing m);
      flag := 1.;
      Engine.sleep (3. *. Timeseries.window_us);
      check_bool "raised flag fires via window close" true (Slo.firing m);
      match Slo.alerts () with
      | a :: _ ->
          (* stamped at the end of the causing window, a multiple of
             the window length — never the evaluation instant *)
          check_float "alert time is a window boundary" 0.
            (Float.rem a.Slo.al_time Timeseries.window_us)
      | [] -> Alcotest.fail "no alert recorded")

let test_slo_alerts_json_deterministic () =
  let scenario () =
    Engine.run ~seed:5 (fun () ->
        let m = Slo.monitor ~name:"m" ~series:"none" ~col:"last" ~threshold:1. ~objective:0.75 in
        List.iter (fun v -> Slo.feed m v) [ 0.; 2.; 2.; 2.; 0.; 0.; 0.; 0.; 2.; 2. ]);
    Slo.alerts_json ()
  in
  let a1 = scenario () in
  let a2 = scenario () in
  check_bool "alert stream non-trivial" true (String.length a1 > 10);
  Alcotest.(check string) "alerts byte-identical" a1 a2

(* ------------------------------------------------------------------ *)
(* Announce                                                           *)
(* ------------------------------------------------------------------ *)

(* With nothing armed the guarded call-site pattern is one branch: the
   milestone is never built. Measured against an empty loop, so the
   boxed results of the [Gc.minor_words] probes cancel out. *)
let test_announce_off_allocates_nothing () =
  check_bool "nothing armed" false (Announce.active ());
  let streams = [ 1 ] in
  let words f =
    let w0 = Gc.minor_words () in
    for i = 1 to 1_000 do
      f i
    done;
    Gc.minor_words () -. w0
  in
  check_float "0 words per guarded emission" (words ignore)
    (words (fun i ->
         if Announce.active () then
           Announce.emit (Announce.Append_acked { client = "c"; offset = i; streams })))

(* ------------------------------------------------------------------ *)
(* Flight recorder                                                    *)
(* ------------------------------------------------------------------ *)

let str_contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub haystack i nn = needle || go (i + 1)) in
  go 0

let with_flight_on f =
  Flight.set_enabled true;
  Fun.protect ~finally:(fun () -> Flight.set_enabled false) f

let test_flight_disabled_is_noop () =
  Engine.run (fun () ->
      Flight.record ~host:"n" Flight.Metric ~name:"x" ~value:1.;
      Flight.snapshot ~reason:"r";
      check_int "nothing recorded" 0 (Flight.events_recorded ());
      check_int "no snapshot" 0 (Flight.snapshot_count ()))

let test_flight_ring_overwrites_oldest () =
  with_flight_on (fun () ->
      Engine.run (fun () ->
          for i = 1 to 260 do
            Flight.record ~host:"n" Flight.Metric ~name:"e" ~value:(float_of_int i)
          done;
          check_int "all recorded" 260 (Flight.events_recorded ());
          Flight.snapshot ~reason:"test";
          match Flight.snapshots () with
          | [ s ] ->
              (* only the last 256 events survive, oldest first *)
              check_bool "ring keeps the tail" true
                (let has v = str_contains s (Printf.sprintf "\"value\":%d}" v) in
                 has 5 && has 260 && not (has 4))
          | l -> Alcotest.fail (Printf.sprintf "expected 1 snapshot, got %d" (List.length l))))

let test_flight_snapshot_budget () =
  with_flight_on (fun () ->
      Engine.run (fun () ->
          Flight.record ~host:"n" Flight.Metric ~name:"x" ~value:0.;
          for i = 1 to 20 do
            Flight.snapshot ~reason:(Printf.sprintf "s%d" i)
          done;
          check_int "budget caps snapshots" 16 (Flight.snapshot_count ())))

let test_flight_span_and_metric_capture () =
  with_flight_on (fun () ->
      Span.set_enabled true;
      Fun.protect
        ~finally:(fun () -> Span.set_enabled false)
        (fun () ->
          Engine.run (fun () ->
              let c = Metrics.counter ~host:"n" "ops" in
              Metrics.incr c;
              Span.with_span ~host:"n" "op" (fun () -> Engine.sleep 5.);
              check_bool "metric and span close recorded" true (Flight.events_recorded () >= 2);
              Flight.snapshot ~reason:"probe";
              match Flight.snapshots () with
              | [ s ] ->
                  check_bool "span event in dump" true (str_contains s "\"kind\":\"span\"");
                  check_bool "metric event in dump" true (str_contains s "\"kind\":\"metric\"")
              | _ -> Alcotest.fail "expected exactly 1 snapshot")))

let test_flight_deterministic_dump () =
  let scenario () =
    with_flight_on (fun () ->
        Engine.run ~seed:13 (fun () ->
            let net = make_net ~jitter:0.3 () in
            let a = Net.add_host net "a" in
            let b = Net.add_host net "b" in
            let svc = Net.service b ~name:"echo" (fun x -> x) in
            let c = Metrics.counter ~host:"a" "ops" in
            for i = 1 to 30 do
              ignore (Net.call ~from:a svc i);
              Metrics.incr c
            done;
            Flight.snapshot ~reason:"end");
        Flight.dump_json ())
  in
  let d1 = scenario () in
  let d2 = scenario () in
  check_bool "dump non-trivial" true (String.length d1 > 100);
  Alcotest.(check string) "flight dump byte-identical" d1 d2

(* ------------------------------------------------------------------ *)
(* Rng properties                                                     *)
(* ------------------------------------------------------------------ *)

let prop_rng_int_in_bounds =
  QCheck.Test.make ~name:"rng int stays in bounds" ~count:500
    QCheck.(pair small_int (int_range 1 1000))
    (fun (seed, bound) ->
      let rng = Rng.create seed in
      let v = Rng.int rng bound in
      v >= 0 && v < bound)

let prop_rng_float_in_bounds =
  QCheck.Test.make ~name:"rng float stays in bounds" ~count:500
    QCheck.(pair small_int (float_range 0.001 1000.))
    (fun (seed, bound) ->
      let rng = Rng.create seed in
      let v = Rng.float rng bound in
      v >= 0. && v < bound)

let prop_rng_deterministic =
  QCheck.Test.make ~name:"equal seeds, equal streams" ~count:100 QCheck.small_int (fun seed ->
      let a = Rng.create seed and b = Rng.create seed in
      List.init 20 (fun _ -> Rng.int a max_int) = List.init 20 (fun _ -> Rng.int b max_int))

let prop_resource_conserves =
  QCheck.Test.make ~name:"resource never exceeds capacity" ~count:50
    QCheck.(pair (int_range 1 4) (int_range 1 20))
    (fun (capacity, fibers) ->
      Engine.run (fun () ->
          let r = Resource.create ~name:"r" ~capacity () in
          let active = ref 0 in
          let max_active = ref 0 in
          let ok = ref true in
          for _ = 1 to fibers do
            Engine.spawn (fun () ->
                Resource.acquire r;
                incr active;
                if !active > !max_active then max_active := !active;
                if !active > capacity then ok := false;
                Engine.sleep 5.;
                decr active;
                Resource.release r)
          done;
          Engine.sleep 1_000.;
          !ok && !max_active <= capacity))

(* Random acquire/release/fail/repair schedules on a capacity-k station
   against a reference model that settles each waiter's outcome when it
   leaves the queue. Steps run at one instant unless marked to advance
   the clock, so a release and a fail can race for the same waiter.
   Checks: at most k holders, every fiber's outcome recorded exactly
   once and in the model's order (grants FIFO), the queue length after
   every step, and — after the holders leave — k free servers again. *)
type station_step = Arrive | Release | Fail | Repair

let prop_station_matches_model =
  let step_gen =
    QCheck.Gen.(
      pair (frequency [ (4, return Arrive); (3, return Release); (1, return Fail); (1, return Repair) ]) bool)
  in
  let print_step (st, adv) =
    (match st with Arrive -> "arrive" | Release -> "release" | Fail -> "fail" | Repair -> "repair")
    ^ if adv then "+1" else ""
  in
  QCheck.Test.make ~name:"station matches FIFO reference model" ~count:300
    QCheck.(
      pair (int_range 0 2)
        (make
           ~print:(fun l -> String.concat " " (List.map print_step l))
           Gen.(list_size (int_range 0 40) step_gen)))
    (fun (extra, steps) ->
      (* [k - 1] is drawn: QCheck's integer shrinker heads for 0 *)
      let k = extra + 1 in
      let model_log = ref [] and seen_log = ref [] in
      let ok = ref true in
      let expect b = if not b then ok := false in
      (match
         Engine.run (fun () ->
             let r = Resource.create ~name:"r" ~capacity:k () in
             (* the model *)
             let broken = ref false and in_use = ref 0 and queue = Queue.create () in
             let decide id o = model_log := (id, o) :: !model_log in
             (* the system *)
             let grants = ref 0 and releases = ref 0 and fibers = ref 0 in
             let arrive () =
               let id = !fibers in
               incr fibers;
               if !broken then decide id false
               else if !in_use < k && Queue.is_empty queue then begin
                 incr in_use;
                 decide id true
               end
               else Queue.add id queue;
               Engine.spawn (fun () ->
                   match Resource.acquire r with
                   | () ->
                       incr grants;
                       expect (!grants - !releases <= k);
                       seen_log := (id, true) :: !seen_log
                   | exception Resource.Failed _ -> seen_log := (id, false) :: !seen_log);
               Engine.yield ()
             in
             let release () =
               if !in_use > 0 then begin
                 (match Queue.take_opt queue with
                 | Some id -> decide id true
                 | None -> decr in_use);
                 incr releases;
                 Resource.release r
               end
             in
             List.iter
               (fun (st, advance) ->
                 if advance then Engine.sleep 1.;
                 (match st with
                 | Arrive -> arrive ()
                 | Release -> release ()
                 | Fail ->
                     if not !broken then begin
                       broken := true;
                       Queue.iter (fun id -> decide id false) queue;
                       Queue.clear queue
                     end;
                     Resource.fail r
                 | Repair ->
                     broken := false;
                     Resource.repair r);
                 expect (Resource.queue_length r = Queue.length queue))
               steps;
             (* the holders, and the waiters they hand over to, leave;
                then all k servers must be free *)
             while !in_use > 0 do
               release ()
             done;
             Engine.sleep 1.;
             Resource.repair r;
             let t0 = Engine.now () in
             for _ = 1 to k do
               Resource.acquire r
             done;
             expect (Engine.now () = t0);
             expect (Queue.is_empty queue))
       with
      | () -> ()
      | exception Engine.Deadlock -> ok := false);
      !ok && List.rev !seen_log = List.rev !model_log)

(* ------------------------------------------------------------------ *)
(* Fault plans as data                                                *)
(* ------------------------------------------------------------------ *)

let sample_plan : (float * Fault.action) list =
  [
    (100., Fault.Crash "storage-0");
    (150.5, Fault.Degrade { d_src = "app"; d_dst = "*"; d_drop = 0.25; d_delay_us = 120.; d_jitter_us = 30.125 });
    (200., Fault.Partition [ [ "storage-1"; "storage-2" ]; [ "app" ] ]);
    (300., Fault.Heal);
    (301., Fault.Clear_edge ("app", "*"));
    (400.75, Fault.Custom "replace-sequencer");
    (500., Fault.Restart "storage-0");
  ]

let test_fault_plan_equal_pp () =
  check_bool "prefix is not the plan" false (sample_plan = List.tl sample_plan);
  let rendered = Format.asprintf "%a" Fault.pp_plan sample_plan in
  let contains needle =
    let nl = String.length needle and hl = String.length rendered in
    let rec go i = i + nl <= hl && (String.equal (String.sub rendered i nl) needle || go (i + 1)) in
    go 0
  in
  List.iter
    (fun needle -> check_bool (Printf.sprintf "pp mentions %s" needle) true (contains needle))
    [ "crash storage-0"; "partition"; "heal"; "replace-sequencer"; "clear-edge" ]

let test_fault_plan_round_trip () =
  let doc = Fault.encode_plan sample_plan in
  let back = Fault.decode_plan doc in
  check_bool "encode/decode round-trips" true (back = sample_plan);
  check_bool "re-encode is byte-identical" true (String.equal doc (Fault.encode_plan back));
  match Fault.decode_plan "{\"version\":99,\"events\":[]}" with
  | _ -> Alcotest.fail "unknown version accepted"
  | exception Invalid_argument _ -> ()

(* Random action generator for the serialization property. Hosts and
   numbers are arbitrary — the codec must not care. *)
let finite_float =
  QCheck.Gen.(map (fun f -> Float.of_int f /. 64.) (int_range (-1_000_000) 1_000_000))

let action_gen =
  let open QCheck.Gen in
  let host = oneofl [ "storage-0"; "storage-1"; "app-1"; "seq"; "*" ] in
  oneof
    [
      map (fun h -> Fault.Crash h) host;
      map (fun h -> Fault.Restart h) host;
      map (fun cs -> Fault.Partition cs) (list_size (int_range 0 3) (list_size (int_range 0 3) host));
      return Fault.Heal;
      map3
        (fun (s, d) drop (delay, jitter) ->
          Fault.Degrade { d_src = s; d_dst = d; d_drop = drop; d_delay_us = delay; d_jitter_us = jitter })
        (pair host host) (float_bound_inclusive 1.) (pair finite_float finite_float);
      map (fun (s, d) -> Fault.Clear_edge (s, d)) (pair host host);
      map (fun n -> Fault.Custom ("op-" ^ string_of_int n)) small_nat;
    ]

let plan_gen =
  QCheck.Gen.(list_size (int_range 0 12) (pair (map Float.abs finite_float) action_gen))
  |> QCheck.make ~print:(fun p -> Format.asprintf "%a" Fault.pp_plan p)

let prop_fault_plan_round_trip =
  QCheck.Test.make ~name:"fault plan encode/decode round-trips" ~count:300 plan_gen (fun p ->
      Fault.decode_plan (Fault.encode_plan p) = p)

(* The reference model of fault verdicts, keyed by name: hash tables of
   names, component lists searched with [List.mem], edge rules keyed by
   name pairs, and its own generator seeded like the controller's. *)
module Name_fault = struct
  type edge = { drop : float; delay_us : float; jitter_us : float }

  type t = {
    rng : Rng.t;
    crashed : (string, unit) Hashtbl.t;
    mutable components : string list list;
    edges : (string * string, edge) Hashtbl.t;
  }

  let create seed =
    { rng = Rng.create seed; crashed = Hashtbl.create 8; components = []; edges = Hashtbl.create 8 }

  let apply t = function
    | Fault.Crash h -> Hashtbl.replace t.crashed h ()
    | Fault.Restart h -> Hashtbl.remove t.crashed h
    | Fault.Partition cs -> t.components <- cs
    | Fault.Heal -> t.components <- []
    | Fault.Degrade { d_src; d_dst; d_drop; d_delay_us; d_jitter_us } ->
        Hashtbl.replace t.edges (d_src, d_dst)
          { drop = d_drop; delay_us = d_delay_us; jitter_us = d_jitter_us }
    | Fault.Clear_edge (s, d) -> Hashtbl.remove t.edges (s, d)
    | Fault.Custom _ -> ()

  let is_crashed t h = Hashtbl.mem t.crashed h

  let component_of t h =
    let rec go i = function
      | [] -> -1
      | c :: rest -> if List.mem h c then i else go (i + 1) rest
    in
    go 0 t.components

  let edge_rule t src dst =
    List.find_map
      (fun key -> Hashtbl.find_opt t.edges key)
      [ (src, dst); (src, "*"); ("*", dst); ("*", "*") ]

  let judge t ~src ~dst =
    if is_crashed t src || is_crashed t dst then Fault.Drop
    else if t.components <> [] && component_of t src <> component_of t dst then Fault.Drop
    else
      match edge_rule t src dst with
      | None -> Fault.Deliver 0.
      | Some e ->
          if e.drop > 0. && Rng.bool t.rng e.drop then Fault.Drop
          else if e.jitter_us > 0. then Fault.Deliver (e.delay_us +. Rng.float t.rng e.jitter_us)
          else Fault.Deliver e.delay_us
end

(* A step of a verdict plan: an action for both controllers, or one
   message judged by both, through the name-keyed wrapper or (as
   [Net] does) by interned id. *)
type verdict_step = Act of Fault.action | Judge of string * string * bool

let verdict_hosts = [ "vq-0"; "vq-1"; "vq-2"; "vq-3"; "vq-4" ]

let verdict_step_gen =
  let open QCheck.Gen in
  let host = oneofl verdict_hosts in
  let rule_end = oneofl ("*" :: verdict_hosts) in
  let chance = oneofl [ 0.; 0.; 0.25; 0.5; 1. ] in
  let micros = map float_of_int (int_range 0 500) in
  frequency
    [
      (2, map (fun h -> Act (Fault.Crash h)) host);
      (2, map (fun h -> Act (Fault.Restart h)) host);
      ( 1,
        map
          (fun cs -> Act (Fault.Partition cs))
          (list_size (int_range 0 3) (list_size (int_range 0 3) host)) );
      (1, return (Act Fault.Heal));
      ( 3,
        map3
          (fun (s, d) drop (delay, jitter) ->
            Act
              (Fault.Degrade
                 { d_src = s; d_dst = d; d_drop = drop; d_delay_us = delay; d_jitter_us = jitter }))
          (pair rule_end rule_end) chance (pair micros (oneof [ return 0.; micros ])) );
      (2, map (fun (s, d) -> Act (Fault.Clear_edge (s, d))) (pair rule_end rule_end));
      (8, map3 (fun s d by_id -> Judge (s, d, by_id)) host host bool);
    ]

let pp_verdict_step = function
  | Act a -> Format.asprintf "%a" Fault.pp_plan [ (0., a) ]
  | Judge (s, d, by_id) -> Printf.sprintf "judge %s->%s%s" s d (if by_id then " by id" else "")

let verdict_plan_gen =
  QCheck.make
    ~print:(fun p -> String.concat "\n" (List.map pp_verdict_step p))
    QCheck.Gen.(list_size (int_range 0 40) verdict_step_gen)

(* Every verdict, extra delay and crash/rule query agrees with the
   reference model. The models are seeded alike, so equal delays after
   jittered rules show equal controller-rng draws; a closing run of
   jittered, lossy messages on an edge only the [* -> *] rule covers
   checks that the two generators end in the same state. *)
let prop_fault_verdicts_match_names =
  QCheck.Test.make ~name:"indexed fault verdicts match a name-keyed model" ~count:300
    verdict_plan_gen (fun steps ->
      Engine.run (fun () ->
          let f = Fault.create ~seed:9 () in
          let m = Name_fault.create 9 in
          let slot = Float.Array.make 1 nan in
          let verdict ~by_id src dst =
            if not by_id then Fault.judge f ~src ~dst
            else if Fault.judge_id f ~src:(Fault.host_id src) ~dst:(Fault.host_id dst) slot 0 then
              Fault.Deliver (Float.Array.get slot 0)
            else Fault.Drop
          in
          let same_verdict ~by_id src dst =
            match (verdict ~by_id src dst, Name_fault.judge m ~src ~dst) with
            | Fault.Drop, Fault.Drop -> true
            | Fault.Deliver x, Fault.Deliver y -> Float.equal x y
            | (Fault.Drop | Fault.Deliver _), _ -> false
          in
          let same_state h =
            Bool.equal (Fault.is_crashed f h) (Name_fault.is_crashed m h)
            && Bool.equal (Fault.is_crashed_id f (Fault.host_id h)) (Name_fault.is_crashed m h)
            && Bool.equal (Fault.is_partitioned f) (m.Name_fault.components <> [])
            && List.for_all
                 (fun d ->
                   Bool.equal
                     (Fault.has_edge_rule f ~src:h ~dst:d)
                     (Hashtbl.mem m.Name_fault.edges (h, d)))
                 ("*" :: verdict_hosts)
          in
          let step = function
            | Act a ->
                Fault.apply f a;
                Name_fault.apply m a;
                true
            | Judge (src, dst, by_id) -> same_verdict ~by_id src dst && same_state src
          in
          List.for_all step steps
          &&
          let probe = Fault.Degrade
              { d_src = "*"; d_dst = "*"; d_drop = 0.3; d_delay_us = 10.; d_jitter_us = 40. }
          in
          Fault.apply f probe;
          Name_fault.apply m probe;
          List.for_all
            (fun by_id -> same_verdict ~by_id "vq-probe-src" "vq-probe-dst")
            [ false; true; false; true; true; false ]))

let qcheck tests = List.map QCheck_alcotest.to_alcotest tests

(* ------------------------------------------------------------------ *)
(* Eventq                                                             *)
(* ------------------------------------------------------------------ *)

(* Top-level so pushing it allocates nothing (statically allocated). *)
let eventq_nothing () = ()

let test_eventq_heap_order () =
  (* Heap-only pushes in random order must pop in (time, seq) order,
     matching a reference sort: dense ties on a quarter-µs grid, and
     times spread over [0, 10^6) µs pushed into a capacity-4 queue so
     the heap grows while it fills. *)
  let check ~name ~capacity entries =
    let q = Eventq.create ~capacity () in
    let popped = ref [] in
    Array.iter
      (fun (t, s) -> ignore (Eventq.push q t s (fun () -> popped := (t, s) :: !popped)))
      entries;
    check_int (name ^ " size") (Array.length entries) (Eventq.size q);
    while not (Eventq.is_empty q) do
      (Eventq.pop q) ()
    done;
    let got = List.rev !popped in
    let want =
      Array.to_list entries
      |> List.sort (fun (t1, s1) (t2, s2) ->
             match compare t1 t2 with 0 -> compare s1 s2 | c -> c)
    in
    Alcotest.(check (list (pair (float 0.) int))) (name ^ " pops sorted") want got
  in
  let rng = Random.State.make [| 7 |] in
  check ~name:"dense" ~capacity:16
    (Array.init 500 (fun seq -> (float_of_int (Random.State.int rng 40) /. 4., seq)));
  let rng = Random.State.make [| 43 |] in
  check ~name:"spread" ~capacity:4
    (Array.init 800 (fun seq -> (float_of_int (Random.State.int rng 1_000_000), seq)))

let test_eventq_lane_interleave () =
  (* Mimic the engine's discipline: lane pushes always carry the
     current clock (the time of the last dispatched event), heap pushes
     an arbitrary later time, seqs from one monotonic counter. Dispatch
     order must still be globally sorted by (time, seq). *)
  let rng = Random.State.make [| 23 |] in
  let q = Eventq.create ~capacity:16 () in
  let clock = ref 0. in
  let seq = ref 0 in
  let dispatched = ref [] in
  let pushes = ref 0 in
  let push_one () =
    let s = !seq in
    incr seq;
    incr pushes;
    if Random.State.bool rng then
      Eventq.push_now q !clock s (fun () -> dispatched := (!clock, s) :: !dispatched)
    else
      let t = !clock +. (float_of_int (Random.State.int rng 8) /. 2.) in
      ignore (Eventq.push q t s (fun () -> dispatched := (t, s) :: !dispatched))
  in
  for _ = 1 to 20 do
    push_one ()
  done;
  while not (Eventq.is_empty q) do
    let t = Eventq.next_time q in
    Alcotest.(check bool) "clock monotone" true (t >= !clock);
    clock := t;
    (Eventq.pop q) ();
    (* Keep churn going while draining, like resume storms do. *)
    if !pushes < 400 && Random.State.int rng 3 > 0 then push_one ()
  done;
  let got = List.rev !dispatched in
  check_int "all dispatched" !pushes (List.length got);
  let sorted =
    List.sort (fun (t1, s1) (t2, s2) -> match compare t1 t2 with 0 -> compare s1 s2 | c -> c) got
  in
  Alcotest.(check (list (pair (float 0.) int))) "globally sorted" sorted got

let test_eventq_zero_alloc_drain () =
  (* The dispatch side must not allocate: draining a prefilled queue
     costs exactly as many minor words as an empty measured region
     (the measurement's own boxed floats). *)
  let alloc_delta f =
    let w0 = Gc.minor_words () in
    f ();
    Gc.minor_words () -. w0
  in
  let q = Eventq.create ~capacity:4096 () in
  for s = 0 to 2047 do
    ignore (Eventq.push q (float_of_int (s land 31)) s eventq_nothing)
  done;
  for s = 2048 to 2099 do
    Eventq.push_now q 31. s eventq_nothing
  done;
  let control = alloc_delta (fun () -> ()) in
  let drain =
    alloc_delta (fun () ->
        while not (Eventq.is_empty q) do
          (Eventq.pop q) ()
        done)
  in
  check_bool "queue drained" true (Eventq.is_empty q);
  check_float "drain allocates nothing" control drain

let test_eventq_growth () =
  (* Push far past the initial capacity (heap and lane both grow, the
     lane while wrapped) and check nothing is lost or reordered. A
     capacity that is not a power of two must work too. *)
  List.iter
    (fun capacity ->
      let q = Eventq.create ~capacity () in
      let hits = ref 0 in
      (* Wrap the lane ring: push/pop a few to advance lhead first. *)
      for s = 0 to 9 do
        Eventq.push_now q 0. s (fun () -> incr hits)
      done;
      for _ = 0 to 9 do
        (Eventq.pop q) ()
      done;
      for s = 10 to 200 do
        Eventq.push_now q 0. s (fun () -> incr hits)
      done;
      for s = 201 to 400 do
        ignore (Eventq.push q 1. s (fun () -> incr hits))
      done;
      let last_t = ref (-1.) in
      while not (Eventq.is_empty q) do
        let t = Eventq.next_time q in
        check_bool "nondecreasing" true (t >= !last_t);
        last_t := t;
        (Eventq.pop q) ()
      done;
      check_int "all events ran" 401 !hits)
    [ 16; 20 ]

let test_eventq_lane_heap_ordering () =
  (* Heap pushes spread over [0, 60000) µs, drained while lane pushes
     at the current clock keep arriving, must dispatch in global time
     order: same-time lane work never leapfrogs or lags the heap. *)
  let rng = Random.State.make [| 41 |] in
  let q = Eventq.create ~capacity:16 () in
  let n = 800 in
  let entries =
    Array.init n (fun seq -> (float_of_int (Random.State.int rng 600) *. 100., seq))
  in
  Array.iter (fun (t, s) -> ignore (Eventq.push q t s (fun () -> ()))) entries;
  check_int "size" n (Eventq.size q);
  let got = ref [] in
  let clock = ref 0. in
  let seq = ref n in
  let extra = ref 0 in
  while not (Eventq.is_empty q) do
    let t = Eventq.next_time q in
    check_bool "clock monotone across bands" true (t >= !clock);
    clock := t;
    (Eventq.pop q) ();
    got := t :: !got;
    if !extra < 200 && Random.State.int rng 4 = 0 then begin
      incr extra;
      Eventq.push_now q !clock !seq (fun () -> ());
      incr seq
    end
  done;
  check_int "all dispatched" (n + !extra) (List.length !got)

let test_eventq_heap_growth () =
  (* Far-future times (20000 µs and up) pushed into a capacity-4 queue:
     the heap must grow many times over without losing or reordering
     events. *)
  let rng = Random.State.make [| 43 |] in
  let q = Eventq.create ~capacity:4 () in
  let n = 300 in
  for s = 0 to n - 1 do
    let t = 20_000. +. float_of_int (Random.State.int rng 1_000_000) in
    ignore (Eventq.push q t s (fun () -> ()))
  done;
  let last = ref neg_infinity in
  let popped = ref 0 in
  while not (Eventq.is_empty q) do
    let t = Eventq.next_time q in
    check_bool "heap sorted" true (t >= !last);
    last := t;
    (Eventq.pop q) ();
    incr popped
  done;
  check_int "heap complete" n !popped

(* Thunk, resume and spawn events (tags [Eventq.thunk_tag], a fiber id
   and [-2 - id]) pushed into both bands of a capacity-16 queue that
   must grow, with pops in between: each pop returns the pending
   (time, seq)-minimum and hands back the tag it was pushed with. Lane
   pushes carry the clock (the last popped time), heap pushes the clock
   plus [dt], as the engine schedules them. *)
type eventq_op = Push_lane of int | Push_heap of int * int | Pop

let prop_eventq_tagged_order =
  let tag_gen =
    QCheck.Gen.(
      map2
        (fun kind fid ->
          match kind with 0 -> Eventq.thunk_tag | 1 -> fid | _ -> -2 - fid)
        (int_range 0 2) (int_range 0 1000))
  in
  let op_gen =
    QCheck.Gen.(
      frequency
        [
          (3, map (fun tag -> Push_lane tag) tag_gen);
          (3, map2 (fun dt tag -> Push_heap (dt, tag)) (int_range 0 40) tag_gen);
          (2, return Pop);
        ])
  in
  let print_op = function
    | Push_lane tag -> Printf.sprintf "lane[%d]" tag
    | Push_heap (dt, tag) -> Printf.sprintf "heap+%d[%d]" dt tag
    | Pop -> "pop"
  in
  QCheck.Test.make ~name:"tagged events pop by (time, seq)" ~count:300
    (QCheck.make
       ~print:(fun l -> String.concat " " (List.map print_op l))
       QCheck.Gen.(list_size (int_range 0 400) op_gen))
    (fun ops ->
      let q = Eventq.create ~capacity:16 () in
      let clock = ref 0. and seq = ref 0 and src = [| 0. |] in
      (* the model: pending (time, seq, tag), and which event ran *)
      let pending = ref [] and ran = ref (-1) and ok = ref true in
      (* thunks go through the thunk forms, which must tag [thunk_tag] *)
      let push ~lane time tag =
        let s = !seq in
        incr seq;
        let slot () = ran := s in
        if tag = Eventq.thunk_tag then
          if lane then Eventq.push_now q time s slot else ignore (Eventq.push q time s slot)
        else begin
          src.(0) <- time;
          if lane then Eventq.push_now_at q src s tag slot
          else ignore (Eventq.push_at q src s tag slot)
        end;
        pending := (time, s, tag) :: !pending
      in
      let pop () =
        let ((t, s, tag) as least) =
          List.fold_left (fun a b -> if compare b a < 0 then b else a) (List.hd !pending) !pending
        in
        pending := List.filter (fun e -> e != least) !pending;
        if Eventq.next_time q <> t then ok := false;
        let slot = if Eventq.next_is_lane q then Eventq.pop_lane q else Eventq.pop_heap q in
        slot ();
        if !ran <> s || Eventq.popped_tag q <> tag then ok := false;
        clock := t
      in
      List.iter
        (function
          | Push_lane tag -> push ~lane:true !clock tag
          | Push_heap (dt, tag) -> push ~lane:false (!clock +. float_of_int dt) tag
          | Pop -> if !pending <> [] then pop ())
        ops;
      while !pending <> [] do
        pop ()
      done;
      !ok && Eventq.is_empty q && Eventq.size q = 0)

(* Heap pushes, pops and cancels in a capacity-16 queue that must grow,
   against a model holding the pending (time, seq, handle index) list.
   A cancel names any handle issued so far: still pending, already
   popped, already cancelled, or one whose slot a later push reused.
   [cancel] must return true exactly when the model still holds the
   event, and every pop must return the model's (time, seq) minimum. *)
type cancel_op = Push_at of int | Pop_min | Cancel_nth of int

let prop_eventq_cancel_matches_model =
  let op_gen =
    QCheck.Gen.(
      frequency
        [
          (4, map (fun dt -> Push_at dt) (int_range 0 60));
          (2, return Pop_min);
          (3, map (fun k -> Cancel_nth k) (int_range 0 1_000));
        ])
  in
  let print_op = function
    | Push_at dt -> Printf.sprintf "push+%d" dt
    | Pop_min -> "pop"
    | Cancel_nth k -> Printf.sprintf "cancel#%d" k
  in
  QCheck.Test.make ~name:"cancel matches a sorted-list model" ~count:300
    (QCheck.make
       ~print:(fun l -> String.concat " " (List.map print_op l))
       QCheck.Gen.(list_size (int_range 0 500) op_gen))
    (fun ops ->
      let q = Eventq.create ~capacity:16 () in
      let clock = ref 0. and seq = ref 0 and ran = ref (-1) in
      (* every handle issued, by index; the model's pending events *)
      let issued = Array.make (List.length ops) Eventq.no_handle and n_issued = ref 0 in
      let pending = ref [] and ok = ref true in
      let push dt =
        let s = !seq in
        incr seq;
        let time = !clock +. float_of_int dt in
        issued.(!n_issued) <- Eventq.push q time s (fun () -> ran := s);
        pending := (time, s, !n_issued) :: !pending;
        incr n_issued
      in
      let pop () =
        let ((t, s, _) as least) =
          List.fold_left (fun a b -> if compare b a < 0 then b else a) (List.hd !pending) !pending
        in
        pending := List.filter (fun e -> e != least) !pending;
        if Eventq.next_time q <> t then ok := false;
        (Eventq.pop q) ();
        if !ran <> s then ok := false;
        clock := t
      in
      let cancel k =
        if !n_issued > 0 then begin
          let i = k mod !n_issued in
          let live = List.exists (fun (_, _, j) -> j = i) !pending in
          if Eventq.cancel q issued.(i) <> live then ok := false;
          pending := List.filter (fun (_, _, j) -> j <> i) !pending
        end
      in
      List.iter
        (fun op ->
          (match op with
          | Push_at dt -> push dt
          | Pop_min -> if !pending <> [] then pop ()
          | Cancel_nth k -> cancel k);
          if Eventq.size q <> List.length !pending then ok := false)
        ops;
      while !pending <> [] do
        pop ()
      done;
      !ok && Eventq.is_empty q && not (Eventq.cancel q Eventq.no_handle))

let test_eventq_stale_handle () =
  (* A popped event's slot is the next one a push takes: the old handle
     must not cancel the new event, nor may a second cancel of a
     cancelled one remove anything. *)
  let q = Eventq.create ~capacity:16 () in
  let a = Eventq.push q 1. 0 eventq_nothing in
  (Eventq.pop q) ();
  let b = Eventq.push q 2. 1 eventq_nothing in
  check_bool "fired handle cancels nothing" false (Eventq.cancel q a);
  check_int "reused slot's event still pending" 1 (Eventq.size q);
  check_bool "pending handle cancels" true (Eventq.cancel q b);
  check_bool "cancelled handle cancels nothing" false (Eventq.cancel q b);
  check_bool "queue empty" true (Eventq.is_empty q)

(* ------------------------------------------------------------------ *)
(* Kernel allocation budgets                                          *)
(* ------------------------------------------------------------------ *)

(* Minor words per op of [f] over [budget_ops] calls, net of an empty
   loop so the boxed results of the [Gc.minor_words] probes cancel
   out. The counts are exact for a given compiler, so the budgets are
   too. *)
let budget_ops = 1_000

let words_per_op f =
  let words f =
    let w0 = Gc.minor_words () in
    for _ = 1 to budget_ops do
      f ()
    done;
    Gc.minor_words () -. w0
  in
  (words f -. words ignore) /. float_of_int budget_ops

let check_budget what ~budget words =
  if words > budget then Alcotest.failf "%s: %.3f minor words/op, budget %.0f" what words budget

(* One sleep: the 2-word continuation OCaml builds. Its resume event is
   that continuation and the fiber's id, stored in the queue's slots. *)
let sleep_budget = 2.

let test_sleep_budget () =
  Engine.run (fun () ->
      check_budget "sleep" ~budget:sleep_budget (words_per_op (fun () -> Engine.sleep 1.)))

let test_resource_use_budget () =
  Engine.run (fun () ->
      let r = Resource.create ~name:"r" ~capacity:1 () in
      let sleep = words_per_op (fun () -> Engine.sleep 1.) in
      check_budget "uncontended use" ~budget:sleep (words_per_op (fun () -> Resource.use r 1.)))

(* A park: the continuation, stored with the fiber's id in the wait
   queue's rings; the wake that moves the pair onto the lane allocates
   nothing. *)
let park_budget = 2.

(* Two fibers alternate on a capacity-1 station, so each of main's
   uses pairs with one of its partner's and every use waits: a park and
   a sleep per use. *)
let test_contended_use_budget () =
  Engine.run (fun () ->
      let r = Resource.create ~name:"r" ~capacity:1 () in
      Engine.spawn (fun () ->
          while true do
            Resource.use r 1.
          done);
      Engine.sleep 0.5;
      (* the first wait builds the station's wait-queue rings *)
      Resource.use r 1.;
      let per_use = words_per_op (fun () -> Resource.use r 1.) /. 2. in
      check_budget "contended use" ~budget:(park_budget +. sleep_budget) per_use)

(* An ivar nobody reads: the record (2 words) and its [Full] state (2). *)
let test_ivar_unread_budget () =
  Engine.run (fun () ->
      check_budget "ivar create, fill" ~budget:4.
        (words_per_op (fun () -> Ivar.fill (Ivar.create ()) ())))

(* The ivar (2 words), the one-waiter state its reader parks in (3)
   and the [Full] state (2), and one park. No wait queue is built. *)
let test_ivar_wake_budget () =
  Engine.run (fun () ->
      let cur = ref (Ivar.create ()) in
      let fill_cur () = Ivar.fill !cur () in
      check_budget "ivar create, park, fill" ~budget:(7. +. park_budget)
        (words_per_op (fun () ->
             let iv = Ivar.create () in
             cur := iv;
             ignore (Engine.schedule ~after:0. fill_cur);
             Ivar.read iv)))

(* Six sleeps (two NIC services and a flight per hop) and the boxed
   [Rng.float] of each hop's jitter draw. *)
let net_call_budget = (6. *. sleep_budget) +. (2. *. 2.)

let test_net_call_budget () =
  Engine.run (fun () ->
      let net = make_net ~jitter:0.05 () in
      let a = Net.add_host net "a" in
      let b = Net.add_host net "b" in
      let echo = Net.service b ~name:"echo" (fun x -> x) in
      check_budget "fault-free call" ~budget:net_call_budget
        (words_per_op (fun () -> ignore (Net.call ~from:a echo 1))))

(* Under a controller: the fault-free call's words, the caller's and
   the job's worker's parks and the response's box. The deadline's
   timer and the round-trip estimator add nothing. *)
let net_timed_call_budget = net_call_budget +. (2. *. sleep_budget) +. 2.

let test_net_timed_call_budget () =
  Engine.run (fun () ->
      let net = make_net ~jitter:0.05 () in
      let a = Net.add_host net "a" in
      let b = Net.add_host net "b" in
      Net.install_fault net (Fault.create ());
      let echo = Net.service b ~name:"echo" (fun x -> x) in
      (* the first call builds the pooled job and the estimator's rows *)
      ignore (Net.call ~from:a echo 1);
      check_budget "timed call" ~budget:net_timed_call_budget
        (words_per_op (fun () -> ignore (Net.call ~from:a echo 1))))

(* A section with tracing off: a span-only site takes no slot, a timed
   one stores its start and observes without boxing. Neither takes a
   closure, so both cost nothing. *)
let test_section_off_budget () =
  Engine.run (fun () ->
      let h = Metrics.histogram ~host:"h" "kernel_us" in
      let span_only = Span.site ~host:"h" ~args:(fun n -> [ ("n", string_of_int n) ]) "op" in
      let timed = Span.site ~host:"h" ~hist:h ~args:(fun n -> [ ("n", string_of_int n) ]) "op" in
      let section site () =
        let tok = Span.enter site 1 in
        Span.leave site tok
      in
      (* the first timed section builds the run's slot pool *)
      section timed ();
      check_budget "span-only section, tracing off" ~budget:0. (words_per_op (section span_only));
      check_budget "timed section, tracing off" ~budget:0. (words_per_op (section timed));
      check_int "every timed section observed" (budget_ops + 1) (Metrics.hist_count h))

(* [match_with]'s handler closure (5) and one sleep: 7 words. The
   spawn event is the body and the fiber's id, so no start thunk is
   built. *)
let spawn_budget = 7.

let test_spawn_budget () =
  Engine.run (fun () ->
      let body () = Engine.sleep 1. in
      let measured f =
        let w0 = Gc.minor_words () in
        f ();
        Gc.minor_words () -. w0
      in
      (* The measured sleep waits behind the spawns, so it suspends: the
         control's does too, behind an earlier timer (a lone sleep
         would resume in place and cost nothing). *)
      let control =
        measured (fun () ->
            ignore (Engine.schedule ~after:5. eventq_nothing : Engine.timer);
            Engine.sleep 10.)
      in
      let words =
        measured (fun () ->
            for _ = 1 to budget_ops do
              Engine.spawn body
            done;
            (* every spawned fiber starts, sleeps once and ends in here *)
            Engine.sleep 10.)
      in
      check_budget "spawn + first sleep" ~budget:spawn_budget
        ((words -. control) /. float_of_int budget_ops))

(* A deadline armed and cancelled among 500 pending ones: the handle is
   an immediate int, the thunk is built once, and both heap operations
   only move scalars. *)
let test_schedule_cancel_budget () =
  Engine.run (fun () ->
      for i = 1 to 500 do
        ignore (Engine.schedule ~after:(float_of_int i) eventq_nothing)
      done;
      check_budget "schedule + cancel" ~budget:0.
        (words_per_op (fun () ->
             ignore (Engine.cancel (Engine.schedule ~after:250.5 eventq_nothing) : bool))))

(* ------------------------------------------------------------------ *)
(* In-place sleeps                                                    *)
(* ------------------------------------------------------------------ *)

(* A sleep whose resume would be the next event dispatched runs on
   without suspending; these pin when it may and what it must leave
   exactly as a suspended sleep would. *)

let check_exact what want got =
  if not (Float.equal want got) then Alcotest.failf "%s: %h, want %h" what got want

let test_in_place_sleep () =
  Engine.run (fun () ->
      Engine.sleep 0.1;
      let now = Engine.now () in
      let events = Engine.events_dispatched () and in_place = Engine.resumed_in_place () in
      Engine.sleep 0.2;
      (* 0.1 +. 0.2 is not 0.3: the clock is the float sum a resume
         event would have carried *)
      check_exact "clock" (now +. 0.2) (Engine.now ());
      check_int "one dispatch counted" (events + 1) (Engine.events_dispatched ());
      check_int "resumed in place" (in_place + 1) (Engine.resumed_in_place ());
      check_budget "in-place sleep" ~budget:0. (words_per_op (fun () -> Engine.sleep 1.));
      check_int "every sleep in place" (in_place + 1 + budget_ops)
        (Engine.resumed_in_place ()))

let test_tied_sleep_suspends () =
  let order = ref [] in
  Engine.run (fun () ->
      let note what () = order := (what, Engine.now ()) :: !order in
      ignore (Engine.schedule ~after:1. (note "timer") : Engine.timer);
      let in_place = Engine.resumed_in_place () in
      Engine.sleep 1.;
      note "sleeper" ();
      (* a zero delay ties with a thunk due now the same way *)
      ignore (Engine.schedule ~after:0. (note "timer-now") : Engine.timer);
      Engine.yield ();
      note "yielder" ();
      check_int "no tied sleep in place" in_place (Engine.resumed_in_place ()));
  Alcotest.(check (list (pair string (float 0.))))
    "pending event first"
    [ ("timer", 1.); ("sleeper", 1.); ("timer-now", 1.); ("yielder", 1.) ]
    (List.rev !order)

let test_sleep_behind_lane_suspends () =
  let order = ref [] in
  Engine.run (fun () ->
      let q = Engine.waitq () in
      Engine.spawn (fun () ->
          Engine.park q;
          order := ("woken", Engine.now ()) :: !order);
      Engine.yield ();
      let in_place = Engine.resumed_in_place () in
      (* the heap is empty, but the wake's resume is due now *)
      Engine.wake q;
      Engine.sleep 5.;
      order := ("sleeper", Engine.now ()) :: !order;
      check_int "sleep behind a wake suspends" in_place (Engine.resumed_in_place ()));
  Alcotest.(check (list (pair string (float 0.))))
    "wake first" [ ("woken", 0.); ("sleeper", 5.) ] (List.rev !order)

let test_in_place_stops_at_horizon () =
  let seen = ref [] in
  Alcotest.check_raises "horizon" (Engine.Horizon_reached 10.) (fun () ->
      Engine.run ~until:10. (fun () ->
          Engine.sleep 4.;
          (* due exactly at the horizon: [run] still dispatches it *)
          Engine.sleep 6.;
          seen := [ (Engine.now (), Engine.resumed_in_place ()) ];
          Engine.sleep 0.5;
          seen := (Engine.now (), Engine.resumed_in_place ()) :: !seen));
  Alcotest.(check (list (pair (float 0.) int))) "stops at 10" [ (10., 2) ] !seen

(* A thunk is not a fiber: a sleep or park from one is refused with
   [Invalid_argument] in every queue state. With nothing else pending,
   the thunk's sleep would be the next event and would otherwise resume
   in place, moving the clock under the thunk; with one more event
   pending it would otherwise escape as [Effect.Unhandled]. *)
let thunk_refuses ~extra_pending what block =
  let refused = ref false in
  (match
     Engine.run (fun () ->
         ignore
           (Engine.schedule ~after:1. (fun () ->
                match block () with
                | () -> ()
                | exception Invalid_argument _ -> refused := true)
             : Engine.timer);
         if extra_pending then ignore (Engine.schedule ~after:8. ignore : Engine.timer);
         Engine.sleep 10.;
         Engine.now ())
   with
  | t -> check_float (what ^ ": main's clock") 10. t
  | exception e -> Alcotest.failf "%s: run raised %s" what (Printexc.to_string e));
  check_bool (what ^ " refused") true !refused

let test_thunk_cannot_block () =
  let q = Engine.waitq () in
  let dt = Float.Array.make 1 5. in
  List.iter
    (fun extra_pending ->
      let state = if extra_pending then " (one more pending)" else " (nothing else pending)" in
      thunk_refuses ~extra_pending ("sleep" ^ state) (fun () -> Engine.sleep 5.);
      thunk_refuses ~extra_pending ("sleep_in" ^ state) (fun () -> Engine.sleep_in dt 0);
      thunk_refuses ~extra_pending ("park" ^ state) (fun () -> Engine.park q);
      thunk_refuses ~extra_pending ("ivar read" ^ state) (fun () ->
          ignore (Engine.ivar_read (Engine.ivar_create ()) : int)))
    [ false; true ]

(* ------------------------------------------------------------------ *)
(* Dispatch order against a reference model                           *)
(* ------------------------------------------------------------------ *)

(* A fiber program: the steps the fiber takes, in order. Delays come
   from {0, 0.5, 1, 2} so that wake-ups tie. Main never parks (nothing
   is bound to wake it); a [Timer] thunk logs itself and may wake a
   queue; [Cancel_timer k] cancels the (k mod n)-th timer of the run. *)
type prog_step =
  | Sleep_us of float
  | Spawn of prog_step list
  | Park_on of int
  | Wake_on of int
  | Timer of float * int option
  | Cancel_timer of int

type prog_outcome = Finished of int | Horizon of float

let rec print_prog steps = "[" ^ String.concat "; " (List.map print_step steps) ^ "]"

and print_step = function
  | Sleep_us d -> Printf.sprintf "Sleep_us %g" d
  | Spawn p -> "Spawn " ^ print_prog p
  | Park_on q -> Printf.sprintf "Park_on %d" q
  | Wake_on q -> Printf.sprintf "Wake_on %d" q
  | Timer (d, None) -> Printf.sprintf "Timer (%g, None)" d
  | Timer (d, Some q) -> Printf.sprintf "Timer (%g, Some %d)" d q
  | Cancel_timer k -> Printf.sprintf "Cancel_timer %d" k

(* The observation log: (clock, fiber, step index) each time a fiber
   takes a step, (clock, -1, timer) each time a thunk runs, and main's
   (clock, 0, length) when it returns. *)
type prog_log = (float * int * int) list

let run_prog_engine (until, main) : prog_log * prog_outcome =
  let log = ref [] in
  let note fid i = log := (Engine.now (), fid, i) :: !log in
  let outcome =
    match
      Engine.run ?until (fun () ->
          let queues = [| Engine.waitq (); Engine.waitq () |] in
          let timers = ref [||] in
          let rec exec steps =
            List.iteri
              (fun i step ->
                note (Engine.fiber_id ()) i;
                match step with
                | Sleep_us d -> Engine.sleep d
                | Spawn p -> Engine.spawn (fun () -> exec p)
                | Park_on q -> Engine.park queues.(q)
                | Wake_on q -> Engine.wake queues.(q)
                | Timer (d, wake) ->
                    let id = Array.length !timers in
                    let thunk () =
                      note (-1) id;
                      Option.iter (fun q -> Engine.wake queues.(q)) wake
                    in
                    timers := Array.append !timers [| Engine.schedule ~after:d thunk |]
                | Cancel_timer k ->
                    let n = Array.length !timers in
                    if n > 0 then ignore (Engine.cancel !timers.(k mod n) : bool))
              steps
          in
          exec main;
          note 0 (List.length main);
          Engine.events_dispatched ())
    with
    | events -> Finished events
    | exception Engine.Horizon_reached h -> Horizon h
  in
  (List.rev !log, outcome)

(* The reference: every pending event in one list, the least (time,
   seq) dispatched next, a fiber's continuation its remaining steps. It
   shares no code with Engine or Eventq. *)
type model_event = Resume of int | Start of int * prog_step list | Fire of int * int option

let run_prog_model (until, main) : prog_log * prog_outcome =
  let horizon = Option.value until ~default:Float.infinity in
  let clock = ref 0. and seq = ref 0 and events = ref 0 in
  let pending = ref [] and log = ref [] in
  let parked = Hashtbl.create 8 and queues = [| Queue.create (); Queue.create () |] in
  let next_fiber = ref 1 and timers = ref [] and finished = ref None in
  let note fid i = log := (!clock, fid, i) :: !log in
  let push time ev =
    pending := (time, !seq, ev) :: !pending;
    incr seq
  in
  let due d = if d <= 0. then !clock else !clock +. d in
  let wake q = if not (Queue.is_empty queues.(q)) then push !clock (Resume (Queue.pop queues.(q))) in
  let rec step fid steps i =
    match steps with
    | [] -> if fid = 0 then begin note 0 i; finished := Some !events end
    | s :: rest -> (
        note fid i;
        let block () = Hashtbl.replace parked fid (rest, i + 1) in
        match s with
        | Sleep_us d ->
            push (due d) (Resume fid);
            block ()
        | Park_on q ->
            Queue.push fid queues.(q);
            block ()
        | Spawn p ->
            push !clock (Start (!next_fiber, p));
            incr next_fiber;
            step fid rest (i + 1)
        | Wake_on q ->
            wake q;
            step fid rest (i + 1)
        | Timer (d, w) ->
            let id = List.length !timers in
            timers := !timers @ [ !seq ];
            push (due d) (Fire (id, w));
            step fid rest (i + 1)
        | Cancel_timer k ->
            let n = List.length !timers in
            if n > 0 then begin
              let s = List.nth !timers (k mod n) in
              pending := List.filter (fun (_, s', _) -> s' <> s) !pending
            end;
            step fid rest (i + 1))
  in
  push 0. (Start (0, main));
  let rec loop () =
    match !finished with
    | Some events -> Finished events
    | None ->
        let ((time, _, ev) as next) =
          List.fold_left
            (fun ((t, s, _) as least) ((t', s', _) as e) ->
              if t' < t || (t' = t && s' < s) then e else least)
            (List.hd !pending) !pending
        in
        if time > horizon then Horizon horizon
        else begin
          pending := List.filter (fun e -> e != next) !pending;
          clock := time;
          incr events;
          (match ev with
          | Start (fid, p) -> step fid p 0
          | Resume fid ->
              let rest, i = Hashtbl.find parked fid in
              Hashtbl.remove parked fid;
              step fid rest i
          | Fire (id, w) ->
              note (-1) id;
              Option.iter wake w);
          loop ()
        end
  in
  let outcome = loop () in
  (List.rev !log, outcome)

let print_prog_case (until, main) =
  Printf.sprintf "(%s, %s)"
    (match until with None -> "None" | Some h -> Printf.sprintf "Some %g" h)
    (print_prog main)

let prog_gen =
  let open QCheck.Gen in
  let delay = oneofl [ 0.; 0.5; 1.; 2. ] in
  let queue = int_bound 1 in
  let rec steps ~main depth = list_size (int_bound 6) (step ~main depth)
  and step ~main depth =
    frequency
      ([
         (4, map (fun d -> Sleep_us d) delay);
         (2, map2 (fun d w -> Timer (d, w)) delay (opt queue));
         (1, map (fun k -> Cancel_timer k) (int_bound 7));
         (2, map (fun q -> Wake_on q) queue);
       ]
      @ (if main then [] else [ (2, map (fun q -> Park_on q) queue) ])
      @ if depth > 0 then [ (2, map (fun p -> Spawn p) (steps ~main:false (depth - 1))) ] else [])
  in
  pair (opt (oneofl [ 1.; 2.5; 4. ])) (steps ~main:true 2)

let rec shrink_prog steps = QCheck.Shrink.list ~shrink:shrink_step steps

and shrink_step = function
  | Spawn p -> QCheck.Iter.map (fun p -> Spawn p) (shrink_prog p)
  | Timer (d, Some _) -> QCheck.Iter.return (Timer (d, None))
  | Sleep_us d when d > 0. -> QCheck.Iter.return (Sleep_us 0.)
  | Timer (d, None) when d > 0. -> QCheck.Iter.return (Timer (0., None))
  | Sleep_us _ | Park_on _ | Wake_on _ | Timer _ | Cancel_timer _ -> QCheck.Iter.empty

let prop_dispatch_matches_model =
  QCheck.Test.make ~name:"engine dispatch matches a list-based (time, seq) model" ~count:500
    (QCheck.make ~print:print_prog_case
       ~shrink:(QCheck.Shrink.pair (QCheck.Shrink.option QCheck.Shrink.nil) shrink_prog)
       prog_gen)
    (fun case -> run_prog_engine case = run_prog_model case)

(* Cases the property shrank to when the in-place check let a sleep
   that ties with a pending event run first: with a thunk due now, with
   a later thunk, and with another fiber's sleep. *)
let dispatch_regressions =
  [
    (None, [ Timer (0., None); Sleep_us 0. ]);
    (None, [ Timer (1., None); Sleep_us 1. ]);
    (None, [ Spawn [ Sleep_us 2. ]; Sleep_us 1.; Sleep_us 1. ]);
  ]

let test_dispatch_regressions () =
  List.iter
    (fun case ->
      if run_prog_engine case <> run_prog_model case then
        Alcotest.failf "engine diverges from the model on %s" (print_prog_case case))
    dispatch_regressions

let () =
  Alcotest.run "sim"
    [
      ( "engine",
        [
          Alcotest.test_case "run returns result" `Quick test_run_returns_result;
          Alcotest.test_case "clock starts at zero" `Quick test_clock_starts_at_zero;
          Alcotest.test_case "sleep advances clock" `Quick test_sleep_advances_clock;
          Alcotest.test_case "negative sleep clamped" `Quick test_negative_sleep_clamped;
          Alcotest.test_case "spawn runs concurrently" `Quick test_spawn_runs_concurrently;
          Alcotest.test_case "same-time events are FIFO" `Quick test_same_time_fifo;
          Alcotest.test_case "main completion stops world" `Quick test_main_completion_stops_world;
          Alcotest.test_case "deadlock detected" `Quick test_deadlock_detected;
          Alcotest.test_case "horizon enforced" `Quick test_horizon;
          Alcotest.test_case "fiber exception propagates" `Quick test_fiber_exception_propagates;
          Alcotest.test_case "nested run rejected" `Quick test_nested_run_rejected;
          Alcotest.test_case "fiber ids unique" `Quick test_fiber_ids_unique;
          Alcotest.test_case "schedule thunk" `Quick test_schedule_thunk;
          Alcotest.test_case "deterministic replay" `Quick test_determinism;
          Alcotest.test_case "spawn ~at past raises" `Quick test_spawn_past_raises;
          Alcotest.test_case "a sleep due next resumes in place" `Quick test_in_place_sleep;
          Alcotest.test_case "a sleep tied with a pending event suspends" `Quick
            test_tied_sleep_suspends;
          Alcotest.test_case "a sleep behind a wake due now suspends" `Quick
            test_sleep_behind_lane_suspends;
          Alcotest.test_case "no in-place sleep past the horizon" `Quick
            test_in_place_stops_at_horizon;
          Alcotest.test_case "a thunk that sleeps or parks is refused" `Quick
            test_thunk_cannot_block;
          Alcotest.test_case "per-run store built once per run" `Quick test_per_run_store;
        ] );
      ( "engine-model",
        Alcotest.test_case "shrunk tie cases" `Quick test_dispatch_regressions
        :: qcheck [ prop_dispatch_matches_model ] );
      ( "kernel-alloc",
        [
          Alcotest.test_case "sleep within budget" `Quick test_sleep_budget;
          Alcotest.test_case "resource use costs only its sleep" `Quick test_resource_use_budget;
          Alcotest.test_case "net call within budget" `Quick test_net_call_budget;
          Alcotest.test_case "timed net call within budget" `Quick test_net_timed_call_budget;
          Alcotest.test_case "contended use: a park and a sleep" `Quick
            test_contended_use_budget;
          Alcotest.test_case "ivar wake within budget" `Quick test_ivar_wake_budget;
          Alcotest.test_case "unread ivar within budget" `Quick test_ivar_unread_budget;
          Alcotest.test_case "spawn + first sleep within budget" `Quick test_spawn_budget;
          Alcotest.test_case "schedule + cancel allocates nothing" `Quick
            test_schedule_cancel_budget;
          Alcotest.test_case "sections off allocate nothing" `Quick test_section_off_budget;
        ] );
      ( "waitq",
        [
          Alcotest.test_case "fifo wake, once each" `Quick test_waitq_fifo_wake;
          Alcotest.test_case "grows while parked, wakes in order" `Quick
            test_waitq_growth_wakes_in_order;
        ] );
      ( "eventq",
        [
          Alcotest.test_case "heap pops in (time, seq) order" `Quick test_eventq_heap_order;
          Alcotest.test_case "lane/heap interleave stays sorted" `Quick
            test_eventq_lane_interleave;
          Alcotest.test_case "drain allocates zero minor words" `Quick
            test_eventq_zero_alloc_drain;
          Alcotest.test_case "growth preserves events" `Quick test_eventq_growth;
          Alcotest.test_case "lane/heap order, same-clock pushes" `Quick
            test_eventq_lane_heap_ordering;
          Alcotest.test_case "heap growth keeps far events sorted" `Quick test_eventq_heap_growth;
          Alcotest.test_case "stale handles cancel nothing" `Quick test_eventq_stale_handle;
        ] );
      ( "ivar",
        [
          Alcotest.test_case "fill then read" `Quick test_ivar_fill_then_read;
          Alcotest.test_case "read blocks until fill" `Quick test_ivar_blocks_until_filled;
          Alcotest.test_case "multiple readers" `Quick test_ivar_multiple_readers;
          Alcotest.test_case "1-3 readers resume in park order" `Quick
            test_ivar_readers_resume_in_park_order;
          Alcotest.test_case "double fill rejected" `Quick test_ivar_double_fill_rejected;
          Alcotest.test_case "peek and is_filled" `Quick test_ivar_peek;
        ] );
      ( "resource",
        [
          Alcotest.test_case "capacity 1 serializes" `Quick test_resource_serializes;
          Alcotest.test_case "capacity 2 parallel" `Quick test_resource_parallel_capacity;
          Alcotest.test_case "fifo queue" `Quick test_resource_fifo_queue;
          Alcotest.test_case "throughput cap" `Quick test_resource_throughput_cap;
          Alcotest.test_case "release without acquire" `Quick test_resource_release_without_acquire;
          Alcotest.test_case "busy time accounting" `Quick test_resource_busy_time;
          Alcotest.test_case "grant survives a same-instant fail" `Quick
            test_resource_grant_survives_same_instant_fail;
        ] );
      ( "net",
        [
          Alcotest.test_case "rpc roundtrip" `Quick test_net_rpc_roundtrip;
          Alcotest.test_case "loopback free" `Quick test_net_loopback_is_free;
          Alcotest.test_case "bandwidth charged" `Quick test_net_bandwidth_charged;
          Alcotest.test_case "server saturation" `Quick test_net_server_saturation;
        ] );
      ( "fault",
        [
          Alcotest.test_case "judge crash and partition" `Quick
            test_fault_judge_crash_and_partition;
          Alcotest.test_case "recovery with nothing to recover is a no-op" `Quick
            test_fault_nothing_to_recover;
          Alcotest.test_case "edge delay observed" `Quick test_fault_edge_delay_observed;
          Alcotest.test_case "resource fail and repair" `Quick test_fault_resource_fail_repair;
          Alcotest.test_case "call_r timeout and dead paths" `Quick test_fault_call_r_paths;
          Alcotest.test_case "crashed caller loses the response" `Quick
            test_fault_crashed_caller_loses_response;
          Alcotest.test_case "call_r late response reaches no later call" `Quick
            test_fault_call_r_late_response;
          Alcotest.test_case "answered call_r cancels its deadline" `Quick
            test_fault_call_r_answered_cancels_deadline;
          Alcotest.test_case "quiet controller is free" `Quick test_fault_quiet_controller_is_free;
          Alcotest.test_case "first call waits timeout_us" `Quick
            test_deadline_first_call_waits_cap;
          Alcotest.test_case "deadline is RTO x (1 + in flight), capped" `Quick
            test_deadline_rto_times_in_flight;
          Alcotest.test_case "unanswered call doubles the RTO" `Quick
            test_deadline_unanswered_doubles_rto;
          Alcotest.test_case "20x slower peer reached within log2 attempts" `Quick
            test_deadline_slow_peer_reached;
          Alcotest.test_case "a host's services share one estimate per caller" `Quick
            test_deadline_shared_by_host_services;
          Alcotest.test_case "held service keeps timeout_us" `Quick
            test_deadline_held_service_not_cut_short;
          Alcotest.test_case "plan runs in virtual time" `Quick
            test_fault_schedule_is_virtual_time;
          Alcotest.test_case "custom actions run through the interpreter" `Quick
            test_fault_custom_interpreter;
          Alcotest.test_case "trace deterministic across runs" `Quick
            test_fault_trace_deterministic;
          Alcotest.test_case "plan equality and printing" `Quick test_fault_plan_equal_pp;
          Alcotest.test_case "plan serialization round-trip" `Quick test_fault_plan_round_trip;
        ] );
      ( "stats",
        [
          Alcotest.test_case "series basics" `Quick test_series_basics;
          Alcotest.test_case "percentile interpolates" `Quick test_series_percentile_interpolates;
          Alcotest.test_case "series grows" `Quick test_series_grows;
          Alcotest.test_case "add after percentile" `Quick test_series_add_after_percentile;
          Alcotest.test_case "percentile edge cases" `Quick test_series_percentile_edges;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "get-or-create handles" `Quick test_metrics_get_or_create;
          Alcotest.test_case "time observes a raising body" `Quick test_metrics_time_observes_raise;
          Alcotest.test_case "reset across runs" `Quick test_metrics_reset_across_runs;
          Alcotest.test_case "sampler records series" `Quick test_metrics_sampler_series;
          Alcotest.test_case "strict mode: stale handle raises" `Quick test_metrics_stale_handle_raises;
          Alcotest.test_case "strict mode: all handle kinds" `Quick test_metrics_stale_handle_all_kinds;
        ] );
      ( "timeseries",
        [
          Alcotest.test_case "counter rate per window" `Quick test_timeseries_counter_rate;
          Alcotest.test_case "gauge min/max/last and probes" `Quick test_timeseries_gauge_minmax_and_probe;
          Alcotest.test_case "histogram window percentiles" `Quick test_timeseries_hist_window_percentiles;
          Alcotest.test_case "ring eviction" `Quick test_timeseries_ring_eviction;
          Alcotest.test_case "deterministic dumps" `Quick test_timeseries_deterministic_dump;
        ] );
      ( "slo",
        [
          Alcotest.test_case "fire and resolve" `Quick test_slo_fire_and_resolve;
          Alcotest.test_case "nan windows are good" `Quick test_slo_nan_windows_are_good;
          Alcotest.test_case "evaluates from timeseries" `Quick test_slo_evaluates_from_timeseries;
          Alcotest.test_case "deterministic alert stream" `Quick test_slo_alerts_json_deterministic;
        ] );
      ( "announce",
        [
          Alcotest.test_case "off path allocates nothing" `Quick
            test_announce_off_allocates_nothing;
        ] );
      ( "flight",
        [
          Alcotest.test_case "disabled is a no-op" `Quick test_flight_disabled_is_noop;
          Alcotest.test_case "ring overwrites oldest" `Quick test_flight_ring_overwrites_oldest;
          Alcotest.test_case "snapshot budget" `Quick test_flight_snapshot_budget;
          Alcotest.test_case "captures spans and metrics" `Quick test_flight_span_and_metric_capture;
          Alcotest.test_case "deterministic dumps" `Quick test_flight_deterministic_dump;
        ] );
      ( "span",
        [
          Alcotest.test_case "nesting and inheritance" `Quick test_span_nesting;
          Alcotest.test_case "cross-fiber parenting" `Quick test_span_cross_fiber_parent;
          Alcotest.test_case "disabled records nothing" `Quick test_span_disabled_records_nothing;
          Alcotest.test_case "span duration is the histogram observation" `Quick
            test_span_named_once;
          Alcotest.test_case "closed stacks are forgotten" `Quick test_span_stacks_forgotten;
          Alcotest.test_case "deterministic dumps" `Quick test_observability_determinism;
        ] );
      ( "properties",
        qcheck
          [
            prop_rng_int_in_bounds;
            prop_rng_float_in_bounds;
            prop_rng_deterministic;
            prop_resource_conserves;
            prop_station_matches_model;
            prop_fault_plan_round_trip;
            prop_fault_verdicts_match_names;
            prop_eventq_tagged_order;
            prop_eventq_cancel_matches_model;
          ] );
    ]
