(* Tests for the load-generation and measurement harness, and for the
   linearizability checker. *)

module Load = Tango_harness.Load
module Lin = Tango_harness.Linearizability

let check_bool = Alcotest.(check bool)

let near ~tolerance expected actual =
  abs_float (actual -. expected) <= tolerance *. expected

(* Run [setup w] on a fresh window, measure it and return its report. *)
let measured ?seed ~warmup_us ~measure_us setup =
  Sim.Engine.run ?seed (fun () ->
      let w = Load.window () in
      setup w;
      Load.measure ~warmup_us ~measure_us [ w ];
      Load.report w)

let workers n w op =
  for _ = 1 to n do
    Load.worker w op
  done

let test_closed_loop_throughput () =
  (* Each op takes exactly 100 µs; 4 workers -> 40K ops/s. *)
  let r =
    measured ~warmup_us:10_000. ~measure_us:100_000. (fun w ->
        workers 4 w (fun () ->
            Sim.Engine.sleep 100.;
            true))
  in
  check_bool "throughput 40K" true (near ~tolerance:0.02 40_000. r.Load.throughput);
  check_bool "goodput equals throughput" true (r.Load.goodput = r.Load.throughput);
  check_bool "latency 100us" true (near ~tolerance:0.02 100. r.Load.latency_mean_us)

let test_closed_loop_goodput () =
  let flip = ref false in
  let r =
    measured ~warmup_us:1_000. ~measure_us:50_000. (fun w ->
        Load.worker w (fun () ->
            Sim.Engine.sleep 50.;
            flip := not !flip;
            !flip))
  in
  check_bool "half the ops succeed" true
    (near ~tolerance:0.05 (r.Load.throughput /. 2.) r.Load.goodput);
  check_bool "succeeded counts the good ops" true
    (abs (r.Load.samples - (2 * r.Load.succeeded)) <= 1)

let test_closed_loop_warmup_excluded () =
  (* Ops get fast after warmup; the slow phase must not pollute the
     latency stats. *)
  let r =
    measured ~warmup_us:60_000. ~measure_us:50_000. (fun w ->
        let slow = ref true in
        Sim.Engine.spawn (fun () ->
            Sim.Engine.sleep 50_000.;
            slow := false);
        Load.worker w (fun () ->
            Sim.Engine.sleep (if !slow then 5_000. else 10.);
            true))
  in
  check_bool "no slow samples" true (r.Load.latency_p99_us < 100.)

let test_open_loop_rate () =
  let r =
    measured ~warmup_us:20_000. ~measure_us:200_000. (fun w ->
        Load.generator w ~rate:10_000. (fun () ->
            Sim.Engine.sleep 30.;
            true))
  in
  check_bool "matches offered rate" true (near ~tolerance:0.1 10_000. r.Load.throughput)

let test_open_loop_outstanding_cap () =
  (* Ops that never finish: the generator must stop at the cap instead
     of spawning unboundedly. *)
  let spawned = ref 0 in
  let (_ : Load.report) =
    measured ~warmup_us:1_000. ~measure_us:30_000. (fun w ->
        Load.generator ~max_outstanding:50 w ~rate:100_000. (fun () ->
            incr spawned;
            Sim.Engine.sleep 10_000_000.;
            true))
  in
  check_bool (Printf.sprintf "capped at 50, spawned %d" !spawned) true (!spawned <= 50)

let test_open_loop_invalid_rate () =
  let generate rate () =
    Sim.Engine.run (fun () -> Load.generator (Load.window ()) ~rate (fun () -> true))
  in
  Alcotest.check_raises "zero rate rejected"
    (Invalid_argument "Load.generator: rate must be positive") (generate 0.);
  Alcotest.check_raises "negative rate rejected"
    (Invalid_argument "Load.generator: rate must be positive") (generate (-5.))

let test_open_loop_rate_near_zero () =
  (* A trickle — mean gap 20 ms against a 2 s window. The loop must
     neither spin nor stall, and the handful of completions must all be
     counted. *)
  let completions = ref 0 in
  let r =
    measured ~warmup_us:0. ~measure_us:2_000_000. (fun w ->
        Load.generator w ~rate:50. (fun () ->
            Sim.Engine.sleep 10.;
            incr completions;
            true))
  in
  check_bool
    (Printf.sprintf "trickle rate ~50/s, got %.1f" r.Load.throughput)
    true
    (near ~tolerance:0.4 50. r.Load.throughput);
  check_bool "samples match completions" true (r.Load.samples <= !completions)

let test_open_loop_saturated_cap () =
  (* Offered load far above capacity: with [max_outstanding] ops of a
     fixed 50 ms service each, completions must pin at cap / service =
     200/s regardless of the offered 1M/s. *)
  let r =
    measured ~warmup_us:100_000. ~measure_us:500_000. (fun w ->
        Load.generator ~max_outstanding:10 w ~rate:1_000_000. (fun () ->
            Sim.Engine.sleep 50_000.;
            true))
  in
  check_bool
    (Printf.sprintf "saturated at 200/s, got %.1f" r.Load.throughput)
    true
    (near ~tolerance:0.05 200. r.Load.throughput)

let test_open_loop_window_boundary () =
  (* Only completions inside [warmup, warmup + measure) may count.
     Every op takes exactly 10 ms, so completion times are arrival +
     10 ms; compare the report's sample count against an external count
     over the same window. *)
  let warmup = 20_000. and measure = 50_000. in
  let in_window = ref 0 in
  let total = ref 0 in
  let r =
    measured ~warmup_us:warmup ~measure_us:measure (fun w ->
        Load.generator w ~rate:2_000. (fun () ->
            Sim.Engine.sleep 10_000.;
            let t = Sim.Engine.now () in
            incr total;
            if t >= warmup && t < warmup +. measure then incr in_window;
            true))
  in
  check_bool "ops completed outside the window too" true (!total > !in_window);
  Alcotest.(check int) "window boundary exact" !in_window r.Load.samples

let test_generator_deterministic () =
  (* Arrivals come from the generator's own split of the engine RNG and
     service times from a second split, so the report is a function of
     the seed alone. *)
  let run seed =
    measured ~seed ~warmup_us:5_000. ~measure_us:50_000. (fun w ->
        let service = Sim.Rng.split (Sim.Engine.rng ()) in
        Load.generator w ~rate:5_000. (fun () ->
            Sim.Engine.sleep (Sim.Rng.exponential service ~mean:300.);
            true))
  in
  let a = run 3 and b = run 3 and c = run 4 in
  check_bool "same seed, same report" true (a = b);
  check_bool "other seed, other report" true
    (a.Load.samples <> c.Load.samples || a.Load.latency_mean_us <> c.Load.latency_mean_us)

let test_measure_counter () =
  (* Events counted inside the system rather than by a worker: a fiber
     records one completion every 100 µs, and the window rates the
     ones inside it at 10K/s. *)
  let r =
    Sim.Engine.run (fun () ->
        let w = Load.window () in
        Sim.Engine.spawn (fun () ->
            let rec tick () =
              Sim.Engine.sleep 100.;
              Load.record w ~started:(Sim.Engine.now ()) true;
              tick ()
            in
            tick ());
        Load.measure ~warmup_us:5_000. ~measure_us:100_000. [ w ];
        Load.report w)
  in
  check_bool "10K/s" true (near ~tolerance:0.02 10_000. r.Load.throughput)

let test_report_samples () =
  let r =
    measured ~warmup_us:0. ~measure_us:10_000. (fun w ->
        workers 2 w (fun () ->
            Sim.Engine.sleep 1_000.;
            true))
  in
  check_bool (Printf.sprintf "sample count ~20, got %d" r.Load.samples) true
    (r.Load.samples >= 18 && r.Load.samples <= 20)

(* ------------------------------------------------------------------ *)
(* Linearizability checker                                            *)
(* ------------------------------------------------------------------ *)

let ev s f op = { Lin.started = s; finished = f; op }

let test_lin_sequential_ok () =
  check_bool "write then read" true
    (Lin.check_register [ ev 0. 1. (Lin.Write 5); ev 2. 3. (Lin.Read 5) ]);
  check_bool "read of initial" true (Lin.check_register [ ev 0. 1. (Lin.Read 0) ]);
  check_bool "empty history" true (Lin.check_register [])

let test_lin_stale_read_rejected () =
  (* Write completed strictly before the read began, yet the read
     returned the old value: not linearizable. *)
  check_bool "stale read" false
    (Lin.check_register [ ev 0. 1. (Lin.Write 5); ev 2. 3. (Lin.Read 0) ])

let test_lin_concurrent_flexibility () =
  (* A read concurrent with a write may return either value... *)
  check_bool "new value" true
    (Lin.check_register [ ev 0. 10. (Lin.Write 5); ev 1. 2. (Lin.Read 5) ]);
  check_bool "old value" true
    (Lin.check_register [ ev 0. 10. (Lin.Write 5); ev 1. 2. (Lin.Read 0) ]);
  (* ...but two sequential reads inside the write's window cannot see
     new-then-old. *)
  check_bool "non-monotonic reads" false
    (Lin.check_register
       [ ev 0. 10. (Lin.Write 5); ev 1. 2. (Lin.Read 5); ev 3. 4. (Lin.Read 0) ])

let test_lin_write_order () =
  (* Sequential writes 1 then 2; a later read of 1 is stale. *)
  check_bool "overwritten value" false
    (Lin.check_register
       [ ev 0. 1. (Lin.Write 1); ev 2. 3. (Lin.Write 2); ev 4. 5. (Lin.Read 1) ]);
  (* Concurrent writes: either can win. *)
  check_bool "either winner" true
    (Lin.check_register
       [ ev 0. 10. (Lin.Write 1); ev 0. 10. (Lin.Write 2); ev 11. 12. (Lin.Read 1) ])

let test_lin_rejects_bad_event () =
  match Lin.check_register [ ev 5. 1. (Lin.Read 0) ] with
  | _ -> Alcotest.fail "finished < started must be rejected"
  | exception Invalid_argument _ -> ()

let test_lin_cas () =
  let cas expected desired ok = Lin.Cas { expected; desired; ok } in
  (* successful CAS must sit where the register held [expected] *)
  check_bool "cas chain" true
    (Lin.check_register
       [ ev 0. 1. (Lin.Write 1); ev 2. 3. (cas 1 2 true); ev 4. 5. (Lin.Read 2) ]);
  check_bool "cas on wrong value cannot succeed" false
    (Lin.check_register [ ev 0. 1. (Lin.Write 5); ev 2. 3. (cas 1 2 true) ]);
  (* failed CAS must NOT sit where the register held [expected] *)
  check_bool "failed cas on matching value" false
    (Lin.check_register [ ev 0. 1. (Lin.Write 1); ev 2. 3. (cas 1 2 false) ]);
  check_bool "failed cas leaves value" true
    (Lin.check_register
       [ ev 0. 1. (Lin.Write 5); ev 2. 3. (cas 1 2 false); ev 4. 5. (Lin.Read 5) ]);
  (* two concurrent CASes on the same expected value: exactly one can
     win, and the loser's failure is what makes the history legal *)
  check_bool "cas race, one winner" true
    (Lin.check_register
       [ ev 0. 1. (Lin.Write 1); ev 2. 9. (cas 1 2 true); ev 2. 9. (cas 1 3 false); ev 10. 11. (Lin.Read 2) ]);
  check_bool "cas race, two winners impossible" false
    (Lin.check_register
       [ ev 0. 1. (Lin.Write 1); ev 2. 9. (cas 1 2 true); ev 2. 9. (cas 1 3 true) ])

(* The old checker rejected histories longer than 62 ops (bitmask). A
   deep sequential chain is linear-time for the search, so length is
   the only thing this exercises. *)
let test_lin_long_history () =
  let n = 300 in
  let history =
    List.concat_map
      (fun i ->
        let t = float_of_int (4 * i) in
        [ ev t (t +. 1.) (Lin.Write i); ev (t +. 2.) (t +. 3.) (Lin.Read i) ])
      (List.init n (fun i -> i))
  in
  check_bool "300 sequential pairs linearize" true (Lin.check_register history);
  let stale = history @ [ ev 10_000. 10_001. (Lin.Read 0) ] in
  check_bool "stale tail still caught" false (Lin.check_register stale)

let test_lin_work_limit () =
  (* Everything concurrent and unsatisfiable: the search has to explore
     a combinatorial frontier, so a tiny state budget trips. *)
  let history =
    List.init 16 (fun i -> ev 0. 100. (Lin.Write i))
    @ [ ev 101. 102. (Lin.Read 999) ]
  in
  match Lin.check_register ~max_states:50 history with
  | _ -> Alcotest.fail "expected Work_limit"
  | exception Lin.Work_limit -> ()

(* ------------------------------------------------------------------ *)
(* Verifier oracles (pure, hand-built observations)                    *)
(* ------------------------------------------------------------------ *)

module Verifier = Tango_harness.Verifier

let oracle_names vs = List.map (fun v -> v.Verifier.v_oracle) vs

let test_verifier_durability () =
  let store = [ (0, Bytes.of_string "a"); (2, Bytes.of_string "b") ] in
  let read off = List.assoc_opt off store in
  Alcotest.(check (list string)) "clean" []
    (oracle_names (Verifier.durability ~acked:store ~read));
  Alcotest.(check (list string)) "lost write" [ "durability" ]
    (oracle_names
       (Verifier.durability ~acked:[ (1, Bytes.of_string "x") ] ~read));
  Alcotest.(check (list string)) "corrupt write" [ "durability" ]
    (oracle_names
       (Verifier.durability ~acked:[ (0, Bytes.of_string "WRONG") ] ~read))

let test_verifier_hole_freedom () =
  let resolve = function 1 -> `Unresolved | 2 -> `Junk | _ -> `Data in
  Alcotest.(check (list string)) "hole below tail" [ "hole-freedom" ]
    (oracle_names (Verifier.hole_freedom ~tail:4 ~resolve));
  Alcotest.(check (list string)) "tail below the hole" []
    (oracle_names (Verifier.hole_freedom ~tail:1 ~resolve))

let test_verifier_stream_order () =
  let views order = [ ("a", [ (1, order) ]); ("b", [ (1, [ 0; 3; 7 ]) ]) ] in
  Alcotest.(check (list string)) "agreeing views" []
    (oracle_names (Verifier.stream_order ~acked:[ (1, 3) ] ~views:(views [ 0; 3; 7 ])));
  check_bool "non-ascending view caught" true
    (List.mem "stream-order"
       (oracle_names (Verifier.stream_order ~acked:[] ~views:(views [ 3; 0; 7 ]))));
  check_bool "divergent views caught" true
    (List.mem "stream-order"
       (oracle_names (Verifier.stream_order ~acked:[] ~views:(views [ 0; 7 ]))));
  check_bool "acked entry missing from playback" true
    (List.mem "stream-order"
       (oracle_names
          (Verifier.stream_order ~acked:[ (1, 5) ] ~views:(views [ 0; 3; 7 ]))))

let test_verifier_convergence_and_atomicity () =
  Alcotest.(check (list string)) "converged" []
    (oracle_names (Verifier.convergence ~states:[ ("a", "s"); ("b", "s") ]));
  Alcotest.(check (list string)) "diverged" [ "convergence" ]
    (oracle_names (Verifier.convergence ~states:[ ("a", "s"); ("b", "t") ]));
  let probe tag committed in_map in_set =
    { Verifier.t_tag = tag; t_committed = committed; t_in_map = in_map; t_in_set = in_set }
  in
  Alcotest.(check (list string)) "clean txs" []
    (oracle_names
       (Verifier.atomicity ~txs:[ probe "t1" true true true; probe "t2" false false false ]));
  Alcotest.(check (list string)) "torn commit" [ "atomicity" ]
    (oracle_names (Verifier.atomicity ~txs:[ probe "t3" true true false ]));
  Alcotest.(check (list string)) "leaked abort" [ "atomicity" ]
    (oracle_names (Verifier.atomicity ~txs:[ probe "t4" false true true ]))

(* Pathological observation shapes the normal fuzz path never builds:
   the oracles must degrade to "nothing to say", not crash or
   fabricate violations. *)
let test_verifier_pathological_histories () =
  (* Empty acked set: durability has no obligations. *)
  Alcotest.(check (list string)) "empty acked set" []
    (oracle_names (Verifier.durability ~acked:[] ~read:(fun _ -> None)));
  (* The same acked offset reported twice (an at-least-once ack path):
     one readable copy satisfies both records, and a mismatch still
     fires once per record. *)
  let dup = [ (3, Bytes.of_string "a"); (3, Bytes.of_string "a") ] in
  let read = function 3 -> Some (Bytes.of_string "a") | _ -> None in
  Alcotest.(check (list string)) "duplicate acked offsets, consistent" []
    (oracle_names (Verifier.durability ~acked:dup ~read));
  Alcotest.(check (list string)) "duplicate acked offsets, lost -> one summary violation"
    [ "durability" ]
    (oracle_names
       (Verifier.durability
          ~acked:[ (9, Bytes.of_string "x"); (9, Bytes.of_string "x") ]
          ~read));
  (* Duplicate acked (stream, offset) pairs must not demand duplicate
     playback entries. *)
  Alcotest.(check (list string)) "duplicate acked stream members" []
    (oracle_names
       (Verifier.stream_order ~acked:[ (1, 4); (1, 4) ]
          ~views:[ ("a", [ (1, [ 0; 4 ]) ]); ("b", [ (1, [ 0; 4 ]) ]) ]));
  (* A single client's view: no peer to diverge from, but ordering and
     acked-coverage still apply. *)
  Alcotest.(check (list string)) "single view, clean" []
    (oracle_names (Verifier.stream_order ~acked:[ (1, 4) ] ~views:[ ("solo", [ (1, [ 0; 4 ]) ]) ]));
  check_bool "single view, non-ascending still caught" true
    (List.mem "stream-order"
       (oracle_names (Verifier.stream_order ~acked:[] ~views:[ ("solo", [ (1, [ 4; 0 ]) ]) ])));
  check_bool "single view, missing acked entry still caught" true
    (List.mem "stream-order"
       (oracle_names (Verifier.stream_order ~acked:[ (1, 9) ] ~views:[ ("solo", [ (1, [ 0 ]) ]) ])));
  (* An aborted tx whose marker is only partially visible is a leak,
     not a tear: every partial-visibility shape must fire. *)
  let probe committed in_map in_set =
    { Verifier.t_tag = "t"; t_committed = committed; t_in_map = in_map; t_in_set = in_set }
  in
  Alcotest.(check (list string)) "aborted tx partially visible (map only)" [ "atomicity" ]
    (oracle_names (Verifier.atomicity ~txs:[ probe false true false ]));
  Alcotest.(check (list string)) "aborted tx partially visible (set only)" [ "atomicity" ]
    (oracle_names (Verifier.atomicity ~txs:[ probe false false true ]));
  Alcotest.(check (list string)) "empty tx set" []
    (oracle_names (Verifier.atomicity ~txs:[]))

(* ------------------------------------------------------------------ *)
(* Fuzzer: clean smoke, determinism, reproducers, sensitivity         *)
(* ------------------------------------------------------------------ *)

module Fuzz = Tango_harness.Fuzz
module Spec = Tango_harness.Spec
module Scenario = Tango_harness.Scenario
module Chaos = Tango_harness.Chaos

(* One trimmed-down case per test keeps the suite fast; the CI
   fuzz-smoke job runs the full-size campaigns. *)
let small_config =
  {
    Fuzz.default_config with
    f_servers = 4;
    f_clients = 2;
    f_appends = 8;
    f_txs = 4;
    f_events = 4;
    f_deadline_us = 2_000_000.;
  }

(* The fuzz case of [seed] over [small_config], named as tangoctl
   names a campaign's cases. *)
let case ?(specs = []) ?failpoint ?(plan = []) seed =
  {
    Fuzz.sc_name = Printf.sprintf "fuzz-seed-%d" seed;
    sc_seed = seed;
    sc_config = small_config;
    sc_plan = plan;
    sc_specs = specs;
    sc_spec_deadline_us = None;
    sc_failpoint = failpoint;
    sc_monitors = [];
  }

let replace_sequencer_at at = [ (at, Chaos.custom Replace_sequencer) ]

let test_fuzz_clean_smoke () =
  let plan = Fuzz.gen_plan ~seed:42 small_config in
  check_bool "plan not empty" true (plan <> []);
  let oc = Fuzz.run (case ~plan 42) in
  Alcotest.(check (list string)) "no violations on a clean build" []
    (oracle_names oc.Fuzz.oc_violations);
  Alcotest.(check int) "every append acked" 16 oc.Fuzz.oc_acked;
  Alcotest.(check int) "every tx decided" 8 (oc.Fuzz.oc_committed + oc.Fuzz.oc_aborted);
  check_bool "faults actually ran" true (oc.Fuzz.oc_fault_events >= List.length plan)

let test_fuzz_deterministic_replay () =
  let plan = Fuzz.gen_plan ~seed:43 small_config in
  let a = Fuzz.run ~capture_spans:true (case ~plan 43) in
  let b = Fuzz.run ~capture_spans:true (case ~plan 43) in
  Alcotest.(check string) "metrics byte-identical" a.Fuzz.oc_metrics_json b.Fuzz.oc_metrics_json;
  check_bool "span dumps present" true (a.Fuzz.oc_spans_json <> None);
  Alcotest.(check (option string)) "span dumps byte-identical" a.Fuzz.oc_spans_json
    b.Fuzz.oc_spans_json

(* A generated case travels as a scenario: seed, config, a plan with
   custom actions, specs and failpoint all survive the file. *)
let test_fuzz_reproducer_roundtrip () =
  let sc =
    {
      Fuzz.sc_name = "fuzz-seed-44";
      sc_seed = 44;
      sc_config = small_config;
      sc_plan = Fuzz.gen_plan ~seed:44 small_config;
      sc_specs = Spec.all;
      sc_spec_deadline_us = None;
      sc_failpoint = Some "skip-rebuild-scan";
      sc_monitors = [];
    }
  in
  check_bool "plan has a custom action" true
    (List.exists (function _, Sim.Fault.Custom _ -> true | _ -> false) sc.Fuzz.sc_plan);
  let doc = Scenario.encode sc in
  let sc' = Scenario.decode doc in
  Alcotest.(check int) "seed" 44 sc'.Fuzz.sc_seed;
  check_bool "config" true (sc'.Fuzz.sc_config = small_config);
  check_bool "plan" true (sc'.Fuzz.sc_plan = sc.Fuzz.sc_plan);
  check_bool "specs" true (sc'.Fuzz.sc_specs = Spec.all);
  Alcotest.(check (option string)) "failpoint" sc.Fuzz.sc_failpoint sc'.Fuzz.sc_failpoint;
  Alcotest.(check string) "re-encode is byte-identical" doc (Scenario.encode sc')

(* Sensitivity: with the rebuild scan disabled (an injected recovery
   bug), the fuzzer must find a violation within a few seeds and shrink
   it to a <=5 event reproducer. Saved as a scenario, the reproducer
   alone still trips the same oracle — and no longer trips anything
   once its failpoint is dropped. *)
let test_fuzz_finds_injected_bug () =
  let failpoint = "skip-rebuild-scan" in
  let rec hunt seed =
    if seed > 8 then Alcotest.fail "no violation found in 8 seeds"
    else
      let plan = Fuzz.gen_plan ~seed small_config in
      let oc = Fuzz.run (case ~failpoint ~plan seed) in
      match oc.Fuzz.oc_violations with
      | [] -> hunt (seed + 1)
      | v :: _ -> (seed, plan, v.Tango_harness.Verifier.v_oracle)
  in
  let seed, plan, oracle = hunt 1 in
  let sh = Fuzz.shrink (case ~failpoint ~plan seed) ~oracle in
  check_bool
    (Printf.sprintf "shrunk to %d events (<=5)" (List.length sh.Fuzz.sh_plan))
    true
    (List.length sh.Fuzz.sh_plan <= 5);
  check_bool "budget respected" true (sh.Fuzz.sh_runs <= small_config.Fuzz.f_shrink_runs);
  let reproducer =
    Scenario.decode
      (Scenario.encode
         {
           Fuzz.sc_name = "shrunk";
           sc_seed = seed;
           sc_config = small_config;
           sc_plan = sh.Fuzz.sh_plan;
           sc_specs = [];
           sc_spec_deadline_us = None;
           sc_failpoint = Some failpoint;
           sc_monitors = [];
         })
  in
  let again = Fuzz.run reproducer in
  check_bool "reproducer still trips the oracle" true
    (List.mem sh.Fuzz.sh_oracle (oracle_names again.Fuzz.oc_violations));
  let clean = Fuzz.run { reproducer with Fuzz.sc_failpoint = None } in
  Alcotest.(check (list string)) "clean build passes the reproducer" []
    (oracle_names clean.Fuzz.oc_violations)

(* ------------------------------------------------------------------ *)
(* Spec plane: online temporal monitors (DESIGN.md §12)               *)
(* ------------------------------------------------------------------ *)

let spec_oracles oc =
  List.filter (fun o -> String.length o > 5 && String.sub o 0 5 = "spec:")
    (oracle_names oc.Fuzz.oc_violations)

(* A fault-free-build campaign with every machine armed must stay
   silent, and arming the machines must not break determinism: the
   checker fiber and probe client are part of the schedule, so two
   same-seed runs still produce byte-identical dumps. *)
let test_spec_clean_and_deterministic () =
  let plan = Fuzz.gen_plan ~seed:46 small_config in
  let a = Fuzz.run (case ~specs:Spec.all ~plan 46) in
  let b = Fuzz.run (case ~specs:Spec.all ~plan 46) in
  Alcotest.(check (list string)) "no firings on a clean build" [] (spec_oracles a);
  Alcotest.(check (list string)) "no violations at all" [] (oracle_names a.Fuzz.oc_violations);
  check_bool "no spec firings recorded" true (a.Fuzz.oc_spec_firings = []);
  Alcotest.(check string) "metrics byte-identical with specs armed" a.Fuzz.oc_metrics_json
    b.Fuzz.oc_metrics_json

(* Each spec machine must catch its tailored injected bug while the
   run executes — the firing's virtual timestamp is strictly earlier
   than the campaign end — and the firing must shrink like any other
   oracle, to a <=5 event reproducer. *)
let check_spec_fires ~failpoint ~specs ~spec_name ~seed ~plan ?(shrink = true) () =
  let oracle = "spec:" ^ spec_name in
  let oc = Fuzz.run (case ~failpoint ~specs ~plan seed) in
  check_bool (oracle ^ " among violations") true
    (List.mem oracle (oracle_names oc.Fuzz.oc_violations));
  let f =
    match List.find_opt (fun f -> f.Spec.sp_spec = spec_name) oc.Fuzz.oc_spec_firings with
    | Some f -> f
    | None -> Alcotest.fail (spec_name ^ " has no recorded firing")
  in
  check_bool
    (Printf.sprintf "fired mid-run (t=%.0fus < end=%.0fus)" f.Spec.sp_time_us oc.Fuzz.oc_end_us)
    true
    (f.Spec.sp_time_us < oc.Fuzz.oc_end_us);
  check_bool "flight recorder captured the firing" true (oc.Fuzz.oc_flight_json <> None);
  if shrink then begin
    let sh = Fuzz.shrink (case ~failpoint ~specs ~plan seed) ~oracle in
    check_bool
      (Printf.sprintf "shrunk to %d events (<=5)" (List.length sh.Fuzz.sh_plan))
      true
      (List.length sh.Fuzz.sh_plan <= 5);
    Alcotest.(check string) "shrink preserved the spec oracle" oracle sh.Fuzz.sh_oracle
  end

let test_spec_commit_liveness_fires () =
  (* The lost rebuild scan needs a takeover racing live appends: an
     append acked between two probe syncs is only reachable through
     the old sequencer's stream tails, which the failpoint discards.
     The takeover time is swept across the append burst because the
     exact ack/sync interleaving is seed-dependent. *)
  let failpoint = "skip-rebuild-scan" and specs = [ Spec.Commit_liveness ] in
  let rec hunt = function
    | [] -> Alcotest.fail "commit-liveness never fired across the takeover sweep"
    | at :: rest ->
        let plan = replace_sequencer_at at in
        let oc = Fuzz.run (case ~failpoint ~specs ~plan 1) in
        if List.mem "spec:commit-liveness" (oracle_names oc.Fuzz.oc_violations) then plan
        else hunt rest
  in
  let plan = hunt [ 15_000.; 12_000.; 18_000.; 9_000.; 21_000.; 6_000. ] in
  check_spec_fires ~failpoint ~specs ~spec_name:"commit-liveness" ~seed:1 ~plan ()

let test_spec_read_committed_fires () =
  (* Blind commit application is workload-triggered; no fault plan
     needed at all, which also makes the shrink trivially minimal. *)
  check_spec_fires ~failpoint:"blind-commit-apply" ~specs:[ Spec.Read_committed ]
    ~spec_name:"read-committed" ~seed:1 ~plan:[] ()

let test_spec_reconfig_termination_fires () =
  check_spec_fires ~failpoint:"stall-reconfig" ~specs:[ Spec.Reconfig_termination ]
    ~spec_name:"reconfig-termination" ~seed:1
    ~plan:(replace_sequencer_at 30_000.)
    ()

let test_spec_names_roundtrip () =
  List.iter (fun s -> check_bool (Spec.name s) true (Spec.of_name (Spec.name s) = s)) Spec.all;
  match Spec.of_name "nonsense" with
  | _ -> Alcotest.fail "unknown spec name accepted"
  | exception Invalid_argument _ -> ()

(* ------------------------------------------------------------------ *)
(* Scenario driver                                                    *)
(* ------------------------------------------------------------------ *)

let contains s sub =
  let n = String.length sub in
  let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
  go 0

let test_scenario_roundtrip () =
  let sc =
    {
      Fuzz.sc_name = "rt";
      sc_seed = 5;
      sc_config = small_config;
      sc_plan =
        [
          (10_000., Sim.Fault.Crash "storage-1");
          (20_000., Chaos.custom Replace_sequencer);
          (30_000., Sim.Fault.Restart "storage-1");
        ];
      sc_specs = [ Spec.Commit_liveness; Spec.Reconfig_termination ];
      sc_spec_deadline_us = Some 250_000.;
      sc_failpoint = Some "skip-rebuild-scan";
      sc_monitors = [];
    }
  in
  let sc' = Scenario.decode (Scenario.encode sc) in
  Alcotest.(check string) "name" sc.Fuzz.sc_name sc'.Fuzz.sc_name;
  Alcotest.(check int) "seed" sc.Fuzz.sc_seed sc'.Fuzz.sc_seed;
  check_bool "config" true (sc'.Fuzz.sc_config = small_config);
  check_bool "plan" true (sc'.Fuzz.sc_plan = sc.Fuzz.sc_plan);
  check_bool "specs" true (sc'.Fuzz.sc_specs = sc.Fuzz.sc_specs);
  Alcotest.(check (option (float 1e-9))) "deadline" sc.Fuzz.sc_spec_deadline_us
    sc'.Fuzz.sc_spec_deadline_us;
  Alcotest.(check (option string)) "failpoint" sc.Fuzz.sc_failpoint sc'.Fuzz.sc_failpoint;
  (* Optional fields omitted from the document decode as None. *)
  let bare =
    Scenario.decode
      (Scenario.encode { sc with Fuzz.sc_spec_deadline_us = None; sc_failpoint = None })
  in
  check_bool "no deadline" true (bare.Fuzz.sc_spec_deadline_us = None);
  check_bool "no failpoint" true (bare.Fuzz.sc_failpoint = None);
  check_bool "no monitors key" true
    (Sim.Jin.member_opt "monitors" (Sim.Jin.parse (Scenario.encode sc)) = None);
  (* Monitors round-trip and re-encode byte for byte. *)
  let monitor =
    {
      Fuzz.mo_name = "append-p99";
      mo_series = "hist:fz-app-1.append.e2e_us";
      mo_col = "p99";
      mo_threshold = 1_500.5;
      mo_objective = 0.9;
    }
  in
  let with_monitors =
    { sc with Fuzz.sc_monitors = [ monitor; { monitor with mo_name = "lag"; mo_col = "max" } ] }
  in
  let doc = Scenario.encode with_monitors in
  let back = Scenario.decode doc in
  check_bool "monitors" true (back.Fuzz.sc_monitors = with_monitors.Fuzz.sc_monitors);
  Alcotest.(check string) "monitors re-encode byte-identically" doc (Scenario.encode back);
  (match Scenario.decode "{\"version\":99,\"tool\":\"tango-scenario\"}" with
  | _ -> Alcotest.fail "unknown scenario version accepted"
  | exception Invalid_argument _ -> ());
  (* A case no run can honour is malformed input (exit 2 in tangoctl),
     not a finding: each is rejected at decode, naming its field. *)
  let c = small_config in
  List.iter
    (fun (field, bad) ->
      match Scenario.decode (Scenario.encode bad) with
      | _ -> Alcotest.failf "malformed %s accepted" field
      | exception Invalid_argument msg ->
          check_bool (Printf.sprintf "%S names %s" msg field) true (contains msg field))
    [
      ("servers", { sc with sc_config = { c with f_servers = 0 } });
      ("servers", { sc with sc_config = { c with f_servers = 3 } });
      ("clients", { sc with sc_config = { c with f_clients = 0 } });
      ("appends", { sc with sc_config = { c with f_appends = -1 } });
      ("deadline_us", { sc with sc_config = { c with f_deadline_us = -1. } });
      ("settle_us", { sc with sc_config = { c with f_settle_us = 1e300 } });
      ("at =", { sc with sc_plan = [ (-5., Sim.Fault.Crash "storage-1") ] });
      ("spec_deadline_us", { sc with sc_spec_deadline_us = Some (-5.) });
      ("spec_deadline_us", { sc with sc_spec_deadline_us = Some 0. });
      ("spec_deadline_us", { sc with sc_spec_deadline_us = Some Float.nan });
      ("spec_deadline_us", { sc with sc_spec_deadline_us = Some Float.infinity });
      ("spec_deadline_us", { sc with sc_spec_deadline_us = Some c.f_horizon_us });
      ("threshold", { sc with sc_monitors = [ { monitor with mo_threshold = Float.nan } ] });
      ("objective", { sc with sc_monitors = [ { monitor with mo_objective = 1. } ] });
      ("series", { sc with sc_monitors = [ { monitor with mo_series = "" } ] });
      ("replace-sequencr", { sc with sc_plan = [ (10_000., Sim.Fault.Custom "replace-sequencr") ] });
      ("scale-out two", { sc with sc_plan = [ (10_000., Sim.Fault.Custom "scale-out two") ] });
      ("scale-in 0", { sc with sc_plan = [ (10_000., Sim.Fault.Custom "scale-in 0") ] });
    ]

let test_scenario_builtins_run_clean () =
  check_bool "takeover scenario registered" true
    (Scenario.find "sequencer-takeover-under-partition" <> None);
  check_bool "unknown name" true (Scenario.find "no-such-scenario" = None);
  List.iter
    (fun sc ->
      let oc = Fuzz.run sc in
      Alcotest.(check (list string)) (sc.Fuzz.sc_name ^ " clean") []
        (oracle_names oc.Fuzz.oc_violations);
      (* every workload the scenario asks for must have done work *)
      let c = sc.Fuzz.sc_config in
      check_bool (sc.Fuzz.sc_name ^ " did work") true
        ((c.f_appends = 0 || oc.Fuzz.oc_acked > 0) && (c.f_txs = 0 || oc.Fuzz.oc_committed > 0)))
    Scenario.builtins

(* Making the system whole applies a recovery only while its fault is
   in force: a plan that restarts its own crash, or clears its own
   degrade, runs exactly its two events — whether its recovery comes
   before the make-whole step or, when the workload ends early, after
   it, with nothing left to recover. *)
let test_make_whole_skips_made_recoveries () =
  let builtin name =
    match Scenario.find name with
    | Some sc -> sc
    | None -> Alcotest.failf "built-in %s missing" name
  in
  let clear_after_workload =
    {
      (builtin "crash-restart-baseline") with
      sc_name = "clear-after-workload";
      sc_seed = 3;
      sc_config = { small_config with f_clients = 1; f_appends = 4; f_txs = 2 };
      sc_plan =
        [
          ( 1_000.,
            Sim.Fault.Degrade
              {
                d_src = "fz-app-1";
                d_dst = "storage-0";
                d_drop = 0.;
                d_delay_us = 100.;
                d_jitter_us = 0.;
              } );
          (60_000., Sim.Fault.Clear_edge ("fz-app-1", "storage-0"));
        ];
    }
  in
  List.iter
    (fun sc ->
      let name = sc.Fuzz.sc_name in
      Alcotest.(check int) (name ^ " plan events") 2 (List.length sc.Fuzz.sc_plan);
      Alcotest.(check int) (name ^ " fault events") 2 (Fuzz.run sc).Fuzz.oc_fault_events)
    [ builtin "crash-restart-baseline"; builtin "slo-degraded-uplink"; clear_after_workload ]

(* The chaos-smoke built-in: beside its oracles (durability of every
   acked append, every chain back at length 2), the run must recover
   from its crash, carry the appender's RPCs through the lossy window,
   keep the appender's retries bounded and replay byte for byte.
   [client.retries] is exact and host-independent, so it is bounded
   like an allocation count: fz-app-1 retried 7 times when the bound
   was set (its RPCs expire in the 55-80 ms lossy window, and it rides
   out the sequencer replacement by waiting at the auxiliary), plus 2
   for one extra expiry or seal. A client that polls a sealed epoch
   instead of waiting for it retries dozens of times and trips it. *)
let chaos_smoke_max_retries = 9

(* The run's counter [name] on [host] ([None]: the cluster-wide one). *)
let counter (oc : Fuzz.outcome) name host =
  Sim.Jin.member "counters" (Sim.Jin.parse oc.oc_metrics_json)
  |> Sim.Jin.to_list
  |> List.fold_left
       (fun acc c ->
         let host_is =
           match Sim.Jin.member "host" c with
           | Sim.Jin.Null -> host = None
           | h -> host = Some (Sim.Jin.to_string h)
         in
         if Sim.Jin.to_string (Sim.Jin.member "name" c) = name && host_is then
           acc + Sim.Jin.to_int (Sim.Jin.member "value" c)
         else acc)
       0

let test_chaos_smoke_builtin () =
  let sc =
    match Scenario.find "chaos-smoke" with
    | Some sc -> sc
    | None -> Alcotest.fail "built-in chaos-smoke missing"
  in
  let oc, trace = Sim.Trace.capture (fun () -> Fuzz.run sc) in
  let _, trace' = Sim.Trace.capture (fun () -> Fuzz.run sc) in
  Alcotest.(check (list string)) "clean" [] (oracle_names oc.Fuzz.oc_violations);
  Alcotest.(check int) "every append acked" 200 oc.Fuzz.oc_acked;
  let counter = counter oc in
  check_bool "recovered from the crash" true (counter "cluster.recoveries" None >= 1);
  check_bool "appender's RPCs expired in the lossy window" true
    (counter "client.rpc_failures" (Some "fz-app-1") > 0);
  let retries = counter "client.retries" (Some "fz-app-1") in
  check_bool
    (Printf.sprintf "fz-app-1 client.retries %d <= %d" retries chaos_smoke_max_retries)
    true
    (retries <= chaos_smoke_max_retries);
  check_bool "byte-identical trace" true (String.equal trace trace')

let all_ops =
  Chaos.
    [
      Replace_sequencer;
      Scale_out 1;
      Scale_out 2;
      Scale_in 2;
      Ssd_fail "storage-0";
      Ssd_repair "storage-0";
    ]

(* Every op has one name, and the one parser reads it back; a name
   that is not an op's is refused. *)
let test_chaos_op_names () =
  List.iter
    (fun op ->
      let name = Chaos.name_of_op op in
      check_bool name true (Chaos.op_of_name name = Some op))
    all_ops;
  List.iter
    (fun name -> check_bool (name ^ " refused") true (Chaos.op_of_name name = None))
    [ "replace-sequencr"; "scale-out two"; "scale-in 0"; "scale-out -2"; "scale-out 02"; "ssd-fail" ]

(* One case drives every op through the fuzzer's interpreter with every
   spec armed: an SSD fails and is repaired while the monitor replaces
   its node, the tail scales out and back in, and the SSD of a node
   the cluster never had fails, which is skipped: it is no fault event
   and opens no fault. *)
let test_every_op_runs () =
  let plan =
    [
      (20_000., Chaos.custom (Ssd_fail "storage-0"));
      (25_000., Chaos.custom (Ssd_repair "storage-0"));
      (90_000., Chaos.custom (Scale_out 2));
      (120_000., Chaos.custom (Scale_in 2));
      (150_000., Chaos.custom (Ssd_fail "storage-9"));
    ]
  in
  let oc, trace = Sim.Trace.capture (fun () -> Fuzz.run (case ~specs:Spec.all ~plan 1)) in
  Alcotest.(check (list string)) "clean" [] (oracle_names oc.Fuzz.oc_violations);
  Alcotest.(check int) "one storage recovery" 1 (counter oc "cluster.recoveries" None);
  let lines needle =
    List.length (List.filter (fun l -> contains l needle) (String.split_on_char '\n' trace))
  in
  Alcotest.(check int) "scale-out epoch" 1 (lines "reconfig-installed scale-out");
  Alcotest.(check int) "scale-in epoch" 1 (lines "reconfig-installed scale-in");
  Alcotest.(check int) "one skipped action" 1 (lines "action-skipped");
  Alcotest.(check int) "the skipped one" 1 (lines "action-skipped ssd-fail storage-9");
  Alcotest.(check int) "four fault events, the skipped one not among them" 4
    oc.Fuzz.oc_fault_events;
  Alcotest.(check int) "every SSD failure announced is repaired" (lines "custom-fault ssd-repair")
    (lines "custom-fault ssd-fail")

(* A skipped action opens no fault, so it does not suspend the spec
   deadlines: a reconfiguration wedged after a skipped SSD failure
   still fires reconfig-termination. *)
let test_skipped_action_opens_no_fault () =
  check_spec_fires ~failpoint:"stall-reconfig" ~specs:[ Spec.Reconfig_termination ]
    ~spec_name:"reconfig-termination" ~seed:1
    ~plan:((10_000., Chaos.custom (Ssd_fail "storage-9")) :: replace_sequencer_at 30_000.)
    ~shrink:false ()

(* The SLO pair is the CI sensitivity gate at unit scale: the clean
   run raises no alert, and the degraded uplink fires append-p99 and
   ships a flight snapshot of the firing. A monitor whose series never
   appears is a harness error, not a silent pass. *)
let test_scenario_slo_monitors () =
  let run name =
    match Scenario.find name with
    | Some sc -> Fuzz.run sc
    | None -> Alcotest.failf "built-in %s missing" name
  in
  let clean = run "slo-clean" in
  check_bool "clean run has no violations" true (clean.Fuzz.oc_violations = []);
  Alcotest.(check int) "clean run raises no alert" 0 (List.length clean.Fuzz.oc_alerts);
  check_bool "clean run dumps its alert stream" true (clean.Fuzz.oc_alerts_json = Some "[]");
  check_bool "clean run dumps its timeseries" true (clean.Fuzz.oc_timeseries_json <> None);
  let degraded = run "slo-degraded-uplink" in
  check_bool "degraded run has no violations" true (degraded.Fuzz.oc_violations = []);
  check_bool "append-p99 fires" true
    (List.exists
       (fun (a : Sim.Slo.alert) -> a.al_firing && a.al_monitor = "append-p99")
       degraded.Fuzz.oc_alerts);
  let reasons =
    match degraded.Fuzz.oc_flight_json with
    | None -> []
    | Some doc ->
        Sim.Jin.to_list (Sim.Jin.member "snapshots" (Sim.Jin.parse doc))
        |> List.map (fun sn -> Sim.Jin.to_string (Sim.Jin.member "reason" sn))
  in
  check_bool "firing ships a flight snapshot" true (List.mem "slo:append-p99" reasons);
  let typo =
    {
      Fuzz.mo_name = "typo";
      mo_series = "hist:nobody.append.e2e_us";
      mo_col = "p99";
      mo_threshold = 1.;
      mo_objective = 0.9;
    }
  in
  match Fuzz.run { (case 1) with sc_monitors = [ typo ] } with
  | _ -> Alcotest.fail "a monitor on a missing series passed"
  | exception Invalid_argument msg ->
      check_bool (Printf.sprintf "%S names the series" msg) true
        (contains msg "hist:nobody.append.e2e_us")

(* One case's outcome through the report document and back. *)
let report_roundtrip (case : Fuzz.case) oc =
  let module R = Tango_harness.Report in
  R.clear ();
  R.enable ();
  Fun.protect ~finally:R.clear @@ fun () ->
  Fuzz.add_report case oc;
  let name = case.sc_name and seed = case.sc_seed in
  let p = R.parse (R.to_json ~tool:"tangoctl" ()) in
  Alcotest.(check string) "tool" "tangoctl" p.R.p_tool;
  match p.R.p_scenarios with
  | [ s ] ->
      Alcotest.(check string) "name" name s.R.ps_name;
      Alcotest.(check int) "seed" seed s.R.ps_seed;
      Alcotest.(check (float 0.)) "violations summarized"
        (float_of_int (List.length oc.Fuzz.oc_violations))
        (List.assoc "violations" s.R.ps_summary);
      Alcotest.(check (float 0.)) "acked appends summarized" (float_of_int oc.Fuzz.oc_acked)
        (List.assoc "acked_appends" s.R.ps_summary);
      s
  | ss -> Alcotest.failf "%d scenarios, expected one" (List.length ss)

(* A violating case carries its findings: the violations, the spec
   firings and the flight snapshot the violation froze. *)
let test_fuzz_report_schema () =
  let module R = Tango_harness.Report in
  let c = case ~failpoint:"skip-rebuild-scan" ~specs:Spec.all ~plan:(replace_sequencer_at 15_000.) 1 in
  let oc = Fuzz.run c in
  let s = report_roundtrip c oc in
  Alcotest.(check (list string)) "violations" (oracle_names oc.Fuzz.oc_violations)
    (List.map fst s.R.ps_violations);
  check_bool "the case violates" true (s.R.ps_violations <> []);
  Alcotest.(check (option int)) "spec firings"
    (Some (List.length oc.Fuzz.oc_spec_firings))
    s.R.ps_spec_firings;
  check_bool "flight snapshot" true s.R.ps_has_flight;
  Alcotest.(check (option int)) "no spans unless captured" None s.R.ps_span_events

(* A clean monitored built-in carries its telemetry and no findings. *)
let test_report_monitored_scenario () =
  let module R = Tango_harness.Report in
  let sc = Option.get (Scenario.find "slo-clean") in
  let s = report_roundtrip sc (Fuzz.run sc) in
  check_bool "timeseries" true s.R.ps_has_timeseries;
  Alcotest.(check (option int)) "alert stream, empty" (Some 0) s.R.ps_alerts;
  Alcotest.(check (list (pair string string))) "no violations" [] s.R.ps_violations;
  Alcotest.(check (option int)) "no spec firings" None s.R.ps_spec_firings;
  check_bool "no flight snapshot" false s.R.ps_has_flight

let test_report_carries_spans () =
  let module R = Tango_harness.Report in
  let plan = Fuzz.gen_plan ~seed:45 small_config in
  let c = case ~plan 45 in
  let s = report_roundtrip c (Fuzz.run ~capture_spans:true c) in
  match s.R.ps_span_events with
  | Some n -> check_bool (Printf.sprintf "%d trace events" n) true (n > 0)
  | None -> Alcotest.fail "no spans section"

(* ------------------------------------------------------------------ *)
(* End-to-end: linearizability across reconfigurations                *)
(* ------------------------------------------------------------------ *)

module Register = Tango_objects.Tango_register

(* A small paced register workload: its observed history must stay
   within the checker's 62-event budget. Writers use globally unique
   values; [events] collects invocation/response times in virtual
   time. *)
let register_workload ~events ~cluster ~writes ~reads ~gap_us =
  let done_count = ref 0 in
  let record op started =
    events := { Lin.started; finished = Sim.Engine.now (); op } :: !events;
    incr done_count
  in
  let next_value = ref 0 in
  let spawn_worker name n work =
    let rt = Tango.Runtime.create (Corfu.Cluster.new_client cluster ~name) in
    let reg = Register.attach rt ~oid:1 in
    Sim.Engine.spawn (fun () ->
        for _ = 1 to n do
          work reg;
          Sim.Engine.sleep gap_us
        done)
  in
  let write_op reg =
    incr next_value;
    let v = !next_value in
    let started = Sim.Engine.now () in
    Register.write reg v;
    record (Lin.Write v) started
  in
  spawn_worker "writer-a" writes write_op;
  spawn_worker "writer-b" writes write_op;
  spawn_worker "reader-a" reads (fun reg ->
      let started = Sim.Engine.now () in
      let v = Register.read reg in
      record (Lin.Read v) started);
  spawn_worker "reader-b" reads (fun reg ->
      let started = Sim.Engine.now () in
      let v = Register.read reg in
      record (Lin.Read v) started);
  done_count

(* Satellite: the §5 sequencer failover must be invisible to
   correctness — appends ride through the epoch change and the full
   observed history stays linearizable. *)
let test_lin_across_sequencer_failover () =
  let events, completed =
    Sim.Engine.run ~seed:77 (fun () ->
        let cluster = Corfu.Cluster.create ~servers:4 () in
        let events = ref [] in
        let done_count =
          register_workload ~events ~cluster ~writes:12 ~reads:12 ~gap_us:3_000.
        in
        Sim.Engine.sleep 15_000.;
        ignore (Corfu.Cluster.replace_sequencer cluster);
        Sim.Engine.sleep 400_000.;
        (!events, !done_count))
  in
  Alcotest.(check int) "every op completed" 48 completed;
  check_bool "within checker budget" true (List.length events <= 62);
  check_bool "linearizable across the epoch change" true (Lin.check_register events)

(* Acceptance: crash a storage node under concurrent register traffic;
   the monitor replaces it and the whole observed history — before,
   during, and after the outage — linearizes. *)
let test_lin_across_storage_crash () =
  let events, completed, recoveries =
    Sim.Engine.run ~seed:78 (fun () ->
        let cluster = Corfu.Cluster.create ~servers:4 () in
        let fault =
          Chaos.install ~seed:5 ~plan:[ (30_000., Sim.Fault.Crash "storage-0") ] cluster
        in
        Corfu.Cluster.start_failure_monitor cluster;
        let events = ref [] in
        let done_count =
          register_workload ~events ~cluster ~writes:12 ~reads:12 ~gap_us:8_000.
        in
        Sim.Engine.sleep 800_000.;
        (!events, !done_count, Chaos.incidents fault cluster))
  in
  Alcotest.(check int) "one recovery" 1 (List.length recoveries);
  let inc = List.hd recoveries in
  check_bool "unavailability window measured" true (inc.Chaos.inc_unavailable_us > 0.);
  Alcotest.(check int) "every op completed" 48 completed;
  check_bool "linearizable through crash and recovery" true (Lin.check_register events)

(* ------------------------------------------------------------------ *)
(* Report: round-trips and the one schema version it reads            *)
(* ------------------------------------------------------------------ *)

let test_report_v2_roundtrip () =
  let module R = Tango_harness.Report in
  R.clear ();
  R.enable ();
  Fun.protect ~finally:R.clear @@ fun () ->
  let x, perf = R.with_perf (fun () -> Sys.opaque_identity (String.make 64 'x')) in
  Alcotest.(check int) "with_perf returns the result" 64 (String.length x);
  check_bool "wall clock nonnegative" true (perf.R.wall_s >= 0.);
  check_bool "allocation observed" true (perf.R.gc_minor_words > 0.);
  R.add_scenario ~name:"with-perf" ~seed:3 ~summary:[ ("ops", 42.) ] ~perf ~virtual_end_us:10.
    ~metrics_json:"{}" ();
  R.add_scenario ~name:"no-perf" ~seed:4 ~virtual_end_us:0. ~metrics_json:"{}" ();
  let p = R.parse (R.to_json ()) in
  Alcotest.(check int) "version" R.schema_version p.R.p_version;
  Alcotest.(check string) "tool" "tango-bench" p.R.p_tool;
  Alcotest.(check int) "two scenarios" 2 (List.length p.R.p_scenarios);
  let s1 = List.hd p.R.p_scenarios and s2 = List.nth p.R.p_scenarios 1 in
  Alcotest.(check string) "name" "with-perf" s1.R.ps_name;
  Alcotest.(check int) "seed" 3 s1.R.ps_seed;
  Alcotest.(check (list (pair string (float 1e-9)))) "summary" [ ("ops", 42.) ] s1.R.ps_summary;
  (match s1.R.ps_perf with
  | None -> Alcotest.fail "perf must round-trip"
  | Some q ->
      Alcotest.(check (float 1e-9)) "minor words" perf.R.gc_minor_words q.R.gc_minor_words;
      Alcotest.(check (float 1e-9)) "major words" perf.R.gc_major_words q.R.gc_major_words;
      Alcotest.(check (float 1e-9)) "wall" perf.R.wall_s q.R.wall_s);
  check_bool "perf omitted stays None" true (s2.R.ps_perf = None)

(* Only the current schema is read: older and future documents are
   refused, not misread. *)
let test_report_rejects_other_versions () =
  let module R = Tango_harness.Report in
  List.iter
    (fun v ->
      let doc =
        Printf.sprintf
          {|{"schema_version": %d, "tool": "tango-bench", "scenarios": [
              {"name": "fig5", "seed": 42, "params": {}, "summary": {"ops": 1.0},
               "virtual_end_us": 10.0, "metrics": {}}]}|}
          v
      in
      match R.parse doc with
      | _ -> Alcotest.failf "schema_version %d must be rejected" v
      | exception Sim.Jin.Parse_error _ -> ())
    [ 1; 2; 3; 99 ]

let test_report_v3_telemetry_sections () =
  let module R = Tango_harness.Report in
  R.clear ();
  R.enable ();
  Fun.protect ~finally:R.clear @@ fun () ->
  let ts = {|{"window_us":1000,"subticks":1,"windows":2,"from":0,"starts":[0,1000],"series":[]}|} in
  let alerts = {|[{"time_us":2000,"monitor":"m","firing":true,"burn_fast":4,"burn_slow":4,"value":9}]|} in
  R.add_scenario ~name:"with-telemetry" ~seed:1 ~virtual_end_us:2_000. ~metrics_json:"{}"
    ~timeseries_json:ts ~alerts_json:alerts ();
  R.add_scenario ~name:"plain" ~seed:2 ~virtual_end_us:0. ~metrics_json:"{}" ();
  let doc = R.to_json () in
  (* the sections embed unquoted — the document must stay parseable *)
  let p = R.parse doc in
  Alcotest.(check int) "version" R.schema_version p.R.p_version;
  let s1 = List.hd p.R.p_scenarios and s2 = List.nth p.R.p_scenarios 1 in
  check_bool "timeseries section present" true s1.R.ps_has_timeseries;
  Alcotest.(check (option int)) "one alert" (Some 1) s1.R.ps_alerts;
  check_bool "plain scenario has no timeseries" false s2.R.ps_has_timeseries;
  Alcotest.(check (option int)) "plain scenario has no alerts" None s2.R.ps_alerts

(* ------------------------------------------------------------------ *)
(* Satellite: telemetry determinism end to end                        *)
(* ------------------------------------------------------------------ *)

(* Two same-seed runs of a small clustered workload with the whole
   telemetry plane armed — timeseries ticker, burn-rate monitors, and
   the flight recorder — must produce byte-identical dumps of all
   three. This is the unit-scale version of the CI gate on the
   [slo-degraded-uplink] scenario's output. *)
let test_telemetry_determinism () =
  let scenario () =
    Sim.Flight.set_enabled true;
    Fun.protect ~finally:(fun () -> Sim.Flight.set_enabled false) @@ fun () ->
    Sim.Engine.run ~seed:11 (fun () ->
        let cluster = Corfu.Cluster.create ~servers:4 () in
        let client = Corfu.Cluster.new_client cluster ~name:"app" in
        Sim.Timeseries.start ();
        ignore
          (Sim.Slo.monitor ~name:"append-p99" ~series:"hist:app.append.e2e_us" ~col:"p99"
             ~threshold:200. ~objective:0.75);
        for i = 1 to 120 do
          ignore (Corfu.Client.append client ~streams:[] (Bytes.of_string (string_of_int i)));
          Sim.Engine.sleep 500.
        done;
        Sim.Flight.snapshot ~reason:"end");
    (Sim.Timeseries.to_json (), Sim.Slo.alerts_json (), Sim.Flight.dump_json ())
  in
  let ts1, al1, fl1 = scenario () in
  let ts2, al2, fl2 = scenario () in
  check_bool "timeseries dump non-trivial" true (String.length ts1 > 500);
  Alcotest.(check string) "timeseries byte-identical" ts1 ts2;
  Alcotest.(check string) "alert stream byte-identical" al1 al2;
  Alcotest.(check string) "flight dump byte-identical" fl1 fl2

(* Flight plays back the stream the spec machines read: every milestone
   a run's subscriber sees must sit in the flight rings (the run is
   short enough that none of its 256-event rings rolls over), and
   nothing else besides span closes and metric writes. *)
let test_flight_sees_every_milestone () =
  Sim.Flight.set_enabled true;
  Fun.protect ~finally:(fun () -> Sim.Flight.set_enabled false) @@ fun () ->
  let seen = ref [] in
  Sim.Engine.run ~seed:5 (fun () ->
      Sim.Announce.subscribe (fun ev -> seen := ev :: !seen);
      let cluster = Corfu.Cluster.create ~servers:4 () in
      ignore (Chaos.install ~seed:3 ~plan:[ (20_000., Sim.Fault.Crash "storage-0") ] cluster);
      Corfu.Cluster.start_failure_monitor cluster;
      let c = Corfu.Cluster.new_client cluster ~name:"app" in
      let append i =
        ignore (Corfu.Client.append c ~streams:[ 1 ] (Bytes.of_string (string_of_int i)))
      in
      for i = 1 to 50 do
        append i;
        Sim.Engine.sleep 500.
      done;
      ignore (Corfu.Cluster.replace_sequencer cluster);
      append 51;
      Sim.Flight.snapshot ~reason:"end");
  let str k v = Sim.Jin.to_string (Sim.Jin.member k v) in
  let snap =
    match Sim.Flight.snapshots () with [ s ] -> s | _ -> Alcotest.fail "one snapshot"
  in
  let hosts = Sim.Jin.to_list (Sim.Jin.member "hosts" (Sim.Jin.parse snap)) in
  check_bool "no ring rolled over" true
    (List.for_all (fun h -> Sim.Jin.to_int (Sim.Jin.member "recorded" h) <= 256) hosts);
  let recorded =
    hosts
    |> List.concat_map (fun h ->
           Sim.Jin.to_list (Sim.Jin.member "events" h)
           |> List.filter_map (fun e ->
                  match str "kind" e with
                  | "span" | "metric" -> None
                  | _ -> Some (str "host" h, str "name" e)))
  in
  let expected =
    List.rev_map
      (fun (ev : Sim.Announce.event) ->
        let h = Sim.Announce.host ev and component, tag = Sim.Announce.classify ev in
        ( (if h = Sim.Announce.no_host then component else h),
          match ev with Fault_injected { detail; _ } -> detail | _ -> tag ))
      !seen
  in
  let saw p = List.exists p !seen in
  check_bool "crash, reconfiguration and acks announced" true
    (saw (function Fault_injected _ -> true | _ -> false)
    && saw (function Reconfig_installed _ -> true | _ -> false)
    && saw (function Append_acked _ -> true | _ -> false));
  Alcotest.(check (list (pair string string)))
    "flight holds exactly the announced milestones" (List.sort compare expected)
    (List.sort compare recorded)

let () =
  Alcotest.run "harness"
    [
      ( "load",
        [
          Alcotest.test_case "closed loop throughput" `Quick test_closed_loop_throughput;
          Alcotest.test_case "closed loop goodput" `Quick test_closed_loop_goodput;
          Alcotest.test_case "warmup excluded" `Quick test_closed_loop_warmup_excluded;
          Alcotest.test_case "open loop rate" `Quick test_open_loop_rate;
          Alcotest.test_case "outstanding cap" `Quick test_open_loop_outstanding_cap;
          Alcotest.test_case "open loop rejects bad rate" `Quick test_open_loop_invalid_rate;
          Alcotest.test_case "open loop near-zero rate" `Quick test_open_loop_rate_near_zero;
          Alcotest.test_case "open loop saturated cap" `Quick test_open_loop_saturated_cap;
          Alcotest.test_case "open loop window boundary" `Quick test_open_loop_window_boundary;
          Alcotest.test_case "generator deterministic per seed" `Quick test_generator_deterministic;
          Alcotest.test_case "measure counter" `Quick test_measure_counter;
          Alcotest.test_case "report samples" `Quick test_report_samples;
        ] );
      ( "linearizability",
        [
          Alcotest.test_case "sequential histories" `Quick test_lin_sequential_ok;
          Alcotest.test_case "stale read rejected" `Quick test_lin_stale_read_rejected;
          Alcotest.test_case "concurrent flexibility" `Quick test_lin_concurrent_flexibility;
          Alcotest.test_case "write ordering" `Quick test_lin_write_order;
          Alcotest.test_case "rejects bad events" `Quick test_lin_rejects_bad_event;
          Alcotest.test_case "compare-and-swap" `Quick test_lin_cas;
          Alcotest.test_case "history beyond 62 ops" `Quick test_lin_long_history;
          Alcotest.test_case "work limit trips" `Quick test_lin_work_limit;
        ] );
      ( "verifier",
        [
          Alcotest.test_case "durability" `Quick test_verifier_durability;
          Alcotest.test_case "hole freedom" `Quick test_verifier_hole_freedom;
          Alcotest.test_case "stream order" `Quick test_verifier_stream_order;
          Alcotest.test_case "convergence and atomicity" `Quick
            test_verifier_convergence_and_atomicity;
          Alcotest.test_case "pathological histories" `Quick test_verifier_pathological_histories;
        ] );
      ( "fuzz",
        [
          Alcotest.test_case "clean smoke" `Quick test_fuzz_clean_smoke;
          Alcotest.test_case "deterministic replay" `Quick test_fuzz_deterministic_replay;
          Alcotest.test_case "reproducer round-trip" `Quick test_fuzz_reproducer_roundtrip;
          Alcotest.test_case "finds and shrinks injected bug" `Slow test_fuzz_finds_injected_bug;
          Alcotest.test_case "report schema" `Quick test_fuzz_report_schema;
          Alcotest.test_case "report of a monitored scenario" `Quick
            test_report_monitored_scenario;
          Alcotest.test_case "report carries spans" `Quick test_report_carries_spans;
        ] );
      ( "spec",
        [
          Alcotest.test_case "clean and deterministic with specs armed" `Quick
            test_spec_clean_and_deterministic;
          Alcotest.test_case "commit-liveness fires on lost rebuild scan" `Slow
            test_spec_commit_liveness_fires;
          Alcotest.test_case "read-committed fires on blind commit apply" `Quick
            test_spec_read_committed_fires;
          Alcotest.test_case "reconfig-termination fires on stalled takeover" `Quick
            test_spec_reconfig_termination_fires;
          Alcotest.test_case "names round-trip" `Quick test_spec_names_roundtrip;
        ] );
      ( "scenario",
        [
          Alcotest.test_case "JSON round-trip" `Quick test_scenario_roundtrip;
          Alcotest.test_case "built-ins run clean" `Slow test_scenario_builtins_run_clean;
          Alcotest.test_case "recoveries the plan made are not repeated" `Quick
            test_make_whole_skips_made_recoveries;
          Alcotest.test_case "chaos-smoke recovers, retries boundedly, replays" `Quick
            test_chaos_smoke_builtin;
          Alcotest.test_case "op names round-trip through the one parser" `Quick
            test_chaos_op_names;
          Alcotest.test_case "every op runs with every spec armed" `Quick test_every_op_runs;
          Alcotest.test_case "a skipped action opens no fault" `Quick
            test_skipped_action_opens_no_fault;
          Alcotest.test_case "SLO monitors fire only when degraded" `Slow
            test_scenario_slo_monitors;
        ] );
      ( "report",
        [
          Alcotest.test_case "v2 round-trip with perf" `Quick test_report_v2_roundtrip;
          Alcotest.test_case "rejects other schema versions" `Quick
            test_report_rejects_other_versions;
          Alcotest.test_case "v3 telemetry sections" `Quick test_report_v3_telemetry_sections;
        ] );
      ( "telemetry",
        [
          Alcotest.test_case "end-to-end determinism" `Quick test_telemetry_determinism;
          Alcotest.test_case "flight sees every milestone" `Quick test_flight_sees_every_milestone;
        ] );
      ( "fault-plane",
        [
          Alcotest.test_case "linearizable across sequencer failover" `Quick
            test_lin_across_sequencer_failover;
          Alcotest.test_case "linearizable across storage crash" `Quick
            test_lin_across_storage_crash;
        ] );
    ]
