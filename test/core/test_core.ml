(* Tests for the Tango runtime: records, batching, replication,
   transactions, checkpoints, GC, and the directory. *)

open Tango

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_status =
  Alcotest.testable
    (fun ppf -> function
      | Runtime.Committed -> Fmt.string ppf "committed"
      | Runtime.Aborted -> Fmt.string ppf "aborted")
    ( = )

let with_cluster ?(seed = 5) ?(servers = 4) ?params body =
  Sim.Engine.run ~seed (fun () ->
      let cluster = Corfu.Cluster.create ?params ~servers () in
      body cluster)

(* Params whose runtimes pack [n] records per log entry. *)
let batch n = { Sim.Params.default with Sim.Params.commit_batch = n }

let runtime cluster name = Runtime.create (Corfu.Cluster.new_client cluster ~name)

(* ------------------------------------------------------------------ *)
(* A minimal integer register object, as in the paper's Figure 3.     *)
(* ------------------------------------------------------------------ *)

module Reg = struct
  type t = { rt : Runtime.t; roid : int; mutable v : int; mutable last_pos : int }

  let encode x =
    let b = Bytes.create 8 in
    Bytes.set_int64_be b 0 (Int64.of_int x);
    b

  let decode b = Int64.to_int (Bytes.get_int64_be b 0)

  let attach rt ~oid =
    let t = { rt; roid = oid; v = 0; last_pos = -1 } in
    Runtime.register rt ~oid
      {
        Runtime.apply =
          (fun ~pos ~key:_ data ->
            t.v <- decode data;
            t.last_pos <- pos);
        checkpoint = Some (fun () -> encode t.v);
        load_checkpoint = Some (fun data -> t.v <- decode data);
      };
    t

  let write t x = Runtime.update_helper t.rt ~oid:t.roid (encode x)

  let read t =
    Runtime.query_helper t.rt ~oid:t.roid ();
    t.v

  let read_at t upto =
    Runtime.query_helper t.rt ~oid:t.roid ~upto ();
    t.v
end

(* A string map with per-key fine-grained versioning. *)
module Map_obj = struct
  type t = { rt : Runtime.t; moid : int; tbl : (string, string) Hashtbl.t }

  let encode k v = Bytes.of_string (Printf.sprintf "%d:%s%s" (String.length k) k v)

  let decode b =
    let s = Bytes.to_string b in
    let colon = String.index s ':' in
    let klen = int_of_string (String.sub s 0 colon) in
    let k = String.sub s (colon + 1) klen in
    let v = String.sub s (colon + 1 + klen) (String.length s - colon - 1 - klen) in
    (k, v)

  let attach rt ~oid =
    let t = { rt; moid = oid; tbl = Hashtbl.create 16 } in
    Runtime.register rt ~oid
      {
        Runtime.apply =
          (fun ~pos:_ ~key:_ data ->
            let k, v = decode data in
            if v = "" then Hashtbl.remove t.tbl k else Hashtbl.replace t.tbl k v);
        checkpoint = None;
        load_checkpoint = None;
      };
    t

  let put t k v = Runtime.update_helper t.rt ~oid:t.moid ~key:k (encode k v)

  let get t k =
    Runtime.query_helper t.rt ~oid:t.moid ~key:k ();
    Hashtbl.find_opt t.tbl k

  let size t =
    Runtime.query_helper t.rt ~oid:t.moid ();
    Hashtbl.length t.tbl
end

(* ------------------------------------------------------------------ *)
(* Record codec                                                       *)
(* ------------------------------------------------------------------ *)

let sample_records =
  [
    Record.Update { Record.u_oid = 3; u_key = None; u_data = Bytes.of_string "abc" };
    Record.Update { Record.u_oid = 4; u_key = Some "k1"; u_data = Bytes.empty };
    Record.Commit
      {
        Record.c_reads = [ (1, None, 42); (2, Some "x", -1) ];
        c_writes =
          [
            { Record.u_oid = 1; u_key = Some "y"; u_data = Bytes.of_string "v" };
            { Record.u_oid = 7; u_key = None; u_data = Bytes.of_string "w" };
          ];
        c_needs_decision = true;
      };
    Record.Decision { d_target = 99; d_committed = false };
    Record.Partial { p_target = 77; p_verdicts = [ (1, true); (2, false) ] };
    Record.Checkpoint { k_oid = 5; k_base = 12; k_data = Bytes.of_string "snapshot" };
  ]

let test_record_roundtrip () =
  let b = Record.encode_payload sample_records in
  let back = Record.decode_payload b in
  check_int "count" (List.length sample_records) (List.length back);
  check_bool "equal" true (sample_records = back)

let test_record_pos_math () =
  let p = Record.pos ~offset:17 ~slot:3 in
  check_int "offset" 17 (Record.pos_offset p);
  check_int "slot" 3 (Record.pos_slot p);
  check_bool "ordering" true
    (Record.pos ~offset:1 ~slot:63 < Record.pos ~offset:2 ~slot:0)

let test_record_streams_of () =
  match sample_records with
  | [ u1; _; commit; decision; partial; ckpt ] ->
      Alcotest.(check (list int)) "update" [ 3 ] (Record.streams_of u1);
      Alcotest.(check (list int)) "commit = write set" [ 1; 7 ] (Record.streams_of commit);
      Alcotest.(check (list int)) "decision" [] (Record.streams_of decision);
      Alcotest.(check (list int)) "partial" [] (Record.streams_of partial);
      Alcotest.(check (list int)) "checkpoint" [ 5 ] (Record.streams_of ckpt)
  | _ -> assert false

let test_record_rejects_bad () =
  (match Record.encode_payload [] with
  | _ -> Alcotest.fail "empty payload must be rejected"
  | exception Invalid_argument _ -> ());
  let b = Record.encode_payload sample_records in
  let truncated = Bytes.sub b 0 (Bytes.length b - 3) in
  match Record.decode_payload truncated with
  | _ -> Alcotest.fail "truncated payload must be rejected"
  | exception Invalid_argument _ -> ()

let gen_update =
  QCheck.Gen.(
    map3
      (fun oid key data -> { Record.u_oid = oid; u_key = key; u_data = Bytes.of_string data })
      (int_range 0 1000)
      (opt (string_size (1 -- 8)))
      (string_size (0 -- 64)))

let gen_record =
  QCheck.Gen.(
    frequency
      [
        (4, map (fun u -> Record.Update u) gen_update);
        ( 3,
          map3
            (fun reads writes nd ->
              Record.Commit { Record.c_reads = reads; c_writes = writes; c_needs_decision = nd })
            (small_list (triple (int_range 0 100) (opt (string_size (1 -- 5))) (int_range (-1) 1000)))
            (small_list gen_update) bool );
        ( 1,
          map2
            (fun t c -> Record.Decision { d_target = t; d_committed = c })
            (int_range 0 100_000) bool );
        ( 1,
          map2
            (fun o d -> Record.Checkpoint { k_oid = o; k_base = 7; k_data = Bytes.of_string d })
            (int_range 0 100) (string_size (0 -- 32)) );
        ( 1,
          map2
            (fun t vs -> Record.Partial { p_target = t; p_verdicts = vs })
            (int_range 0 100_000)
            (small_list (pair (int_range 0 100) bool)) );
      ])

let gen_batch = QCheck.Gen.(list_size (1 -- 20) gen_record)

let prop_record_roundtrip =
  QCheck.Test.make ~name:"record payload roundtrip" ~count:300 (QCheck.make gen_batch)
    (fun records -> Record.decode_payload (Record.encode_payload records) = records)

let prop_decode_entry_matches_decode =
  (* Random batches at random offsets, offsets colliding in the memo
     table, each payload decoded again later in a random order: every
     answer, hit or miss, equals a fresh decode. *)
  QCheck.Test.make ~name:"decode_entry = decode_payload" ~count:200
    (QCheck.make
       QCheck.Gen.(
         pair (list_size (1 -- 12) (pair (int_range 0 40) gen_batch)) (list_size (0 -- 30) nat)))
    (fun (batches, revisits) ->
      let entries =
        Array.of_list (List.map (fun (off, rs) -> (off, Record.encode_payload rs)) batches)
      in
      let agrees (off, payload) =
        Record.decode_entry ~offset:off payload = Record.decode_payload payload
      in
      Array.for_all (fun e -> agrees e && agrees e) entries
      && List.for_all (fun r -> agrees entries.(r mod Array.length entries)) revisits)

let test_decode_entry_identity () =
  let update data = Record.Update { Record.u_oid = 1; u_key = None; u_data = Bytes.of_string data } in
  let a = Record.encode_payload [ update "first" ] in
  let first = Record.decode_entry ~offset:5 a in
  check_bool "same payload again: the shared decode" true (Record.decode_entry ~offset:5 a == first);
  (* Equal bytes in another object (a hole rewritten with the same
     records) decode afresh: the table is keyed by identity. *)
  let copy = Bytes.copy a in
  let again = Record.decode_entry ~offset:5 copy in
  check_bool "equal copy: equal records" true (again = first);
  check_bool "equal copy: a fresh decode" false (again == first);
  (* Another payload at the same offset is a miss, never a stale hit. *)
  let b = Record.encode_payload [ update "second"; update "third" ] in
  check_bool "other payload, same offset" true
    (Record.decode_entry ~offset:5 b = [ update "second"; update "third" ]);
  check_bool "slot now holds the other payload" true
    (Record.decode_entry ~offset:5 a = [ update "first" ]);
  (* A malformed payload raises and caches nothing. *)
  let bad = Bytes.sub b 0 (Bytes.length b - 3) in
  (match Record.decode_entry ~offset:5 bad with
  | _ -> Alcotest.fail "truncated payload must be rejected"
  | exception Invalid_argument _ -> ());
  match Record.decode_entry ~offset:5 bad with
  | _ -> Alcotest.fail "a rejected payload must not be cached"
  | exception Invalid_argument _ -> ()

let test_decode_entry_runs_do_not_alias () =
  (* Two runs in one process write different values at the same
     offsets; the second run's views and fetches see only its own. *)
  let run base =
    with_cluster (fun cluster ->
        let w = Reg.attach (runtime cluster "w") ~oid:1 in
        let r = Reg.attach (runtime cluster "r") ~oid:1 in
        for i = 1 to 20 do
          Reg.write w (base + i)
        done;
        let last = Reg.read r in
        let fetched = Reg.decode (Runtime.fetch r.Reg.rt ~oid:1 r.Reg.last_pos) in
        (last, fetched, r.Reg.last_pos))
  in
  let last_a, fetched_a, pos_a = run 0 in
  let last_b, fetched_b, pos_b = run 100 in
  check_int "same positions in both runs" pos_a pos_b;
  check_int "first run" 20 last_a;
  check_int "first run fetch" 20 fetched_a;
  check_int "second run" 120 last_b;
  check_int "second run fetch" 120 fetched_b

(* ------------------------------------------------------------------ *)
(* Batcher                                                            *)
(* ------------------------------------------------------------------ *)

let test_batcher_fills_batches () =
  with_cluster (fun cluster ->
      let cl = Corfu.Cluster.new_client cluster ~name:"app" in
      let b = Batcher.create ~client:cl ~batch_size:4 in
      let positions = ref [] in
      for i = 0 to 7 do
        Sim.Engine.spawn (fun () ->
            let p =
              Batcher.submit b ~streams:[ 1 ]
                (Record.Update { Record.u_oid = 1; u_key = None; u_data = Reg.encode i })
            in
            positions := p :: !positions)
      done;
      Sim.Engine.sleep 10_000.;
      check_int "all submitted" 8 (List.length !positions);
      check_int "two entries" 2 (Batcher.entries_appended b);
      check_int "records" 8 (Batcher.records_submitted b);
      (* positions distinct *)
      check_int "distinct positions" 8 (List.length (List.sort_uniq compare !positions)))

let test_batcher_linger_flushes_partial () =
  with_cluster (fun cluster ->
      let cl = Corfu.Cluster.new_client cluster ~name:"app" in
      let b = Batcher.create ~client:cl ~batch_size:4 in
      let p =
        Batcher.submit b ~streams:[ 1 ]
          (Record.Update { Record.u_oid = 1; u_key = None; u_data = Reg.encode 1 })
      in
      check_int "slot 0 of entry 0" (Record.pos ~offset:0 ~slot:0) p;
      check_int "one entry" 1 (Batcher.entries_appended b);
      check_bool "waited for linger" true (Sim.Engine.now () >= Batcher.linger_us))

(* A linger timer belongs to the batch it was armed for. Here A's
   timer is armed at 0 and B fills and seals that batch at the same
   instant; C opens the next batch at 10, arming its own timer.
   Nothing may seal C's batch at 30, where A's timer was due: C's
   batch is sealed by C's timer at 10 + linger. The sealed queue's
   depth shows it, while the drainer still waits for A and B's grant. *)
let test_batcher_linger_keeps_its_batch () =
  with_cluster (fun cluster ->
      let cl = Corfu.Cluster.new_client cluster ~name:"app" in
      let b = Batcher.create ~client:cl ~batch_size:2 in
      let depth = Sim.Metrics.gauge ~host:"app" "batcher.sealed_depth" in
      let landed = ref 0 in
      List.iteri
        (fun i at ->
          Sim.Engine.spawn (fun () ->
              Sim.Engine.sleep at;
              ignore
                (Batcher.submit b ~streams:[ 1 ]
                   (Record.Update { Record.u_oid = 1; u_key = None; u_data = Reg.encode i }));
              incr landed))
        [ 0.; 0.; 10. ];
      Sim.Engine.sleep (10. +. Batcher.linger_us -. 5.);
      Alcotest.(check (float 0.)) "C's batch still forming" 1. (Sim.Metrics.gauge_value depth);
      Sim.Engine.sleep 10.;
      Alcotest.(check (float 0.)) "C's timer sealed it" 2. (Sim.Metrics.gauge_value depth);
      Sim.Engine.sleep 100_000.;
      check_int "all landed" 3 !landed;
      check_int "two entries" 2 (Batcher.entries_appended b))

(* A batch that seals full takes its linger timer with it: no event
   for it stays pending. Checked at one instant, before anything else
   runs: the first record leaves exactly its timer pending, and the
   record that fills the batch leaves exactly the drainer's start. *)
let test_batcher_full_seal_cancels_linger () =
  with_cluster (fun cluster ->
      let cl = Corfu.Cluster.new_client cluster ~name:"app" in
      let b = Batcher.create ~client:cl ~batch_size:2 in
      let landed = ref 0 in
      let submit i =
        Sim.Engine.spawn (fun () ->
            ignore
              (Batcher.submit b ~streams:[ 1 ]
                 (Record.Update { Record.u_oid = 1; u_key = None; u_data = Reg.encode i }));
            incr landed)
      in
      Sim.Engine.sleep 1_000.;
      let before = Sim.Engine.pending_events () in
      submit 0;
      Sim.Engine.yield ();
      check_int "a forming batch: its linger timer pending" (before + 1)
        (Sim.Engine.pending_events ());
      submit 1;
      Sim.Engine.yield ();
      check_int "sealed full: only the drainer's start pending" (before + 1)
        (Sim.Engine.pending_events ());
      Sim.Engine.sleep 100_000.;
      check_int "both landed" 2 !landed;
      check_int "one entry" 1 (Batcher.entries_appended b))

(* The sealed-queue-age probe reads now minus the seal time of the
   oldest batch still queued. A's batch is sealed by its timer at 30
   and B and C fill the next at 32; the drainer waits for A's grant
   past 45 (see above), so both stay queued. Once the queue drains the
   probe reads 0. *)
let test_batcher_sealed_age_probe () =
  with_cluster (fun cluster ->
      Sim.Timeseries.configure ~window_us:1_000. ~subticks:1 ();
      let cl = Corfu.Cluster.new_client cluster ~name:"app" in
      let b = Batcher.create ~client:cl ~batch_size:2 in
      let depth = Sim.Metrics.gauge ~host:"app" "batcher.sealed_depth" in
      List.iteri
        (fun i at ->
          Sim.Engine.spawn (fun () ->
              Sim.Engine.sleep at;
              ignore
                (Batcher.submit b ~streams:[ 1 ]
                   (Record.Update { Record.u_oid = 1; u_key = None; u_data = Reg.encode i }))))
        [ 0.; Batcher.linger_us +. 2.; Batcher.linger_us +. 2. ];
      let age () =
        Sim.Timeseries.tick ();
        match Sim.Timeseries.find ~series:"probe:app.batcher.sealed_age_us" ~col:"last" with
        | Some sel -> Sim.Timeseries.last sel
        | None -> Alcotest.fail "sealed-age probe missing"
      in
      Alcotest.(check (float 0.)) "nothing sealed yet" 0. (age ());
      Sim.Engine.sleep (Batcher.linger_us +. 5.);
      Alcotest.(check (float 0.)) "two batches queued" 2. (Sim.Metrics.gauge_value depth);
      Alcotest.(check (float 0.)) "age of the oldest seal" 5. (age ());
      Sim.Engine.sleep 10.;
      Alcotest.(check (float 0.)) "it keeps ageing" 15. (age ());
      Sim.Engine.sleep 100_000.;
      check_int "both entries landed" 2 (Batcher.entries_appended b);
      Alcotest.(check (float 0.)) "queue drained" 0. (age ()))

let test_batcher_deep_window_ordering () =
  (* With a deep append window, many entries fly concurrently — yet
     the positions handed back must stay consistent with log order
     (monotone in submit order) because the drainer serializes offset
     allocation. *)
  with_cluster (fun cluster ->
      let cl = Corfu.Cluster.new_client cluster ~name:"app" in
      let b = Batcher.create ~client:cl ~batch_size:1 in
      let n = 32 in
      let positions = Array.make n (-1) in
      for i = 0 to n - 1 do
        Sim.Engine.spawn (fun () ->
            positions.(i) <-
              Batcher.submit b ~streams:[ 1 ]
                (Record.Update { Record.u_oid = 1; u_key = None; u_data = Reg.encode i }))
      done;
      Sim.Engine.sleep 100_000.;
      Array.iteri
        (fun i p -> check_bool (Printf.sprintf "submit %d landed" i) true (p >= 0))
        positions;
      for i = 1 to n - 1 do
        check_bool
          (Printf.sprintf "position of submit %d above submit %d" i (i - 1))
          true
          (positions.(i) > positions.(i - 1))
      done;
      check_bool "chain writes overlapped" true (Batcher.inflight_peak b > 1);
      check_int "window respected as peak" Sim.Params.default.Sim.Params.append_window
        (Batcher.inflight_peak b);
      check_int "pipeline drained" 0 (Batcher.inflight b);
      check_int "one entry per record" n (Batcher.entries_appended b);
      check_int "every entry through a grant" n (Batcher.granted_entries b);
      check_bool
        (Printf.sprintf "grants (%d) amortize sequencer RPCs" (Batcher.grants b))
        true
        (Batcher.grants b <= n / 2))

let test_pipelined_writes_linearizable () =
  (* The paper's §3.1 claim must survive the pipelined append path:
     concurrent writers on one view, a reader on another, and the
     observed history checked against a sequential register. *)
  with_cluster ~params:(batch 1) (fun cluster ->
      let rt1 = runtime cluster "writer" in
      let rt2 = runtime cluster "reader" in
      let r1 = Reg.attach rt1 ~oid:1 in
      let r2 = Reg.attach rt2 ~oid:1 in
      let events = ref [] in
      let record op started =
        events :=
          { Tango_harness.Linearizability.started; finished = Sim.Engine.now (); op }
          :: !events
      in
      for w = 0 to 3 do
        Sim.Engine.spawn (fun () ->
            for i = 1 to 3 do
              let v = (w * 3) + i in
              let started = Sim.Engine.now () in
              Reg.write r1 v;
              record (Tango_harness.Linearizability.Write v) started
            done)
      done;
      Sim.Engine.spawn (fun () ->
          for _ = 1 to 12 do
            let started = Sim.Engine.now () in
            let v = Reg.read r2 in
            record (Tango_harness.Linearizability.Read v) started;
            Sim.Engine.sleep 500.
          done);
      Sim.Engine.sleep 200_000.;
      check_int "all ops finished" 24 (List.length !events);
      check_bool "history linearizable" true
        (Tango_harness.Linearizability.check_register !events))

let test_pipelined_append_determinism () =
  (* Two runs with the same seed must produce byte-identical stats:
     the pipelined path only uses deterministic simulation
     primitives. *)
  let run () =
    Sim.Engine.run ~seed:42 (fun () ->
        let cluster = Corfu.Cluster.create ~params:(batch 2) ~servers:4 () in
        let rt = runtime cluster "app" in
        let r = Reg.attach rt ~oid:1 in
        for w = 0 to 7 do
          Sim.Engine.spawn (fun () ->
              for i = 0 to 9 do
                Reg.write r ((w * 100) + i)
              done)
        done;
        Sim.Engine.sleep 100_000.;
        (Runtime.append_stats rt, Reg.read r))
  in
  check_bool "same seed, identical stats and value" true (run () = run ())

(* ------------------------------------------------------------------ *)
(* Replication basics (Figure 8 semantics)                            *)
(* ------------------------------------------------------------------ *)

let test_register_write_read () =
  with_cluster (fun cluster ->
      let rt = runtime cluster "app-0" in
      let r = Reg.attach rt ~oid:1 in
      check_int "initial" 0 (Reg.read r);
      Reg.write r 42;
      check_int "after write" 42 (Reg.read r))

let test_two_views_linearizable () =
  with_cluster (fun cluster ->
      let rt1 = runtime cluster "app-1" in
      let rt2 = runtime cluster "app-2" in
      let r1 = Reg.attach rt1 ~oid:1 in
      let r2 = Reg.attach rt2 ~oid:1 in
      Reg.write r1 7;
      (* A linearizable read on another view must see the completed
         write immediately. *)
      check_int "remote view" 7 (Reg.read r2);
      Reg.write r2 9;
      check_int "back again" 9 (Reg.read r1))

(* One linearizable read round: a sequencer check, a walk that finds
   the one update another runtime just wrote, and playback of that
   entry. The cluster is otherwise quiet, so the words counted are the
   round's alone (RPCs, storage read and sleeps included) and repeat
   exactly from one round to the next. *)
let read_round_words () =
  with_cluster (fun cluster ->
      let w = Reg.attach (runtime cluster "writer") ~oid:1 in
      let r = Reg.attach (runtime cluster "reader") ~oid:1 in
      let round i =
        Reg.write w i;
        let w0 = Gc.minor_words () in
        let v = Reg.read r in
        let w1 = Gc.minor_words () in
        check_int "the read sees the write" i v;
        w1 -. w0
      in
      for i = 1 to 8 do
        ignore (round i)
      done;
      let rounds = 16 in
      let total = ref 0. in
      for i = 1 to rounds do
        total := !total +. round (100 + i)
      done;
      !total /. float_of_int rounds)

let read_round_budget = 157.

let test_read_round_words () =
  let words = read_round_words () in
  if words > read_round_budget then
    Alcotest.failf "one read round allocated %.1f words (budget %.1f)" words read_round_budget

let test_view_reconstruction () =
  (* Persistence: a brand-new view replays history. *)
  with_cluster (fun cluster ->
      let rt1 = runtime cluster "app-1" in
      let r1 = Reg.attach rt1 ~oid:1 in
      for i = 1 to 20 do
        Reg.write r1 i
      done;
      let rt2 = runtime cluster "late-joiner" in
      let r2 = Reg.attach rt2 ~oid:1 in
      check_int "replayed" 20 (Reg.read r2);
      check_int "applied all" 20 (Runtime.applied_records rt2))

let test_time_travel () =
  with_cluster ~params:(batch 1) (fun cluster ->
      let rt1 = runtime cluster "app-1" in
      let r1 = Reg.attach rt1 ~oid:1 in
      for i = 1 to 10 do
        Reg.write r1 i
      done;
      (* A fresh view synced to a prefix sees the historical state.
         With batch size 1, offsets 0..9 hold writes 1..10. *)
      let rt2 = runtime cluster "historian" in
      let r2 = Reg.attach rt2 ~oid:1 in
      check_int "state as of offset 4" 4 (Reg.read_at r2 4);
      check_int "state as of offset 7" 7 (Reg.read_at r2 7);
      check_int "full state" 10 (Reg.read r2))

let test_version_tracking () =
  with_cluster (fun cluster ->
      let rt = runtime cluster "app" in
      let m = Map_obj.attach rt ~oid:1 in
      check_int "no version" (-1) (Runtime.version_of rt ~oid:1 ());
      Map_obj.put m "a" "1";
      ignore (Map_obj.get m "a");
      let va = Runtime.version_of rt ~oid:1 ~key:"a" () in
      check_bool "a versioned" true (va >= 0);
      check_int "b untouched" (-1) (Runtime.version_of rt ~oid:1 ~key:"b" ());
      Map_obj.put m "b" "2";
      ignore (Map_obj.get m "b");
      check_bool "object version advances" true (Runtime.version_of rt ~oid:1 () > va);
      check_int "a unchanged" va (Runtime.version_of rt ~oid:1 ~key:"a" ()))

let test_fetch_log_index () =
  (* Views can store positions and fetch the payload lazily. *)
  with_cluster (fun cluster ->
      let rt = runtime cluster "app" in
      let r = Reg.attach rt ~oid:1 in
      Reg.write r 1234;
      check_int "applied" 1234 (Reg.read r);
      let data = Runtime.fetch rt ~oid:1 r.Reg.last_pos in
      check_int "fetched from log" 1234 (Reg.decode data))

let test_batching_ratio () =
  with_cluster (fun cluster ->
      let rt = runtime cluster "app" in
      let r = Reg.attach rt ~oid:1 in
      for w = 0 to 3 do
        Sim.Engine.spawn (fun () ->
            for i = 0 to 9 do
              Reg.write r ((w * 100) + i)
            done)
      done;
      Sim.Engine.sleep 100_000.;
      let stats = Runtime.append_stats rt in
      check_int "records" 40 stats.Runtime.as_records;
      check_bool
        (Printf.sprintf "entries %d well under records" stats.Runtime.as_entries)
        true
        (stats.Runtime.as_entries <= 25))

(* ------------------------------------------------------------------ *)
(* Transactions                                                       *)
(* ------------------------------------------------------------------ *)

let test_tx_single_object_rmw () =
  with_cluster (fun cluster ->
      let rt = runtime cluster "app" in
      let r = Reg.attach rt ~oid:1 in
      Reg.write r 10;
      Runtime.begin_tx rt;
      let v = Reg.read r in
      Reg.write r (v + 5);
      Alcotest.check check_status "commits" Runtime.Committed (Runtime.end_tx rt);
      check_int "applied" 15 (Reg.read r))

let test_tx_conflict_aborts () =
  with_cluster (fun cluster ->
      let rt1 = runtime cluster "app-1" in
      let rt2 = runtime cluster "app-2" in
      let r1 = Reg.attach rt1 ~oid:1 in
      let r2 = Reg.attach rt2 ~oid:1 in
      Reg.write r1 0;
      ignore (Reg.read r2);
      (* Both read, then both write: the later commit must abort. *)
      Runtime.begin_tx rt1;
      let a = Reg.read r1 in
      Reg.write r1 (a + 1);
      Runtime.begin_tx rt2;
      let b = Reg.read r2 in
      Reg.write r2 (b + 1);
      let s1 = Runtime.end_tx rt1 in
      let s2 = Runtime.end_tx rt2 in
      Alcotest.check check_status "first wins" Runtime.Committed s1;
      Alcotest.check check_status "second aborts" Runtime.Aborted s2;
      check_int "exactly one increment" 1 (Reg.read r1);
      check_int "views agree" 1 (Reg.read r2))

let test_tx_fine_grained_keys_no_conflict () =
  with_cluster (fun cluster ->
      let rt1 = runtime cluster "app-1" in
      let rt2 = runtime cluster "app-2" in
      let m1 = Map_obj.attach rt1 ~oid:1 in
      let m2 = Map_obj.attach rt2 ~oid:1 in
      Map_obj.put m1 "a" "0";
      Map_obj.put m1 "b" "0";
      ignore (Map_obj.size m2);
      (* Touch disjoint keys concurrently: both must commit. *)
      Runtime.begin_tx rt1;
      ignore (Map_obj.get m1 "a");
      Map_obj.put m1 "a" "1";
      Runtime.begin_tx rt2;
      ignore (Map_obj.get m2 "b");
      Map_obj.put m2 "b" "2";
      Alcotest.check check_status "tx1" Runtime.Committed (Runtime.end_tx rt1);
      Alcotest.check check_status "tx2 (disjoint key)" Runtime.Committed (Runtime.end_tx rt2);
      Alcotest.(check (option string)) "a" (Some "1") (Map_obj.get m1 "a");
      Alcotest.(check (option string)) "b" (Some "2") (Map_obj.get m1 "b"))

let test_tx_same_key_conflicts () =
  with_cluster (fun cluster ->
      let rt1 = runtime cluster "app-1" in
      let rt2 = runtime cluster "app-2" in
      let m1 = Map_obj.attach rt1 ~oid:1 in
      let m2 = Map_obj.attach rt2 ~oid:1 in
      Map_obj.put m1 "k" "0";
      ignore (Map_obj.get m2 "k");
      Runtime.begin_tx rt1;
      ignore (Map_obj.get m1 "k");
      Map_obj.put m1 "k" "1";
      Runtime.begin_tx rt2;
      ignore (Map_obj.get m2 "k");
      Map_obj.put m2 "k" "2";
      let s1 = Runtime.end_tx rt1 in
      let s2 = Runtime.end_tx rt2 in
      Alcotest.check check_status "tx1" Runtime.Committed s1;
      Alcotest.check check_status "tx2 conflicts" Runtime.Aborted s2)

let test_tx_read_only () =
  with_cluster (fun cluster ->
      let rt1 = runtime cluster "app-1" in
      let r1 = Reg.attach rt1 ~oid:1 in
      Reg.write r1 5;
      Runtime.begin_tx rt1;
      ignore (Reg.read r1);
      Alcotest.check check_status "quiet read-only commits" Runtime.Committed (Runtime.end_tx rt1))

let test_tx_read_only_aborts_on_change () =
  with_cluster (fun cluster ->
      let rt1 = runtime cluster "app-1" in
      let rt2 = runtime cluster "app-2" in
      let r1 = Reg.attach rt1 ~oid:1 in
      let r2 = Reg.attach rt2 ~oid:1 in
      Reg.write r1 5;
      ignore (Reg.read r2);
      Runtime.begin_tx rt2;
      ignore (Reg.read r2);
      (* Someone else changes the register before EndTX. *)
      Reg.write r1 6;
      Alcotest.check check_status "sees conflict at tail" Runtime.Aborted (Runtime.end_tx rt2);
      (* Stale mode never goes to the log: it validates against the
         local snapshot, which is self-consistent. *)
      Runtime.begin_tx rt2;
      ignore (Reg.read r2);
      Reg.write r1 7;
      Alcotest.check check_status "stale commit" Runtime.Committed (Runtime.end_tx ~stale:true rt2))

let test_tx_write_only_fast () =
  with_cluster (fun cluster ->
      let rt = runtime cluster "app" in
      let r = Reg.attach rt ~oid:1 in
      Runtime.begin_tx rt;
      Reg.write r 1;
      Reg.write r 2;
      Alcotest.check check_status "write-only commits" Runtime.Committed (Runtime.end_tx rt);
      check_int "both applied in order" 2 (Reg.read r))

let test_tx_cross_object_atomicity () =
  with_cluster ~params:(batch 1) (fun cluster ->
      let rt1 = runtime cluster "app-1" in
      let src = Map_obj.attach rt1 ~oid:1 in
      let dst = Map_obj.attach rt1 ~oid:2 in
      Map_obj.put src "item" "payload";
      (* Move atomically. *)
      Runtime.begin_tx rt1;
      (match Map_obj.get src "item" with
      | Some v ->
          Map_obj.put src "item" "";
          Map_obj.put dst "item" v
      | None -> Alcotest.fail "item missing");
      Alcotest.check check_status "move commits" Runtime.Committed (Runtime.end_tx rt1);
      (* Another client hosting both must never observe the item in
         neither or both maps: check every historical prefix. *)
      let tail = Corfu.Client.check (Runtime.client rt1) in
      for upto = 1 to tail do
        let rt = runtime cluster (Printf.sprintf "observer-%d" upto) in
        let s = Map_obj.attach rt ~oid:1 in
        let d = Map_obj.attach rt ~oid:2 in
        Runtime.query_helper rt ~oid:1 ~upto ();
        Runtime.query_helper rt ~oid:2 ~upto ();
        let in_src = Hashtbl.mem s.Map_obj.tbl "item" in
        let in_dst = Hashtbl.mem d.Map_obj.tbl "item" in
        check_bool
          (Printf.sprintf "exactly one holds the item at prefix %d" upto)
          true
          (in_src <> in_dst || ((not in_src) && not in_dst && upto <= 1))
      done)

let test_tx_remote_write_producer_consumer () =
  (* §4.1 case B/C: a producer appends into a queue it does not host;
     the consumer hosts the queue but not the producer's read object,
     so it relies on the decision record. *)
  with_cluster (fun cluster ->
      let producer = runtime cluster "producer" in
      let consumer = runtime cluster "consumer" in
      let src = Map_obj.attach producer ~oid:1 in
      (* producer hosts map 1 *)
      let sink = Map_obj.attach consumer ~oid:2 in
      (* consumer hosts map 2 *)
      Map_obj.put src "job" "run-me";
      Runtime.begin_tx producer;
      (match Map_obj.get src "job" with
      | Some v ->
          (* remote write to OID 2, which the producer does not host *)
          Runtime.update_helper producer ~oid:2 ~key:"job" (Map_obj.encode "job" v)
      | None -> Alcotest.fail "job missing");
      Alcotest.check check_status "remote-write tx commits" Runtime.Committed
        (Runtime.end_tx producer);
      Alcotest.(check (option string)) "consumer sees the job" (Some "run-me")
        (Map_obj.get sink "job"))

let test_tx_remote_write_abort_respected () =
  with_cluster (fun cluster ->
      let p1 = runtime cluster "p1" in
      let p2 = runtime cluster "p2" in
      let consumer = runtime cluster "consumer" in
      let src1 = Map_obj.attach p1 ~oid:1 in
      let src2 = Map_obj.attach p2 ~oid:1 in
      let sink = Map_obj.attach consumer ~oid:2 in
      Map_obj.put src1 "job" "v0";
      ignore (Map_obj.get src2 "job");
      (* Two producers race on the same read key; the loser's remote
         write must not reach the consumer. *)
      Runtime.begin_tx p1;
      ignore (Map_obj.get src1 "job");
      Map_obj.put src1 "job" "v1";
      Runtime.update_helper p1 ~oid:2 ~key:"out" (Map_obj.encode "out" "from-p1");
      Runtime.begin_tx p2;
      ignore (Map_obj.get src2 "job");
      Map_obj.put src2 "job" "v2";
      Runtime.update_helper p2 ~oid:2 ~key:"out" (Map_obj.encode "out" "from-p2");
      let s1 = Runtime.end_tx p1 in
      let s2 = Runtime.end_tx p2 in
      Alcotest.check check_status "p1 commits" Runtime.Committed s1;
      Alcotest.check check_status "p2 aborts" Runtime.Aborted s2;
      Alcotest.(check (option string)) "consumer applies only the winner" (Some "from-p1")
        (Map_obj.get sink "out"))

let test_tx_remote_read_rejected () =
  with_cluster (fun cluster ->
      let rt = runtime cluster "app" in
      let _local = Map_obj.attach rt ~oid:1 in
      Runtime.begin_tx rt;
      (match Runtime.query_helper rt ~oid:99 () with
      | () -> Alcotest.fail "remote read inside tx must be rejected"
      | exception Invalid_argument _ -> ());
      Runtime.abort_tx rt)

let test_tx_nested_rejected () =
  with_cluster (fun cluster ->
      let rt = runtime cluster "app" in
      Runtime.begin_tx rt;
      (match Runtime.begin_tx rt with
      | () -> Alcotest.fail "nested tx must be rejected"
      | exception Runtime.Nested_transaction -> ());
      Runtime.abort_tx rt;
      match Runtime.end_tx rt with
      | _ -> Alcotest.fail "end without begin must be rejected"
      | exception Runtime.No_transaction -> ())

let test_decision_watchdog_reconstructs () =
  (* A generator crashes between the commit and decision records: the
     consumer must reconstruct the outcome from the log after the
     timeout (§4.1, Failure Handling). *)
  with_cluster (fun cluster ->
      let gen = runtime cluster "doomed" in
      let consumer = runtime cluster "consumer" in
      let src = Map_obj.attach gen ~oid:1 in
      let sink = Map_obj.attach consumer ~oid:2 in
      Map_obj.put src "k" "v";
      ignore (Map_obj.get src "k");
      (* Forge the crash: append the commit record directly, without
         the follow-up decision, dodging the runtime's EndTX. *)
      let commit =
        Record.Commit
          {
            Record.c_reads = [ (1, Some "k", Runtime.version_of gen ~oid:1 ~key:"k" ()) ];
            c_writes = [ { Record.u_oid = 2; u_key = Some "out"; u_data = Map_obj.encode "out" "ok" } ];
            c_needs_decision = true;
          }
      in
      ignore
        (Corfu.Client.append (Runtime.client gen) ~streams:[ 2 ] (Record.encode_payload [ commit ]));
      let started = Sim.Engine.now () in
      Alcotest.(check (option string)) "reconstructed and applied" (Some "ok")
        (Map_obj.get sink "out");
      check_bool "waited for the timeout" true (Sim.Engine.now () -. started >= Decision_core.timeout_us))

(* A runtime that hosts nothing of a cross-partition commit, which
   reaches it only because it shares a log entry with a record the
   runtime does host, leaves the commit alone: no park, so no watchdog
   replays the read streams or appends a decision record. *)
let test_unhosted_commit_not_parked () =
  with_cluster (fun cluster ->
      let bystander = runtime cluster "bystander" in
      let local = Map_obj.attach bystander ~oid:3 in
      let parked = ref 0 and timeouts = ref 0 in
      Sim.Announce.subscribe (function
        | Sim.Announce.Commit_parked { client = "bystander"; _ } -> incr parked
        | Sim.Announce.Decision_timeout { client = "bystander"; _ } -> incr timeouts
        | _ -> ());
      (* a needs-decision commit whose decision never comes: it reads
         OID 1 and writes OID 2, and shares its entry with an update to
         OID 3 *)
      let commit =
        Record.Commit
          {
            Record.c_reads = [ (1, Some "k", -1) ];
            c_writes = [ { Record.u_oid = 2; u_key = Some "out"; u_data = Map_obj.encode "out" "x" } ];
            c_needs_decision = true;
          }
      in
      let update = Record.Update { Record.u_oid = 3; u_key = Some "k"; u_data = Map_obj.encode "k" "v" } in
      let cl = Runtime.client bystander in
      ignore (Corfu.Client.append cl ~streams:[ 2; 3 ] (Record.encode_payload [ commit; update ]));
      Alcotest.(check (option string)) "the hosted update applies" (Some "v") (Map_obj.get local "k");
      Sim.Engine.sleep (2. *. Decision_core.timeout_us);
      ignore (Map_obj.get local "k");
      check_int "never parked" 0 !parked;
      check_int "no decision timeout" 0 !timeouts;
      let decisions = ref 0 in
      for off = 0 to Corfu.Client.check cl - 1 do
        match Corfu.Client.read_resolved cl off with
        | Corfu.Client.Data e ->
            List.iter
              (function Record.Decision _ -> incr decisions | _ -> ())
              (Record.decode_payload e.Corfu.Types.payload)
        | Corfu.Client.Junk | Corfu.Client.Trimmed | Corfu.Client.Unwritten -> ()
      done;
      check_int "no decision record appended" 0 !decisions)

(* ------------------------------------------------------------------ *)
(* Late registration: an object registered after playback has started *)
(* still sees the history the runtime already played past.            *)
(* ------------------------------------------------------------------ *)

(* A callback that raises inside a playback round, or a registration
   that raises, must not leave the play lock held: the next round
   proceeds. A held lock would park the next query forever, which the
   horizon turns into a failure. *)
let test_play_lock_released_on_raise () =
  Sim.Engine.run ~seed:5 ~until:10_000_000. (fun () ->
      let cluster = Corfu.Cluster.create ~servers:4 () in
      let rt = runtime cluster "app-0" in
      let writer = Reg.attach (runtime cluster "app-1") ~oid:1 in
      let armed = ref true and applied = ref 0 in
      let cb =
        {
          Runtime.apply =
            (fun ~pos:_ ~key:_ _ ->
              if !armed then begin
                armed := false;
                failwith "apply"
              end;
              incr applied);
          checkpoint = None;
          load_checkpoint = None;
        }
      in
      Runtime.register rt ~oid:1 cb;
      Reg.write writer 5;
      Alcotest.check_raises "callback raises" (Failure "apply") (fun () ->
          Runtime.query_helper rt ~oid:1 ());
      Reg.write writer 6;
      Runtime.query_helper rt ~oid:1 ();
      check_bool "next round applied" true (!applied >= 1);
      Alcotest.check_raises "duplicate registration raises"
        (Invalid_argument "Runtime.register: OID already hosted") (fun () ->
          Runtime.register rt ~oid:1 cb);
      let before = !applied in
      Reg.write writer 7;
      Runtime.query_helper rt ~oid:1 ();
      check_int "round after the failed registration" (before + 1) !applied)

let test_late_registration_cross_object_tx () =
  with_cluster (fun cluster ->
      let w = runtime cluster "writer" in
      let a = Reg.attach w ~oid:1 in
      let b = Reg.attach w ~oid:2 in
      Runtime.begin_tx w;
      Reg.write a 9;
      Reg.write b 9;
      Alcotest.check check_status "tx commits" Runtime.Committed (Runtime.end_tx w);
      let late = runtime cluster "late" in
      let a' = Reg.attach late ~oid:1 in
      check_int "object 1 played" 9 (Reg.read a');
      let b' = Reg.attach late ~oid:2 in
      check_int "object 2 sees the commit played before it joined" 9 (Reg.read b'))

let test_late_registration_batched_writes () =
  with_cluster (fun cluster ->
      let w = runtime cluster "writer" in
      let a = Reg.attach w ~oid:1 in
      let b = Reg.attach w ~oid:2 in
      Sim.Engine.spawn (fun () -> Reg.write a 9);
      Reg.write b 9;
      check_int "both writes share one entry"
        (Record.pos_offset (Runtime.version_of w ~oid:1 ()))
        (Record.pos_offset (Runtime.version_of w ~oid:2 ()));
      let late = runtime cluster "late" in
      let a' = Reg.attach late ~oid:1 in
      check_int "object 1 played" 9 (Reg.read a');
      let b' = Reg.attach late ~oid:2 in
      check_int "object 2 gets its record from the shared entry" 9 (Reg.read b'))

let test_late_registration_unseen_commit () =
  (* The commit read object 1 and wrote only object 2, so it never
     appeared on the stream the late runtime played; object 1 has been
     written since. Deciding it against object 1's current version
     would wrongly abort it. *)
  with_cluster (fun cluster ->
      let w = runtime cluster "writer" in
      let a = Reg.attach w ~oid:1 in
      let b = Reg.attach w ~oid:2 in
      Reg.write a 1;
      Runtime.begin_tx w;
      ignore (Reg.read a);
      Reg.write b 9;
      Alcotest.check check_status "tx commits" Runtime.Committed (Runtime.end_tx w);
      Reg.write a 5;
      let late = runtime cluster "late" in
      let a' = Reg.attach late ~oid:1 in
      check_int "object 1 played" 5 (Reg.read a');
      let b' = Reg.attach late ~oid:2 in
      check_int "the commit keeps its original outcome" 9 (Reg.read b'))

(* Sequencer peeks a late registration of object 2 costs when its
   catch-up must reconstruct a commit that read [reads] keys of object
   1 and wrote object 2. *)
let catch_up_peeks ~reads =
  with_cluster (fun cluster ->
      let w = runtime cluster "writer" in
      let src = Map_obj.attach w ~oid:1 in
      let dst = Map_obj.attach w ~oid:2 in
      let keys = List.init reads (Printf.sprintf "k%d") in
      List.iter (fun k -> Map_obj.put src k "v") keys;
      Runtime.begin_tx w;
      List.iter (fun k -> ignore (Map_obj.get src k)) keys;
      Map_obj.put dst "out" "ok";
      Alcotest.check check_status "tx commits" Runtime.Committed (Runtime.end_tx w);
      (* a later write to object 1 carries the late runtime's playback
         past the commit, which only object 2's stream holds *)
      Map_obj.put src "after" "v";
      let late = runtime cluster "late" in
      ignore (Map_obj.get (Map_obj.attach late ~oid:1) "after");
      let peeks () =
        List.fold_left
          (fun acc (c : Sim.Metrics.counter_view) ->
            if c.Sim.Metrics.c_name = "seq.peeks" then acc + c.Sim.Metrics.c_value else acc)
          0 (Sim.Metrics.snapshot ()).Sim.Metrics.counters
      in
      let before = peeks () in
      Alcotest.(check (option string)) "the commit keeps its outcome" (Some "ok")
        (Map_obj.get (Map_obj.attach late ~oid:2) "out");
      peeks () - before)

let test_reconstruct_walks_each_object_once () =
  check_int "three reads of one object cost the peeks of one" (catch_up_peeks ~reads:1)
    (catch_up_peeks ~reads:3)

let test_late_registration_parked_commit () =
  (* The consumer lacks the read set, so it parks the commit until a
     decision arrives; none does (the generator crashed), and an object
     registered meanwhile waits behind the same commit until the
     watchdog reconstructs the outcome. *)
  with_cluster (fun cluster ->
      let gen = runtime cluster "doomed" in
      let consumer = runtime cluster "consumer" in
      let src = Map_obj.attach gen ~oid:1 in
      let sink = Map_obj.attach consumer ~oid:2 in
      Map_obj.put src "k" "v";
      ignore (Map_obj.get src "k");
      let write oid =
        { Record.u_oid = oid; u_key = Some "out"; u_data = Map_obj.encode "out" "ok" }
      in
      let commit =
        Record.Commit
          {
            Record.c_reads = [ (1, Some "k", Runtime.version_of gen ~oid:1 ~key:"k" ()) ];
            c_writes = [ write 2; write 3 ];
            c_needs_decision = true;
          }
      in
      ignore
        (Corfu.Client.append (Runtime.client gen) ~streams:[ 2; 3 ]
           (Record.encode_payload [ commit ]));
      let first = ref None in
      Sim.Engine.spawn (fun () -> first := Some (Map_obj.get sink "out"));
      Sim.Engine.sleep 5_000.;
      check_bool "the commit is parked" true (!first = None);
      let late = Map_obj.attach consumer ~oid:3 in
      Alcotest.(check (option string)) "late object applies it after the decision" (Some "ok")
        (Map_obj.get late "out");
      Sim.Engine.sleep 5_000.;
      check_bool "the parked object applies it too" true (!first = Some (Some "ok")))

let test_late_read_object_keeps_parked_outcome () =
  (* Two commits read object 1 and write object 2; the consumer hosts
     only object 2, so both park. Object 1 then registers on the
     consumer and catches up past both commits, onto a later write of
     the key they read. Resolving the first commit must not decide the
     second from object 1's versions, which now lie past it: the second
     keeps the outcome its decision record carries. *)
  with_cluster (fun cluster ->
      let gen = runtime cluster "gen" in
      let consumer = runtime cluster "consumer" in
      let src = Map_obj.attach gen ~oid:1 in
      let sink = Map_obj.attach consumer ~oid:2 in
      Map_obj.put src "k" "v";
      ignore (Map_obj.get src "k");
      let read = (1, Some "k", Runtime.version_of gen ~oid:1 ~key:"k" ()) in
      let append r =
        Corfu.Client.append (Runtime.client gen) ~streams:[ 2 ] (Record.encode_payload [ r ])
      in
      let commit out =
        append
          (Record.Commit
             {
               Record.c_reads = [ read ];
               c_writes = [ { Record.u_oid = 2; u_key = Some out; u_data = Map_obj.encode out "ok" } ];
               c_needs_decision = true;
             })
      in
      let first = commit "a" in
      let second = commit "b" in
      Map_obj.put src "k" "later";
      let parked = ref None in
      Sim.Engine.spawn (fun () -> parked := Some (Map_obj.get sink "b"));
      Sim.Engine.sleep 5_000.;
      check_bool "both commits parked" true (!parked = None);
      let late = Map_obj.attach consumer ~oid:1 in
      Alcotest.(check (option string)) "object 1 caught up" (Some "later") (Map_obj.get late "k");
      List.iter
        (fun off ->
          ignore
            (append (Record.Decision { d_target = Record.pos ~offset:off ~slot:0; d_committed = true })))
        [ first; second ];
      Alcotest.(check (option string)) "the second commit applies" (Some "ok") (Map_obj.get sink "b"))

let test_late_registration_mid_round () =
  (* A second fiber's playback round is under way when object 2
     registers; the round plays object 1's stream only, so object 2's
     entry between its two entries must still reach object 2. Sweep the
     join time across the round. *)
  let joins_mid_round d =
    with_cluster (fun cluster ->
        let w = runtime cluster "writer" in
        let a = Reg.attach w ~oid:1 in
        let b = Reg.attach w ~oid:2 in
        Reg.write a 1;
        Reg.write b 2;
        Reg.write a 3;
        let late = runtime cluster "late" in
        let a' = Reg.attach late ~oid:1 in
        Sim.Engine.spawn (fun () -> ignore (Reg.read a'));
        Sim.Engine.sleep d;
        let b' = Reg.attach late ~oid:2 in
        Reg.read b')
  in
  List.iter
    (fun d -> check_int (Printf.sprintf "joined at +%.0fus" d) 2 (joins_mid_round d))
    (List.init 100 (fun i -> float_of_int (i * 20)))

let prop_late_registration_converges =
  (* A writer runs plain writes, concurrent (batched) writes and
     transactions over three registers; a second runtime registers the
     objects one by one at random points, playing in between. Its views
     must end equal to a fresh runtime's. *)
  let gen =
    QCheck.Gen.(
      pair (list_size (1 -- 12) (triple (0 -- 3) (0 -- 2) (0 -- 2))) (list_repeat 3 (0 -- 12)))
  in
  QCheck.Test.make ~name:"late-registered objects converge" ~count:25 (QCheck.make gen)
    (fun (ops, joins) ->
      with_cluster (fun cluster ->
          let w = runtime cluster "writer" in
          let regs = Array.init 3 (fun i -> Reg.attach w ~oid:(i + 1)) in
          let late = runtime cluster "late" in
          let late_regs = Array.make 3 None in
          let join_due step =
            List.iteri
              (fun i at ->
                if at <= step && late_regs.(i) = None then
                  late_regs.(i) <- Some (Reg.attach late ~oid:(i + 1)))
              joins;
            Array.iter (Option.iter (fun r -> ignore (Reg.read r))) late_regs
          in
          List.iteri
            (fun step (kind, i, j) ->
              join_due step;
              let v = step + 1 in
              match kind with
              | 0 -> Reg.write regs.(i) v
              | 1 ->
                  Sim.Engine.spawn (fun () -> Reg.write regs.(i) v);
                  Reg.write regs.(j) (-v);
                  Sim.Engine.sleep 10_000.
              | 2 ->
                  Runtime.begin_tx w;
                  Reg.write regs.(i) v;
                  Reg.write regs.(j) (-v);
                  ignore (Runtime.end_tx w)
              | _ ->
                  Runtime.begin_tx w;
                  ignore (Reg.read regs.(i));
                  Reg.write regs.(j) v;
                  ignore (Runtime.end_tx w))
            ops;
          join_due max_int;
          let fresh = runtime cluster "fresh" in
          let fresh_regs = Array.init 3 (fun i -> Reg.attach fresh ~oid:(i + 1)) in
          Array.for_all2
            (fun l f -> match l with Some l -> Reg.read l = Reg.read f | None -> false)
            late_regs fresh_regs))

let prop_concurrent_counter_serializable =
  (* N clients transactionally increment one register; committed
     increments must be exactly the final value (lost-update freedom,
     the paper's 2PL-equivalent isolation claim). *)
  QCheck.Test.make ~name:"transactional increments are serializable" ~count:15
    QCheck.(pair (int_range 2 4) (int_range 1 42))
    (fun (nclients, seed) ->
      Sim.Engine.run ~seed (fun () ->
          let cluster = Corfu.Cluster.create ~servers:4 () in
          let committed = ref 0 in
          let views = ref [] in
          for i = 1 to nclients do
            let rt = runtime cluster (Printf.sprintf "app-%d" i) in
            let r = Reg.attach rt ~oid:1 in
            views := (rt, r) :: !views;
            Sim.Engine.spawn (fun () ->
                for _ = 1 to 5 do
                  Runtime.begin_tx rt;
                  let v = Reg.read r in
                  Reg.write r (v + 1);
                  match Runtime.end_tx rt with
                  | Runtime.Committed -> incr committed
                  | Runtime.Aborted -> ()
                done)
          done;
          Sim.Engine.sleep 3_000_000.;
          List.for_all (fun (_, r) -> Reg.read r = !committed) !views))

(* ------------------------------------------------------------------ *)
(* Checkpoints, GC, directory                                         *)
(* ------------------------------------------------------------------ *)

let test_checkpoint_and_replay () =
  with_cluster (fun cluster ->
      let rt1 = runtime cluster "app-1" in
      let r1 = Reg.attach rt1 ~oid:1 in
      for i = 1 to 5 do
        Reg.write r1 i
      done;
      ignore (Reg.read r1);
      let info = Runtime.checkpoint rt1 ~oid:1 in
      check_bool "position returned" true (info.Runtime.ckpt_pos > 0);
      check_bool "base below position" true (info.Runtime.ckpt_base < info.Runtime.ckpt_pos);
      Reg.write r1 99;
      let rt2 = runtime cluster "fresh" in
      let r2 = Reg.attach rt2 ~oid:1 in
      check_int "replay through checkpoint" 99 (Reg.read r2))

let test_checkpoint_load_advances_version () =
  (* A view that reaches the checkpoint through trimmed history loads
     the snapshot, and its object version jumps to the snapshot base:
     a transaction reading it must not see a stale version. *)
  with_cluster ~params:(batch 1) (fun cluster ->
      let rt1 = runtime cluster "writer" in
      let r1 = Reg.attach rt1 ~oid:1 in
      for i = 1 to 5 do
        Reg.write r1 i
      done;
      ignore (Reg.read r1);
      let info = Runtime.checkpoint rt1 ~oid:1 in
      check_int "base is the last applied write" (Runtime.version_of rt1 ~oid:1 ())
        info.Runtime.ckpt_base;
      Runtime.trim_below rt1 (Record.pos_offset info.Runtime.ckpt_pos);
      let rt2 = runtime cluster "cold" in
      let r2 = Reg.attach rt2 ~oid:1 in
      check_int "never written" (-1) (Runtime.version_of rt2 ~oid:1 ());
      check_int "state from the snapshot" 5 (Reg.read r2);
      check_int "version advanced to the base" info.Runtime.ckpt_base
        (Runtime.version_of rt2 ~oid:1 ()))

let test_own_commits_released () =
  (* The generator keeps each commit record only until its transaction
     has an outcome; a long run must not accumulate them. *)
  with_cluster (fun cluster ->
      let rt1 = runtime cluster "app-1" in
      let rt2 = runtime cluster "app-2" in
      let r1 = Reg.attach rt1 ~oid:1 in
      let r2 = Reg.attach rt2 ~oid:1 in
      Reg.write r1 0;
      let committed = ref 0 and aborted = ref 0 in
      let worker rt r =
        for _ = 1 to 500 do
          Runtime.begin_tx rt;
          let v = Reg.read r in
          Reg.write r (v + 1);
          match Runtime.end_tx rt with
          | Runtime.Committed -> incr committed
          | Runtime.Aborted -> incr aborted
        done
      in
      let done1 = Sim.Ivar.create () and done2 = Sim.Ivar.create () in
      Sim.Engine.spawn (fun () ->
          worker rt1 r1;
          Sim.Ivar.fill done1 ());
      Sim.Engine.spawn (fun () ->
          worker rt2 r2;
          Sim.Ivar.fill done2 ());
      Sim.Ivar.read done1;
      Sim.Ivar.read done2;
      check_int "1,000 transactions" 1000 (!committed + !aborted);
      check_bool (Printf.sprintf "both outcomes (%d aborted)" !aborted) true
        (!committed > 0 && !aborted > 0);
      check_int "final value counts the commits" !committed (Reg.read r1);
      check_int "generator 1 holds no commit records" 0 (Runtime.own_commits_held rt1);
      check_int "generator 2 holds no commit records" 0 (Runtime.own_commits_held rt2))

let test_directory_declare_and_race () =
  with_cluster (fun cluster ->
      let rt1 = runtime cluster "app-1" in
      let rt2 = runtime cluster "app-2" in
      let d1 = Directory.attach rt1 in
      let d2 = Directory.attach rt2 in
      let oid_a = Directory.declare d1 "free-list" in
      let oid_b = Directory.declare d2 "alloc-table" in
      check_bool "distinct oids" true (oid_a <> oid_b);
      check_bool "not the directory" true (oid_a <> Directory.oid && oid_b <> Directory.oid);
      (* Concurrent declaration of the same name converges. *)
      let r1 = ref (-1) and r2 = ref (-2) in
      Sim.Engine.spawn (fun () -> r1 := Directory.declare d1 "shared");
      Sim.Engine.spawn (fun () -> r2 := Directory.declare d2 "shared");
      Sim.Engine.sleep 1_000_000.;
      check_int "same oid from both" !r1 !r2;
      Alcotest.(check (option int)) "lookup" (Some !r1) (Directory.lookup d1 "shared");
      check_int "bindings" 3 (List.length (Directory.names d1)))

let test_directory_gc () =
  with_cluster ~params:(batch 1) (fun cluster ->
      let rt = runtime cluster "app" in
      let dir = Directory.attach rt in
      let roid = Directory.declare dir "the-register" in
      let r = Reg.attach rt ~oid:roid in
      for i = 1 to 30 do
        Reg.write r i
      done;
      ignore (Reg.read r);
      let info = Runtime.checkpoint rt ~oid:roid in
      let ckpt_pos = info.Runtime.ckpt_base + 1 in
      (* Nothing can be trimmed until the object forgets. *)
      check_int "pinned" 0 (Directory.collect dir);
      Directory.forget dir ~oid:roid ~below:ckpt_pos;
      (* The directory itself also pins; forget it too. *)
      let dir_tail = Corfu.Client.check (Runtime.client rt) in
      ignore (Runtime.checkpoint rt ~oid:Directory.oid);
      Directory.forget dir ~oid:Directory.oid ~below:(Record.pos ~offset:dir_tail ~slot:0);
      let trimmed = Directory.collect dir in
      check_bool "log trimmed" true (trimmed > 0);
      check_bool "trim below checkpoint" true (trimmed <= Record.pos_offset ckpt_pos);
      (* A brand-new client must still reconstruct from the checkpoint. *)
      let rt2 = runtime cluster "post-gc" in
      let r2 = Reg.attach rt2 ~oid:roid in
      check_int "state recovered from checkpoint" 30 (Reg.read r2))

(* Map_obj with checkpoint support, for GC tests. *)
module Ckpt_map = struct
  include Map_obj

  let snapshot t =
    let b = Buffer.create 256 in
    Buffer.add_int32_be b (Int32.of_int (Hashtbl.length t.Map_obj.tbl));
    Hashtbl.iter
      (fun k v ->
        let kv = Map_obj.encode k v in
        Buffer.add_int32_be b (Int32.of_int (Bytes.length kv));
        Buffer.add_bytes b kv)
      t.Map_obj.tbl;
    Buffer.to_bytes b

  let load t data =
    Hashtbl.reset t.Map_obj.tbl;
    let at = ref 4 in
    for _ = 1 to Int32.to_int (Bytes.get_int32_be data 0) do
      let len = Int32.to_int (Bytes.get_int32_be data !at) in
      at := !at + 4;
      let k, v = Map_obj.decode (Bytes.sub data !at len) in
      at := !at + len;
      Hashtbl.replace t.Map_obj.tbl k v
    done

  let attach rt ~oid =
    let t =
      { Map_obj.rt; moid = oid; tbl = Hashtbl.create 16 }
    in
    Runtime.register rt ~oid
      {
        Runtime.apply =
          (fun ~pos:_ ~key:_ data ->
            let k, v = Map_obj.decode data in
            if v = "" then Hashtbl.remove t.Map_obj.tbl k else Hashtbl.replace t.Map_obj.tbl k v);
        checkpoint = Some (fun () -> snapshot t);
        load_checkpoint = Some (fun data -> load t data);
      };
    t
end

let test_gc_trim_gap_repair () =
  (* Regression: a cold view can skip trimmed history yet still reach
     the checkpoint's base version (because the base write itself
     survives the trim), which used to make it skip the checkpoint
     load and come up with a sliver of the state. *)
  with_cluster ~params:(batch 1) (fun cluster ->
      let rt = runtime cluster "writer" in
      let m = Ckpt_map.attach rt ~oid:1 in
      for i = 1 to 40 do
        Ckpt_map.put m (Printf.sprintf "k%d" (i mod 10)) (string_of_int i)
      done;
      check_int "ten keys live" 10 (Ckpt_map.size m);
      let info = Runtime.checkpoint rt ~oid:1 in
      Runtime.trim_below rt (Record.pos_offset (info.Runtime.ckpt_base + 1));
      let rt2 = runtime cluster "cold" in
      let m2 = Ckpt_map.attach rt2 ~oid:1 in
      check_int "cold view repaired from checkpoint" 10 (Ckpt_map.size m2);
      Alcotest.(check (option string)) "latest values" (Some "40") (Ckpt_map.get m2 "k0"))

let prop_directory_unique_oids =
  (* Concurrent declarations from several clients always yield unique,
     globally agreed OIDs. *)
  QCheck.Test.make ~name:"directory allocates unique agreed oids" ~count:10
    QCheck.(pair (int_range 1 500) (int_range 2 4))
    (fun (seed, nclients) ->
      Sim.Engine.run ~seed (fun () ->
          let cluster = Corfu.Cluster.create ~servers:4 () in
          let dirs =
            List.init nclients (fun i ->
                Directory.attach (runtime cluster (Printf.sprintf "c%d" i)))
          in
          let results = Hashtbl.create 16 in
          List.iteri
            (fun i dir ->
              Sim.Engine.spawn (fun () ->
                  (* two private names and one contended name each *)
                  List.iter
                    (fun name ->
                      let oid = Directory.declare dir name in
                      Hashtbl.replace results (i, name) oid)
                    [ Printf.sprintf "private-%d-a" i; Printf.sprintf "private-%d-b" i; "shared" ]))
            dirs;
          Sim.Engine.sleep 3_000_000.;
          let bindings = Hashtbl.fold (fun k v acc -> (k, v) :: acc) results [] in
          let by_name = Hashtbl.create 16 in
          List.iter (fun ((_, name), oid) -> Hashtbl.add by_name name oid) bindings;
          (* same name -> same oid everywhere *)
          let shared_oids = List.sort_uniq compare (Hashtbl.find_all by_name "shared") in
          let all_names =
            List.sort_uniq compare (List.map (fun ((_, name), _) -> name) bindings)
          in
          let distinct_oids =
            List.sort_uniq compare
              (List.map (fun name -> List.hd (Hashtbl.find_all by_name name)) all_names)
          in
          List.length shared_oids = 1
          && List.length distinct_oids = List.length all_names
          && List.for_all
               (fun dir -> Directory.lookup dir "shared" = Some (List.hd shared_oids))
               dirs))

(* ------------------------------------------------------------------ *)
(* Array-staged payload encode and the pooled batch core              *)
(* ------------------------------------------------------------------ *)

let test_record_encode_payload_array () =
  let arr = Array.of_list sample_records in
  let b = Record.encode_payload_array arr ~len:(Array.length arr) in
  check_bool "array encode matches list encode" true
    (Bytes.equal b (Record.encode_payload sample_records));
  (* A shorter [len] encodes only the prefix, ignoring the rest. *)
  let b1 = Record.encode_payload_array arr ~len:1 in
  check_bool "prefix encode" true (Bytes.equal b1 (Record.encode_payload [ List.hd sample_records ]));
  (match Record.encode_payload_array arr ~len:0 with
  | _ -> Alcotest.fail "len 0 must be rejected"
  | exception Invalid_argument _ -> ());
  match Record.encode_payload_array arr ~len:(Array.length arr + 1) with
  | _ -> Alcotest.fail "len past the array must be rejected"
  | exception Invalid_argument _ -> ()

let test_batch_core_lifecycle () =
  let bc = Batch_core.create ~cap:2 ~dummy:(-1) in
  check_int "fresh forming" 0 (Batch_core.forming_len bc);
  check_int "fresh queued" 0 (Batch_core.queued bc);
  check_int "cap" 2 (Batch_core.capacity bc);
  let r1 = List.hd sample_records and r2 = List.nth sample_records 1 in
  check_bool "first submit leaves room" false (Batch_core.submit bc r1 [ 9; 3; 3 ] 100);
  check_int "forming grows" 1 (Batch_core.forming_len bc);
  check_bool "cap-th submit reports full" true (Batch_core.submit bc r2 [ 3 ] 101);
  Batch_core.seal bc ~now:5.;
  check_int "sealed" 1 (Batch_core.queued bc);
  Alcotest.(check (float 0.)) "seal time" 5. (Batch_core.front_sealed_us bc);
  check_int "forming emptied" 0 (Batch_core.forming_len bc);
  (* Stream set: sorted, deduped union of the cells' streams. *)
  Alcotest.(check (list int)) "stream set" [ 3; 9 ] (Batch_core.front_streams bc);
  check_int "group of one" 1 (Batch_core.group bc ~max_run:8);
  let b = Batch_core.pop bc in
  check_int "popped length" 2 (Batch_core.length b);
  check_int "data slot 0" 100 (Batch_core.data b 0);
  check_int "data slot 1" 101 (Batch_core.data b 1);
  let payload = Batch_core.encode bc b in
  check_bool "encode matches records" true
    (Bytes.equal payload (Record.encode_payload [ r1; r2 ]));
  Batch_core.recycle bc b;
  check_int "queue drained" 0 (Batch_core.queued bc)

let test_batch_core_grouping () =
  (* Consecutive batches with the same stream set group under one
     grant; a different set breaks the run. *)
  let bc = Batch_core.create ~cap:1 ~dummy:() in
  let r = List.hd sample_records in
  let seal_one streams =
    ignore (Batch_core.submit bc r streams ());
    Batch_core.seal bc ~now:(float_of_int (Batch_core.queued bc))
  in
  let sorted = [ 1; 2 ] in
  seal_one sorted;
  seal_one [ 2; 1 ];  (* same set, different order *)
  seal_one [ 2 ];
  seal_one [ 1; 2 ];
  check_int "queued" 4 (Batch_core.queued bc);
  (* a first list that already is the set is handed on, not rebuilt *)
  check_bool "sorted list shared" true (Batch_core.front_streams bc == sorted);
  check_int "leading run" 2 (Batch_core.group bc ~max_run:8);
  check_int "max_run caps the run" 1 (Batch_core.group bc ~max_run:1);
  Batch_core.recycle bc (Batch_core.pop bc);
  Batch_core.recycle bc (Batch_core.pop bc);
  Alcotest.(check (list int)) "run breaker at front" [ 2 ] (Batch_core.front_streams bc);
  Alcotest.(check (float 0.)) "front's own seal time" 2. (Batch_core.front_sealed_us bc);
  check_int "singleton run" 1 (Batch_core.group bc ~max_run:8);
  Batch_core.recycle bc (Batch_core.pop bc);
  Batch_core.recycle bc (Batch_core.pop bc);
  check_int "drained" 0 (Batch_core.queued bc);
  match Batch_core.group bc ~max_run:1 with
  | _ -> Alcotest.fail "group on empty queue must be rejected"
  | exception Invalid_argument _ -> ()

let test_batch_core_pool_reuse () =
  (* Steady state recycles pooled cells: many seal/pop/recycle cycles
     keep working and keep results correct. *)
  let bc = Batch_core.create ~cap:3 ~dummy:(-1) in
  let arr = Array.of_list sample_records in
  for round = 0 to 49 do
    for i = 0 to 2 do
      ignore (Batch_core.submit bc arr.(i mod Array.length arr) [ i ] ((round * 3) + i))
    done;
    Batch_core.seal bc ~now:(float_of_int round);
    Alcotest.(check (float 0.)) "recycled batch takes its new seal time" (float_of_int round)
      (Batch_core.front_sealed_us bc);
    let b = Batch_core.pop bc in
    check_int "length" 3 (Batch_core.length b);
    for i = 0 to 2 do
      check_int "data" ((round * 3) + i) (Batch_core.data b i)
    done;
    let payload = Batch_core.encode bc b in
    check_bool "payload stable across reuse" true
      (Bytes.equal payload
         (Record.encode_payload [ arr.(0); arr.(1 mod Array.length arr); arr.(2 mod Array.length arr) ]));
    Batch_core.recycle bc b
  done;
  check_int "nothing queued" 0 (Batch_core.queued bc);
  check_int "nothing forming" 0 (Batch_core.forming_len bc)

(* ------------------------------------------------------------------ *)
(* The decision core against a serial log-order replay                *)
(* ------------------------------------------------------------------ *)

(* A history is the log's records in order (a record's position is its
   index among them) interleaved with two control steps: [Join]
   registers the next late object, [Fire] lets time pass, so armed
   watchdogs fire and the records the core published land. A peer's
   decision or partial verdict names its commit by position; the
   verdict itself is the model's. *)
type m_record =
  | M_update of Record.update
  | M_commit of Record.commit * bool  (* collaborative: on the read streams too *)
  | M_decision of int
  | M_partial of int * int  (* commit position, read oid *)

(* [Rec (r, batched)]: [batched] delivers [r] even when it is on no
   hosted stream, as when it shares an entry with a hosted record. *)
type m_step = Rec of m_record * bool | Join | Fire

let m_objects = 4
let m_keys = [| Some "a"; Some "b"; Some "c"; None |]

(* Raw draws: per object 0 = not hosted, 1 = hosted from the start,
   2 = joins late; per step a kind and the draws that shape it. *)
let m_history (hosting, raws) =
  let pos = ref 0 and commits = ref [] in
  let step (kind, draws) =
    let draws = ref draws in
    let next bound = match !draws with [] -> 0 | x :: rest -> draws := rest; x mod bound in
    let record r =
      incr pos;
      Some (Rec (r, next 4 = 3))
    in
    let pick l = List.nth l (next (List.length l)) in
    match kind with
    | 0 | 1 | 2 ->
        let u_oid = 1 + next m_objects in
        let u_key = m_keys.(next 4) in
        record (M_update { Record.u_oid; u_key; u_data = Bytes.of_string (string_of_int !pos) })
    | 3 | 4 | 5 ->
        let p = !pos in
        let read _ =
          let oid = 1 + next m_objects in
          let key = m_keys.(next 4) in
          (oid, key, max (-1) (p - 1 - next 5))
        in
        let c_reads = List.init (next 3) read in
        let write i =
          let u_oid = 1 + next m_objects in
          let u_key = m_keys.(next 4) in
          { Record.u_oid; u_key; u_data = Bytes.of_string (Printf.sprintf "%d.%d" p i) }
        in
        let c_writes = List.init (1 + next 2) write in
        let c = { Record.c_reads; c_writes; c_needs_decision = next 2 = 1 } in
        let collaborative = c_reads <> [] && next 3 = 2 in
        commits := (p, c, collaborative) :: !commits;
        record (M_commit (c, collaborative))
    | 6 -> (
        match List.filter (fun (_, (c : Record.commit), _) -> c.c_needs_decision) !commits with
        | [] -> None
        | l ->
            let p, _, _ = pick l in
            record (M_decision p))
    | 7 -> (
        match List.filter (fun (_, _, collaborative) -> collaborative) !commits with
        | [] -> None
        | l ->
            let p, (c : Record.commit), _ = pick l in
            let oid, _, _ = pick c.c_reads in
            record (M_partial (p, oid)))
    | 8 -> Some Join
    | _ -> Some Fire
  in
  (Array.of_list hosting, List.filter_map step raws)

let m_print (hosting, steps) =
  let key = function Some k -> k | None -> "*" in
  let pos = ref (-1) in
  let step = function
    | Join -> "join"
    | Fire -> "fire"
    | Rec (r, batched) -> (
        incr pos;
        Printf.sprintf "%d%s:" !pos (if batched then "b" else "")
        ^
        match r with
        | M_update u -> Printf.sprintf "upd %d.%s" u.u_oid (key u.u_key)
        | M_commit (c, collaborative) ->
            Printf.sprintf "commit%s%s r[%s] w[%s]"
              (if c.c_needs_decision then "+d" else "")
              (if collaborative then "+collab" else "")
              (String.concat " "
                 (List.map (fun (o, k, v) -> Printf.sprintf "%d.%s@%d" o (key k) v) c.c_reads))
              (String.concat " "
                 (List.map (fun (u : Record.update) -> Printf.sprintf "%d.%s" u.u_oid (key u.u_key))
                    c.c_writes))
        | M_decision p -> Printf.sprintf "decision %d" p
        | M_partial (p, oid) -> Printf.sprintf "partial %d/%d" p oid)
  in
  Printf.sprintf "hosting [%s]\n%s"
    (String.concat ";" (Array.to_list (Array.map string_of_int hosting)))
    (String.concat "\n" (List.map step steps))

(* The model: every update and commit replayed in log order over every
   object. A read's version is the position of the last applied write
   that touches its key (an unkeyed write or read touches every key);
   a commit commits when no read's version moved past what it
   recorded. Returns each object's applied writes in order, each
   commit's outcome and each (commit, read oid) verdict. *)
let m_replay steps =
  let applied = Array.make (m_objects + 1) [] (* newest first *) in
  let outcomes = Hashtbl.create 16 and verdicts = Hashtbl.create 16 in
  let touches a b = a = None || b = None || a = b in
  let version oid key =
    List.fold_left (fun v (p, k, _) -> if touches key k then max v p else v) (-1) applied.(oid)
  in
  let apply p (u : Record.update) =
    applied.(u.u_oid) <- (p, u.u_key, Bytes.to_string u.u_data) :: applied.(u.u_oid)
  in
  let records = List.filter_map (function Rec (r, _) -> Some r | Join | Fire -> None) steps in
  List.iteri
    (fun p -> function
      | M_update u -> apply p u
      | M_commit (c, _) ->
          let clean (oid, key, recorded) = version oid key <= recorded in
          List.iter
            (fun ((oid, _, _) as read) ->
              let sofar = Option.value (Hashtbl.find_opt verdicts (p, oid)) ~default:true in
              Hashtbl.replace verdicts (p, oid) (sofar && clean read))
            c.c_reads;
          let committed = List.for_all clean c.c_reads in
          Hashtbl.replace outcomes p committed;
          if committed then List.iter (apply p) c.c_writes
      | M_decision _ | M_partial _ -> ())
    records;
  (Array.map List.rev applied, outcomes, verdicts)

(* Drive a [Decision_core] through the history the way [Runtime]'s
   playback does, with the model standing in for the log's
   reconstruction, and compare: every hosted object applied exactly
   the model's writes, every announced outcome is the model's, and
   nothing stays frozen once every decision is in. *)
let m_check (hosting, steps) =
  let expected, outcomes, verdicts = m_replay steps in
  let seen = Array.make (m_objects + 1) [] and ok = ref true in
  let armed = Queue.create () and landed = Queue.create () in
  let fx =
    {
      Decision_core.gap = (fun _ -> false);
      apply = (fun oid p u -> seen.(oid) <- (p, u.u_key, Bytes.to_string u.u_data) :: seen.(oid));
      load = (fun _ _ -> false);
      announce_decided = (fun p committed -> if Hashtbl.find outcomes p <> committed then ok := false);
      announce_applied = ignore;
      announce_parked = (fun _ _ -> ());
      conflict = ignore;
      publish = (fun _ r -> Queue.add r landed);
      arm_watchdog = (fun _ p c -> Queue.add (p, c) armed);
      reconstruct = (fun _ p _ -> Hashtbl.find outcomes p);
    }
  in
  let dc = Decision_core.create fx in
  let log = ref [] (* delivered positions and records, newest first *) in
  let play p = function
    | Record.Update u -> Decision_core.deliver_update dc p u
    | Record.Commit c ->
        Decision_core.handle_commit dc p ~involved:(Decision_core.involved_hosted dc c) c
    | Record.Decision { d_target; d_committed } -> Decision_core.resolve dc d_target d_committed
    | Record.Partial { p_target; p_verdicts } -> Decision_core.note_partials dc p_target p_verdicts
    | Record.Checkpoint _ -> ()
  in
  let commit_at p =
    match List.assoc p !log with Record.Commit c -> c | _ -> assert false
  in
  let to_record = function
    | M_update u -> Record.Update u
    | M_commit (c, _) -> Record.Commit c
    | M_decision p -> Record.Decision { d_target = p; d_committed = Hashtbl.find outcomes p }
    | M_partial (p, oid) ->
        Record.Partial { p_target = p; p_verdicts = [ (oid, Hashtbl.find verdicts (p, oid)) ] }
  in
  let streams = function
    | M_update u -> [ u.u_oid ]
    | M_commit (c, collaborative) ->
        Decision_core.write_oids (if collaborative then Decision_core.read_oids c else []) c.c_writes
    | M_decision p -> Decision_core.write_oids [] (commit_at p).c_writes
    | M_partial (p, _) ->
        let c = commit_at p in
        Decision_core.write_oids (Decision_core.read_oids c) c.c_writes
  in
  (* Late registration: the object catches up on its own records. *)
  let join oid =
    Decision_core.register dc ~oid oid;
    let o = Decision_core.find dc oid in
    List.iter
      (fun (p, r) ->
        match r with
        | Record.Update u when u.u_oid = oid -> Decision_core.deliver_update dc p u
        | Record.Commit c when List.exists (fun (u : Record.update) -> u.u_oid = oid) c.c_writes ->
            Decision_core.catch_up_commit dc o p c
        | _ -> ())
      (List.rev !log)
  in
  let late = Queue.create () in
  Array.iteri
    (fun i h ->
      let oid = i + 1 in
      if h = 1 then Decision_core.register dc ~oid oid else if h = 2 then Queue.add oid late)
    hosting;
  let fire () =
    let due = Queue.copy armed in
    Queue.clear armed;
    Queue.iter
      (fun (p, _) ->
        if Decision_core.is_undecided dc p then begin
          let committed = Hashtbl.find outcomes p in
          Decision_core.resolve dc p committed;
          Queue.add (Record.Decision { d_target = p; d_committed = committed }) landed
        end)
      due;
    (* published records land after everything played so far *)
    while not (Queue.is_empty landed) do
      play max_int (Queue.pop landed)
    done
  in
  let pos = ref 0 in
  List.iter
    (function
      | Join -> Option.iter join (Queue.take_opt late)
      | Fire -> fire ()
      | Rec (r, batched) ->
          let p = !pos in
          incr pos;
          let record = to_record r in
          log := (p, record) :: !log;
          if batched || List.exists (Decision_core.mem dc) (streams r) then play p record)
    steps;
  Queue.iter join late;
  while not (Queue.is_empty armed && Queue.is_empty landed) do
    fire ()
  done;
  for oid = 1 to m_objects do
    match Decision_core.find_opt dc oid with
    | None -> ()
    | Some o ->
        if List.rev seen.(oid) <> expected.(oid) || not (Decision_core.settled o) then ok := false
  done;
  !ok

let m_arbitrary =
  QCheck.(
    set_print
      (fun raw -> m_print (m_history raw))
      (pair
         (list_of_size (Gen.return m_objects) (int_bound 2))
         (list_of_size Gen.(int_range 1 40)
            (pair (int_bound 9) (list_of_size Gen.(int_bound 12) (int_bound 99))))))

let m_property () =
  QCheck.Test.make ~name:"decision core applies what a serial replay applies" ~count:2000
    m_arbitrary
    (fun raw -> m_check (m_history raw))

let prop_decision_core_model = m_property ()

(* Sensitivity: with commit writes applied before the decision, the
   property must find a counterexample. *)
let test_decision_model_catches_blind_apply () =
  Runtime.enable_failpoint "blind-commit-apply";
  let found =
    match QCheck.Test.check_exn ~rand:(Random.State.make [| 31 |]) (m_property ()) with
    | () -> false
    | exception QCheck.Test.Test_fail _ -> true
    | exception e ->
        Runtime.reset_failpoints ();
        raise e
  in
  Runtime.reset_failpoints ();
  check_bool "counterexample found" true found

(* The core finds a hosted object by binary search over its sorted
   oids and an outcome in an int-keyed table. [hosted] must keep the
   order of the generic [(int, _) Hashtbl.t] those replaced, because
   playback sweeps the objects in it. 40 objects (past the 32 at which
   a 16-bucket table resizes), registered in a scrambled order, and a
   thousand outcomes, pruned halfway, answer as generic tables do. *)
let test_decision_core_tables_match_hashtbl () =
  let fx =
    {
      Decision_core.gap = (fun _ -> false);
      apply = (fun _ _ _ -> ());
      load = (fun _ _ -> false);
      announce_decided = (fun _ _ -> ());
      announce_applied = ignore;
      announce_parked = (fun _ _ -> ());
      conflict = ignore;
      publish = (fun _ _ -> ());
      arm_watchdog = (fun _ _ _ -> ());
      reconstruct = (fun _ _ _ -> true);
    }
  in
  let dc = Decision_core.create fx in
  let old_objects = Hashtbl.create 16 in
  let oids = List.init 40 (fun i -> (((i * 37) + 11) mod 97 * 1_000) + i) in
  List.iter
    (fun oid ->
      Decision_core.register dc ~oid oid;
      Hashtbl.replace old_objects oid oid;
      Alcotest.(check (list int))
        "hosted order" (Hashtbl.fold (fun _ v acc -> v :: acc) old_objects [])
        (List.map (fun (o : int Decision_core.obj) -> o.view) (Decision_core.hosted dc)))
    oids;
  List.iter
    (fun oid ->
      check_int "found" oid (Decision_core.find dc oid).view;
      check_bool "hosted" true (Decision_core.mem dc oid))
    oids;
  List.iter
    (fun oid ->
      check_bool "unhosted" false (Decision_core.mem dc oid);
      check_bool "no object" true (Decision_core.find_opt dc oid = None))
    [ -1; 0; 5; 10_999; max_int ];
  let old_decided = Hashtbl.create 256 in
  let position i = Record.pos ~offset:(i * 3) ~slot:(i mod 4) in
  for i = 0 to 999 do
    if i mod 5 <> 0 then begin
      Decision_core.resolve dc (position i) (i mod 3 = 0);
      Hashtbl.replace old_decided (position i) (i mod 3 = 0)
    end
  done;
  let agree what =
    for i = 0 to 1_100 do
      let p = position i in
      check_bool what (Hashtbl.mem old_decided p) (Decision_core.is_decided dc p);
      match Hashtbl.find old_decided p with
      | v -> check_bool what v (Decision_core.outcome dc p)
      | exception Not_found -> ()
    done
  in
  agree "decided";
  let below = position 500 in
  Decision_core.prune dc below;
  Hashtbl.filter_map_inplace (fun p v -> if p < below then None else Some v) old_decided;
  agree "decided after prune"

let qcheck tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "tango-core"
    [
      ( "record",
        [
          Alcotest.test_case "roundtrip" `Quick test_record_roundtrip;
          Alcotest.test_case "position math" `Quick test_record_pos_math;
          Alcotest.test_case "streams_of" `Quick test_record_streams_of;
          Alcotest.test_case "rejects bad payloads" `Quick test_record_rejects_bad;
          Alcotest.test_case "array encode matches list encode" `Quick
            test_record_encode_payload_array;
          Alcotest.test_case "shared decode keyed by identity" `Quick test_decode_entry_identity;
          Alcotest.test_case "runs do not alias decodes" `Quick
            test_decode_entry_runs_do_not_alias;
        ] );
      ( "batch-core",
        [
          Alcotest.test_case "submit/seal/pop/encode/recycle" `Quick test_batch_core_lifecycle;
          Alcotest.test_case "stream-set grouping" `Quick test_batch_core_grouping;
          Alcotest.test_case "pool reuse stays correct" `Quick test_batch_core_pool_reuse;
        ] );
      ( "batcher",
        [
          Alcotest.test_case "fills batches" `Quick test_batcher_fills_batches;
          Alcotest.test_case "linger flushes partial" `Quick test_batcher_linger_flushes_partial;
          Alcotest.test_case "linger timer keeps its batch" `Quick
            test_batcher_linger_keeps_its_batch;
          Alcotest.test_case "full seal cancels its linger" `Quick
            test_batcher_full_seal_cancels_linger;
          Alcotest.test_case "sealed-age probe" `Quick test_batcher_sealed_age_probe;
          Alcotest.test_case "deep window keeps log order" `Quick
            test_batcher_deep_window_ordering;
          Alcotest.test_case "pipelined writes linearizable" `Quick
            test_pipelined_writes_linearizable;
          Alcotest.test_case "pipelined appends deterministic" `Quick
            test_pipelined_append_determinism;
        ] );
      ( "replication",
        [
          Alcotest.test_case "register write/read" `Quick test_register_write_read;
          Alcotest.test_case "two views linearizable" `Quick test_two_views_linearizable;
          Alcotest.test_case "view reconstruction" `Quick test_view_reconstruction;
          Alcotest.test_case "time travel" `Quick test_time_travel;
          Alcotest.test_case "version tracking" `Quick test_version_tracking;
          Alcotest.test_case "fetch (log as index)" `Quick test_fetch_log_index;
          Alcotest.test_case "batching ratio" `Quick test_batching_ratio;
        ] );
      ( "transactions",
        [
          Alcotest.test_case "single-object RMW" `Quick test_tx_single_object_rmw;
          Alcotest.test_case "conflict aborts" `Quick test_tx_conflict_aborts;
          Alcotest.test_case "fine-grained keys commute" `Quick
            test_tx_fine_grained_keys_no_conflict;
          Alcotest.test_case "same key conflicts" `Quick test_tx_same_key_conflicts;
          Alcotest.test_case "read-only" `Quick test_tx_read_only;
          Alcotest.test_case "read-only aborts on change" `Quick test_tx_read_only_aborts_on_change;
          Alcotest.test_case "write-only fast path" `Quick test_tx_write_only_fast;
          Alcotest.test_case "cross-object atomicity" `Quick test_tx_cross_object_atomicity;
          Alcotest.test_case "remote-write producer/consumer" `Quick
            test_tx_remote_write_producer_consumer;
          Alcotest.test_case "remote-write abort respected" `Quick
            test_tx_remote_write_abort_respected;
          Alcotest.test_case "remote read rejected" `Quick test_tx_remote_read_rejected;
          Alcotest.test_case "nested tx rejected" `Quick test_tx_nested_rejected;
          Alcotest.test_case "own commit records released" `Quick test_own_commits_released;
          Alcotest.test_case "decision watchdog reconstructs" `Quick
            test_decision_watchdog_reconstructs;
          Alcotest.test_case "unhosted commit is not parked" `Quick test_unhosted_commit_not_parked;
        ] );
      ( "late-registration",
        [
          Alcotest.test_case "play lock released when a callback raises" `Quick
            test_play_lock_released_on_raise;
          Alcotest.test_case "cross-object tx played before the join" `Quick
            test_late_registration_cross_object_tx;
          Alcotest.test_case "batched writes in one entry" `Quick
            test_late_registration_batched_writes;
          Alcotest.test_case "commit the runtime never saw" `Quick
            test_late_registration_unseen_commit;
          Alcotest.test_case "commit still parked" `Quick test_late_registration_parked_commit;
          Alcotest.test_case "reconstruction walks each object once" `Quick
            test_reconstruct_walks_each_object_once;
          Alcotest.test_case "late read object keeps a parked outcome" `Quick
            test_late_read_object_keeps_parked_outcome;
          Alcotest.test_case "join during another fiber's round" `Quick
            test_late_registration_mid_round;
        ] );
      ( "kernel-alloc",
          [ Alcotest.test_case "one read round's words" `Quick test_read_round_words ] );
      ( "checkpoint-gc-directory",
        [
          Alcotest.test_case "checkpoint and replay" `Quick test_checkpoint_and_replay;
          Alcotest.test_case "checkpoint load advances version" `Quick
            test_checkpoint_load_advances_version;
          Alcotest.test_case "directory declare and race" `Quick test_directory_declare_and_race;
          Alcotest.test_case "directory gc" `Quick test_directory_gc;
          Alcotest.test_case "trim-gap repair" `Quick test_gc_trim_gap_repair;
        ] );
      ( "properties",
        qcheck
          [
            prop_record_roundtrip;
            prop_decode_entry_matches_decode;
            prop_concurrent_counter_serializable;
            prop_directory_unique_oids;
            prop_late_registration_converges;
            prop_decision_core_model;
          ]
        @ [
            Alcotest.test_case "decision model catches blind commit apply" `Quick
              test_decision_model_catches_blind_apply;
            Alcotest.test_case "decision tables answer as generic tables do" `Quick
              test_decision_core_tables_match_hashtbl;
          ] );
    ]
