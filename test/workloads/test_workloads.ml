(* Tests for the workload generators. *)

open Tango_workloads

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let histogram sampler rng ~n ~draws =
  let counts = Array.make n 0 in
  for _ = 1 to draws do
    let i = sampler rng in
    counts.(i) <- counts.(i) + 1
  done;
  counts

let test_zipf_in_range () =
  let z = Zipf.create ~n:100 () in
  let rng = Sim.Rng.create 3 in
  for _ = 1 to 10_000 do
    let v = Zipf.sample z rng in
    if v < 0 || v >= 100 then Alcotest.fail "out of range"
  done

let test_zipf_skew () =
  let n = 1000 in
  let z = Zipf.create ~n () in
  let rng = Sim.Rng.create 7 in
  let counts = histogram (Zipf.sample z) rng ~n ~draws:100_000 in
  (* Rank 0 must be the hottest; top-10 ranks take a large share. *)
  let hottest = ref 0 in
  Array.iteri (fun i c -> if c > counts.(!hottest) then hottest := i) counts;
  check_int "rank 0 hottest" 0 !hottest;
  let top10 = Array.fold_left ( + ) 0 (Array.sub counts 0 10) in
  check_bool "top-10 share above 30%" true (float_of_int top10 /. 100_000. > 0.3)

let test_uniform_flat () =
  let n = 100 in
  let d = Key_dist.uniform ~n in
  let rng = Sim.Rng.create 11 in
  let counts = histogram (Key_dist.sample d) rng ~n ~draws:100_000 in
  Array.iter
    (fun c ->
      (* expected 1000 each; allow generous slack *)
      if c < 700 || c > 1300 then Alcotest.failf "uniform bucket off: %d" c)
    counts

let test_key_names () =
  Alcotest.(check string) "padded" "k00000042" (Key_dist.key_name 42)

let test_distinct_keys () =
  let d = Key_dist.zipf ~n:50 () in
  let rng = Sim.Rng.create 5 in
  for _ = 1 to 100 do
    let keys = Key_dist.distinct_keys d rng 6 in
    check_int "six keys" 6 (List.length keys);
    check_int "distinct" 6 (List.length (List.sort_uniq compare keys))
  done;
  match Key_dist.distinct_keys d rng 51 with
  | _ -> Alcotest.fail "over-population draw must be rejected"
  | exception Invalid_argument _ -> ()

(* Draw sequence and output order are part of every benchmark's
   workload: these values were recorded before the draw loop lost its
   hash table and must never change. *)
let test_distinct_keys_pinned () =
  let draws d seed count rounds =
    let rng = Sim.Rng.create seed in
    let sets = List.init rounds (fun _ -> Key_dist.distinct_keys d rng count) in
    (sets, Key_dist.sample d rng)
  in
  let zipf_sets, zipf_next = draws (Key_dist.zipf ~n:8 ()) 42 6 3 in
  Alcotest.(check (list (list string)))
    "zipf n=8, seed 42"
    [
      [ "k00000001"; "k00000002"; "k00000004"; "k00000005"; "k00000000"; "k00000003" ];
      [ "k00000004"; "k00000007"; "k00000003"; "k00000000"; "k00000002"; "k00000001" ];
      [ "k00000000"; "k00000001"; "k00000002"; "k00000004"; "k00000003"; "k00000006" ];
    ]
    zipf_sets;
  check_int "zipf rng position after the draws" 0 zipf_next;
  let uniform_sets, uniform_next = draws (Key_dist.uniform ~n:10) 7 4 2 in
  Alcotest.(check (list (list string)))
    "uniform n=10, seed 7"
    [
      [ "k00000008"; "k00000000"; "k00000006"; "k00000001" ];
      [ "k00000000"; "k00000005"; "k00000009"; "k00000006" ];
    ]
    uniform_sets;
  check_int "uniform rng position after the draws" 9 uniform_next

let prop_key_name_matches_printf =
  (* The digit writer must render every index exactly as
     [Printf.sprintf "k%08d"], at the edges of its eight-digit range,
     outside it (the fallback) and anywhere in between. *)
  let edges = [ 0; 1; 9; 10; 99_999_999; 100_000_000; -1; -42; max_int; min_int ] in
  QCheck.Test.make ~name:"key_name = sprintf \"k%08d\"" ~count:1000
    QCheck.(oneof [ oneofl edges; int_range 0 99_999_999; int; small_signed_int ])
    (fun i -> String.equal (Key_dist.key_name i) (Printf.sprintf "k%08d" i))

let prop_zipf_bounds =
  QCheck.Test.make ~name:"zipf samples stay in range" ~count:100
    QCheck.(pair (int_range 1 10_000) small_int)
    (fun (n, seed) ->
      let z = Zipf.create ~n () in
      let rng = Sim.Rng.create seed in
      List.for_all
        (fun _ ->
          let v = Zipf.sample z rng in
          v >= 0 && v < n)
        (List.init 50 Fun.id))

let () =
  Alcotest.run "workloads"
    [
      ( "zipf",
        [
          Alcotest.test_case "in range" `Quick test_zipf_in_range;
          Alcotest.test_case "skewed" `Quick test_zipf_skew;
        ] );
      ( "key-dist",
        [
          Alcotest.test_case "uniform flat" `Quick test_uniform_flat;
          Alcotest.test_case "key names" `Quick test_key_names;
          Alcotest.test_case "distinct keys" `Quick test_distinct_keys;
          Alcotest.test_case "distinct keys pinned draws" `Quick test_distinct_keys_pinned;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest [ prop_zipf_bounds; prop_key_name_matches_printf ] );
    ]
