(* Runs tango_bench on every workload at a tiny window and checks its
   contract: every metric BENCHMARK.json names is reported with its
   unit and parses, the correctness checks pass, two same-seed runs
   agree on every virtual metric, and [compare] calls a 20% slowdown a
   regression. *)

module J = Sim.Jin

let exe = "../tango_bench.exe"
let bounds = "../../BENCHMARK.json"
let failures = ref 0

let fail fmt =
  Printf.ksprintf
    (fun s ->
      incr failures;
      prerr_endline ("FAIL " ^ s))
    fmt

(* Runs the benchmark; returns its exit code and standard output. *)
let run args =
  let ic, oc, ec = Unix.open_process_args_full exe (Array.of_list (exe :: args)) (Unix.environment ()) in
  close_out oc;
  let out = In_channel.input_all ic in
  let err = In_channel.input_all ec in
  let code =
    match Unix.close_process_full (ic, oc, ec) with
    | Unix.WEXITED c -> c
    | Unix.WSIGNALED _ | Unix.WSTOPPED _ -> -1
  in
  if code <> 0 && code <> 1 then prerr_string err;
  (code, out)

let last_line out =
  match List.rev (String.split_on_char '\n' (String.trim out)) with l :: _ -> l | [] -> ""

let read_file f = In_channel.with_open_text f In_channel.input_all

(* (name, unit) of each metric of one BENCHMARK.json section. *)
let declared section =
  List.map
    (fun m -> (J.to_string (J.member "name" m), J.to_string (J.member "unit" m)))
    (J.to_list (J.member section (J.parse (read_file bounds))))

let check_metrics ~what declared (metrics : J.t) =
  List.iter
    (fun (name, unit_) ->
      match J.member_opt name metrics with
      | None -> fail "%s: metric %s missing" what name
      | Some m ->
          if J.to_string (J.member "unit" m) <> unit_ then fail "%s: %s has the wrong unit" what name;
          if not (Float.is_finite (J.to_float (J.member "value" m))) then fail "%s: %s is not a number" what name)
    declared

(* Metrics read off the wall clock, or off the heap's size in pages,
   differ between runs by nature. *)
let host_measured =
  [ "sim_ops_per_wall_s"; "setup_s"; "peak_heap_mb"; "sim.engine.events_per_wall_s"; "telemetry.trace_overhead" ]

let virtual_values (results : J.t) w =
  let wj = J.member w (J.member "workloads" results) in
  List.concat_map
    (fun section ->
      match J.member section wj with
      | J.Obj fields ->
          List.filter_map
            (fun (name, m) ->
              if List.mem name host_measured then None else Some (name, J.to_float (J.member "value" m)))
            fields
      | _ -> [])
    [ "end_to_end"; "per_layer" ]

(* JSON printer for rewriting a results file. *)
let rec to_json = function
  | J.Null -> "null"
  | J.Bool b -> string_of_bool b
  | J.Num v -> Printf.sprintf "%.17g" v
  | J.Str s -> Sim.Jout.str s
  | J.Arr l -> Sim.Jout.arr (List.map to_json l)
  | J.Obj l -> Sim.Jout.obj (List.map (fun (k, v) -> (k, to_json v)) l)

(* The same results with workload [w]'s simulation speed set to
   [speed]. *)
let with_speed w speed (results : J.t) =
  let rec set path (v : J.t) =
    match (path, v) with
    | [], _ -> J.Num speed
    | k :: rest, J.Obj l -> J.Obj (List.map (fun (k', x) -> if k' = k then (k', set rest x) else (k', x)) l)
    | _, v -> v
  in
  set [ "workloads"; w; "end_to_end"; "sim_ops_per_wall_s"; "value" ] results

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec at i = i + m <= n && (String.sub s i m = sub || at (i + 1)) in
  at 0

let () =
  let e2e = declared "end_to_end" and layers = declared "per_layer" in
  List.iter
    (fun w ->
      let a = w ^ "-a.json" and b = w ^ "-b.json" in
      let common = [ "--workload"; w; "--seed"; "7"; "--seconds"; "0.1" ] in
      let code, out = run (common @ [ "--trace"; "1"; "--out"; a ]) in
      if code <> 0 then fail "%s: exit code %d" w code;
      let line = J.parse (last_line out) in
      if not (J.to_bool (J.member "correct" line)) then fail "%s: correctness checks failed" w;
      if J.to_int (J.member "failed" line) <> 0 then fail "%s: operations failed" w;
      check_metrics ~what:(w ^ " --trace 1") layers (J.member "metrics" line);
      let code, out = run (common @ [ "--trace"; "0"; "--out"; b ]) in
      if code <> 0 then fail "%s: second run exit code %d" w code;
      check_metrics ~what:(w ^ " --trace 0") e2e (J.member "metrics" (J.parse (last_line out)));
      let ra = J.parse (read_file a) and rb = J.parse (read_file b) in
      let vb = virtual_values rb w in
      List.iter
        (fun (name, v) ->
          match List.assoc_opt name vb with
          | Some v' when v' <> v -> fail "%s: %s differs between same-seed runs (%g, %g)" w name v v'
          | _ -> ())
        (virtual_values ra w);
      (* Judged against itself nothing regresses; a 20% slowdown of
         simulation speed does. *)
      let base = w ^ "-base.json" and slow = w ^ "-slow.json" in
      let write f speed = Out_channel.with_open_text f (fun oc -> output_string oc (to_json (with_speed w speed ra))) in
      write base 1000.;
      write slow 800.;
      let code, out = run [ "compare"; base; base; "--bounds"; bounds ] in
      if code <> 0 || contains out "regressed" then fail "%s: compare of a run with itself: exit %d" w code;
      let code, out = run [ "compare"; base; slow; "--bounds"; bounds ] in
      let flagged =
        List.exists
          (fun l -> contains l "sim_ops_per_wall_s" && contains l "regressed")
          (String.split_on_char '\n' out)
      in
      if code <> 1 || not flagged then fail "%s: compare missed a 20%% slowdown (exit %d)" w code)
    [ "log-append"; "view-read"; "map-tx"; "fault" ];
  if !failures > 0 then exit 1
