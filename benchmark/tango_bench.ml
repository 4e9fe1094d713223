(* tango_bench: the repo benchmark.

     tango_bench --workload W --seed N --seconds S --trace 0|1 [--out F]
     tango_bench run --seed N [--seconds S] [--workload W]... [--out F]
     tango_bench compare A.json B.json [--bounds BENCHMARK.json]
     tango_bench compare A1.json A2.json ... -- B1.json B2.json ...

   The first form measures one workload and prints, as its last line,
   one JSON object: the end-to-end metrics with [--trace 0], the
   per-layer metrics with [--trace 1]. [run] measures every workload
   (or those named) and reports both kinds. Each repetition runs in a
   fresh child process, one at a time, so process-lifetime counters
   (the GC's heap high-water mark) and GC state never leak from one
   repetition into the next. [compare] judges two result files, written
   with [--out], against the bounds in BENCHMARK.json.

   Exit codes: 0 clean, 1 a correctness or determinism violation (or,
   for [compare], a regression), 2 a harness error. *)

let reps = 5

(* The traced child measures a fifth of a repetition's window: spans
   cost several times the wall time and heap of an untraced run. *)
let traced_share = 0.2

exception Harness_error of string

let harness_error fmt = Printf.ksprintf (fun s -> raise (Harness_error s)) fmt

(* JSON number with every digit of the measurement. *)
let num v =
  if not (Float.is_finite v) then harness_error "non-finite measurement %f" v
  else if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let window_us w ~seconds = Workload.virtual_us_per_wall_s w *. seconds /. float_of_int reps

(* ------------------------------------------------------------------ *)
(* Child: one repetition, reported as one JSON line                   *)
(* ------------------------------------------------------------------ *)

let child w ~seed ~window_us ~traced =
  let started = Unix.gettimeofday () in
  (* A wedged simulation must not outlive its budget: the parent turns
     the signal into a harness error. *)
  ignore (Unix.alarm (30 + int_of_float (10. *. window_us /. Workload.virtual_us_per_wall_s w)));
  let r = Workload.run w ~seed ~window_us ~traced ~started in
  print_endline
    (Sim.Jout.obj
       [
         ("violations", Sim.Jout.arr (List.map Sim.Jout.str r.Workload.r_violations));
         ("slices", Sim.Jout.arr (List.map num r.r_slices));
         ("reference", Sim.Jout.arr (List.map num r.r_reference));
         ("attempted", string_of_int r.r_attempted);
         ("failed", string_of_int r.r_failed);
         ("values", Sim.Jout.obj (List.map (fun (k, v) -> (k, num v)) r.r_values));
       ])

type rep = {
  violations : string list;
  slices : float list;  (* wall seconds per virtual-time slice of the window *)
  reference : float list;  (* wall seconds of the reference walk after each slice *)
  attempted : int;
  failed : int;
  values : (string * float) list;
}

let value rep name =
  match List.assoc_opt name rep.values with
  | Some v -> v
  | None -> harness_error "child reported no %s" name

let spawn_child w ~seed ~window_us ~traced =
  let args =
    [|
      Sys.executable_name;
      "--child";
      Workload.to_string w;
      "--seed";
      string_of_int seed;
      "--window-us";
      num window_us;
      "--trace";
      (if traced then "1" else "0");
    |]
  in
  let ic = Unix.open_process_args_in Sys.executable_name args in
  let out = In_channel.input_all ic in
  (match Unix.close_process_in ic with
  | Unix.WEXITED 0 -> ()
  | Unix.WEXITED c -> harness_error "%s child exited with code %d" (Workload.to_string w) c
  | Unix.WSIGNALED s | Unix.WSTOPPED s ->
      harness_error "%s child killed by signal %d" (Workload.to_string w) s);
  let j =
    try Sim.Jin.parse out
    with Sim.Jin.Parse_error e -> harness_error "%s child: unreadable result (%s)" (Workload.to_string w) e
  in
  let open Sim.Jin in
  {
    violations = List.map to_string (to_list (member "violations" j));
    slices = List.map to_float (to_list (member "slices" j));
    reference = List.map to_float (to_list (member "reference" j));
    attempted = to_int (member "attempted" j);
    failed = to_int (member "failed" j);
    values =
      (match member "values" j with
      | Obj fields -> List.map (fun (k, v) -> (k, to_float v)) fields
      | _ -> harness_error "child values are not an object");
  }

(* ------------------------------------------------------------------ *)
(* Aggregation                                                        *)
(* ------------------------------------------------------------------ *)

let sorted l = List.sort Float.compare l

let median l =
  let a = Array.of_list (sorted l) in
  let n = Array.length a in
  if n = 0 then 0. else if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* First and third quartile, as Python's statistics.quantiles(n=4)
   computes them (the "exclusive" method). *)
let quartiles l =
  let a = Array.of_list (sorted l) in
  let n = Array.length a in
  if n < 2 then (median l, median l)
  else
    let m = n + 1 in
    let q i =
      let j = i * m / 4 and delta = (i * m) mod 4 in
      let lo = a.(max 0 (min (n - 1) (j - 1))) and hi = a.(max 0 (min (n - 1) j)) in
      ((lo *. float_of_int (4 - delta)) +. (hi *. float_of_int delta)) /. 4.
    in
    (q 1, q 3)

type wresult = {
  w : Workload.name;
  runs : rep list;  (* untraced repetitions *)
  traced : rep option;
}

let metric_values r name = List.map (fun rep -> value rep name) r.runs

(* Host wall time of the window, scaled to the reference speed (see
   [Workload.Reference]). Every repetition simulates the same seed, so
   slice [k] of the window holds the same work in each; other tenants
   of the host slow some slices of some repetitions and never speed one
   up, so the fastest repetition of each slice is the best estimate of
   that slice's cost. Summing per-slice minima keeps the estimate
   steady when interference comes in bursts shorter than a repetition,
   which a median of whole repetitions does not. *)
let host_wall_s r =
  let scaled rep =
    Array.of_list (List.map2 (fun w c -> w *. Workload.Reference.nominal_s /. c) rep.slices rep.reference)
  in
  match List.map scaled r.runs with
  | [] -> 0.
  | first :: _ as per_rep ->
      let total = ref 0. in
      Array.iteri
        (fun k _ -> total := !total +. List.fold_left (fun m a -> Float.min m a.(k)) Float.infinity per_rep)
        first;
      !total

let ops r = median (metric_values r "ops")

let e2e_metrics r =
  List.map
    (fun (m : Catalog.e2e) ->
      let v = if m.name = "sim_ops_per_wall_s" then ops r /. host_wall_s r else median (metric_values r m.name) in
      (m.name, v, m.unit_))
    Catalog.end_to_end

let layer_metrics r =
  match r.traced with
  | None -> []
  | Some t ->
      List.map
        (fun (m : Catalog.layer) ->
          let v =
            match m.source with
            | Catalog.Untraced when m.lname = "sim.engine.events_per_wall_s" ->
                median (metric_values r "sim.engine.events_per_op") *. ops r /. host_wall_s r
            | Catalog.Untraced -> median (metric_values r m.lname)
            | Catalog.Traced -> value t m.lname
            | Catalog.Overhead ->
                let untraced = median (List.map (fun rep -> 1. /. value rep "sim_ops_per_wall_s") r.runs) in
                (value t "wall_per_op_s" /. untraced) -. 1.
          in
          (m.lname, v, m.lunit))
        Catalog.per_layer

(* Violations reported by the children, plus the determinism
   self-check: repetitions of one seed must agree exactly on every
   virtual-time metric and count. *)
let violations r =
  let reported =
    List.concat_map (fun rep -> rep.violations) (r.runs @ Option.to_list r.traced)
  in
  let nondeterministic =
    List.filter_map
      (fun (m : Catalog.e2e) ->
        match List.sort_uniq Float.compare (metric_values r m.name) with
        | [] | [ _ ] -> None
        | vs ->
            Some
              (Printf.sprintf "determinism: %s differs across repetitions (%s)" m.name
                 (String.concat ", " (List.map num vs))))
      (List.filter (fun (m : Catalog.e2e) -> m.exact) Catalog.end_to_end)
  in
  List.map (fun v -> Workload.to_string r.w ^ ": " ^ v) (reported @ nondeterministic)

(* Repetitions interleave round-robin across workloads, so a slow
   period on a shared host lands on every workload alike. *)
let measure ws ~seed ~seconds ~trace =
  let runs = Hashtbl.create 4 in
  for i = 1 to reps do
    List.iter
      (fun w ->
        Printf.eprintf "tango_bench: %s repetition %d/%d\n%!" (Workload.to_string w) i reps;
        let rep = spawn_child w ~seed ~window_us:(window_us w ~seconds) ~traced:false in
        Hashtbl.replace runs w (rep :: Option.value (Hashtbl.find_opt runs w) ~default:[]))
      ws
  done;
  List.map
    (fun w ->
      let traced =
        if trace then begin
          Printf.eprintf "tango_bench: %s traced run\n%!" (Workload.to_string w);
          Some (spawn_child w ~seed ~window_us:(traced_share *. window_us w ~seconds) ~traced:true)
        end
        else None
      in
      { w; runs = List.rev (Hashtbl.find runs w); traced })
    ws

(* ------------------------------------------------------------------ *)
(* Output                                                             *)
(* ------------------------------------------------------------------ *)

let metrics_json ms =
  Sim.Jout.obj (List.map (fun (n, v, u) -> (n, Sim.Jout.obj [ ("value", num v); ("unit", Sim.Jout.str u) ])) ms)

let results_json ~seed ~seconds rs =
  Sim.Jout.obj
    [
      ("benchmark", Sim.Jout.str "tango_bench");
      ("seed", string_of_int seed);
      ("seconds", num seconds);
      ( "workloads",
        Sim.Jout.obj
          (List.map
             (fun r ->
               ( Workload.to_string r.w,
                 Sim.Jout.obj
                   [
                     ("violations", Sim.Jout.arr (List.map Sim.Jout.str (violations r)));
                     ( "reps",
                       Sim.Jout.arr
                         (List.map
                            (fun rep ->
                              Sim.Jout.obj
                                (List.map (fun (k, v) -> (k, num v)) rep.values
                                @ [
                                    ("slices", Sim.Jout.arr (List.map num rep.slices));
                                    ("reference", Sim.Jout.arr (List.map num rep.reference));
                                  ]))
                            r.runs) );
                     ("end_to_end", metrics_json (e2e_metrics r));
                     ("per_layer", metrics_json (layer_metrics r));
                   ] ))
             rs) );
    ]

let print_table rs =
  List.iter
    (fun r ->
      Printf.printf "== %s (%d repetitions%s)\n" (Workload.to_string r.w) (List.length r.runs)
        (if r.traced = None then "" else " + traced run");
      List.iter (fun (n, v, u) -> Printf.printf "  %-40s %18.6g %s\n" n v u) (e2e_metrics r @ layer_metrics r))
    rs

let totals rs =
  let all = List.concat_map (fun r -> r.runs @ Option.to_list r.traced) rs in
  ( List.fold_left (fun a rep -> a + rep.attempted) 0 all,
    List.fold_left (fun a rep -> a + rep.failed) 0 all,
    List.concat_map violations rs )

(* Prints the table, the violations and the final JSON line; returns
   the exit code. *)
let report rs ~seed ~seconds ~out ~metrics =
  print_table rs;
  let attempted, failed, vs = totals rs in
  List.iter (fun v -> Printf.printf "VIOLATION %s\n" v) vs;
  Option.iter
    (fun f -> Out_channel.with_open_text f (fun oc -> output_string oc (results_json ~seed ~seconds rs ^ "\n")))
    out;
  print_endline
    (Sim.Jout.obj
       [
         ("correct", string_of_bool (vs = []));
         ("attempted", string_of_int attempted);
         ("failed", string_of_int failed);
         ("metrics", metrics_json metrics);
       ]);
  if vs = [] then 0 else 1

(* ------------------------------------------------------------------ *)
(* compare                                                            *)
(* ------------------------------------------------------------------ *)

type bound = { better_lower : bool; bound : float }

let read_bounds path =
  let j = Sim.Jin.parse (In_channel.with_open_text path In_channel.input_all) in
  List.map
    (fun m ->
      let open Sim.Jin in
      ( to_string (member "name" m),
        { better_lower = to_string (member "better" m) = "lower"; bound = to_float (member "bound" m) } ))
    (Sim.Jin.to_list (Sim.Jin.member "end_to_end" j))

(* The end-to-end values of each workload in a results file. *)
let read_results path =
  let j = Sim.Jin.parse (In_channel.with_open_text path In_channel.input_all) in
  match Sim.Jin.member "workloads" j with
  | Sim.Jin.Obj ws ->
      List.map
        (fun (w, wj) ->
          match Sim.Jin.member "end_to_end" wj with
          | Sim.Jin.Obj ms -> (w, List.map (fun (n, m) -> (n, Sim.Jin.to_float (Sim.Jin.member "value" m))) ms)
          | _ -> raise (Sim.Jin.Parse_error (path ^ ": end_to_end is not an object")))
        ws
  | _ -> raise (Sim.Jin.Parse_error (path ^ ": workloads is not an object"))

type verdict = Improved | Unchanged | Regressed | Unresolved

let verdict_name = function
  | Improved -> "improved"
  | Unchanged -> "unchanged"
  | Regressed -> "regressed"
  | Unresolved -> "unresolved"

(* A change counts only beyond the metric's bound; when either side's
   quartile spread is wider than the bound the pair is unresolved,
   unless every run of B beats every run of A. *)
let judge b ~a ~b:bv =
  let ma = median a and mb = median bv in
  let rel x = if ma = 0. then (if x = 0. then 0. else Float.infinity) else x /. Float.abs ma in
  let worse x = if b.better_lower then rel x else -.rel x in
  let spread l =
    let q1, q3 = quartiles l in
    rel (q3 -. q1)
  in
  let all_better =
    let best_a = if b.better_lower then List.fold_left Float.min Float.infinity a else List.fold_left Float.max Float.neg_infinity a in
    List.for_all (fun v -> if b.better_lower then v < best_a else v > best_a) bv
  in
  let change = worse (mb -. ma) in
  if Float.max (spread a) (spread bv) > b.bound then if all_better then Improved else Unresolved
  else if change > b.bound then Regressed
  else if change < -.b.bound then Improved
  else Unchanged

(* Each side is one or more results files, one per invocation: the
   median and quartiles of a side are taken over its files. *)
let compare_files ~bounds_path a_paths b_paths =
  let bounds = read_bounds bounds_path in
  let a = List.map read_results a_paths and b = List.map read_results b_paths in
  let side files w name =
    List.filter_map
      (fun f -> Option.bind (List.assoc_opt w f) (fun ms -> List.assoc_opt name ms))
      files
  in
  let workloads = List.sort_uniq compare (List.concat_map (List.map fst) (a @ b)) in
  let regressed = ref false in
  Printf.printf "%-11s %-20s %-36s %-36s %8s %6s  %s\n" "workload" "metric" "A median [q1, q3]"
    "B median [q1, q3]" "change" "bound" "verdict";
  List.iter
    (fun w ->
      List.iter
        (fun (m : Catalog.e2e) ->
          match (side a w m.name, side b w m.name, List.assoc_opt m.name bounds) with
          | _, _, None -> harness_error "%s: no bound for %s" bounds_path m.name
          | [], _, _ | _, [], _ -> Printf.printf "%-11s %-20s missing on one side\n" w m.name
          | xa, xb, Some bd ->
              let v = judge bd ~a:xa ~b:xb in
              if v = Regressed then regressed := true;
              let show l =
                let q1, q3 = quartiles l in
                Printf.sprintf "%.6g [%.6g, %.6g]" (median l) q1 q3
              in
              let ma = median xa in
              let change = if ma = 0. then 0. else (median xb -. ma) /. Float.abs ma in
              (* A virtual metric that moves at all was changed by the
                 code, not by noise. *)
              let flag = if m.exact && median xa <> median xb then " (virtual metric changed)" else "" in
              Printf.printf "%-11s %-20s %-36s %-36s %+7.2f%% %5.1f%%  %s%s\n" w m.name (show xa) (show xb)
                (100. *. change) (100. *. bd.bound) (verdict_name v) flag)
        Catalog.end_to_end)
    workloads;
  if !regressed then 1 else 0

(* ------------------------------------------------------------------ *)
(* Command line                                                       *)
(* ------------------------------------------------------------------ *)

let usage =
  "usage: tango_bench --workload W --seed N --seconds S --trace 0|1 [--out F]\n\
  \       tango_bench run --seed N [--seconds S] [--workload W]... [--out F]\n\
  \       tango_bench compare A.json... [-- B.json...] [--bounds BENCHMARK.json]\n\
   workloads: "
  ^ String.concat ", " (List.map Workload.to_string Workload.all)

let workload_arg s =
  match Workload.of_string s with Some w -> w | None -> raise (Arg.Bad ("unknown workload " ^ s))

let parse argv spec =
  let anon = ref [] in
  Arg.parse_argv ~current:(ref 0) argv spec (fun a -> anon := a :: !anon) usage;
  List.rev !anon

let main argv =
  let seed = ref 1 and seconds = ref 10. and trace = ref 0 and out = ref None in
  let workloads = ref [] and window = ref 0. and bounds_path = ref "BENCHMARK.json" in
  let common =
    [
      ("--seed", Arg.Set_int seed, "N  input seed");
      ("--seconds", Arg.Set_float seconds, "S  wall-time budget of the repetitions");
      ("--workload", Arg.String (fun s -> workloads := workload_arg s :: !workloads), "W  workload");
      ("--out", Arg.String (fun f -> out := Some f), "F  write the results file");
    ]
  in
  let shift a = Array.append [| a.(0) |] (Array.sub a 2 (Array.length a - 2)) in
  let sub = if Array.length argv > 1 then argv.(1) else "" in
  match sub with
  | "--child" ->
      let a = shift argv in
      let w = workload_arg (if Array.length a > 1 then a.(1) else "") in
      ignore
        (parse (shift a)
           [
             ("--seed", Arg.Set_int seed, "");
             ("--window-us", Arg.Set_float window, "");
             ("--trace", Arg.Set_int trace, "");
           ]);
      child w ~seed:!seed ~window_us:!window ~traced:(!trace = 1);
      0
  | "compare" -> (
      let files = parse (shift argv) [ ("--bounds", Arg.Set_string bounds_path, "F  bounds file") ] in
      let rec split acc = function "--" :: rest -> Some (List.rev acc, rest) | f :: rest -> split (f :: acc) rest | [] -> None in
      match (split [] files, files) with
      | Some ((_ :: _ as a), (_ :: _ as b)), _ -> compare_files ~bounds_path:!bounds_path a b
      | None, [ a; b ] -> compare_files ~bounds_path:!bounds_path [ a ] [ b ]
      | _ -> raise (Arg.Bad "compare takes two result files, or A files -- B files"))
  | "run" ->
      if parse (shift argv) common <> [] then raise (Arg.Bad "unexpected argument");
      let ws = match List.rev !workloads with [] -> Workload.all | ws -> ws in
      let rs = measure ws ~seed:!seed ~seconds:!seconds ~trace:true in
      let metrics =
        List.concat_map
          (fun r ->
            List.map (fun (n, v, u) -> (Workload.to_string r.w ^ "/" ^ n, v, u)) (e2e_metrics r @ layer_metrics r))
          rs
      in
      report rs ~seed:!seed ~seconds:!seconds ~out:!out ~metrics
  | _ ->
      let spec = common @ [ ("--trace", Arg.Set_int trace, "0|1  report the per-layer metrics") ] in
      if parse argv spec <> [] then raise (Arg.Bad "unexpected argument");
      let w = match !workloads with [ w ] -> w | _ -> raise (Arg.Bad "name exactly one --workload") in
      let traced = !trace = 1 in
      let rs = measure [ w ] ~seed:!seed ~seconds:!seconds ~trace:traced in
      let r = List.hd rs in
      report rs ~seed:!seed ~seconds:!seconds ~out:!out ~metrics:(if traced then layer_metrics r else e2e_metrics r)

let () =
  let code =
    try main Sys.argv with
    | Arg.Bad msg | Arg.Help msg ->
        prerr_endline msg;
        2
    | Harness_error msg | Sim.Jin.Parse_error msg | Sys_error msg | Failure msg | Invalid_argument msg ->
        prerr_endline ("tango_bench: " ^ msg);
        2
  in
  exit code
