module Jout = Sim.Jout
module Jin = Sim.Jin

let schema_version = 4

type perf = { wall_s : float; gc_minor_words : float; gc_major_words : float }

type scenario = {
  sc_name : string;
  sc_seed : int;
  sc_params : (string * string) list;
  sc_summary : (string * float) list;
  sc_virtual_end_us : float;
  sc_metrics_json : string;
  sc_perf : perf option;
  sc_timeseries_json : string option;  (* v3: Sim.Timeseries.to_json *)
  sc_alerts_json : string option;  (* v3: Sim.Slo.alerts_json *)
  sc_violations : (string * string) list;  (* v4: (oracle, detail) *)
  sc_spec_firings_json : string option;  (* v4: array of Spec.firing_json *)
  sc_flight_json : string option;  (* v4: Sim.Flight.dump_json *)
  sc_spans_json : string option;  (* v4: Sim.Span.capture's trace_event object *)
}

let on = ref false
let scenarios : scenario list ref = ref []  (* newest first *)

let enable () = on := true
let enabled () = !on
let clear () = scenarios := []

let add_scenario ~name ~seed ?(params = []) ?(summary = []) ?perf ?timeseries_json ?alerts_json
    ?(violations = []) ?spec_firings_json ?flight_json ?spans_json ~virtual_end_us ~metrics_json () =
  if !on then
    scenarios :=
      {
        sc_name = name;
        sc_seed = seed;
        sc_params = params;
        sc_summary = summary;
        sc_virtual_end_us = virtual_end_us;
        sc_metrics_json = metrics_json;
        sc_perf = perf;
        sc_timeseries_json = timeseries_json;
        sc_alerts_json = alerts_json;
        sc_violations = violations;
        sc_spec_firings_json = spec_firings_json;
        sc_flight_json = flight_json;
        sc_spans_json = spans_json;
      }
      :: !scenarios

let with_perf f =
  let w0 = Gc.minor_words () and j0 = (Gc.quick_stat ()).Gc.major_words in
  let t0 = Unix.gettimeofday () in
  let r = f () in
  let t1 = Unix.gettimeofday () in
  let w1 = Gc.minor_words () and j1 = (Gc.quick_stat ()).Gc.major_words in
  (r, { wall_s = t1 -. t0; gc_minor_words = w1 -. w0; gc_major_words = j1 -. j0 })

let perf_json p =
  Jout.obj
    [
      ("wall_s", Jout.flt p.wall_s);
      ("gc_minor_words", Jout.flt p.gc_minor_words);
      ("gc_major_words", Jout.flt p.gc_major_words);
    ]

let violation_json (oracle, detail) =
  Jout.obj [ ("oracle", Jout.str oracle); ("detail", Jout.str detail) ]

let scenario_json sc =
  let section name = function None -> [] | Some j -> [ (name, j) ] in
  Jout.obj
    (List.concat
       [
         [
           ("name", Jout.str sc.sc_name);
           ("seed", string_of_int sc.sc_seed);
           ("params", Jout.obj (List.map (fun (k, v) -> (k, Jout.str v)) sc.sc_params));
           ("summary", Jout.obj (List.map (fun (k, v) -> (k, Jout.flt v)) sc.sc_summary));
           ("virtual_end_us", Jout.flt sc.sc_virtual_end_us);
         ];
         section "perf" (Option.map perf_json sc.sc_perf);
         [ ("metrics", sc.sc_metrics_json) ];
         section "timeseries" sc.sc_timeseries_json;
         section "alerts" sc.sc_alerts_json;
         (match sc.sc_violations with
         | [] -> []
         | vs -> [ ("violations", Jout.arr (List.map violation_json vs)) ]);
         section "spec_firings" sc.sc_spec_firings_json;
         section "flight" sc.sc_flight_json;
         section "spans" sc.sc_spans_json;
       ])

let to_json ?(tool = "tango-bench") () =
  Jout.obj
    [
      ("schema_version", string_of_int schema_version);
      ("tool", Jout.str tool);
      ("scenarios", Jout.arr (List.rev_map scenario_json !scenarios));
    ]

let write ?tool path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc (to_json ?tool ());
      output_char oc '\n')

(* ------------------------------------------------------------------ *)
(* Decoding                                                           *)
(* ------------------------------------------------------------------ *)

type parsed_scenario = {
  ps_name : string;
  ps_seed : int;
  ps_summary : (string * float) list;
  ps_perf : perf option;
  ps_has_timeseries : bool;
  ps_alerts : int option;  (* number of alert transitions, when present *)
  ps_violations : (string * string) list;
  ps_spec_firings : int option;
  ps_has_flight : bool;
  ps_span_events : int option;
}

type parsed = { p_version : int; p_tool : string; p_scenarios : parsed_scenario list }

let parse s =
  let doc = Jin.parse s in
  let p_version = Jin.to_int (Jin.member "schema_version" doc) in
  if p_version <> schema_version then
    raise (Jin.Parse_error (Printf.sprintf "Report.parse: unsupported schema_version %d" p_version));
  let p_tool = Jin.to_string (Jin.member "tool" doc) in
  let parse_perf v =
    {
      wall_s = Jin.to_float (Jin.member "wall_s" v);
      gc_minor_words = Jin.to_float (Jin.member "gc_minor_words" v);
      gc_major_words = Jin.to_float (Jin.member "gc_major_words" v);
    }
  in
  let count k v = Option.map (fun a -> List.length (Jin.to_list a)) (Jin.member_opt k v) in
  let parse_violation v =
    (Jin.to_string (Jin.member "oracle" v), Jin.to_string (Jin.member "detail" v))
  in
  let parse_scenario v =
    {
      ps_name = Jin.to_string (Jin.member "name" v);
      ps_seed = Jin.to_int (Jin.member "seed" v);
      ps_summary =
        (match Jin.member "summary" v with
        | Jin.Obj kvs -> List.map (fun (k, n) -> (k, Jin.to_float n)) kvs
        | _ -> raise (Jin.Parse_error "Report.parse: summary must be an object"));
      ps_perf = Option.map parse_perf (Jin.member_opt "perf" v);
      ps_has_timeseries = Option.is_some (Jin.member_opt "timeseries" v);
      ps_alerts = count "alerts" v;
      ps_violations =
        (match Jin.member_opt "violations" v with
        | None -> []
        | Some vs -> List.map parse_violation (Jin.to_list vs));
      ps_spec_firings = count "spec_firings" v;
      ps_has_flight = Option.is_some (Jin.member_opt "flight" v);
      ps_span_events = Option.bind (Jin.member_opt "spans" v) (count "traceEvents");
    }
  in
  {
    p_version;
    p_tool;
    p_scenarios = List.map parse_scenario (Jin.to_list (Jin.member "scenarios" doc));
  }
