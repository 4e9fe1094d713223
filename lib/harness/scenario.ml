(* Config-driven scenario driver: a named, versioned, serializable
   bundle of everything one fuzz case needs — topology and workload
   mix (the Fuzz.config), an explicit fault plan, the spec machines to
   arm, and optionally a failpoint. The JSON form is the only fault-case
   format: built-in matrices, hand-edited cases and the fuzzer's shrunk
   reproducers are all scenario files, the way the P exemplar bundles a
   logConfig with the monitors its test machine announces. *)

type t = {
  sc_name : string;
  sc_seed : int;
  sc_config : Fuzz.config;
  sc_plan : (float * Sim.Fault.action) list;
  sc_specs : Spec.spec list;
  sc_spec_deadline_us : float option;
  sc_failpoint : string option;
}

let version = 1

let encode sc =
  Sim.Jout.obj
    (List.concat
       [
         [
           ("version", string_of_int version);
           ("tool", Sim.Jout.str "tango-scenario");
           ("name", Sim.Jout.str sc.sc_name);
           ("seed", string_of_int sc.sc_seed);
           ("config", Fuzz.encode_config sc.sc_config);
           ("specs", Sim.Jout.arr (List.map (fun s -> Sim.Jout.str (Spec.name s)) sc.sc_specs));
         ];
         (match sc.sc_spec_deadline_us with
         | Some d -> [ ("spec_deadline_us", Sim.Jout.exact d) ]
         | None -> []);
         (match sc.sc_failpoint with
         | Some fp -> [ ("failpoint", Sim.Jout.str fp) ]
         | None -> []);
         [ ("plan", Sim.Fault.encode_plan sc.sc_plan) ];
       ])

let decode s =
  let doc = Sim.Jin.parse s in
  let v = Sim.Jin.to_int (Sim.Jin.member "version" doc) in
  if v <> version then
    invalid_arg
      (Printf.sprintf "Scenario.decode: scenario version %d, this build reads %d" v version);
  {
    sc_name = Sim.Jin.to_string (Sim.Jin.member "name" doc);
    sc_seed = Sim.Jin.to_int (Sim.Jin.member "seed" doc);
    sc_config = Fuzz.decode_config (Sim.Jin.member "config" doc);
    (* customs decode with placeholder thunks; {!Fuzz.run} rebinds them *)
    sc_plan = Sim.Fault.decode_plan_value (Sim.Jin.member "plan" doc);
    sc_specs =
      List.map
        (fun v -> Spec.of_name (Sim.Jin.to_string v))
        (Sim.Jin.to_list (Sim.Jin.member "specs" doc));
    sc_spec_deadline_us =
      (match Sim.Jin.member_opt "spec_deadline_us" doc with
      | Some v -> Some (Sim.Jin.to_float v)
      | None -> None);
    sc_failpoint =
      (match Sim.Jin.member_opt "failpoint" doc with
      | Some v -> Some (Sim.Jin.to_string v)
      | None -> None);
  }

let run ?capture_spans sc =
  Fuzz.run ?failpoint:sc.sc_failpoint ?capture_spans ~specs:sc.sc_specs
    ?spec_deadline_us:sc.sc_spec_deadline_us ~seed:sc.sc_seed sc.sc_config ~plan:sc.sc_plan

(* ------------------------------------------------------------------ *)
(* Built-in scenarios                                                 *)
(* ------------------------------------------------------------------ *)

(* {!Fuzz.run} rebinds every custom action against the live cluster. *)
let custom name =
  Sim.Fault.Custom
    (name, fun () -> invalid_arg (Printf.sprintf "Scenario: custom action %S was not rebound" name))

(* The repo's analog of the verified-log exemplar's producer takeover:
   one storage node is partitioned away, the sequencer is replaced
   {e while} the partition is up (the takeover's seal round must cope
   with an unreachable node), and the partition heals afterwards. A
   correct build sails through with every spec armed; the wedge-class
   regressions (lost rebuild scan, forgotten seal tail) fire
   commit-liveness mid-run. *)
let sequencer_takeover_under_partition =
  {
    sc_name = "sequencer-takeover-under-partition";
    sc_seed = 7;
    sc_config = { Fuzz.default_config with f_appends = 14; f_txs = 6 };
    sc_plan =
      [
        (25_000., Sim.Fault.Partition [ [ "storage-4" ] ]);
        (40_000., custom "replace-sequencer");
        (90_000., Sim.Fault.Heal);
      ];
    sc_specs = Spec.all;
    sc_spec_deadline_us = None;
    sc_failpoint = None;
  }

(* Minimal smoke: one crash/restart pair on a single chain, all specs
   armed. *)
let crash_restart_baseline =
  {
    sc_name = "crash-restart-baseline";
    sc_seed = 1;
    sc_config = { Fuzz.default_config with f_appends = 10; f_txs = 4 };
    sc_plan = [ (20_000., Sim.Fault.Crash "storage-2"); (55_000., Sim.Fault.Restart "storage-2") ];
    sc_specs = Spec.all;
    sc_spec_deadline_us = None;
    sc_failpoint = None;
  }

let builtins = [ sequencer_takeover_under_partition; crash_restart_baseline ]

let find name = List.find_opt (fun sc -> String.equal sc.sc_name name) builtins
