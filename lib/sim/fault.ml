type verdict = Deliver of float | Drop

type action =
  | Crash of string
  | Restart of string
  | Partition of string list list
  | Heal
  | Degrade of { d_src : string; d_dst : string; d_drop : float; d_delay_us : float; d_jitter_us : float }
  | Clear_edge of string * string
  | Custom of string * (unit -> unit)

type event = { ev_time : float; ev_label : string }

type edge = { e_drop : float; e_delay_us : float; e_jitter_us : float }

type t = {
  frng : Rng.t;
  crashed : (string, unit) Hashtbl.t;
  mutable components : string list list;  (* [] = fully connected *)
  edges : (string * string, edge) Hashtbl.t;
  mutable log : event list;  (* newest first *)
}

let create ?(seed = 0) () =
  {
    frng = Rng.create seed;
    crashed = Hashtbl.create 8;
    components = [];
    edges = Hashtbl.create 8;
    log = [];
  }

(* Both checks run on every message; a quiet controller (nothing
   crashed, no edge rules) must not hash a host name or build a key. *)
let is_crashed t h = Hashtbl.length t.crashed > 0 && Hashtbl.mem t.crashed h

(* Hosts absent from every component share one implicit component, so a
   partition plan only has to name the minority side. *)
let component_of t h =
  let rec go i = function
    | [] -> -1
    | c :: rest -> if List.mem h c then i else go (i + 1) rest
  in
  go 0 t.components

let is_partitioned t = t.components <> []
let has_edge_rule t ~src ~dst = Hashtbl.mem t.edges (src, dst)

let partitioned t a b =
  match t.components with [] -> false | _ -> component_of t a <> component_of t b

let edge_rule t src dst =
  if Hashtbl.length t.edges = 0 then None
  else
    match Hashtbl.find_opt t.edges (src, dst) with
    | Some e -> Some e
    | None -> (
        match Hashtbl.find_opt t.edges (src, "*") with
        | Some e -> Some e
        | None -> (
            match Hashtbl.find_opt t.edges ("*", dst) with
            | Some e -> Some e
            | None -> Hashtbl.find_opt t.edges ("*", "*")))

(* One verdict per message direction. The controller's own rng is drawn
   only when a matching edge rule needs randomness, so an installed but
   quiescent controller perturbs nothing. *)
let judge t ~src ~dst =
  if is_crashed t src || is_crashed t dst then Drop
  else if partitioned t src dst then Drop
  else
    match edge_rule t src dst with
    | None -> Deliver 0.
    | Some e ->
        if e.e_drop > 0. && Rng.bool t.frng e.e_drop then Drop
        else if e.e_jitter_us > 0. then Deliver (e.e_delay_us +. Rng.float t.frng e.e_jitter_us)
        else Deliver e.e_delay_us

let label = function
  | Crash h -> "crash " ^ h
  | Restart h -> "restart " ^ h
  | Partition cs -> "partition " ^ String.concat " | " (List.map (String.concat ",") cs)
  | Heal -> "heal"
  | Degrade { d_src; d_dst; d_drop; d_delay_us; d_jitter_us } ->
      Printf.sprintf "degrade %s->%s drop=%.3f delay=%.0f+%.0fus" d_src d_dst d_drop d_delay_us
        d_jitter_us
  | Clear_edge (s, d) -> Printf.sprintf "clear-edge %s->%s" s d
  | Custom (name, _) -> name

let host_of = function
  | Crash h | Restart h -> Some h
  | Degrade { d_src; _ } -> Some d_src
  | Partition _ | Heal | Clear_edge _ | Custom _ -> None

let apply t action =
  (match action with
  | Crash h -> Hashtbl.replace t.crashed h ()
  | Restart h -> Hashtbl.remove t.crashed h
  | Partition cs -> t.components <- cs
  | Heal -> t.components <- []
  | Degrade { d_src; d_dst; d_drop; d_delay_us; d_jitter_us } ->
      Hashtbl.replace t.edges (d_src, d_dst)
        { e_drop = d_drop; e_delay_us = d_delay_us; e_jitter_us = d_jitter_us }
  | Clear_edge (s, d) -> Hashtbl.remove t.edges (s, d)
  | Custom (_, run) -> run ());
  let what = label action in
  if Announce.active () then begin
    let host = match host_of action with Some h -> h | None -> Announce.no_host in
    Announce.emit
      (match action with
      | Crash h -> Fault_injected { key = "crash:" ^ h; host; detail = what }
      | Restart h -> Fault_repaired { key = "crash:" ^ h; host; detail = what }
      | Partition _ -> Fault_injected { key = "partition"; host; detail = what }
      | Heal -> Fault_repaired { key = "partition"; host; detail = what }
      | Degrade { d_src; d_dst; _ } ->
          Fault_injected { key = "edge:" ^ d_src ^ ">" ^ d_dst; host; detail = what }
      | Clear_edge (s, d) -> Fault_repaired { key = "edge:" ^ s ^ ">" ^ d; host; detail = what }
      | Custom (name, _) -> Custom_fault { name })
  end;
  Metrics.incr (Metrics.counter ?host:(host_of action) "fault.injected");
  t.log <- { ev_time = Engine.now (); ev_label = what } :: t.log

let crash t h = apply t (Crash h)
let restart t h = apply t (Restart h)
let partition t cs = apply t (Partition cs)
let heal t = apply t Heal

let degrade t ~src ~dst ?(drop = 0.) ?(delay_us = 0.) ?(jitter_us = 0.) () =
  apply t (Degrade { d_src = src; d_dst = dst; d_drop = drop; d_delay_us = delay_us; d_jitter_us = jitter_us })

let clear_edge t ~src ~dst = apply t (Clear_edge (src, dst))

let schedule t ~at action =
  Engine.schedule ~after:(Float.max 0. (at -. Engine.now ())) (fun () -> apply t action)

let plan t actions = List.iter (fun (at, action) -> schedule t ~at action) actions

let events t = List.rev t.log

(* ------------------------------------------------------------------ *)
(* Plans as data: equality, printing, serialization                   *)
(* ------------------------------------------------------------------ *)

let equal_action a b =
  match (a, b) with
  | Crash x, Crash y | Restart x, Restart y -> String.equal x y
  | Partition xs, Partition ys -> List.equal (List.equal String.equal) xs ys
  | Heal, Heal -> true
  | Degrade d1, Degrade d2 ->
      String.equal d1.d_src d2.d_src
      && String.equal d1.d_dst d2.d_dst
      && Float.equal d1.d_drop d2.d_drop
      && Float.equal d1.d_delay_us d2.d_delay_us
      && Float.equal d1.d_jitter_us d2.d_jitter_us
  | Clear_edge (s1, e1), Clear_edge (s2, e2) -> String.equal s1 s2 && String.equal e1 e2
  (* Custom thunks compare by name: the closure is rebound from the
     name when a serialized plan is rehydrated, so the name is the
     action's whole identity. *)
  | Custom (n1, _), Custom (n2, _) -> String.equal n1 n2
  | (Crash _ | Restart _ | Partition _ | Heal | Degrade _ | Clear_edge _ | Custom _), _ -> false

let pp_action ppf a = Format.pp_print_string ppf (label a)

let equal_plan p1 p2 =
  List.equal (fun (t1, a1) (t2, a2) -> Float.equal t1 t2 && equal_action a1 a2) p1 p2

let pp_plan ppf p =
  Format.fprintf ppf "@[<v>";
  List.iteri
    (fun i (at, a) ->
      if i > 0 then Format.fprintf ppf "@,";
      Format.fprintf ppf "%10.1fus  %a" at pp_action a)
    p;
  Format.fprintf ppf "@]"

let plan_version = 1

let encode_action = function
  | Crash h -> [ ("kind", Jout.str "crash"); ("host", Jout.str h) ]
  | Restart h -> [ ("kind", Jout.str "restart"); ("host", Jout.str h) ]
  | Partition cs ->
      [
        ("kind", Jout.str "partition");
        ("components", Jout.arr (List.map (fun c -> Jout.arr (List.map Jout.str c)) cs));
      ]
  | Heal -> [ ("kind", Jout.str "heal") ]
  | Degrade { d_src; d_dst; d_drop; d_delay_us; d_jitter_us } ->
      [
        ("kind", Jout.str "degrade");
        ("src", Jout.str d_src);
        ("dst", Jout.str d_dst);
        ("drop", Jout.exact d_drop);
        ("delay_us", Jout.exact d_delay_us);
        ("jitter_us", Jout.exact d_jitter_us);
      ]
  | Clear_edge (s, d) ->
      [ ("kind", Jout.str "clear-edge"); ("src", Jout.str s); ("dst", Jout.str d) ]
  | Custom (name, _) -> [ ("kind", Jout.str "custom"); ("name", Jout.str name) ]

let encode_plan p =
  Jout.obj
    [
      ("version", string_of_int plan_version);
      ( "events",
        Jout.arr (List.map (fun (at, a) -> Jout.obj (("at", Jout.exact at) :: encode_action a)) p) );
    ]

let unbound_custom name () =
  invalid_arg (Printf.sprintf "Fault: custom action %S has no bound thunk" name)

let decode_action ~custom v =
  let str k = Jin.to_string (Jin.member k v) in
  let flt k = Jin.to_float (Jin.member k v) in
  match str "kind" with
  | "crash" -> Crash (str "host")
  | "restart" -> Restart (str "host")
  | "partition" ->
      Partition
        (List.map
           (fun c -> List.map Jin.to_string (Jin.to_list c))
           (Jin.to_list (Jin.member "components" v)))
  | "heal" -> Heal
  | "degrade" ->
      Degrade
        {
          d_src = str "src";
          d_dst = str "dst";
          d_drop = flt "drop";
          d_delay_us = flt "delay_us";
          d_jitter_us = flt "jitter_us";
        }
  | "clear-edge" -> Clear_edge (str "src", str "dst")
  | "custom" ->
      let name = str "name" in
      Custom (name, custom name)
  | k -> invalid_arg (Printf.sprintf "Fault.decode_plan: unknown action kind %S" k)

let decode_plan_value ?(custom = unbound_custom) doc =
  let version = Jin.to_int (Jin.member "version" doc) in
  if version <> plan_version then
    invalid_arg
      (Printf.sprintf "Fault.decode_plan: plan version %d, this build reads %d" version
         plan_version);
  List.map
    (fun ev ->
      let at = Jin.to_float (Jin.member "at" ev) in
      if not (Float.is_finite at && at >= 0.) then
        invalid_arg (Printf.sprintf "Fault.decode_plan: event at = %g, must be finite and >= 0" at);
      (at, decode_action ~custom ev))
    (Jin.to_list (Jin.member "events" doc))

let decode_plan ?custom s = decode_plan_value ?custom (Jin.parse s)
