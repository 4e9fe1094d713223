type verdict = Deliver of float | Drop

type action =
  | Crash of string
  | Restart of string
  | Partition of string list list
  | Heal
  | Degrade of { d_src : string; d_dst : string; d_drop : float; d_delay_us : float; d_jitter_us : float }
  | Clear_edge of string * string
  | Custom of string

type event = { ev_time : float; ev_label : string }

type edge = { e_drop : float; e_delay_us : float; e_jitter_us : float }

(* Host names are interned once, process-wide, so the per-message
   checks below index arrays instead of hashing strings. Id 0 is the
   edge wildcard ["*"]; hosts count up from 1. *)
let ids : (string, int) Hashtbl.t =
  let tbl = Hashtbl.create 64 in
  Hashtbl.add tbl "*" 0;
  tbl

let host_id name =
  match Hashtbl.find_opt ids name with
  | Some id -> id
  | None ->
      let id = Hashtbl.length ids in
      Hashtbl.add ids name id;
      id

(* The empty cell of an edge row; compared by [==]. *)
let no_edge = { e_drop = 0.; e_delay_us = 0.; e_jitter_us = 0. }

(* All state is indexed by host id and grown on demand: an id past an
   array's end reads as the default (alive, in the implicit component,
   no rule). *)
type t = {
  frng : Rng.t;
  custom : string -> bool;  (* runs a [Custom] action by name; [false]: it did nothing *)
  mutable crashed : bool array;
  mutable components : string list list;  (* [] = fully connected *)
  mutable component : int array;  (* the first listed component holding the host, or -1 *)
  mutable edges : edge array array;  (* [src].(dst), [no_edge] where none *)
  mutable log : event list;  (* newest first *)
}

let no_interpreter name =
  invalid_arg (Printf.sprintf "Fault: custom action %S, but the controller has no interpreter" name)

let create ?(seed = 0) ?(custom = no_interpreter) () =
  {
    frng = Rng.create seed;
    custom;
    crashed = [||];
    components = [];
    component = [||];
    edges = [||];
    log = [];
  }

(* [a] grown to cover index [i], new cells [fill]. *)
let cover a i fill =
  let n = Array.length a in
  if i < n then a
  else begin
    let b = Array.make (max (i + 1) (2 * n)) fill in
    Array.blit a 0 b 0 n;
    b
  end

let is_crashed_id t id = id < Array.length t.crashed && Array.unsafe_get t.crashed id

let set_crashed t id down =
  t.crashed <- cover t.crashed id false;
  t.crashed.(id) <- down

let component_of t id =
  if id < Array.length t.component then Array.unsafe_get t.component id else -1

(* Hosts absent from every component share one implicit component (-1),
   so a partition plan only has to name the minority side. A host named
   in two components belongs to the first. *)
let set_partition t cs =
  let named = List.map (List.map host_id) cs in
  let comp = Array.make (Hashtbl.length ids) (-1) in
  List.iteri (fun i c -> List.iter (fun id -> if comp.(id) < 0 then comp.(id) <- i) c) named;
  t.components <- cs;
  t.component <- comp

let partitioned_id t a b = component_of t a <> component_of t b

let edge_at t s d =
  if s < Array.length t.edges then begin
    let row = Array.unsafe_get t.edges s in
    if d < Array.length row then Array.unsafe_get row d else no_edge
  end
  else no_edge

let set_edge t s d e =
  t.edges <- cover t.edges s [||];
  let row = cover t.edges.(s) d no_edge in
  t.edges.(s) <- row;
  row.(d) <- e

(* [false] when the edge had no rule to clear. *)
let clear_edge_at t s d =
  let ruled = edge_at t s d != no_edge in
  if ruled then t.edges.(s).(d) <- no_edge;
  ruled

(* The most specific rule for the edge: exact, then [src -> *], then
   [* -> dst], then [* -> *]. *)
let edge_rule t s d =
  let e = edge_at t s d in
  if e != no_edge then e
  else
    let e = edge_at t s 0 in
    if e != no_edge then e
    else
      let e = edge_at t 0 d in
      if e != no_edge then e else edge_at t 0 0

(* One verdict per message direction: [true] to deliver, with the extra
   delay stored in [a.(i)] (a float-array slot, so none is boxed).
   Nothing is hashed or built. The controller's own rng is drawn only
   when a matching edge rule needs randomness, so an installed but
   quiescent controller perturbs nothing. *)
let judge_id t ~src ~dst a i =
  if is_crashed_id t src || is_crashed_id t dst || partitioned_id t src dst then false
  else
    let e = edge_rule t src dst in
    if e == no_edge then begin
      Float.Array.set a i 0.;
      true
    end
    else if e.e_drop > 0. && Rng.bool t.frng e.e_drop then false
    else begin
      if e.e_jitter_us > 0. then
        Float.Array.set a i (e.e_delay_us +. Rng.float t.frng e.e_jitter_us)
      else Float.Array.set a i e.e_delay_us;
      true
    end

let is_crashed t h = is_crashed_id t (host_id h)
let is_partitioned t = t.components <> []
let has_edge_rule t ~src ~dst = edge_at t (host_id src) (host_id dst) != no_edge

let verdict_slot = Float.Array.make 1 0.

let judge t ~src ~dst =
  if judge_id t ~src:(host_id src) ~dst:(host_id dst) verdict_slot 0 then
    Deliver (Float.Array.get verdict_slot 0)
  else Drop

let label = function
  | Crash h -> "crash " ^ h
  | Restart h -> "restart " ^ h
  | Partition cs -> "partition " ^ String.concat " | " (List.map (String.concat ",") cs)
  | Heal -> "heal"
  | Degrade { d_src; d_dst; d_drop; d_delay_us; d_jitter_us } ->
      Printf.sprintf "degrade %s->%s drop=%.3f delay=%.0f+%.0fus" d_src d_dst d_drop d_delay_us
        d_jitter_us
  | Clear_edge (s, d) -> Printf.sprintf "clear-edge %s->%s" s d
  | Custom name -> name

let host_of = function
  | Crash h | Restart h -> Some h
  | Degrade { d_src; _ } -> Some d_src
  | Partition _ | Heal | Clear_edge _ | Custom _ -> None

(* Apply [action] to the fault state; [false] when it changed nothing:
   a recovery whose fault is no longer in force (restarting a live host,
   healing an unpartitioned network, clearing an edge with no rule), or
   a custom action its interpreter skipped. *)
let took_effect t = function
  | Crash h ->
      set_crashed t (host_id h) true;
      true
  | Restart h ->
      let id = host_id h in
      let down = is_crashed_id t id in
      if down then set_crashed t id false;
      down
  | Partition cs ->
      set_partition t cs;
      true
  | Heal ->
      let split = is_partitioned t in
      if split then set_partition t [];
      split
  | Degrade { d_src; d_dst; d_drop; d_delay_us; d_jitter_us } ->
      set_edge t (host_id d_src) (host_id d_dst)
        { e_drop = d_drop; e_delay_us = d_delay_us; e_jitter_us = d_jitter_us };
      true
  | Clear_edge (s, d) -> clear_edge_at t (host_id s) (host_id d)
  | Custom name -> t.custom name

let apply t action =
  if took_effect t action then begin
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
        | Custom name -> Custom_fault { name })
    end;
    Metrics.incr (Metrics.counter ?host:(host_of action) "fault.injected");
    t.log <- { ev_time = Engine.now (); ev_label = what } :: t.log
  end

let crash t h = apply t (Crash h)
let restart t h = apply t (Restart h)
let partition t cs = apply t (Partition cs)
let heal t = apply t Heal

let degrade t ~src ~dst ?(drop = 0.) ?(delay_us = 0.) ?(jitter_us = 0.) () =
  apply t (Degrade { d_src = src; d_dst = dst; d_drop = drop; d_delay_us = delay_us; d_jitter_us = jitter_us })

let clear_edge t ~src ~dst = apply t (Clear_edge (src, dst))

let schedule t ~at action =
  ignore
    (Engine.schedule ~after:(Float.max 0. (at -. Engine.now ())) (fun () -> apply t action)
      : Engine.timer)

let plan t actions = List.iter (fun (at, action) -> schedule t ~at action) actions

let events t = List.rev t.log

(* ------------------------------------------------------------------ *)
(* Plans as data: printing, serialization                             *)
(* ------------------------------------------------------------------ *)

let pp_action ppf a = Format.pp_print_string ppf (label a)

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
  | Custom name -> [ ("kind", Jout.str "custom"); ("name", Jout.str name) ]

let encode_plan p =
  Jout.obj
    [
      ("version", string_of_int plan_version);
      ( "events",
        Jout.arr (List.map (fun (at, a) -> Jout.obj (("at", Jout.exact at) :: encode_action a)) p) );
    ]

let decode_action v =
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
  | "custom" -> Custom (str "name")
  | k -> invalid_arg (Printf.sprintf "Fault.decode_plan: unknown action kind %S" k)

let decode_plan_value doc =
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
      (at, decode_action ev))
    (Jin.to_list (Jin.member "events" doc))

let decode_plan s = decode_plan_value (Jin.parse s)
