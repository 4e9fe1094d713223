(* Incident flight recorder: a bounded per-host ring of recent
   structured events (span closes, metric writes, and every Announce
   milestone). Recording is one branch when disabled; when enabled it
   writes into preallocated parallel arrays (no per-event record — a
   mixed record with mutable float fields would box every store).
   [snapshot] freezes the rings into a JSON string at incident time,
   because the rings keep rolling afterwards. *)

type kind = Span_close | Metric | Fault | Alert | Milestone

let kind_code = function Span_close -> 0 | Metric -> 1 | Fault -> 2 | Alert -> 3 | Milestone -> 4
let kind_name = function
  | 0 -> "span"
  | 1 -> "metric"
  | 2 -> "fault"
  | 3 -> "alert"
  | _ -> "milestone"

type ring = {
  r_host : string;
  times : float array;
  values : float array;
  kinds : int array;
  names : string array;
  mutable head : int;  (* next write slot *)
  mutable total : int;  (* events ever recorded on this host *)
}

type state = {
  rings : (string, ring) Hashtbl.t;
  mutable snaps : string list;  (* incident documents, newest first *)
  mutable n_snaps : int;
}

let fresh () = { rings = Hashtbl.create 16; snaps = []; n_snaps = 0 }
let store = Engine.per_run fresh
let state () = Engine.this_run store

let ring_cap = 256
let max_snaps = 16

let new_ring st host =
  let r =
    {
      r_host = host;
      times = Array.make ring_cap 0.;
      values = Array.make ring_cap 0.;
      kinds = Array.make ring_cap 0;
      names = Array.make ring_cap "";
      head = 0;
      total = 0;
    }
  in
  Hashtbl.replace st.rings host r;
  r

let push ~host kind ~name ~value =
  let st = state () in
  let r = match Hashtbl.find st.rings host with r -> r | exception Not_found -> new_ring st host in
  let i = r.head in
  r.times.(i) <- Engine.now ();
  r.values.(i) <- value;
  r.kinds.(i) <- kind_code kind;
  r.names.(i) <- name;
  r.head <- (if i + 1 = Array.length r.times then 0 else i + 1);
  r.total <- r.total + 1

(* The recorder's view of the milestone stream: a fault action keeps its
   full label as the event name, an alert its spec or monitor name; any
   other milestone is recorded under its tag with one telling number. *)
let on_milestone (ev : Announce.event) =
  let component, tag = Announce.classify ev in
  let h = Announce.host ev in
  let host = if String.equal h Announce.no_host then component else h in
  match ev with
  | Fault_injected { detail; _ } | Fault_repaired { detail; _ } ->
      push ~host Fault ~name:detail ~value:0.
  | Custom_fault { name } -> push ~host Fault ~name ~value:0.
  | Spec_fired { spec; _ } -> push ~host Alert ~name:spec ~value:0.
  | Slo_alert { monitor; burn_fast; _ } -> push ~host Alert ~name:monitor ~value:burn_fast
  | _ ->
      let v =
        match ev with
        | Append_acked { offset = v; _ }
        | Offset_readable { offset = v; _ }
        | Hole_filled { offset = v; _ }
        | Commit_decided { pos = v; _ }
        | Commit_applied { pos = v; _ }
        | Commit_parked { pos = v; _ }
        | Decision_timeout { pos = v; _ }
        | Epoch_adopted { epoch = v; _ }
        | Reconfig_installed { epoch = v; _ }
        | Tail_rebuilt { tail = v; _ }
        | Prefix_lost { segment = v; _ } ->
            v
        | _ -> 0
      in
      push ~host Milestone ~name:tag ~value:(float_of_int v)

(* Sticky, like the Span enabled flag: survives engine resets so a
   harness can arm the recorder once for many runs. *)
let sink = Announce.sink on_milestone
let set_enabled b = Announce.arm sink b
let enabled () = sink.armed

let record ~host kind ~name ~value = if sink.armed then push ~host kind ~name ~value

let events_recorded () =
  Hashtbl.fold (fun _ r acc -> acc + r.total) (state ()).rings 0

(* -- snapshot rendering ------------------------------------------------ *)

let sorted_rings st =
  Hashtbl.fold (fun _ r acc -> r :: acc) st.rings []
  |> List.sort (fun a b -> compare a.r_host b.r_host)

(* Iterate a ring oldest -> newest. *)
let ring_iter r f =
  let cap = Array.length r.times in
  let len = if r.total < cap then r.total else cap in
  let first = if r.total < cap then 0 else r.head in
  for k = 0 to len - 1 do
    let i = (first + k) mod cap in
    f r.times.(i) r.kinds.(i) r.names.(i) r.values.(i)
  done

let render_json st ~reason ~time =
  let hosts =
    List.map
      (fun r ->
        let events = ref [] in
        ring_iter r (fun t k n v ->
            events :=
              Jout.obj
                [
                  ("t_us", Jout.flt t);
                  ("kind", Jout.str (kind_name k));
                  ("name", Jout.str n);
                  ("value", Jout.flt v);
                ]
              :: !events);
        Jout.obj
          [
            ("host", Jout.str r.r_host);
            ("recorded", string_of_int r.total);
            ("events", Jout.arr (List.rev !events));
          ])
      (sorted_rings st)
  in
  Jout.obj
    [ ("reason", Jout.str reason); ("t_us", Jout.flt time); ("hosts", Jout.arr hosts) ]

let snapshot ~reason =
  if sink.armed then begin
    let st = state () in
    if st.n_snaps < max_snaps then begin
      (* Oracle checks run inside the engine, but terminal blame (a
         deadlock, a horizon overrun) is assigned after the run has
         unwound — stamp those snapshots at 0. *)
      let time = try Engine.now () with Invalid_argument _ -> 0. in
      st.snaps <- render_json st ~reason ~time :: st.snaps;
      st.n_snaps <- st.n_snaps + 1
    end
  end

let snapshots () = List.rev (state ()).snaps
let snapshot_count () = (state ()).n_snaps

let dump_json () =
  let st = state () in
  Jout.obj
    [
      ("snapshots", Jout.arr (List.rev st.snaps));
    ]
