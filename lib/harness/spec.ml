(* Online temporal spec machines (DESIGN.md §12).

   Each armed machine subscribes to the Sim.Announce instrumentation
   bus and evaluates one temporal property in virtual time, {e during}
   the run — a wedge fires the moment its deadline passes instead of
   surfacing as a mysterious non-convergence at campaign end.

   Liveness clock semantics: obligations are suspended while any
   repairable fault is outstanding; once the system is whole, an
   obligation is due [deadline] after max(its own start, the last
   repair). This matches the fuzzer's make-whole contract — liveness
   is only promised of a repaired system. *)

type spec = Commit_liveness | Read_committed | Reconfig_termination

let all = [ Commit_liveness; Read_committed; Reconfig_termination ]

let name = function
  | Commit_liveness -> "commit-liveness"
  | Read_committed -> "read-committed"
  | Reconfig_termination -> "reconfig-termination"

let of_name = function
  | "commit-liveness" -> Commit_liveness
  | "read-committed" -> Read_committed
  | "reconfig-termination" -> Reconfig_termination
  | s -> invalid_arg (Printf.sprintf "Spec.of_name: unknown spec %S" s)

type firing = { sp_spec : string; sp_time_us : float; sp_detail : string }

(* One acked append's readability obligation, keyed (stream, offset). *)
type obligation = {
  ob_stream : int;
  ob_offset : int;
  ob_acked_us : float;
  mutable ob_done : bool;
  mutable ob_fired : bool;
}

type reconfig = {
  rc_kind : string;
  rc_started_us : float;
  mutable rc_done : bool;
  mutable rc_fired : bool;
}

let firings_cap = 50 (* per spec; a wedge strands many obligations at once *)

type t = {
  on_liveness : bool;
  on_read_committed : bool;
  on_termination : bool;
  deadline_us : float;
  follow : unit -> (int * int) list;
  confirm : stream:int -> offset:int -> bool;
  tracked : (int, unit) Hashtbl.t;  (* streams the follower can discharge *)
  obligations : (int * int, obligation) Hashtbl.t;
  mutable ob_order : obligation list;  (* newest first *)
  decided : (string * int, unit) Hashtbl.t;  (* (client, pos) decision seen *)
  outstanding : (string, int) Hashtbl.t;  (* injected-and-unrepaired faults *)
  mutable last_repair_us : float;
  mutable reconfigs : reconfig list;  (* newest first *)
  mutable firings : firing list;  (* newest first *)
  mutable fired_counts : (string * int) list;
}

let fired_count t sname =
  match List.assoc_opt sname t.fired_counts with Some n -> n | None -> 0

let fire t spec ~time detail =
  let sname = name spec in
  let n = fired_count t sname in
  if n < firings_cap then begin
    t.fired_counts <- (sname, n + 1) :: List.remove_assoc sname t.fired_counts;
    t.firings <- { sp_spec = sname; sp_time_us = time; sp_detail = detail } :: t.firings;
    if Sim.Announce.active () then
      Sim.Announce.emit (Sim.Announce.Spec_fired { spec = sname; detail });
    (* One snapshot per spec per run: the first firing captures the
       interesting window; later firings of the same machine are almost
       always the same wedge. *)
    if n = 0 && Sim.Flight.enabled () then Sim.Flight.snapshot ~reason:("spec:" ^ sname)
  end

let suspended t = Hashtbl.length t.outstanding > 0

(* ------------------------------------------------------------------ *)
(* Event handling (synchronous, at the emission point)                *)
(* ------------------------------------------------------------------ *)

let note_injected t key =
  let n = match Hashtbl.find_opt t.outstanding key with Some n -> n | None -> 0 in
  Hashtbl.replace t.outstanding key (n + 1)

let note_repaired t key =
  (match Hashtbl.find_opt t.outstanding key with
  | Some n when n > 1 -> Hashtbl.replace t.outstanding key (n - 1)
  | Some _ -> Hashtbl.remove t.outstanding key
  | None -> ());
  t.last_repair_us <- Sim.Engine.now ()

let on_event t (ev : Sim.Announce.event) =
  match ev with
  | Sim.Announce.Append_acked { client = _; offset; streams } ->
      if t.on_liveness then
        List.iter
          (fun sid ->
            if Hashtbl.mem t.tracked sid && not (Hashtbl.mem t.obligations (sid, offset)) then begin
              let ob =
                {
                  ob_stream = sid;
                  ob_offset = offset;
                  ob_acked_us = Sim.Engine.now ();
                  ob_done = false;
                  ob_fired = false;
                }
              in
              Hashtbl.replace t.obligations (sid, offset) ob;
              t.ob_order <- ob :: t.ob_order
            end)
          streams
  | Sim.Announce.Commit_decided { client; pos; committed = _ } ->
      Hashtbl.replace t.decided (client, pos) ()
  | Sim.Announce.Commit_applied { client; pos } ->
      if t.on_read_committed && not (Hashtbl.mem t.decided (client, pos)) then begin
        (* Flag once per (client, pos): the same blind apply would
           otherwise fire on every re-application. *)
        Hashtbl.replace t.decided (client, pos) ();
        fire t Read_committed ~time:(Sim.Engine.now ())
          (Printf.sprintf "%s applied commit @%d with its decision still undecided" client pos)
      end
  | Sim.Announce.Reconfig_started { kind } ->
      if t.on_termination then
        t.reconfigs <-
          { rc_kind = kind; rc_started_us = Sim.Engine.now (); rc_done = false; rc_fired = false }
          :: t.reconfigs
  | Sim.Announce.Reconfig_installed { kind; epoch = _ } ->
      (* Reconfigurations are serialized per cluster: the oldest open
         operation of this kind is the one that finished. *)
      let rec close = function
        | [] -> ()
        | rc :: rest ->
            if (not rc.rc_done) && String.equal rc.rc_kind kind then
              if List.exists (fun o -> (not o.rc_done) && String.equal o.rc_kind kind) rest then
                close rest
              else rc.rc_done <- true
            else close rest
      in
      close t.reconfigs
  | Sim.Announce.Fault_injected { key; _ } -> note_injected t key
  | Sim.Announce.Fault_repaired { key; _ } -> note_repaired t key
  | Sim.Announce.Custom_fault { name } -> (
      (* An SSD failure is a repairable fault; takeovers and scaling
         are not faults at all. *)
      match Chaos.op_of_name name with
      | Some (Ssd_fail h) -> note_injected t ("ssd:" ^ h)
      | Some (Ssd_repair h) -> note_repaired t ("ssd:" ^ h)
      | Some (Replace_sequencer | Scale_out _ | Scale_in _) | None -> ())
  | _ -> ()

(* ------------------------------------------------------------------ *)
(* Deadline evaluation (checker fiber / drain)                        *)
(* ------------------------------------------------------------------ *)

let discharge t =
  List.iter
    (fun (sid, off) ->
      match Hashtbl.find_opt t.obligations (sid, off) with
      | Some ob -> ob.ob_done <- true
      | None -> ())
    (t.follow ())

let check_deadlines t =
  if not (suspended t) then begin
    let now = Sim.Engine.now () in
    if t.on_liveness then
      List.iter
        (fun ob ->
          if (not ob.ob_done) && not ob.ob_fired then begin
            let due = Float.max ob.ob_acked_us t.last_repair_us +. t.deadline_us in
            if now > due then
              (* The incremental follower can hold a stale verdict: a
                 hole it junk-classified during a fault can later lose
                 to the real write through rebuild. Readability is
                 promised to a fresh reader, so give the obligation one
                 from-scratch look before condemning the run. *)
              if t.confirm ~stream:ob.ob_stream ~offset:ob.ob_offset then ob.ob_done <- true
              else begin
              ob.ob_fired <- true;
              fire t Commit_liveness ~time:now
                (Printf.sprintf
                   "acked append @%d on stream %d still unreadable %.0fus past its deadline \
                    (acked %.0fus, last repair %.0fus, deadline %.0fus)"
                   ob.ob_offset ob.ob_stream (now -. due) ob.ob_acked_us t.last_repair_us
                   t.deadline_us)
            end
          end)
        (List.rev t.ob_order);
    if t.on_termination then
      List.iter
        (fun rc ->
          if (not rc.rc_done) && not rc.rc_fired then begin
            let due = Float.max rc.rc_started_us t.last_repair_us +. t.deadline_us in
            if now > due then begin
              rc.rc_fired <- true;
              fire t Reconfig_termination ~time:now
                (Printf.sprintf
                   "%s reconfiguration started at %.0fus installed no epoch within %.0fus"
                   rc.rc_kind rc.rc_started_us t.deadline_us)
            end
          end)
        (List.rev t.reconfigs)
  end

let next_due t =
  if suspended t then None
  else begin
    let due = ref infinity in
    let consider start = due := Float.min !due (Float.max start t.last_repair_us +. t.deadline_us) in
    if t.on_liveness then
      List.iter
        (fun ob -> if (not ob.ob_done) && not ob.ob_fired then consider ob.ob_acked_us)
        t.ob_order;
    if t.on_termination then
      List.iter
        (fun rc -> if (not rc.rc_done) && not rc.rc_fired then consider rc.rc_started_us)
        t.reconfigs;
    if Float.is_finite !due then Some !due else None
  end

let check_every_us = 10_000.

let arm ~specs ?(deadline_us = 400_000.) ~streams ~follow ~confirm () =
  let t =
    {
      on_liveness = List.mem Commit_liveness specs;
      on_read_committed = List.mem Read_committed specs;
      on_termination = List.mem Reconfig_termination specs;
      deadline_us;
      follow;
      confirm;
      tracked = Hashtbl.create 8;
      obligations = Hashtbl.create 256;
      ob_order = [];
      decided = Hashtbl.create 256;
      outstanding = Hashtbl.create 8;
      last_repair_us = 0.;
      reconfigs = [];
      firings = [];
      fired_counts = [];
    }
  in
  List.iter (fun sid -> Hashtbl.replace t.tracked sid ()) streams;
  Sim.Announce.subscribe (on_event t);
  (* The checker fiber never exits: the engine drops pending fibers
     once the main fiber returns, so an idle monitor costs one timer
     event per check interval and nothing after the run. *)
  Sim.Engine.spawn (fun () ->
      let rec loop () =
        Sim.Engine.sleep check_every_us;
        discharge t;
        check_deadlines t;
        loop ()
      in
      loop ());
  t

let drain t =
  discharge t;
  check_deadlines t;
  let rec loop () =
    match next_due t with
    | None -> ()
    | Some due ->
        let now = Sim.Engine.now () in
        if due >= now then Sim.Engine.sleep (due -. now +. 1.);
        discharge t;
        check_deadlines t;
        loop ()
  in
  loop ()

let firings t = List.rev t.firings

let violations t =
  List.rev_map
    (fun f ->
      {
        Verifier.v_oracle = "spec:" ^ f.sp_spec;
        v_detail = Printf.sprintf "t=%.0fus: %s" f.sp_time_us f.sp_detail;
      })
    t.firings

let firing_json f =
  Sim.Jout.obj
    [
      ("spec", Sim.Jout.str f.sp_spec);
      ("t_us", Sim.Jout.flt f.sp_time_us);
      ("detail", Sim.Jout.str f.sp_detail);
    ]
