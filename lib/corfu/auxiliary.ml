type propose_result = Installed | Conflict of Projection.t
type await_request = { at_least : Types.epoch; wait_us : float }

(* A parked [await] caller. The install and the deadline race to fill
   [w_view]. An install that wins cancels the deadline's timer; a
   deadline that wins has fired, and the install finds [w_view] filled
   and does nothing. *)
type waiter = {
  w_at_least : Types.epoch;
  w_view : Projection.t Sim.Ivar.t;
  mutable w_timer : Sim.Engine.timer;
}

type t = {
  mutable views : Projection.t list;  (* newest first *)
  mutable waiters : waiter list;  (* newest first *)
  mutable listed : int;  (* length of [waiters] *)
  mutable live : int;  (* waiters not yet settled *)
  propose_svc : (Projection.t, propose_result) Sim.Net.service;
  await_svc : (await_request, Projection.t) Sim.Net.service;
}

let newest t = match t.views with v :: _ -> v | [] -> assert false

let settled w = Sim.Ivar.is_filled w.w_view

let settle t w p =
  if not (settled w) then begin
    t.live <- t.live - 1;
    Sim.Ivar.fill w.w_view p
  end

(* Wake, in arrival order, every parked caller the new view satisfies;
   settled waiters (their deadline passed) are dropped on the way.
   Dropping them at their deadlines instead would scan the list once
   per timeout: quadratic when hundreds of appends wait out one
   storage recovery. *)
let wake t (p : Projection.t) =
  if t.waiters <> [] then begin
    let due, parked =
      List.partition
        (fun w -> settled w || w.w_at_least <= p.Projection.epoch)
        (List.rev t.waiters)
    in
    t.waiters <- List.rev parked;
    t.listed <- List.length parked;
    List.iter
      (fun w ->
        if not (settled w) then begin
          ignore (Sim.Engine.cancel w.w_timer : bool);
          settle t w p
        end)
      due
  end

(* A proposal whose answer was lost is resent, and finds its own
   projection installed. The register is write-once per epoch, so
   answering [Installed] to a copy of the view already installed at
   its epoch changes nothing; the same projection is the same
   {!Projection.layout}: epoch, sequencer and every segment's range
   and chains, by member name. Any other proposal at an installed
   epoch lost the race. *)
let handle_propose t (p : Projection.t) =
  let current = newest t in
  if p.Projection.epoch = current.Projection.epoch + 1 then begin
    t.views <- p :: t.views;
    wake t p;
    Installed
  end
  else
    match List.find_opt (fun v -> v.Projection.epoch = p.Projection.epoch) t.views with
    | Some v when Projection.layout v = Projection.layout p -> Installed
    | Some _ | None -> Conflict current

(* A seal that never installs never calls [wake], so waiters settled by
   their deadline are also swept here, once they outnumber the live
   ones: amortised O(1) per call, and the list stays within twice the
   callers actually parked. *)
let handle_await t { at_least; wait_us } =
  let current = newest t in
  if current.Projection.epoch >= at_least then current
  else begin
    if t.listed > 2 * t.live then begin
      t.waiters <- List.filter (fun w -> not (settled w)) t.waiters;
      t.listed <- t.live
    end;
    let w =
      { w_at_least = at_least; w_view = Sim.Ivar.create (); w_timer = Sim.Engine.no_timer }
    in
    t.waiters <- w :: t.waiters;
    t.listed <- t.listed + 1;
    t.live <- t.live + 1;
    w.w_timer <- Sim.Engine.schedule ~after:wait_us (fun () -> settle t w (newest t));
    Sim.Ivar.read w.w_view
  end

let create ~net ~initial =
  let aux_host = Sim.Net.add_host net "auxiliary" in
  let rec t =
    lazy
      {
        views = [ initial ];
        waiters = [];
        listed = 0;
        live = 0;
        propose_svc =
          Sim.Net.service aux_host ~name:"propose" (fun p -> handle_propose (Lazy.force t) p);
        await_svc =
          Sim.Net.service ~hold:(fun r -> r.wait_us) aux_host ~name:"await" (fun r ->
              handle_await (Lazy.force t) r);
      }
  in
  Lazy.force t

let propose_service t = t.propose_svc
let await_service t = t.await_svc
let latest t = newest t
