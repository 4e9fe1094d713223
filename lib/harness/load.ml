type report = {
  throughput : float;
  goodput : float;
  latency_mean_us : float;
  latency_p50_us : float;
  latency_p99_us : float;
  samples : int;
  succeeded : int;
}

let summarize lat ~completed ~succeeded ~measure_us =
  let seconds = measure_us /. 1e6 in
  let pct p = if Sim.Stats.Series.count lat = 0 then 0. else Sim.Stats.Series.percentile lat p in
  {
    throughput = float_of_int completed /. seconds;
    goodput = float_of_int succeeded /. seconds;
    latency_mean_us = Sim.Stats.Series.mean lat;
    latency_p50_us = pct 50.;
    latency_p99_us = pct 99.;
    samples = completed;
    succeeded;
  }

type window = {
  mutable measuring : bool;
  latencies : Sim.Stats.Series.t;
  mutable completed : int;
  mutable succeeded : int;
  mutable measured_us : float;
}

let window () =
  {
    measuring = false;
    latencies = Sim.Stats.Series.create ();
    completed = 0;
    succeeded = 0;
    measured_us = 0.;
  }

let record w ~started ok =
  if w.measuring then begin
    Sim.Stats.Series.add w.latencies (Sim.Engine.now () -. started);
    w.completed <- w.completed + 1;
    if ok then w.succeeded <- w.succeeded + 1
  end

let worker w op =
  Sim.Engine.spawn (fun () ->
      let rec loop () =
        let started = Sim.Engine.now () in
        let ok = op () in
        record w ~started ok;
        loop ()
      in
      loop ())

let generator ?(max_outstanding = 256) w ~rate op =
  if rate <= 0. then invalid_arg "Load.generator: rate must be positive";
  let mean_gap = 1e6 /. rate in
  Sim.Engine.spawn (fun () ->
      (* split inside the fiber: the draw order of the engine's stream
         is part of every figure's deterministic schedule *)
      let rng = Sim.Rng.split (Sim.Engine.rng ()) in
      let outstanding = ref 0 in
      let rec generate () =
        Sim.Engine.sleep (Sim.Rng.exponential rng ~mean:mean_gap);
        if !outstanding < max_outstanding then begin
          incr outstanding;
          Sim.Engine.spawn (fun () ->
              let started = Sim.Engine.now () in
              let ok = op () in
              decr outstanding;
              record w ~started ok)
        end;
        generate ()
      in
      generate ())

let measure ~warmup_us ~measure_us ws =
  Sim.Engine.sleep warmup_us;
  List.iter
    (fun w ->
      w.measuring <- true;
      w.measured_us <- measure_us)
    ws;
  Sim.Engine.sleep measure_us;
  List.iter (fun w -> w.measuring <- false) ws

let report w =
  summarize w.latencies ~completed:w.completed ~succeeded:w.succeeded ~measure_us:w.measured_us

module Population = struct
  type cfg = {
    clients : int;
    rate_per_client : float;
    link_us : float;
    service_us : float;
    stations : int;
    station_slots : int;
    max_outstanding : int;
    warmup_us : float;
    measure_us : float;
    drain_us : float;
    seed : int;
  }

  let default_cfg =
    {
      clients = 10_000;
      rate_per_client = 1.0;
      link_us = 200.;
      service_us = 50.;
      stations = 8;
      station_slots = 8;
      max_outstanding = 4;
      warmup_us = 100_000.;
      measure_us = 500_000.;
      drain_us = 10_000.;
      seed = 1;
    }

  (* A modeled service station: [st_free.(i)] is the virtual time slot
     [i] frees up. *)
  type station = { st_free : float array; st_rng : Sim.Rng.t }

  type result = {
    pop_report : report;
    pop_issued : int;
    pop_completed : int;
    pop_dropped : int;
    pop_inflight : int;  (* still unanswered at the drain deadline *)
  }

  type t = {
    p_cfg : cfg;
    p_out : int array;  (* per-client in-flight ops *)
    p_rng : Sim.Rng.t;  (* the driver's arrival stream *)
    p_stations : station array;
    mutable p_issued : int;
    mutable p_dropped : int;
    mutable p_completed : int;
    mutable p_win_completed : int;  (* completions inside the window *)
    p_lat : Sim.Stats.Series.t;  (* window latencies; frozen after m_end *)
    mutable p_result : result option;  (* set once the drain deadline passes *)
    mutable p_waiter : unit Sim.Engine.resumer option;
  }

  let create cfg =
    if cfg.clients < 1 then invalid_arg "Population.create: need at least one client";
    if cfg.rate_per_client <= 0. then invalid_arg "Population.create: rate must be positive";
    if cfg.stations < 1 || cfg.station_slots < 1 then
      invalid_arg "Population.create: need at least one station and slot";
    if cfg.max_outstanding < 1 then
      invalid_arg "Population.create: max_outstanding must be at least 1";
    {
      p_cfg = cfg;
      p_out = Array.make cfg.clients 0;
      (* driver and station streams are decorrelated *)
      p_rng = Sim.Rng.create_stream cfg.seed ~stream:101;
      p_stations =
        Array.init cfg.stations (fun i ->
            {
              st_free = Array.make cfg.station_slots 0.;
              st_rng = Sim.Rng.create_stream cfg.seed ~stream:(100_001 + i);
            });
      p_issued = 0;
      p_dropped = 0;
      p_completed = 0;
      p_win_completed = 0;
      p_lat = Sim.Stats.Series.create ();
      p_result = None;
      p_waiter = None;
    }

  (* Runs when the modeled response lands back at the client. *)
  let complete p ~client ~started =
    p.p_out.(client) <- p.p_out.(client) - 1;
    p.p_completed <- p.p_completed + 1;
    let now = Sim.Engine.now () in
    let m_start = p.p_cfg.warmup_us and m_end = p.p_cfg.warmup_us +. p.p_cfg.measure_us in
    if now >= m_start && now < m_end then begin
      p.p_win_completed <- p.p_win_completed + 1;
      Sim.Stats.Series.add p.p_lat (now -. started)
    end

  (* Runs when a request reaches its station: queue for the
     least-loaded slot, pay an exponential service time, send the
     response home. *)
  let station_arrive p ~st ~client ~started =
    let s = p.p_stations.(st) in
    let free = s.st_free in
    let best = ref 0 in
    for i = 1 to Array.length free - 1 do
      if free.(i) < free.(!best) then best := i
    done;
    let now = Sim.Engine.now () in
    let start = if free.(!best) > now then free.(!best) else now in
    let fin = start +. Sim.Rng.exponential s.st_rng ~mean:p.p_cfg.service_us in
    free.(!best) <- fin;
    Sim.Engine.schedule ~after:(fin -. now +. p.p_cfg.link_us) (fun () ->
        complete p ~client ~started)

  (* The counters as they stand at the drain deadline. *)
  let snapshot p =
    {
      pop_report =
        summarize p.p_lat ~completed:p.p_win_completed ~succeeded:p.p_win_completed
          ~measure_us:p.p_cfg.measure_us;
      pop_issued = p.p_issued;
      pop_completed = p.p_completed;
      pop_dropped = p.p_dropped;
      pop_inflight = p.p_issued - p.p_completed;
    }

  let start p =
    let cfg = p.p_cfg in
    let gen_end = cfg.warmup_us +. cfg.measure_us in
    let deadline = gen_end +. cfg.drain_us in
    (* One fiber drives every client: aggregate Poisson arrivals at
       clients × per-client rate, a uniform client pick per arrival —
       statistically the superposition of per-client processes, without
       a continuation per client. *)
    let gap_mean = 1e6 /. (cfg.rate_per_client *. float_of_int cfg.clients) in
    Sim.Engine.spawn (fun () ->
        let rec generate () =
          Sim.Engine.sleep (Sim.Rng.exponential p.p_rng ~mean:gap_mean);
          let now = Sim.Engine.now () in
          if now < gen_end then begin
            let client = Sim.Rng.int p.p_rng cfg.clients in
            if p.p_out.(client) >= cfg.max_outstanding then p.p_dropped <- p.p_dropped + 1
            else begin
              p.p_out.(client) <- p.p_out.(client) + 1;
              p.p_issued <- p.p_issued + 1;
              let st = Sim.Rng.int p.p_rng cfg.stations in
              let started = now in
              Sim.Engine.schedule ~after:cfg.link_us (fun () ->
                  station_arrive p ~st ~client ~started)
            end;
            generate ()
          end
        in
        generate ();
        let now = Sim.Engine.now () in
        if deadline > now then Sim.Engine.sleep (deadline -. now);
        let r = snapshot p in
        (* The hand-off is its own event so event counts stay
           comparable with the committed scale-up baseline. *)
        Sim.Engine.schedule ~after:0. (fun () ->
            p.p_result <- Some r;
            match p.p_waiter with Some resume -> resume () | None -> ()))

  let await p =
    (if p.p_result = None then
       Sim.Engine.suspend (fun resume -> p.p_waiter <- Some resume));
    match p.p_result with Some r -> r | None -> assert false
end
