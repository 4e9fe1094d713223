type report = {
  throughput : float;
  goodput : float;
  latency_mean_us : float;
  latency_p50_us : float;
  latency_p99_us : float;
  samples : int;
  succeeded : int;
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
  let seconds = w.measured_us /. 1e6 in
  let pct p =
    if Sim.Stats.Series.count w.latencies = 0 then 0. else Sim.Stats.Series.percentile w.latencies p
  in
  {
    throughput = float_of_int w.completed /. seconds;
    goodput = float_of_int w.succeeded /. seconds;
    latency_mean_us = Sim.Stats.Series.mean w.latencies;
    latency_p50_us = pct 50.;
    latency_p99_us = pct 99.;
    samples = w.completed;
    succeeded = w.succeeded;
  }
