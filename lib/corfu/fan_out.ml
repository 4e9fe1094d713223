let window = 16

let start ~n f =
  let all_done = Sim.Ivar.create () in
  if n <= 0 then Sim.Ivar.fill all_done ()
  else begin
    let fibers = min window n in
    let remaining = ref fibers in
    let span_parent = Sim.Span.current () in
    for w = 0 to fibers - 1 do
      Sim.Engine.spawn (fun () ->
          Sim.Span.with_parent span_parent @@ fun () ->
          let i = ref w in
          while !i < n && f !i do
            i := !i + fibers
          done;
          decr remaining;
          if !remaining = 0 then Sim.Ivar.fill all_done ())
    done
  end;
  all_done
