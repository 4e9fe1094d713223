module Series = struct
  type t = { mutable data : float array; mutable len : int; mutable sorted : bool }

  let create () = { data = Array.make 1024 0.; len = 0; sorted = true }

  let add t v =
    if t.len = Array.length t.data then begin
      let bigger = Array.make (2 * t.len) 0. in
      Array.blit t.data 0 bigger 0 t.len;
      t.data <- bigger
    end;
    t.data.(t.len) <- v;
    t.len <- t.len + 1;
    t.sorted <- false

  let count t = t.len

  let ensure_sorted t =
    if not t.sorted then begin
      let live = Array.sub t.data 0 t.len in
      Array.sort Float.compare live;
      Array.blit live 0 t.data 0 t.len;
      t.sorted <- true
    end

  let mean t =
    if t.len = 0 then 0.
    else begin
      let sum = ref 0. in
      for i = 0 to t.len - 1 do
        sum := !sum +. t.data.(i)
      done;
      !sum /. float_of_int t.len
    end

  let percentile_opt t p =
    if Float.is_nan p || p < 0. || p > 100. then
      invalid_arg "Series.percentile: p must be in [0, 100]";
    if t.len = 0 then None
    else begin
      ensure_sorted t;
      let rank = p /. 100. *. float_of_int (t.len - 1) in
      (* Clamp both indices so float round-off (and the 1-sample case,
         where rank = 0 for every p) can never index past the end. *)
      let clamp i = Stdlib.min (t.len - 1) (Stdlib.max 0 i) in
      let lo = clamp (int_of_float (Float.floor rank)) in
      let hi = clamp (int_of_float (Float.ceil rank)) in
      let frac = rank -. float_of_int lo in
      Some ((t.data.(lo) *. (1. -. frac)) +. (t.data.(hi) *. frac))
    end

  let percentile t p =
    match percentile_opt t p with
    | Some v -> v
    | None -> invalid_arg "Series.percentile: empty series"
end
