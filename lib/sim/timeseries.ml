(* Fixed-window ring-buffer aggregation over the live Metrics registry
   plus derived lag-watermark probes. A ticker fiber samples sub-window
   accumulators and seals a window every [subticks] ticks; sealed
   column values land in preallocated per-source float-array rings
   (parallel arrays — a mixed record with mutable float fields would
   box every store). Recording reads only the virtual clock, so two
   same-seed runs dump byte-identical timeseries. *)

type kind = K_counter | K_gauge | K_hist | K_probe

let kind_name = function
  | K_counter -> "counter"
  | K_gauge -> "gauge"
  | K_hist -> "hist"
  | K_probe -> "probe"

let counter_cols = [| "rate" |]
let gauge_cols = [| "min"; "max"; "last" |]
let hist_cols = [| "count"; "p50"; "p99" |]

type src = {
  se_name : string;  (* "<kind>:<host>.<name>" — the registry key *)
  se_kind : kind;
  se_counter : Metrics.counter option;
  se_gauge : Metrics.gauge option;
  se_hist : Metrics.histogram option;
  mutable se_probe : unit -> float;  (* K_probe only *)
  se_prev_buckets : int array;  (* K_hist: bucket counts at window open *)
  se_delta : int array;  (* K_hist: scratch for the window delta *)
  se_acc : float array;  (* gauge/probe sub-tick accumulator: min, max, last *)
  mutable se_prev : int;  (* K_counter: value at window open *)
  mutable se_first_w : int;  (* first window this source participates in *)
  se_cols : string array;
  mutable se_rings : float array array;  (* one ring per column; [||] until first seal *)
}

let window_us = 10_000.
let subticks = 5
let slots = 256

type state = {
  mutable srcs : src array;
  mutable n : int;
  index : (string, src) Hashtbl.t;
  mutable starts : float array;  (* window-start ring; [||] until first window *)
  mutable w_count : int;  (* sealed windows *)
  mutable cur_start : float;  (* nan = no window open *)
  mutable sub_n : int;
  mutable ticker_on : bool;
  mutable closers : (unit -> unit) array;
}

let no_probe () = 0.

let fresh () =
  {
    srcs = Array.make 0 { se_name = ""; se_kind = K_probe; se_counter = None; se_gauge = None;
                          se_hist = None; se_probe = no_probe; se_prev_buckets = [||];
                          se_delta = [||]; se_acc = [||]; se_prev = 0; se_first_w = 0;
                          se_cols = [||]; se_rings = [||] };
    n = 0;
    index = Hashtbl.create 64;
    starts = [||];
    w_count = 0;
    cur_start = Float.nan;
    sub_n = 0;
    ticker_on = false;
    closers = [||];
  }

let store = Engine.per_run fresh
let state () = Engine.this_run store

(* -- source registration ----------------------------------------------- *)

let reset_acc a =
  a.(0) <- infinity;
  a.(1) <- neg_infinity;
  a.(2) <- Float.nan

let label ~host name = match host with None -> name | Some h -> h ^ "." ^ name

let add_src st s =
  if Hashtbl.mem st.index s.se_name then ()
  else begin
    if st.n = Array.length st.srcs then begin
      let cap = Stdlib.max 16 (2 * st.n) in
      let bigger = Array.make cap s in
      Array.blit st.srcs 0 bigger 0 st.n;
      st.srcs <- bigger
    end;
    st.srcs.(st.n) <- s;
    st.n <- st.n + 1;
    Hashtbl.replace st.index s.se_name s
  end

let blank ~name ~kind ~cols =
  {
    se_name = name;
    se_kind = kind;
    se_counter = None;
    se_gauge = None;
    se_hist = None;
    se_probe = no_probe;
    se_prev_buckets = (if kind = K_hist then Array.make Metrics.num_buckets 0 else [||]);
    se_delta = (if kind = K_hist then Array.make Metrics.num_buckets 0 else [||]);
    se_acc = Array.make 3 Float.nan;
    se_prev = 0;
    se_first_w = 0;
    se_cols = cols;
    se_rings = [||];
  }

let track_counter c =
  let st = state () in
  let name = "counter:" ^ label ~host:(Metrics.counter_host c) (Metrics.counter_name c) in
  if not (Hashtbl.mem st.index name) then begin
    let s = { (blank ~name ~kind:K_counter ~cols:counter_cols) with se_counter = Some c } in
    s.se_prev <- Metrics.counter_value c;
    s.se_first_w <- st.w_count;
    add_src st s
  end

let track_gauge g =
  let st = state () in
  let name = "gauge:" ^ label ~host:(Metrics.gauge_host g) (Metrics.gauge_name g) in
  if not (Hashtbl.mem st.index name) then begin
    let s = { (blank ~name ~kind:K_gauge ~cols:gauge_cols) with se_gauge = Some g } in
    reset_acc s.se_acc;
    s.se_first_w <- st.w_count;
    add_src st s
  end

let track_histogram h =
  let st = state () in
  let name = "hist:" ^ label ~host:(Metrics.hist_host h) (Metrics.hist_name h) in
  if not (Hashtbl.mem st.index name) then begin
    let s = { (blank ~name ~kind:K_hist ~cols:hist_cols) with se_hist = Some h } in
    Metrics.hist_buckets_into h s.se_prev_buckets;
    s.se_first_w <- st.w_count;
    add_src st s
  end

let probe ?host name fn =
  let st = state () in
  let sname = "probe:" ^ label ~host name in
  match Hashtbl.find_opt st.index sname with
  | Some s ->
      (* A component re-created mid-run (reconfiguration) re-registers
         its probe; the newest instance wins. *)
      s.se_probe <- fn
  | None ->
      let s = blank ~name:sname ~kind:K_probe ~cols:gauge_cols in
      s.se_probe <- fn;
      reset_acc s.se_acc;
      s.se_first_w <- st.w_count;
      add_src st s

let track_all_metrics () =
  Metrics.iter_handles ~on_counter:track_counter ~on_gauge:track_gauge ~on_hist:track_histogram

let on_window_close f =
  let st = state () in
  st.closers <- Array.append st.closers [| f |]

(* -- ticking ----------------------------------------------------------- *)

let open_window st now =
  if Array.length st.starts = 0 then st.starts <- Array.make slots Float.nan;
  st.cur_start <- now;
  st.sub_n <- 0

let sample_sub s =
  match s.se_kind with
  | K_counter | K_hist -> ()
  | K_gauge | K_probe ->
      let v =
        match s.se_kind with
        | K_gauge -> ( match s.se_gauge with Some g -> Metrics.gauge_value g | None -> 0.)
        | _ -> s.se_probe ()
      in
      let a = s.se_acc in
      if v < a.(0) then a.(0) <- v;
      if v > a.(1) then a.(1) <- v;
      a.(2) <- v

let ensure_rings s =
  if Array.length s.se_rings = 0 then
    s.se_rings <- Array.init (Array.length s.se_cols) (fun _ -> Array.make slots Float.nan)

let seal_src s ~slot ~dt_s =
  ensure_rings s;
  match s.se_kind with
  | K_counter ->
      let v = match s.se_counter with Some c -> Metrics.counter_value c | None -> 0 in
      let rate = if dt_s > 0. then float_of_int (v - s.se_prev) /. dt_s else 0. in
      s.se_rings.(0).(slot) <- rate;
      s.se_prev <- v
  | K_gauge | K_probe ->
      let a = s.se_acc in
      let empty = a.(0) > a.(1) in
      s.se_rings.(0).(slot) <- (if empty then Float.nan else a.(0));
      s.se_rings.(1).(slot) <- (if empty then Float.nan else a.(1));
      s.se_rings.(2).(slot) <- a.(2);
      reset_acc a
  | K_hist -> (
      match s.se_hist with
      | None -> ()
      | Some h ->
          Metrics.hist_buckets_into h s.se_delta;
          let total = ref 0 in
          for i = 0 to Metrics.num_buckets - 1 do
            let d = s.se_delta.(i) - s.se_prev_buckets.(i) in
            s.se_prev_buckets.(i) <- s.se_delta.(i);
            s.se_delta.(i) <- d;
            total := !total + d
          done;
          s.se_rings.(0).(slot) <- float_of_int !total;
          s.se_rings.(1).(slot) <- Metrics.buckets_percentile s.se_delta ~total:!total 50.;
          s.se_rings.(2).(slot) <- Metrics.buckets_percentile s.se_delta ~total:!total 99.)

let seal_window st now =
  let slot = st.w_count mod slots in
  st.starts.(slot) <- st.cur_start;
  let dt_s = (now -. st.cur_start) /. 1e6 in
  for i = 0 to st.n - 1 do
    seal_src st.srcs.(i) ~slot ~dt_s
  done;
  st.w_count <- st.w_count + 1;
  st.cur_start <- now;
  st.sub_n <- 0;
  Array.iter (fun f -> f ()) st.closers

let tick () =
  let st = state () in
  let now = Engine.now () in
  if Float.is_nan st.cur_start then open_window st now;
  for i = 0 to st.n - 1 do
    sample_sub st.srcs.(i)
  done;
  st.sub_n <- st.sub_n + 1;
  if st.sub_n >= subticks then seal_window st now

let start ?(track_metrics = true) () =
  let st = state () in
  if track_metrics then track_all_metrics ();
  if not st.ticker_on then begin
    st.ticker_on <- true;
    Engine.spawn (fun () ->
        let rec loop () =
          Engine.sleep (window_us /. float_of_int subticks);
          tick ();
          loop ()
        in
        loop ())
  end

(* -- queries ----------------------------------------------------------- *)

let windows () = (state ()).w_count

type sel = { q_src : src; q_col : int }

let col_index cols c =
  let rec go i = if i >= Array.length cols then -1 else if cols.(i) = c then i else go (i + 1) in
  go 0

let find ~series ~col =
  let st = state () in
  match Hashtbl.find_opt st.index series with
  | None -> None
  | Some s ->
      let i = col_index s.se_cols col in
      if i < 0 then None else Some { q_src = s; q_col = i }

let window_value sel j =
  let st = state () in
  let s = sel.q_src in
  if j < 0 || j >= st.w_count || j < s.se_first_w || j < st.w_count - slots
     || Array.length s.se_rings = 0
  then Float.nan
  else s.se_rings.(sel.q_col).(j mod slots)

let last sel =
  let st = state () in
  if st.w_count = 0 then Float.nan else window_value sel (st.w_count - 1)

let window_start j =
  let st = state () in
  if j < 0 || j >= st.w_count || j < st.w_count - slots || Array.length st.starts = 0 then
    Float.nan
  else st.starts.(j mod slots)

let series_names () =
  let st = state () in
  List.sort compare (List.init st.n (fun i -> st.srcs.(i).se_name))

(* -- dump -------------------------------------------------------------- *)

let to_json () =
  let st = state () in
  let from_global = Stdlib.max 0 (st.w_count - slots) in
  let starts =
    List.init (st.w_count - from_global) (fun k -> Jout.flt (window_start (from_global + k)))
  in
  let srcs = Array.sub st.srcs 0 st.n |> Array.to_list in
  let srcs = List.sort (fun a b -> compare a.se_name b.se_name) srcs in
  let series =
    List.map
      (fun s ->
        let from = Stdlib.max s.se_first_w from_global in
        let cols =
          Array.to_list
            (Array.mapi
               (fun ci cname ->
                 let vals =
                   List.init (st.w_count - from) (fun k ->
                       Jout.flt (window_value { q_src = s; q_col = ci } (from + k)))
                 in
                 (cname, Jout.arr vals))
               s.se_cols)
        in
        Jout.obj
          [
            ("name", Jout.str s.se_name);
            ("kind", Jout.str (kind_name s.se_kind));
            ("from", string_of_int from);
            ("cols", Jout.obj cols);
          ])
      srcs
  in
  Jout.obj
    [
      ("window_us", Jout.flt window_us);
      ("subticks", string_of_int subticks);
      ("windows", string_of_int st.w_count);
      ("from", string_of_int from_global);
      ("starts", Jout.arr starts);
      ("series", Jout.arr series);
    ]
