(* Log-scale bucket layout: bucket 0 is underflow (v <= lo); buckets
   1..n_log cover [lo, lo * 10^(n_log/10)) at 10 buckets per decade;
   the last bucket is overflow. lo = 0.1 µs and 9 decades reach 100 s,
   far past any virtual latency the simulation produces. *)
let bucket_lo = 0.1
let n_log = 90
let n_buckets = n_log + 2

let bucket_bound i =
  (* Upper bound of bucket [i] for i in 0..n_log; the overflow bucket
     has no finite bound. *)
  if i = 0 then bucket_lo else bucket_lo *. (10. ** (float_of_int i /. 10.))

let[@inline] bucket_index v =
  if v <= bucket_lo then 0
  else
    let i = 1 + int_of_float (Float.floor (10. *. Float.log10 (v /. bucket_lo))) in
    if i > n_log then n_log + 1 else if i < 1 then 1 else i

type key = { k_name : string; k_host : string option }

(* A histogram's running sum is recomputed on every observation, and a
   [mutable float] field of a mixed record boxes each value written to
   it; an all-float record is stored flat, so [observe] writes it
   without allocating. (A gauge stores the float it is handed as is,
   which costs nothing boxed and keeps [gauge_value] free.) *)
type moments = { mutable sum : float; mutable vmin : float; mutable vmax : float }

type counter = { c_key : key; c_born : int; mutable c_n : int }
type gauge = { g_key : key; g_born : int; mutable g_v : float }

type histogram = {
  h_key : key;
  h_born : int;
  buckets : int array;
  mutable n : int;
  m : moments;
}

type series = {
  s_key : string;
  mutable ts : float array;
  mutable vs : float array;
  mutable s_n : int;
}

let series_cap = 200_000

type tracked = { tr : Resource.t; mutable last_busy : float }

type state = {
  born : int;
  counters : (key, counter) Hashtbl.t;
  gauges : (key, gauge) Hashtbl.t;
  hists : (key, histogram) Hashtbl.t;
  series : (string, series) Hashtbl.t;
  mutable tracked : tracked list;  (* reverse registration order *)
  mutable sampler_on : bool;
}

let fresh ~born =
  {
    born;
    counters = Hashtbl.create 64;
    gauges = Hashtbl.create 16;
    hists = Hashtbl.create 32;
    series = Hashtbl.create 32;
    tracked = [];
    sampler_on = false;
  }

let current = ref (fresh ~born:0)

let state () =
  let rc = Engine.run_count () in
  if !current.born <> rc then current := fresh ~born:rc;
  !current

(* Stale-handle detection: a handle created in run N that is written in
   run M > N lands in a dead generation and is invisible to snapshots.
   Strict mode (tests) turns that silent loss into an exception. The
   check is a single flag branch when off — cheap enough for the
   zero-alloc hot paths that call [incr] per record. *)

exception Stale_handle of string

let strict = ref false
let set_strict b = strict := b

let handle_label key =
  match key.k_host with None -> key.k_name | Some h -> h ^ "." ^ key.k_name

let check_born born key =
  if born <> (state ()).born then raise (Stale_handle (handle_label key))

let host_string = function Some h -> h | None -> ""

(* -- counters ---------------------------------------------------------- *)

let counter ?host name =
  let st = state () in
  let key = { k_name = name; k_host = host } in
  match Hashtbl.find_opt st.counters key with
  | Some c -> c
  | None ->
      let c = { c_key = key; c_born = st.born; c_n = 0 } in
      Hashtbl.replace st.counters key c;
      c

let incr c =
  if !strict then check_born c.c_born c.c_key;
  c.c_n <- c.c_n + 1;
  if Flight.enabled () then
    Flight.record ~host:(host_string c.c_key.k_host) Flight.Metric ~name:c.c_key.k_name
      ~value:(float_of_int c.c_n)

let add c k =
  if !strict then check_born c.c_born c.c_key;
  c.c_n <- c.c_n + k;
  if Flight.enabled () then
    Flight.record ~host:(host_string c.c_key.k_host) Flight.Metric ~name:c.c_key.k_name
      ~value:(float_of_int c.c_n)

let counter_value c = c.c_n

(* -- gauges ------------------------------------------------------------ *)

let gauge ?host name =
  let st = state () in
  let key = { k_name = name; k_host = host } in
  match Hashtbl.find_opt st.gauges key with
  | Some g -> g
  | None ->
      let g = { g_key = key; g_born = st.born; g_v = 0. } in
      Hashtbl.replace st.gauges key g;
      g

let set_gauge g v =
  if !strict then check_born g.g_born g.g_key;
  g.g_v <- v;
  if Flight.enabled () then
    Flight.record ~host:(host_string g.g_key.k_host) Flight.Metric ~name:g.g_key.k_name ~value:v

let gauge_value g = g.g_v

(* -- histograms -------------------------------------------------------- *)

let histogram ?host name =
  let st = state () in
  let key = { k_name = name; k_host = host } in
  match Hashtbl.find_opt st.hists key with
  | Some h -> h
  | None ->
      let h =
        {
          h_key = key;
          h_born = st.born;
          buckets = Array.make n_buckets 0;
          n = 0;
          m = { sum = 0.; vmin = infinity; vmax = neg_infinity };
        }
      in
      Hashtbl.replace st.hists key h;
      h

(* Inlined into both entry points, so [observe_in]'s value is never
   boxed on its way here. *)
let[@inline] record h v =
  if !strict then check_born h.h_born h.h_key;
  let i = bucket_index v in
  h.buckets.(i) <- h.buckets.(i) + 1;
  h.n <- h.n + 1;
  let m = h.m in
  m.sum <- m.sum +. v;
  if v < m.vmin then m.vmin <- v;
  if v > m.vmax then m.vmax <- v;
  if Flight.enabled () then
    Flight.record ~host:(host_string h.h_key.k_host) Flight.Metric ~name:h.h_key.k_name ~value:v

let observe h v = record h v
let observe_in h src i = record h (Float.Array.get src i)

let hist_count h = h.n

(* -- registry introspection (Timeseries support) ----------------------- *)

let counter_name c = c.c_key.k_name
let counter_host c = c.c_key.k_host
let gauge_name g = g.g_key.k_name
let gauge_host g = g.g_key.k_host
let hist_name h = h.h_key.k_name
let hist_host h = h.h_key.k_host
let num_buckets = n_buckets

let hist_buckets_into h dst =
  if Array.length dst <> n_buckets then invalid_arg "Metrics.hist_buckets_into: wrong length";
  Array.blit h.buckets 0 dst 0 n_buckets

(* Percentile over a raw bucket-count array (a window delta of two
   [hist_buckets_into] snapshots), with no observed min/max to clamp
   to; nan on an empty window. *)
let buckets_percentile counts ~total p =
  if Float.is_nan p || p < 0. || p > 100. then
    invalid_arg "Metrics.buckets_percentile: p must be in [0, 100]";
  if Array.length counts <> n_buckets then
    invalid_arg "Metrics.buckets_percentile: wrong length";
  if total <= 0 then Float.nan
  else begin
    let target = Stdlib.max 1 (int_of_float (Float.ceil (p /. 100. *. float_of_int total))) in
    let cum = ref 0 in
    let found = ref (n_buckets - 1) in
    (try
       for i = 0 to n_buckets - 1 do
         cum := !cum + counts.(i);
         if !cum >= target then begin
           found := i;
           raise Exit
         end
       done
     with Exit -> ());
    if !found = 0 then bucket_lo
    else if !found > n_log then bucket_bound n_log
    else sqrt (bucket_bound (!found - 1) *. bucket_bound !found)
  end

(* The same estimate over the whole run, clamped to the exact observed
   min/max; 0 on an empty histogram. *)
let hist_percentile h p =
  let est = buckets_percentile h.buckets ~total:h.n p in
  if h.n = 0 then 0. else Float.min h.m.vmax (Float.max h.m.vmin est)

let sorted_handles tbl key_of =
  Hashtbl.fold (fun _ v acc -> v :: acc) tbl []
  |> List.sort (fun a b -> compare (key_of a) (key_of b))

let iter_handles ~on_counter ~on_gauge ~on_hist =
  let st = state () in
  List.iter on_counter (sorted_handles st.counters (fun c -> (c.c_key.k_name, c.c_key.k_host)));
  List.iter on_gauge (sorted_handles st.gauges (fun g -> (g.g_key.k_name, g.g_key.k_host)));
  List.iter on_hist (sorted_handles st.hists (fun h -> (h.h_key.k_name, h.h_key.k_host)))

(* -- series + sampler -------------------------------------------------- *)

let series_get st name =
  match Hashtbl.find_opt st.series name with
  | Some s -> s
  | None ->
      let s = { s_key = name; ts = Array.make 256 0.; vs = Array.make 256 0.; s_n = 0 } in
      Hashtbl.replace st.series name s;
      s

let series_add s t v =
  if s.s_n < series_cap then begin
    if s.s_n = Array.length s.ts then begin
      let grow a = Array.append a (Array.make (Array.length a) 0.) in
      s.ts <- grow s.ts;
      s.vs <- grow s.vs
    end;
    s.ts.(s.s_n) <- t;
    s.vs.(s.s_n) <- v;
    s.s_n <- s.s_n + 1
  end

let track_resource r =
  let st = state () in
  let rname = Resource.name r in
  if not (List.exists (fun t -> Resource.name t.tr = rname) st.tracked) then
    st.tracked <- { tr = r; last_busy = 0. } :: st.tracked

let sample st ~interval_us =
  let now = Engine.now () in
  List.iter
    (fun t ->
      let busy = Resource.busy_time t.tr in
      let util = (busy -. t.last_busy) /. (interval_us *. float_of_int (Resource.capacity t.tr)) in
      t.last_busy <- busy;
      let rname = Resource.name t.tr in
      series_add (series_get st ("util:" ^ rname)) now util;
      series_add (series_get st ("qlen:" ^ rname)) now (float_of_int (Resource.queue_length t.tr)))
    (List.rev st.tracked);
  let gauges = Hashtbl.fold (fun _ g acc -> g :: acc) st.gauges [] in
  let gauges =
    List.sort (fun a b -> compare (a.g_key.k_name, a.g_key.k_host) (b.g_key.k_name, b.g_key.k_host)) gauges
  in
  List.iter
    (fun g ->
      let label =
        match g.g_key.k_host with None -> g.g_key.k_name | Some h -> h ^ "." ^ g.g_key.k_name
      in
      series_add (series_get st ("gauge:" ^ label)) now g.g_v)
    gauges

let start_sampler ?(interval_us = 1000.) () =
  if interval_us <= 0. then invalid_arg "Metrics.start_sampler: interval must be positive";
  let st = state () in
  if not st.sampler_on then begin
    st.sampler_on <- true;
    Engine.spawn (fun () ->
        let rec loop () =
          Engine.sleep interval_us;
          (* A reset mid-run (tests) orphans this fiber; stop sampling
             into the dead generation. *)
          if !current == st then begin
            sample st ~interval_us;
            loop ()
          end
        in
        loop ())
  end

(* -- snapshots --------------------------------------------------------- *)

type counter_view = { c_name : string; c_host : string option; c_value : int }

type gauge_view = { g_name : string; g_host : string option; g_value : float }

type hist_view = {
  h_name : string;
  h_host : string option;
  h_count : int;
  h_sum : float;
  h_min : float;
  h_max : float;
  h_p50 : float;
  h_p90 : float;
  h_p99 : float;
  h_buckets : (float * int) list;
}

type series_view = { s_name : string; s_points : (float * float) array }

type snapshot = {
  counters : counter_view list;
  gauges : gauge_view list;
  histograms : hist_view list;
  series : series_view list;
}

let snapshot () =
  let st = state () in
  let counters =
    sorted_handles st.counters (fun c -> (c.c_key.k_name, c.c_key.k_host))
    |> List.map (fun c -> { c_name = c.c_key.k_name; c_host = c.c_key.k_host; c_value = c.c_n })
  in
  let gauges =
    sorted_handles st.gauges (fun g -> (g.g_key.k_name, g.g_key.k_host))
    |> List.map (fun g -> { g_name = g.g_key.k_name; g_host = g.g_key.k_host; g_value = g.g_v })
  in
  let histograms =
    sorted_handles st.hists (fun h -> (h.h_key.k_name, h.h_key.k_host))
    |> List.map (fun h ->
           let buckets = ref [] in
           for i = n_buckets - 1 downto 0 do
             if h.buckets.(i) > 0 then begin
               let bound = if i > n_log then infinity else bucket_bound i in
               buckets := (bound, h.buckets.(i)) :: !buckets
             end
           done;
           {
             h_name = h.h_key.k_name;
             h_host = h.h_key.k_host;
             h_count = h.n;
             h_sum = h.m.sum;
             h_min = (if h.n = 0 then 0. else h.m.vmin);
             h_max = (if h.n = 0 then 0. else h.m.vmax);
             h_p50 = hist_percentile h 50.;
             h_p90 = hist_percentile h 90.;
             h_p99 = hist_percentile h 99.;
             h_buckets = !buckets;
           })
  in
  let series =
    sorted_handles st.series (fun s -> s.s_key)
    |> List.map (fun s ->
           { s_name = s.s_key; s_points = Array.init s.s_n (fun i -> (s.ts.(i), s.vs.(i))) })
  in
  { counters; gauges; histograms; series }

let host_json = function None -> "null" | Some h -> Jout.str h

let counter_json c =
  Jout.obj
    [ ("name", Jout.str c.c_name); ("host", host_json c.c_host); ("value", string_of_int c.c_value) ]

let gauge_json g =
  Jout.obj [ ("name", Jout.str g.g_name); ("host", host_json g.g_host); ("value", Jout.flt g.g_value) ]

let hist_json h =
  Jout.obj
    [
      ("name", Jout.str h.h_name);
      ("host", host_json h.h_host);
      ("count", string_of_int h.h_count);
      ("sum_us", Jout.flt h.h_sum);
      ("min_us", Jout.flt h.h_min);
      ("max_us", Jout.flt h.h_max);
      ("p50_us", Jout.flt h.h_p50);
      ("p90_us", Jout.flt h.h_p90);
      ("p99_us", Jout.flt h.h_p99);
      ( "buckets",
        Jout.arr
          (List.map
             (fun (bound, n) ->
               Jout.obj [ ("le_us", Jout.flt bound); ("count", string_of_int n) ])
             h.h_buckets) );
    ]

let series_json s =
  Jout.obj
    [
      ("name", Jout.str s.s_name);
      ( "points",
        Jout.arr
          (Array.to_list s.s_points
          |> List.map (fun (t, v) -> Jout.arr [ Jout.flt t; Jout.flt v ])) );
    ]

let snapshot_json snap =
  Jout.obj
    [
      ("counters", Jout.arr (List.map counter_json snap.counters));
      ("gauges", Jout.arr (List.map gauge_json snap.gauges));
      ("histograms", Jout.arr (List.map hist_json snap.histograms));
      ("series", Jout.arr (List.map series_json snap.series));
    ]

let to_json () = snapshot_json (snapshot ())
