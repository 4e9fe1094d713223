type id = int

let id_int i = i

type rec_ = {
  sid : int;
  sparent : int option;
  sname : string;
  shost : string option;
  sfiber : int;
  st0 : float;
  mutable st1 : float;  (* nan while open *)
  mutable sargs : (string * string) list;
}

type state = {
  mutable arr : rec_ option array;
  mutable count : int;
  stacks : (int, int list) Hashtbl.t;  (* fiber id -> open span ids, innermost first *)
  (* Open sections. A token is a slot: its start time in [starts] (flat
     floats, so nothing is boxed) and, while tracing, its span in
     [opened] with the fiber's stack below it. The first [nfree] of
     [free] are the free slots. *)
  mutable starts : Float.Array.t;
  mutable opened : (rec_ * int list) option array;
  mutable free : int array;
  mutable nfree : int;
}

let fresh () =
  {
    arr = Array.make 256 None;
    count = 0;
    stacks = Hashtbl.create 32;
    starts = Float.Array.make 16 0.;
    opened = Array.make 16 None;
    free = Array.init 16 Fun.id;
    nfree = 16;
  }

let store = Engine.per_run fresh
let state () = Engine.this_run store

let enabled_flag = ref false
let set_enabled b = enabled_flag := b
let enabled () = !enabled_flag

let get st i = match st.arr.(i) with Some r -> r | None -> assert false

let push st r =
  if st.count = Array.length st.arr then begin
    let bigger = Array.make (2 * st.count) None in
    Array.blit st.arr 0 bigger 0 st.count;
    st.arr <- bigger
  end;
  st.arr.(st.count) <- Some r;
  st.count <- st.count + 1

let stack_of st fid = match Hashtbl.find_opt st.stacks fid with Some s -> s | None -> []

(* A fiber whose stack empties leaves the table: a traced run would
   otherwise keep one entry for every fiber that ever opened a span. *)
let set_stack st fid = function
  | [] -> Hashtbl.remove st.stacks fid
  | s -> Hashtbl.replace st.stacks fid s

let open_fibers () = Hashtbl.length (state ()).stacks

let current () =
  if not !enabled_flag then None
  else
    let st = state () in
    match stack_of st (Engine.fiber_id ()) with [] -> None | top :: _ -> Some top

type 'a site = {
  name : string;
  host : string option;
  hist : Metrics.histogram option;
  args : 'a -> (string * string) list;
  traced : bool;  (* false for a [timer] *)
}

let site ?host ?hist ?(args = fun _ -> []) name = { name; host; hist; args; traced = true }
let timer h = { name = ""; host = None; hist = Some h; args = (fun _ -> []); traced = false }

let take_slot st =
  let n = Array.length st.free in
  if st.nfree = 0 then begin
    (* every slot is taken: double, freeing the new half *)
    st.starts <- Float.Array.append st.starts (Float.Array.make n 0.);
    st.opened <- Array.append st.opened (Array.make n None);
    st.free <- Array.init (2 * n) (fun i -> n + i);
    st.nfree <- n
  end;
  st.nfree <- st.nfree - 1;
  let tok = st.free.(st.nfree) in
  Engine.now_into st.starts tok;
  tok

let open_span site host v =
  let st = state () in
  let tok = take_slot st in
  let fid = Engine.fiber_id () in
  let below = stack_of st fid in
  let sparent = match below with [] -> None | top :: _ -> Some top in
  let shost = match (host, sparent) with None, Some p -> (get st p).shost | _ -> host in
  let sname = site.name and st0 = Float.Array.get st.starts tok and sargs = site.args v in
  let r = { sid = st.count; sparent; sname; shost; sfiber = fid; st0; st1 = nan; sargs } in
  push st r;
  Hashtbl.replace st.stacks fid (r.sid :: below);
  st.opened.(tok) <- Some (r, below);
  tok

(* With tracing off a span-only section is these branches alone, and a
   timed one adds only its slot; [@inline] folds them into the caller
   where cross-module inlining is on (release builds). *)
let[@inline] enter site v =
  if !enabled_flag && site.traced then open_span site site.host v
  else match site.hist with None -> -1 | Some _ -> take_slot (state ())

let[@inline] enter_at site ~host v =
  if !enabled_flag && site.traced then open_span site (Some host) v
  else match site.hist with None -> -1 | Some _ -> take_slot (state ())

(* The histogram sees [now - start] through the token's slot, unboxed;
   the span closes after it, as it always enclosed the timed body. *)
let finish site tok =
  let st = state () in
  let t0 = Float.Array.get st.starts tok in
  Engine.now_into st.starts tok;
  let now = Float.Array.get st.starts tok in
  Float.Array.set st.starts tok (now -. t0);
  (match site.hist with Some h -> Metrics.observe_in h st.starts tok | None -> ());
  (match st.opened.(tok) with
  | Some (r, below) ->
      st.opened.(tok) <- None;
      r.st1 <- now;
      if Flight.enabled () then
        Flight.record ~host:(Option.value r.shost ~default:"") Flight.Span_close ~name:r.sname
          ~value:(now -. t0);
      set_stack st r.sfiber below
  | None -> ());
  st.free.(st.nfree) <- tok;
  st.nfree <- st.nfree + 1

let[@inline] leave site tok = if tok >= 0 then finish site tok

let leave_raise site tok e =
  let bt = Printexc.get_raw_backtrace () in
  leave site tok;
  Printexc.raise_with_backtrace e bt

let within site v f =
  let tok = enter site v in
  match f () with
  | r ->
      leave site tok;
      r
  | exception e -> leave_raise site tok e

let with_span ?host ?(args = []) name f =
  if !enabled_flag then within (site ?host ~args:(fun () -> args) name) () f else f ()

let with_parent parent f =
  if not !enabled_flag then f ()
  else begin
    let st = state () in
    let fid = Engine.fiber_id () in
    let below = stack_of st fid in
    set_stack st fid (Option.to_list parent);
    Fun.protect ~finally:(fun () -> set_stack st fid below) f
  end

type view = {
  v_id : int;
  v_parent : int option;
  v_name : string;
  v_host : string option;
  v_fiber : int;
  v_start : float;
  v_end : float option;
  v_args : (string * string) list;
}

let spans () =
  let st = state () in
  List.init st.count (fun i ->
      let r = get st i in
      {
        v_id = r.sid;
        v_parent = r.sparent;
        v_name = r.sname;
        v_host = r.shost;
        v_fiber = r.sfiber;
        v_start = r.st0;
        v_end = (if Float.is_nan r.st1 then None else Some r.st1);
        v_args = r.sargs;
      })

let dump_json () =
  let st = state () in
  (* Assign pids to hosts in first-appearance (span id) order so the
     mapping — and thus the whole dump — is deterministic. *)
  let pids : (string, int) Hashtbl.t = Hashtbl.create 16 in
  let pid_order = ref [] in
  let next_pid = ref 0 in
  let pid_of host =
    let name = match host with Some h -> h | None -> "(no host)" in
    match Hashtbl.find_opt pids name with
    | Some p -> p
    | None ->
        let p = !next_pid in
        incr next_pid;
        Hashtbl.replace pids name p;
        pid_order := (name, p) :: !pid_order;
        p
  in
  for i = 0 to st.count - 1 do
    ignore (pid_of (get st i).shost)
  done;
  let events = ref [] in
  for i = st.count - 1 downto 0 do
    let r = get st i in
    let dur = if Float.is_nan r.st1 then 0. else r.st1 -. r.st0 in
    let args =
      [ ("id", Jout.str (string_of_int r.sid)) ]
      @ (match r.sparent with None -> [] | Some p -> [ ("parent", Jout.str (string_of_int p)) ])
      @ List.map (fun (k, v) -> (k, Jout.str v)) r.sargs
      @ (if Float.is_nan r.st1 then [ ("unfinished", "true") ] else [])
    in
    events :=
      Jout.obj
        [
          ("name", Jout.str r.sname);
          ("ph", Jout.str "X");
          ("pid", string_of_int (pid_of r.shost));
          ("tid", string_of_int r.sfiber);
          ("ts", Jout.flt r.st0);
          ("dur", Jout.flt dur);
          ("args", Jout.obj args);
        ]
      :: !events
  done;
  let meta =
    List.rev_map
      (fun (name, p) ->
        Jout.obj
          [
            ("name", Jout.str "process_name");
            ("ph", Jout.str "M");
            ("pid", string_of_int p);
            ("tid", "0");
            ("args", Jout.obj [ ("name", Jout.str name) ]);
          ])
      !pid_order
  in
  Jout.obj [ ("traceEvents", Jout.arr (meta @ !events)) ]

let capture f =
  let prev = !enabled_flag in
  enabled_flag := true;
  match f () with
  | r ->
      let dump = dump_json () in
      enabled_flag := prev;
      (r, dump)
  | exception e ->
      enabled_flag := prev;
      raise e
