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
  born : int;
  mutable arr : rec_ option array;
  mutable count : int;
  stacks : (int, int list) Hashtbl.t;  (* fiber id -> open span ids, innermost first *)
}

let fresh ~born = { born; arr = Array.make 256 None; count = 0; stacks = Hashtbl.create 32 }
let current_state = ref (fresh ~born:0)

let state () =
  let rc = Engine.run_count () in
  if !current_state.born <> rc then current_state := fresh ~born:rc;
  !current_state

let reset () = current_state := fresh ~born:(Engine.run_count ())

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

let current () =
  if not !enabled_flag then None
  else
    let st = state () in
    match stack_of st (Engine.fiber_id ()) with [] -> None | top :: _ -> Some top

let with_span ?host ?(args = []) name f =
  if not !enabled_flag then f ()
  else begin
    let st = state () in
    let fid = Engine.fiber_id () in
    let old_stack = stack_of st fid in
    let sparent = match old_stack with [] -> None | top :: _ -> Some top in
    let shost =
      match host with
      | Some _ -> host
      | None -> ( match sparent with Some p -> (get st p).shost | None -> None)
    in
    let sid = st.count in
    let r = { sid; sparent; sname = name; shost; sfiber = fid; st0 = Engine.now (); st1 = Float.nan; sargs = args } in
    push st r;
    Hashtbl.replace st.stacks fid (sid :: old_stack);
    Fun.protect
      ~finally:(fun () ->
        r.st1 <- Engine.now ();
        if Flight.enabled () then
          Flight.record
            ~host:(match r.shost with Some h -> h | None -> "")
            Flight.Span_close ~name:r.sname ~value:(r.st1 -. r.st0);
        (* The stack may belong to a newer generation if a reset
           happened mid-span; only unwind our own generation. *)
        if !current_state == st then Hashtbl.replace st.stacks fid old_stack)
      f
  end

let with_parent parent f =
  if not !enabled_flag then f ()
  else begin
    let st = state () in
    let fid = Engine.fiber_id () in
    let old_stack = stack_of st fid in
    Hashtbl.replace st.stacks fid (match parent with None -> [] | Some p -> [ p ]);
    Fun.protect
      ~finally:(fun () -> if !current_state == st then Hashtbl.replace st.stacks fid old_stack)
      f
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
