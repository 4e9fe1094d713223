let stream_id = 0x7FFF_FFFE

type t = {
  snap_tail : Types.offset;
  snap_streams : (Types.stream_id * Types.offset list) list;
}

let encode t =
  let b = Buffer.create 256 in
  Buffer.add_int64_be b (Int64.of_int t.snap_tail);
  Buffer.add_int32_be b (Int32.of_int (List.length t.snap_streams));
  List.iter
    (fun (sid, offs) ->
      Buffer.add_int32_be b (Int32.of_int sid);
      Buffer.add_int32_be b (Int32.of_int (List.length offs));
      List.iter (fun o -> Buffer.add_int64_be b (Int64.of_int o)) offs)
    t.snap_streams;
  Buffer.to_bytes b

let decode data =
  if Bytes.length data < 12 then invalid_arg "Seq_checkpoint.decode: truncated";
  let at = ref 0 in
  let u32 () =
    let v = Int32.to_int (Bytes.get_int32_be data !at) in
    at := !at + 4;
    v
  in
  let u64 () =
    let v = Int64.to_int (Bytes.get_int64_be data !at) in
    at := !at + 8;
    v
  in
  let snap_tail = u64 () in
  let n = u32 () in
  let snap_streams =
    List.init n (fun _ ->
        let sid = u32 () in
        let count = u32 () in
        (sid, List.init count (fun _ -> u64 ())))
  in
  { snap_tail; snap_streams }

let is_snapshot ~k (entry : Types.entry) =
  match Stream_header.locate ~k entry.Types.headers stream_id with
  | at -> at >= 0
  | exception Invalid_argument _ -> false

let merge ~above t ~k =
  let tbl = Hashtbl.create 64 in
  List.iter (fun (sid, offs) -> Hashtbl.replace tbl sid offs) t.snap_streams;
  Hashtbl.iter
    (fun sid recent ->
      let older = match Hashtbl.find_opt tbl sid with Some l -> l | None -> [] in
      let rec take n = function x :: r when n > 0 -> x :: take (n - 1) r | _ -> [] in
      Hashtbl.replace tbl sid (take k (recent @ older)))
    above;
  Hashtbl.fold (fun sid offs acc -> (sid, offs) :: acc) tbl []

let rebuild ~k ~floor ~read ?streams top =
  let tbl : (Types.stream_id, Types.offset list) Hashtbl.t = Hashtbl.create 64 in
  let scanned = ref 0 in
  let note_headers off (e : Types.entry) =
    List.iter
      (fun (h : Stream_header.t) ->
        let prev = match Hashtbl.find_opt tbl h.stream with Some l -> l | None -> [] in
        if List.length prev < k then Hashtbl.replace tbl h.stream (prev @ [ off ]))
      (Stream_header.decode_block ~k ~current:off e.Types.headers)
  in
  let complete () =
    match streams with
    | None -> false
    | Some sids ->
        List.for_all
          (fun sid ->
            match Hashtbl.find_opt tbl sid with Some l -> List.length l >= k | None -> false)
          sids
  in
  (* The [i]th offset examined is [top - i]. Its read is issued once
     the [i - window]th has been examined, so at most [window] reads
     are in flight and at most [window - 1] lie past the stop point;
     answers land in a ring of [window] slots and are examined in
     order, by whichever fiber completes the next one. *)
  let n = top - floor + 1 in
  if n > 0 && not (complete ()) then begin
    let window = Fan_out.window in
    let ring = Array.make window None in
    let stopped = ref false in
    let finished = Sim.Ivar.create () in
    let moved = Sim.Engine.waitq () in
    let stop () =
      stopped := true;
      Sim.Ivar.fill finished ()
    in
    let examine off = function
      | Types.Read_data e when is_snapshot ~k e ->
          List.iter
            (fun (sid, offs) -> Hashtbl.replace tbl sid offs)
            (merge ~above:tbl (decode e.Types.payload) ~k);
          stop ()
      | Types.Read_data e -> note_headers off e
      | Types.Read_unwritten | Types.Read_junk | Types.Read_trimmed | Types.Read_sealed _ -> ()
    in
    let rec advance () =
      match ring.(!scanned mod window) with
      | Some r when not !stopped ->
          ring.(!scanned mod window) <- None;
          let off = top - !scanned in
          incr scanned;
          examine off r;
          if (not !stopped) && (!scanned = n || complete ()) then stop ();
          advance ()
      | Some _ | None -> ()
    in
    let fetch i =
      while (not !stopped) && i >= !scanned + window do
        Sim.Engine.park moved
      done;
      if not !stopped then begin
        ring.(i mod window) <- Some (read (top - i));
        advance ();
        (* a worker held back by the window, or all of them once the
           scan has stopped *)
        Sim.Engine.wake_all moved
      end;
      not !stopped
    in
    ignore (Fan_out.start ~n fetch : unit Sim.Ivar.t);
    Sim.Ivar.read finished
  end;
  (tbl, !scanned)
