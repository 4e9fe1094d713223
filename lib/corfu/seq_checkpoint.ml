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
  let rec scan off =
    if off >= floor && not (complete ()) then begin
      incr scanned;
      match read off with
      | Types.Read_data e ->
          if is_snapshot ~k e then
            List.iter
              (fun (sid, offs) -> Hashtbl.replace tbl sid offs)
              (merge ~above:tbl (decode e.Types.payload) ~k)
          else begin
            note_headers off e;
            scan (off - 1)
          end
      | Types.Read_unwritten | Types.Read_junk | Types.Read_trimmed | Types.Read_sealed _ ->
          scan (off - 1)
    end
  in
  scan top;
  (tbl, !scanned)
