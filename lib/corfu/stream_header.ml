type t = { stream : Types.stream_id; backptrs : Types.offset list }

let max_stream_id = 0x7FFF_FFFF
let relative_limit = 0xFFFF

let header_size ~k = 4 + (2 * k)
let block_size ~k ~streams = 1 + (streams * header_size ~k)

let check_k k = if k < 4 || k mod 4 <> 0 then invalid_arg "Stream_header: K must be a positive multiple of 4"

let fits_relative ~current backptrs =
  List.for_all (fun p -> current - p >= 1 && current - p <= relative_limit) backptrs

let uses_absolute_format ~current t = not (fits_relative ~current t.backptrs)

let set_u16 buf pos v =
  Bytes.set_uint8 buf pos (v lsr 8);
  Bytes.set_uint8 buf (pos + 1) (v land 0xFF)

let get_u16 buf pos = (Bytes.get_uint8 buf pos lsl 8) lor Bytes.get_uint8 buf (pos + 1)

let set_u32 buf pos v =
  set_u16 buf pos (v lsr 16);
  set_u16 buf (pos + 2) (v land 0xFFFF)

let get_u32 buf pos = (get_u16 buf pos lsl 16) lor get_u16 buf (pos + 2)

let absolute_empty = 0xFFFF_FFFF_FFFF_FFFFL

let set_u64 buf pos v = Bytes.set_int64_be buf pos v
let get_u64 buf pos = Bytes.get_int64_be buf pos

let encode_header ~k ~current buf pos t =
  if t.stream < 0 || t.stream > max_stream_id then
    invalid_arg "Stream_header: stream id out of range";
  List.iter
    (fun p -> if p < 0 || p >= current then invalid_arg "Stream_header: backpointer not below entry")
    t.backptrs;
  if List.length t.backptrs > k then invalid_arg "Stream_header: too many backpointers";
  if fits_relative ~current t.backptrs then begin
    (* Format bit 0: K 2-byte deltas, zero-padded. *)
    set_u32 buf pos t.stream;
    List.iteri (fun i p -> set_u16 buf (pos + 4 + (2 * i)) (current - p)) t.backptrs;
    let used = List.length t.backptrs in
    for i = used to k - 1 do
      set_u16 buf (pos + 4 + (2 * i)) 0
    done
  end
  else begin
    (* Format bit 1: K/4 8-byte absolute offsets, most recent first. *)
    set_u32 buf pos (t.stream lor 0x8000_0000);
    let slots = k / 4 in
    let kept = List.filteri (fun i _ -> i < slots) t.backptrs in
    List.iteri (fun i p -> set_u64 buf (pos + 4 + (8 * i)) (Int64.of_int p)) kept;
    for i = List.length kept to slots - 1 do
      set_u64 buf (pos + 4 + (8 * i)) absolute_empty
    done
  end

let decode_header ~k ~current buf pos =
  let word = get_u32 buf pos in
  let stream = word land max_stream_id in
  let absolute = word land 0x8000_0000 <> 0 in
  let backptrs =
    if absolute then begin
      let slots = k / 4 in
      let rec collect i acc =
        if i >= slots then List.rev acc
        else
          let v = get_u64 buf (pos + 4 + (8 * i)) in
          if v = absolute_empty then List.rev acc
          else collect (i + 1) (Int64.to_int v :: acc)
      in
      collect 0 []
    end
    else begin
      let rec collect i acc =
        if i >= k then List.rev acc
        else
          let d = get_u16 buf (pos + 4 + (2 * i)) in
          if d = 0 then List.rev acc else collect (i + 1) ((current - d) :: acc)
      in
      collect 0 []
    end
  in
  { stream; backptrs }

let encode_block ~k ~current headers =
  check_k k;
  let n = List.length headers in
  if n > 255 then invalid_arg "Stream_header: too many headers in one entry";
  let buf = Bytes.make (block_size ~k ~streams:n) '\000' in
  Bytes.set_uint8 buf 0 n;
  List.iteri (fun i h -> encode_header ~k ~current buf (1 + (i * header_size ~k)) h) headers;
  buf

(* Validate a block and return its header count. *)
let block_count ~k buf =
  check_k k;
  if Bytes.length buf < 1 then invalid_arg "Stream_header: empty block";
  let n = Bytes.get_uint8 buf 0 in
  if Bytes.length buf < block_size ~k ~streams:n then invalid_arg "Stream_header: truncated block";
  n

let decode_block ~k ~current buf =
  let n = block_count ~k buf in
  List.init n (fun i -> decode_header ~k ~current buf (1 + (i * header_size ~k)))

let find headers sid = List.find_opt (fun h -> h.stream = sid) headers

(* Top-level rather than a local closure so a lookup allocates nothing. *)
let rec scan_for buf ~size ~n sid i =
  if i >= n then -1
  else
    let pos = 1 + (i * size) in
    (* Only the stream word of each header is read until [sid] matches. *)
    if get_u32 buf pos land max_stream_id = sid then pos else scan_for buf ~size ~n sid (i + 1)

let locate ~k buf sid = scan_for buf ~size:(header_size ~k) ~n:(block_count ~k buf) sid 0

let backptr ~k ~current buf at i =
  if get_u32 buf at land 0x8000_0000 <> 0 then
    if i >= k / 4 then -1
    else
      let v = get_u64 buf (at + 4 + (8 * i)) in
      if Int64.equal v absolute_empty then -1 else Int64.to_int v
  else if i >= k then -1
  else
    let d = get_u16 buf (at + 4 + (2 * i)) in
    if d = 0 then -1 else current - d
