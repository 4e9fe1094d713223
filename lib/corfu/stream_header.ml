type t = { stream : Types.stream_id; backptrs : Types.offset list }

let max_stream_id = 0x7FFF_FFFF
let relative_limit = 0xFFFF

let header_size ~k = 4 + (2 * k)
let block_size ~k ~streams = 1 + (streams * header_size ~k)

let check_k k = if k < 4 || k mod 4 <> 0 then invalid_arg "Stream_header: K must be a positive multiple of 4"

let uses_absolute_format ~current t =
  not (List.for_all (fun p -> current - p >= 1 && current - p <= relative_limit) t.backptrs)

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

(* One writer serves both forms of a header's backpointers: the
   [index] offsets just below [current] (a grant's earlier entries,
   newest first) followed by [prior]; with [index] > 0 the sequence is
   truncated to K. A record [{ stream; backptrs }] is index 0 with
   [prior = backptrs]. Everything below is top-level recursion over
   [prior], so a header builds no list or closure. *)

(* Validates the first [n] of [ptrs] (all of them, every one checked
   before any delta is tested); [true] when each delta fits 16 bits. *)
let rec check_ptrs ~current ptrs n =
  match ptrs with
  | p :: rest when n > 0 ->
      if p < 0 || p >= current then invalid_arg "Stream_header: backpointer not below entry";
      let fits = check_ptrs ~current rest (n - 1) in
      fits && current - p <= relative_limit
  | _ -> true

(* Writes up to [n] of [ptrs] from [pos] on, as 2-byte deltas. *)
let rec put_deltas ~current buf pos ptrs n =
  match ptrs with
  | p :: rest when n > 0 ->
      set_u16 buf pos (current - p);
      put_deltas ~current buf (pos + 2) rest (n - 1)
  | _ -> ()

(* Writes up to [n] of [ptrs] from slot [i] on as absolute offsets, and
   marks the slots after them up to [n] empty. *)
let rec put_absolute buf pos i ptrs n =
  if i < n then
    match ptrs with
    | p :: rest ->
        set_u64 buf (pos + (8 * i)) (Int64.of_int p);
        put_absolute buf pos (i + 1) rest n
    | [] ->
        set_u64 buf (pos + (8 * i)) absolute_empty;
        put_absolute buf pos (i + 1) [] n

let encode_header ~k ~current ~index buf pos sid prior =
  if sid < 0 || sid > max_stream_id then invalid_arg "Stream_header: stream id out of range";
  let earlier = if index < k then index else k in
  (* [prior] slots left after the earlier offsets: all of [prior] at
     index 0, where more than K is an error *)
  let room = if index = 0 then max_int else k - earlier in
  if earlier > 0 && earlier > current then invalid_arg "Stream_header: backpointer not below entry";
  let fits = check_ptrs ~current prior room && earlier <= relative_limit in
  if index = 0 && List.length prior > k then invalid_arg "Stream_header: too many backpointers";
  if fits then begin
    (* Format bit 0: K 2-byte deltas; the fresh block is zero-padded. *)
    set_u32 buf pos sid;
    for j = 0 to earlier - 1 do
      set_u16 buf (pos + 4 + (2 * j)) (j + 1)
    done;
    put_deltas ~current buf (pos + 4 + (2 * earlier)) prior room
  end
  else begin
    (* Format bit 1: K/4 8-byte absolute offsets, most recent first. *)
    set_u32 buf pos (sid lor 0x8000_0000);
    let slots = k / 4 in
    let kept = if earlier < slots then earlier else slots in
    for j = 0 to kept - 1 do
      set_u64 buf (pos + 4 + (8 * j)) (Int64.of_int (current - 1 - j))
    done;
    put_absolute buf (pos + 4) kept prior slots
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

let new_block ~k n =
  check_k k;
  if n > 255 then invalid_arg "Stream_header: too many headers in one entry";
  let buf = Bytes.make (block_size ~k ~streams:n) '\000' in
  Bytes.set_uint8 buf 0 n;
  buf

let rec put_tails ~k ~current ~index buf pos = function
  | [] -> ()
  | (sid, prior) :: rest ->
      encode_header ~k ~current ~index buf pos sid prior;
      put_tails ~k ~current ~index buf (pos + header_size ~k) rest

let encode_tails ~k ~current ~index tails =
  let buf = new_block ~k (List.length tails) in
  put_tails ~k ~current ~index buf 1 tails;
  buf

let rec put_records ~k ~current buf pos = function
  | [] -> ()
  | h :: rest ->
      encode_header ~k ~current ~index:0 buf pos h.stream h.backptrs;
      put_records ~k ~current buf (pos + header_size ~k) rest

let encode_block ~k ~current headers =
  let buf = new_block ~k (List.length headers) in
  put_records ~k ~current buf 1 headers;
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
