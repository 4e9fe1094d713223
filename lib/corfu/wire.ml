(* Arena-based writer: a growable [bytes] with an explicit cursor.
   Integers are composed byte-by-byte on the native [int] so the hot
   encode path never touches boxed [Int32]/[Int64]. The byte layout is
   unchanged from the Buffer-based codec (big-endian, values < 2^62). *)

type writer = { mutable wb : bytes; mutable wpos : int }

let writer ?(size = 256) () = { wb = Bytes.create (max 16 size); wpos = 0 }
let reset w = w.wpos <- 0
let pos w = w.wpos

let grow w extra =
  let cap = ref (2 * Bytes.length w.wb) in
  while w.wpos + extra > !cap do
    cap := 2 * !cap
  done;
  let bigger = Bytes.create !cap in
  Bytes.blit w.wb 0 bigger 0 w.wpos;
  w.wb <- bigger

let ensure w extra = if w.wpos + extra > Bytes.length w.wb then grow w extra

let put_u8 w v =
  ensure w 1;
  Bytes.unsafe_set w.wb w.wpos (Char.unsafe_chr (v land 0xFF));
  w.wpos <- w.wpos + 1

let put_bool w v = put_u8 w (if v then 1 else 0)

let set32 b p v =
  Bytes.unsafe_set b p (Char.unsafe_chr ((v lsr 24) land 0xFF));
  Bytes.unsafe_set b (p + 1) (Char.unsafe_chr ((v lsr 16) land 0xFF));
  Bytes.unsafe_set b (p + 2) (Char.unsafe_chr ((v lsr 8) land 0xFF));
  Bytes.unsafe_set b (p + 3) (Char.unsafe_chr (v land 0xFF))

let put_u32 w v =
  ensure w 4;
  set32 w.wb w.wpos v;
  w.wpos <- w.wpos + 4

let put_u64 w v =
  ensure w 8;
  let b = w.wb and p = w.wpos in
  Bytes.unsafe_set b p (Char.unsafe_chr ((v lsr 56) land 0xFF));
  Bytes.unsafe_set b (p + 1) (Char.unsafe_chr ((v lsr 48) land 0xFF));
  Bytes.unsafe_set b (p + 2) (Char.unsafe_chr ((v lsr 40) land 0xFF));
  Bytes.unsafe_set b (p + 3) (Char.unsafe_chr ((v lsr 32) land 0xFF));
  Bytes.unsafe_set b (p + 4) (Char.unsafe_chr ((v lsr 24) land 0xFF));
  Bytes.unsafe_set b (p + 5) (Char.unsafe_chr ((v lsr 16) land 0xFF));
  Bytes.unsafe_set b (p + 6) (Char.unsafe_chr ((v lsr 8) land 0xFF));
  Bytes.unsafe_set b (p + 7) (Char.unsafe_chr (v land 0xFF));
  w.wpos <- p + 8

let patch_u32 w ~at v =
  if at < 0 || at + 4 > w.wpos then invalid_arg "Wire.patch_u32: position outside written region";
  set32 w.wb at v

let put_bytes w s =
  let n = Bytes.length s in
  ensure w (4 + n);
  set32 w.wb w.wpos n;
  Bytes.blit s 0 w.wb (w.wpos + 4) n;
  w.wpos <- w.wpos + 4 + n

let put_string w s =
  let n = String.length s in
  ensure w (4 + n);
  set32 w.wb w.wpos n;
  Bytes.blit_string s 0 w.wb (w.wpos + 4) n;
  w.wpos <- w.wpos + 4 + n

let put_opt_string w = function
  | None -> put_u8 w 0
  | Some s ->
      put_u8 w 1;
      put_string w s

let contents w = Bytes.sub w.wb 0 w.wpos

(* Shared arena for [to_bytes]: encodes never yield to the scheduler,
   so a single module-level writer serves every non-nested call. A
   nested [to_bytes] (an encode called from inside an encode) falls
   back to a fresh writer rather than corrupting the arena. *)
let shared = writer ~size:512 ()
let shared_busy = ref false

let to_bytes build =
  if !shared_busy then begin
    let w = writer () in
    build w;
    contents w
  end
  else begin
    shared_busy := true;
    reset shared;
    match build shared with
    | () ->
        shared_busy := false;
        contents shared
    | exception e ->
        let bt = Printexc.get_raw_backtrace () in
        shared_busy := false;
        Printexc.raise_with_backtrace e bt
  end

type cursor = { mutable buf : bytes; mutable at : int }

let reader buf = { buf; at = 0 }

let reset_reader c buf =
  c.buf <- buf;
  c.at <- 0

let need c n =
  if n < 0 || c.at + n > Bytes.length c.buf then invalid_arg "Wire.decode: truncated payload"

let get_u8 c =
  need c 1;
  let v = Bytes.get_uint8 c.buf c.at in
  c.at <- c.at + 1;
  v

let get_bool c = get_u8 c = 1

let get_u32 c =
  need c 4;
  let b = c.buf and p = c.at in
  let v =
    (Char.code (Bytes.unsafe_get b p) lsl 24)
    lor (Char.code (Bytes.unsafe_get b (p + 1)) lsl 16)
    lor (Char.code (Bytes.unsafe_get b (p + 2)) lsl 8)
    lor Char.code (Bytes.unsafe_get b (p + 3))
  in
  c.at <- p + 4;
  v

let get_u64 c =
  need c 8;
  let b = c.buf and p = c.at in
  let hi =
    (Char.code (Bytes.unsafe_get b p) lsl 56)
    lor (Char.code (Bytes.unsafe_get b (p + 1)) lsl 48)
    lor (Char.code (Bytes.unsafe_get b (p + 2)) lsl 40)
    lor (Char.code (Bytes.unsafe_get b (p + 3)) lsl 32)
  in
  let lo =
    (Char.code (Bytes.unsafe_get b (p + 4)) lsl 24)
    lor (Char.code (Bytes.unsafe_get b (p + 5)) lsl 16)
    lor (Char.code (Bytes.unsafe_get b (p + 6)) lsl 8)
    lor Char.code (Bytes.unsafe_get b (p + 7))
  in
  c.at <- p + 8;
  hi lor lo

let get_bytes c =
  let n = get_u32 c in
  need c n;
  let v = Bytes.sub c.buf c.at n in
  c.at <- c.at + n;
  v

let get_string c =
  let n = get_u32 c in
  need c n;
  let v = Bytes.sub_string c.buf c.at n in
  c.at <- c.at + n;
  v

let get_opt_string c =
  match get_u8 c with
  | 0 -> None
  | 1 -> Some (get_string c)
  | tag -> invalid_arg (Printf.sprintf "Wire.decode: bad option tag %d" tag)

let at c = c.at
let remaining c = Bytes.length c.buf - c.at
