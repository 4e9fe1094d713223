type t = { rt : Tango.Runtime.t; roid : int; mutable value : int; mutable last_pos : int }

(* [Codec.put_int]'s 8 big-endian bytes, written straight into the
   record's buffer: no writer or closure. *)
let encode v =
  let b = Bytes.create 8 in
  for i = 0 to 7 do
    Bytes.unsafe_set b i (Char.unsafe_chr ((v lsr (56 - (8 * i))) land 0xFF))
  done;
  b

let decode data = Codec.get_int (Codec.reader data)

let attach rt ~oid =
  let t = { rt; roid = oid; value = 0; last_pos = -1 } in
  Tango.Runtime.register rt ~oid
    {
      Tango.Runtime.apply =
        (fun ~pos ~key:_ data ->
          t.value <- decode data;
          t.last_pos <- pos);
      checkpoint = Some (fun () -> encode t.value);
      load_checkpoint = Some (fun data -> t.value <- decode data);
    };
  t

let oid t = t.roid
let write t v = Tango.Runtime.update_helper t.rt ~oid:t.roid (encode v)

let read t =
  Tango.Runtime.query_helper t.rt ~oid:t.roid ();
  t.value

let read_at t ~upto =
  Tango.Runtime.query_helper t.rt ~oid:t.roid ~upto ();
  t.value

let last_update_pos t = t.last_pos
