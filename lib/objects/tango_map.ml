type stored = Inline_value of string | At_pos of int

(* Keyed by string equality, not the polymorphic compare. [String.hash]
   is [Hashtbl.hash] on strings, so bucket order (and with it the
   checkpoint bytes [snapshot] writes) is that of a generic table. *)
module Tbl = Hashtbl.Make (String)

type t = {
  rt : Tango.Runtime.t;
  moid : int;
  mode : [ `Inline | `Indexed ];
  tbl : stored Tbl.t;
}

let encode_put k v =
  Codec.to_bytes (fun b ->
      Codec.put_u8 b 1;
      Codec.put_string b k;
      Codec.put_string b v)

let encode_remove k =
  Codec.to_bytes (fun b ->
      Codec.put_u8 b 2;
      Codec.put_string b k)

type op = Op_put of string * string | Op_remove of string

let decode data =
  let c = Codec.reader data in
  match Codec.get_u8 c with
  | 1 ->
      let k = Codec.get_string c in
      let v = Codec.get_string c in
      Op_put (k, v)
  | 2 -> Op_remove (Codec.get_string c)
  | tag -> invalid_arg (Printf.sprintf "Tango_map: unknown op tag %d" tag)

let snapshot t =
  Codec.to_bytes (fun b ->
      Codec.put_int b (Tbl.length t.tbl);
      Tbl.iter
        (fun k stored ->
          Codec.put_string b k;
          match stored with
          | Inline_value v ->
              Codec.put_u8 b 1;
              Codec.put_string b v
          | At_pos p ->
              Codec.put_u8 b 2;
              Codec.put_int b p)
        t.tbl)

let load_snapshot t data =
  Tbl.reset t.tbl;
  let c = Codec.reader data in
  let n = Codec.get_int c in
  for _ = 1 to n do
    let k = Codec.get_string c in
    match Codec.get_u8 c with
    | 1 -> Tbl.replace t.tbl k (Inline_value (Codec.get_string c))
    | _ -> Tbl.replace t.tbl k (At_pos (Codec.get_int c))
  done

(* A keyed update carries its key beside the payload (every writer
   below passes the key it encodes), so only the value is decoded, and
   an indexed view decodes nothing past the tag. An unkeyed update
   ([coarse_put]) decodes both. *)
let apply t ~pos ~key data =
  match key with
  | None -> (
      match decode data with
      | Op_put (k, v) ->
          Tbl.replace t.tbl k
            (match t.mode with `Inline -> Inline_value v | `Indexed -> At_pos pos)
      | Op_remove k -> Tbl.remove t.tbl k)
  | Some k -> (
      let c = Codec.reader data in
      match Codec.get_u8 c with
      | 1 -> (
          match t.mode with
          | `Inline ->
              Codec.skip_string c;
              Tbl.replace t.tbl k (Inline_value (Codec.get_string c))
          | `Indexed -> Tbl.replace t.tbl k (At_pos pos))
      | 2 -> Tbl.remove t.tbl k
      | tag -> invalid_arg (Printf.sprintf "Tango_map: unknown op tag %d" tag))

let attach ?(mode = `Inline) ?(needs_decision = false) rt ~oid =
  let t = { rt; moid = oid; mode; tbl = Tbl.create 64 } in
  Tango.Runtime.register rt ~oid ~needs_decision
    {
      Tango.Runtime.apply = apply t;
      checkpoint = Some (fun () -> snapshot t);
      load_checkpoint = Some (fun data -> load_snapshot t data);
    };
  t

let oid t = t.moid
let put t k v = Tango.Runtime.update_helper t.rt ~oid:t.moid ~key:k (encode_put k v)
let remove t k = Tango.Runtime.update_helper t.rt ~oid:t.moid ~key:k (encode_remove k)

(* Does the write ([key], [data]) name key [k]? A keyed write carries
   its key; only an unkeyed one ([coarse_put]) is decoded. *)
let writes_key k ~key data =
  match key with
  | Some key -> String.equal key k
  | None -> ( match decode data with Op_put (key, _) | Op_remove key -> String.equal key k)

let value_of t k = function
  | Inline_value v -> v
  | At_pos pos -> (
      (* The view is an index over the log: fetch the record's last
         write of [k] — the one the view applied — and re-decode its
         payload (§3.1, Durability). A removal would have unbound [k],
         so that write is a put. *)
      match decode (Tango.Runtime.fetch t.rt ~oid:t.moid ~select:(writes_key k) pos) with
      | Op_put (_, v) -> v
      | Op_remove _ -> assert false)

let get t k =
  Tango.Runtime.query_helper t.rt ~oid:t.moid ~key:k ();
  Option.map (value_of t k) (Tbl.find_opt t.tbl k)

let mem t k =
  Tango.Runtime.query_helper t.rt ~oid:t.moid ~key:k ();
  Tbl.mem t.tbl k

let size t =
  Tango.Runtime.query_helper t.rt ~oid:t.moid ();
  Tbl.length t.tbl

let bindings t =
  Tango.Runtime.query_helper t.rt ~oid:t.moid ();
  Tbl.fold (fun k stored acc -> (k, value_of t k stored) :: acc) t.tbl []
  |> List.sort compare

let remote_put rt ~oid k v = Tango.Runtime.update_helper rt ~oid ~key:k (encode_put k v)

let coarse_put t k v = Tango.Runtime.update_helper t.rt ~oid:t.moid (encode_put k v)

let wire_decode ?key data =
  match key with
  | None -> ( match decode data with Op_put (k, v) -> `Put (k, v) | Op_remove k -> `Remove k)
  | Some k -> (
      let c = Codec.reader data in
      match Codec.get_u8 c with
      | 1 ->
          Codec.skip_string c;
          `Put (k, Codec.get_string c)
      | 2 -> `Remove k
      | tag -> invalid_arg (Printf.sprintf "Tango_map: unknown op tag %d" tag))

let serve_reads t =
  Tango.Runtime.expose_read t.rt ~oid:t.moid (fun key ->
      match key with
      | Some k ->
          Option.map (fun stored -> Bytes.of_string (value_of t k stored)) (Tbl.find_opt t.tbl k)
      | None -> None)

let get_remote rt ~oid k =
  Option.map Bytes.to_string (Tango.Runtime.query_remote rt ~oid ~key:k ())

let get_at t ~upto k =
  Tango.Runtime.query_helper t.rt ~oid:t.moid ~upto ();
  Option.map (value_of t k) (Tbl.find_opt t.tbl k)

let transfer ~from_map ~to_map_oid k =
  let rt = from_map.rt in
  Tango.Runtime.begin_tx rt;
  match get from_map k with
  | None ->
      Tango.Runtime.abort_tx rt;
      false
  | Some v -> (
      remove from_map k;
      Tango.Runtime.update_helper rt ~oid:to_map_oid ~key:k (encode_put k v);
      match Tango.Runtime.end_tx rt with
      | Tango.Runtime.Committed -> true
      | Tango.Runtime.Aborted -> false)
