module Keys = Set.Make (String)
module Kmap = Map.Make (String)

type t = {
  rt : Tango.Runtime.t;
  ioid : int;
  mutable by_key : string Kmap.t;  (* ordered key -> value *)
  inverted : (string, Keys.t) Hashtbl.t;  (* value -> keys *)
}

let unbind t k =
  match Kmap.find_opt k t.by_key with
  | None -> ()
  | Some v -> (
      t.by_key <- Kmap.remove k t.by_key;
      match Hashtbl.find_opt t.inverted v with
      | Some keys ->
          let keys = Keys.remove k keys in
          if Keys.is_empty keys then Hashtbl.remove t.inverted v
          else Hashtbl.replace t.inverted v keys
      | None -> ())

let apply t ~key data =
  match Tango_map.wire_decode ?key data with
  | `Put (k, v) ->
      unbind t k;
      t.by_key <- Kmap.add k v t.by_key;
      let keys = match Hashtbl.find_opt t.inverted v with Some s -> s | None -> Keys.empty in
      Hashtbl.replace t.inverted v (Keys.add k keys)
  | `Remove k -> unbind t k

let attach rt ~oid =
  let t = { rt; ioid = oid; by_key = Kmap.empty; inverted = Hashtbl.create 64 } in
  let callbacks =
    {
      Tango.Runtime.apply = (fun ~pos:_ ~key data -> apply t ~key data);
      checkpoint = None;
      load_checkpoint = None;
    }
  in
  if Tango.Runtime.is_hosted rt oid then Tango.Runtime.register_extra_view rt ~oid callbacks
  else Tango.Runtime.register rt ~oid callbacks;
  t

let oid t = t.ioid
let sync t = Tango.Runtime.query_helper t.rt ~oid:t.ioid ()

let keys_with_prefix t p =
  sync t;
  Kmap.fold
    (fun k _ acc -> if String.starts_with ~prefix:p k then k :: acc else acc)
    t.by_key []
  |> List.rev

let key_range t ~lo ~hi =
  sync t;
  Kmap.fold
    (fun k _ acc -> if String.compare k lo >= 0 && String.compare k hi < 0 then k :: acc else acc)
    t.by_key []
  |> List.rev

let keys_with_value t v =
  sync t;
  match Hashtbl.find_opt t.inverted v with Some keys -> Keys.elements keys | None -> []

let size t =
  sync t;
  Kmap.cardinal t.by_key
