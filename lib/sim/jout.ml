let str s =
  let buf = Buffer.create (String.length s + 2) in
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 -> Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"';
  Buffer.contents buf

let flt v =
  if not (Float.is_finite v) then "null"
  else if Float.is_integer v && Float.abs v < 9.007199254740992e15 then
    Printf.sprintf "%.0f" v
  else Printf.sprintf "%.6g" v

let exact v =
  if Float.is_integer v && Float.abs v < 9.007199254740992e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let obj fields =
  let buf = Buffer.create 64 in
  Buffer.add_char buf '{';
  List.iteri
    (fun i (k, v) ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf (str k);
      Buffer.add_char buf ':';
      Buffer.add_string buf v)
    fields;
  Buffer.add_char buf '}';
  Buffer.contents buf

let arr items =
  let buf = Buffer.create 64 in
  Buffer.add_char buf '[';
  List.iteri
    (fun i v ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf v)
    items;
  Buffer.add_char buf ']';
  Buffer.contents buf
