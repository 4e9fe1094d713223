(** Binary codec for the object library's update records: thin aliases
    over {!Corfu.Wire}, the shared big-endian codec, plus the
    [int]-flavoured names the object wire formats were written
    against. *)

module Wire = Corfu.Wire

let to_bytes = Wire.to_bytes
let put_u8 = Wire.put_u8
let put_bool = Wire.put_bool
let put_int = Wire.put_u64
let put_string = Wire.put_string
let put_opt_string = Wire.put_opt_string

type cursor = Wire.cursor

let reader = Wire.reader
let get_u8 = Wire.get_u8
let get_bool = Wire.get_bool
let get_int = Wire.get_u64
let get_string = Wire.get_string
let skip_string = Wire.skip_string
let get_opt_string = Wire.get_opt_string
