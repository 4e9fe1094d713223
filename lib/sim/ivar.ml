(* The cell and its blocking live in [Engine], whose handler parks a
   lone reader in the cell's state. *)
type 'a t = 'a Engine.ivar

let create = Engine.ivar_create
let fill = Engine.ivar_fill
let read = Engine.ivar_read
let peek = Engine.ivar_peek
let is_filled = Engine.ivar_is_filled
