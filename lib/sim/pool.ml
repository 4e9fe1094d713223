type 'a t = { mutable items : 'a array; mutable len : int }

let create () = { items = [||]; len = 0 }
let is_empty p = p.len = 0

let put p x =
  if p.len = Array.length p.items then begin
    let bigger = Array.make (max 8 (2 * p.len)) x in
    Array.blit p.items 0 bigger 0 p.len;
    p.items <- bigger
  end;
  p.items.(p.len) <- x;
  p.len <- p.len + 1

let pop p =
  p.len <- p.len - 1;
  p.items.(p.len)
