let page_bits = 10
let page_size = 1 lsl page_bits
let mask = page_size - 1

type 'a t = {
  empty : 'a;
  mutable spine : 'a array array;  (* [absent] where no page is held *)
  mutable live : int array;  (* per spine slot: its cells that are not [empty] *)
  mutable length : int;
  mutable held : int;
  mutable low : int;  (* no page below this spine slot is held *)
}

let absent = [||]
let create ~empty = { empty; spine = [||]; live = [||]; length = 0; held = 0; low = 0 }
let length t = t.length
let pages_held t = t.held

(* A negative offset lands past the spine's end. *)
let[@inline] get t off =
  let p = off lsr page_bits in
  if p >= Array.length t.spine then t.empty
  else begin
    let page = Array.unsafe_get t.spine p in
    if page == absent then t.empty else Array.unsafe_get page (off land mask)
  end

let grow t p =
  let n = Array.length t.spine in
  let m = max (p + 1) (2 * n) in
  let spine = Array.make m absent and live = Array.make m 0 in
  Array.blit t.spine 0 spine 0 n;
  Array.blit t.live 0 live 0 n;
  t.spine <- spine;
  t.live <- live

let page_for t p =
  let page = Array.unsafe_get t.spine p in
  if page != absent then page
  else begin
    let page = Array.make page_size t.empty in
    t.spine.(p) <- page;
    t.held <- t.held + 1;
    if p < t.low then t.low <- p;
    page
  end

let count t p d =
  t.live.(p) <- t.live.(p) + d;
  t.length <- t.length + d

let set t off v =
  if off < 0 then invalid_arg "Pages.set: negative offset";
  let p = off lsr page_bits in
  if p >= Array.length t.spine then grow t p;
  let page = page_for t p in
  let i = off land mask in
  let was_empty = Array.unsafe_get page i == t.empty and is_empty = v == t.empty in
  if was_empty && not is_empty then count t p 1 else if is_empty && not was_empty then count t p (-1);
  Array.unsafe_set page i v

(* Pages below [t.low] are already gone, so the sweep starts there. *)
let drop_below t off =
  if off > 0 then begin
    let n = Array.length t.spine in
    let last = min (off lsr page_bits) n in
    for p = t.low to last - 1 do
      if t.spine.(p) != absent then begin
        t.spine.(p) <- absent;
        count t p (-t.live.(p));
        t.held <- t.held - 1
      end
    done;
    if last > t.low then t.low <- last;
    if last < n && t.spine.(last) != absent then begin
      let page = t.spine.(last) in
      for i = 0 to (off land mask) - 1 do
        if page.(i) != t.empty then begin
          page.(i) <- t.empty;
          count t last (-1)
        end
      done
    end
  end
