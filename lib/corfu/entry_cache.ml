type t = {
  cap : int;
  cells : Types.entry Pages.t;
  mutable floor : Types.offset;
  mutable high : Types.offset;  (* highest offset added, -1 if none *)
}

(* What a cell holding no entry reads; compared physically. *)
let absent : Types.entry = { headers = Bytes.empty; payload = Bytes.empty }

let create ~cap = { cap; cells = Pages.create ~empty:absent; floor = 0; high = -1 }
let length t = Pages.length t.cells
let mem t off = Pages.get t.cells off != absent

let find t off =
  let e = Pages.get t.cells off in
  if e == absent then raise_notrace Not_found else e

let add t off entry =
  if off >= t.floor then begin
    Pages.set t.cells off entry;
    if off > t.high then t.high <- off;
    if Pages.length t.cells > t.cap then begin
      let keep_from = t.high - (t.cap / 2) in
      Pages.drop_below t.cells keep_from
    end
  end

let drop_below t off =
  if off > t.floor then begin
    t.floor <- off;
    Pages.drop_below t.cells off
  end
