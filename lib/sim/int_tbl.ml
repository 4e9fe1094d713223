include Hashtbl.Make (struct
  type t = int

  let equal (a : int) b = a = b

  let hash x =
    let h = x * 0x1E3779B97F4A7C15 in
    (h lxor (h lsr 29)) land max_int
end)
