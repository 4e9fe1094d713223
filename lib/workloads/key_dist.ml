type t = Uniform of int | Zipfian of Zipf.t

let uniform ~n =
  if n < 1 then invalid_arg "Key_dist.uniform: n must be positive";
  Uniform n

let zipf ~n () = Zipfian (Zipf.create ~n ())

let population = function Uniform n -> n | Zipfian z -> Zipf.n z

let sample t rng =
  match t with Uniform n -> Sim.Rng.int rng n | Zipfian z -> Zipf.sample z rng

(* "k" and eight zero-padded digits written straight into the string
   (3 words, where [Printf.sprintf] costs 46); indices that do not fit
   eight digits keep the [Printf] rendering. *)
let key_name i =
  if i < 0 || i > 99_999_999 then Printf.sprintf "k%08d" i
  else begin
    let b = Bytes.create 9 in
    Bytes.unsafe_set b 0 'k';
    let v = ref i in
    for pos = 8 downto 1 do
      Bytes.unsafe_set b pos (Char.unsafe_chr (48 + (!v mod 10)));
      v := !v / 10
    done;
    Bytes.unsafe_to_string b
  end

let sample_key t rng = key_name (sample t rng)

let rec mem_int (i : int) = function [] -> false | j :: rest -> j = i || mem_int i rest

let distinct_keys t rng count =
  if count > population t then invalid_arg "Key_dist.distinct_keys: count exceeds population";
  (* A transaction draws a handful of keys: a list scan beats hashing. *)
  let rec draw seen acc remaining =
    if remaining = 0 then acc
    else begin
      let i = sample t rng in
      if mem_int i seen then draw seen acc remaining
      else draw (i :: seen) (key_name i :: acc) (remaining - 1)
    end
  in
  draw [] [] count
