(* The batcher's bookkeeping core, split from the I/O shell
   ({!Batcher}) so the drain-loop data path can be exercised and
   benchmarked without a simulation running.

   Everything is pooled: a submission writes three fields of a
   preallocated cell, sealing swaps the forming cell array into a
   batch record recycled through a {!Sim.Pool}, the sealed queue is a
   ring, and the sorted-deduped stream set lives in a per-batch int
   array computed through a shared scratch buffer. Steady state allocates nothing per
   record except what the caller hands in ([data]) and the payload
   copy at the encode boundary. *)

type 'a cell = {
  mutable c_rec : Record.t;
  mutable c_streams : Corfu.Types.stream_id list;
  mutable c_data : 'a;
}

type 'a batch = {
  mutable b_cells : 'a cell array;
  mutable b_len : int;
  mutable b_streams : int array;  (* sorted, deduped prefix *)
  mutable b_nstreams : int;
  mutable b_sealed_us : float;  (* virtual time of its seal *)
}

type 'a t = {
  cap : int;  (* records per batch *)
  dummy : 'a;
  mutable forming : 'a cell array;  (* always [cap] cells *)
  mutable forming_len : int;
  mutable ring : 'a batch array;  (* sealed queue; power-of-two capacity *)
  mutable rhead : int;
  mutable rlen : int;
  pool : 'a batch Sim.Pool.t;  (* recycled batches *)
  mutable scratch : int array;  (* stream-set staging *)
  rec_scratch : Record.t array;  (* encode staging, [cap] slots *)
  empty : 'a batch;  (* sentinel for vacant ring slots *)
}

(* Inert placeholder for vacated record slots: decisions carry no
   payload and never reach the log through this module's scratch. *)
let dummy_record = Record.Decision { d_target = 0; d_committed = false }

let create ~cap ~dummy =
  if cap < 1 || cap > Record.slots_per_entry then invalid_arg "Batch_core.create: bad capacity";
  let empty = { b_cells = [||]; b_len = 0; b_streams = [||]; b_nstreams = 0; b_sealed_us = 0. } in
  {
    cap;
    dummy;
    forming = Array.init cap (fun _ -> { c_rec = dummy_record; c_streams = []; c_data = dummy });
    forming_len = 0;
    ring = Array.make 8 empty;
    rhead = 0;
    rlen = 0;
    pool = Sim.Pool.create ();
    scratch = Array.make 16 0;
    rec_scratch = Array.make cap dummy_record;
    empty;
  }

let forming_len t = t.forming_len
let queued t = t.rlen
let capacity t = t.cap
let length b = b.b_len
let data b i = b.b_cells.(i).c_data

(* [true] when the forming batch just became full and must be sealed. *)
let submit t record streams data =
  if t.forming_len >= t.cap then invalid_arg "Batch_core.submit: forming batch full";
  let c = Array.unsafe_get t.forming t.forming_len in
  c.c_rec <- record;
  c.c_streams <- streams;
  c.c_data <- data;
  t.forming_len <- t.forming_len + 1;
  t.forming_len = t.cap

let grow_scratch t =
  let bigger = Array.make (2 * Array.length t.scratch) 0 in
  Array.blit t.scratch 0 bigger 0 (Array.length t.scratch);
  t.scratch <- bigger

(* Gather every cell's streams into scratch, insertion-sort (stream
   sets are tiny), dedupe in place, and store the result in the
   batch's own array. *)
let compute_streams t b =
  let n = ref 0 in
  for i = 0 to b.b_len - 1 do
    let rec go = function
      | [] -> ()
      | s :: rest ->
          if !n = Array.length t.scratch then grow_scratch t;
          t.scratch.(!n) <- s;
          incr n;
          go rest
    in
    go b.b_cells.(i).c_streams
  done;
  let sc = t.scratch in
  for i = 1 to !n - 1 do
    let v = sc.(i) in
    let j = ref (i - 1) in
    while !j >= 0 && sc.(!j) > v do
      sc.(!j + 1) <- sc.(!j);
      decr j
    done;
    sc.(!j + 1) <- v
  done;
  let m = ref 0 in
  for i = 0 to !n - 1 do
    if !m = 0 || sc.(i) <> sc.(!m - 1) then begin
      sc.(!m) <- sc.(i);
      incr m
    end
  done;
  if Array.length b.b_streams < !m then b.b_streams <- Array.make (max 8 !m) 0;
  Array.blit sc 0 b.b_streams 0 !m;
  b.b_nstreams <- !m

let ring_push t b =
  if t.rlen = Array.length t.ring then begin
    let old = t.ring in
    let n = Array.length old in
    let bigger = Array.make (2 * n) t.empty in
    for i = 0 to t.rlen - 1 do
      bigger.(i) <- old.((t.rhead + i) land (n - 1))
    done;
    t.ring <- bigger;
    t.rhead <- 0
  end;
  t.ring.((t.rhead + t.rlen) land (Array.length t.ring - 1)) <- b;
  t.rlen <- t.rlen + 1

let fresh_batch t =
  {
    b_cells = Array.init t.cap (fun _ -> { c_rec = dummy_record; c_streams = []; c_data = t.dummy });
    b_len = 0;
    b_streams = Array.make 8 0;
    b_nstreams = 0;
    b_sealed_us = 0.;
  }

(* Seal by swapping the forming cell array into a recycled batch — the
   cells (and the records/data they reference) move without copying,
   and the batch's cleared cells become the next forming array. *)
let seal t ~now =
  if t.forming_len > 0 then begin
    let b = if Sim.Pool.is_empty t.pool then fresh_batch t else Sim.Pool.pop t.pool in
    let cells = b.b_cells in
    b.b_cells <- t.forming;
    t.forming <- cells;
    b.b_len <- t.forming_len;
    b.b_sealed_us <- now;
    t.forming_len <- 0;
    compute_streams t b;
    ring_push t b
  end

let streams_equal a b =
  a.b_nstreams = b.b_nstreams
  &&
  let rec eq i = i >= a.b_nstreams || (a.b_streams.(i) = b.b_streams.(i) && eq (i + 1)) in
  eq 0

(* Length of the leading run of sealed batches sharing the front
   batch's stream set, capped at [max_run] — the group one range grant
   covers. Requires a non-empty queue. *)
let group t ~max_run =
  if t.rlen = 0 then invalid_arg "Batch_core.group: empty queue";
  let mask = Array.length t.ring - 1 in
  let first = t.ring.(t.rhead land mask) in
  let rec go n =
    if n >= max_run || n >= t.rlen then n
    else if streams_equal first t.ring.((t.rhead + n) land mask) then go (n + 1)
    else n
  in
  go 1

(* [l] is exactly [a.(i)], ..., [a.(n - 1)]. *)
let rec list_is l a i n =
  match l with [] -> i = n | x :: rest -> i < n && x = a.(i) && list_is rest a (i + 1) n

(* The front batch's stream set as a list — the RPC boundary owns it.
   Its first record's own list already is that set whenever every
   record names the same sorted streams (one object's updates), so it
   is shared rather than rebuilt. *)
let front_streams t =
  if t.rlen = 0 then invalid_arg "Batch_core.front_streams: empty queue";
  let b = t.ring.(t.rhead land (Array.length t.ring - 1)) in
  let first = b.b_cells.(0).c_streams in
  if list_is first b.b_streams 0 b.b_nstreams then first
  else List.init b.b_nstreams (fun i -> b.b_streams.(i))

let front_sealed_us t =
  if t.rlen = 0 then invalid_arg "Batch_core.front_sealed_us: empty queue";
  t.ring.(t.rhead land (Array.length t.ring - 1)).b_sealed_us

let pop t =
  if t.rlen = 0 then invalid_arg "Batch_core.pop: empty queue";
  let mask = Array.length t.ring - 1 in
  let b = t.ring.(t.rhead land mask) in
  t.ring.(t.rhead land mask) <- t.empty;
  t.rhead <- (t.rhead + 1) land mask;
  t.rlen <- t.rlen - 1;
  b

(* Stage the records into the shared scratch and encode in one pass.
   Atomic (no scheduler yields), so the shared scratch and the Record
   arena are safe even with concurrent drain fibers. *)
let encode t b =
  for i = 0 to b.b_len - 1 do
    t.rec_scratch.(i) <- b.b_cells.(i).c_rec
  done;
  let payload = Record.encode_payload_array t.rec_scratch ~len:b.b_len in
  for i = 0 to b.b_len - 1 do
    t.rec_scratch.(i) <- dummy_record
  done;
  payload

let recycle t b =
  for i = 0 to b.b_len - 1 do
    let c = b.b_cells.(i) in
    c.c_rec <- dummy_record;
    c.c_streams <- [];
    c.c_data <- t.dummy
  done;
  b.b_len <- 0;
  b.b_nstreams <- 0;
  Sim.Pool.put t.pool b
