(* Tests for the CORFU shared log: headers, storage nodes, sequencer,
   chain replication, streams, and reconfiguration. *)

open Corfu

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

let payload s = Bytes.of_string s
let payload_str (e : Types.entry) = Bytes.to_string e.Types.payload

let string_contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec at i = i + nn <= nh && (String.sub haystack i nn = needle || at (i + 1)) in
  at 0

(* The RPC cap of the tests' own fabrics: the protocol's. *)
let timeout_us = Sim.Params.default.Sim.Params.rpc_timeout_us

(* Run a simulation body against a fresh cluster. *)
let with_cluster ?(seed = 11) ?(servers = 4) ?(chain_length = 2) body =
  Sim.Engine.run ~seed (fun () ->
      let cluster = Cluster.create ~servers ~chain_length () in
      body cluster)

(* ------------------------------------------------------------------ *)
(* Stream headers                                                     *)
(* ------------------------------------------------------------------ *)

let test_header_relative_roundtrip () =
  let h = { Stream_header.stream = 42; backptrs = [ 99; 80; 51; 7 ] } in
  let block = Stream_header.encode_block ~k:4 ~current:100 [ h ] in
  check_int "block size" 13 (Bytes.length block);
  let decoded = Stream_header.decode_block ~k:4 ~current:100 block in
  Alcotest.(check int) "one header" 1 (List.length decoded);
  let d = List.hd decoded in
  check_int "stream" 42 d.Stream_header.stream;
  Alcotest.(check (list int)) "backptrs" [ 99; 80; 51; 7 ] d.Stream_header.backptrs

let test_header_absolute_when_overflow () =
  (* A delta above 64K entries forces the absolute format, which keeps
     only K/4 pointers. *)
  let h = { Stream_header.stream = 7; backptrs = [ 200_000; 50; 49; 48 ] } in
  check_bool "absolute" true (Stream_header.uses_absolute_format ~current:300_000 h);
  let block = Stream_header.encode_block ~k:4 ~current:300_000 [ h ] in
  check_int "same size" 13 (Bytes.length block);
  let d = List.hd (Stream_header.decode_block ~k:4 ~current:300_000 block) in
  Alcotest.(check (list int)) "only K/4 kept" [ 200_000 ] d.Stream_header.backptrs

let test_header_relative_boundary () =
  (* Delta of exactly 65535 still fits the relative format. *)
  let h = { Stream_header.stream = 1; backptrs = [ 1 ] } in
  check_bool "fits" false (Stream_header.uses_absolute_format ~current:65_536 h);
  check_bool "overflows" true (Stream_header.uses_absolute_format ~current:65_537 h)

let test_header_empty_backptrs () =
  let h = { Stream_header.stream = 3; backptrs = [] } in
  let block = Stream_header.encode_block ~k:4 ~current:0 [ h ] in
  let d = List.hd (Stream_header.decode_block ~k:4 ~current:0 block) in
  Alcotest.(check (list int)) "empty" [] d.Stream_header.backptrs

let test_header_multi_stream_block () =
  let hs =
    [
      { Stream_header.stream = 1; backptrs = [ 9; 8 ] };
      { Stream_header.stream = 2; backptrs = [ 5 ] };
      { Stream_header.stream = 0x7FFF_FFFF; backptrs = [] };
    ]
  in
  let block = Stream_header.encode_block ~k:4 ~current:10 hs in
  check_int "3 headers, 12B each" 37 (Bytes.length block);
  let d = Stream_header.decode_block ~k:4 ~current:10 block in
  check_int "count" 3 (List.length d);
  check_int "find stream 2" 5
    (List.hd (Option.get (Stream_header.find d 2)).Stream_header.backptrs);
  check_bool "missing stream" true (Stream_header.find d 99 = None)

let test_header_rejects_bad_ids () =
  let bad = { Stream_header.stream = 0x8000_0000; backptrs = [] } in
  (match Stream_header.encode_block ~k:4 ~current:1 [ bad ] with
  | _ -> Alcotest.fail "expected rejection"
  | exception Invalid_argument _ -> ());
  let forward = { Stream_header.stream = 1; backptrs = [ 5 ] } in
  match Stream_header.encode_block ~k:4 ~current:5 [ forward ] with
  | _ -> Alcotest.fail "backpointer at/after entry must be rejected"
  | exception Invalid_argument _ -> ()

let test_header_rejects_bad_k () =
  match Stream_header.encode_block ~k:3 ~current:1 [] with
  | _ -> Alcotest.fail "k=3 must be rejected"
  | exception Invalid_argument _ -> ()

(* [find (decode_block ...)] rebuilt from the in-place accessors. *)
let header_in_place ~k ~current block sid =
  match Stream_header.locate ~k block sid with
  | -1 -> None
  | at ->
      let rec collect i =
        match Stream_header.backptr ~k ~current block at i with
        | -1 -> []
        | p -> p :: collect (i + 1)
      in
      Some { Stream_header.stream = sid; backptrs = collect 0 }

let prop_header_lookup_matches_find =
  (* The in-place accessors must agree with decoding the whole block,
     in both wire formats, for present, repeated and absent ids, and
     for headers with no, some and all backpointer slots in use. *)
  QCheck.Test.make ~name:"header lookup = find (decode_block ...)" ~count:300
    QCheck.(
      quad (int_range 70_000 1_000_000)
        (small_list (quad (int_range 0 12) bool (int_range 0 70_000) (int_range 0 8)))
        (int_range 0 15) bool)
    (fun (current, raw, probe, wide) ->
      let k = if wide then 8 else 4 in
      let headers =
        List.map
          (fun (sid, far, spread, count) ->
            (* [count] near pointers (0 to K, so some headers leave
               slots empty and some fill them all), spaced so the
               oldest delta stays within 16 bits; [far] adds one more
               than 64K entries back (after at most K-1 near ones),
               which forces the absolute format (K/4 slots, the most
               recent kept) *)
            let count = min count (if far then k - 1 else k) in
            let step = 1 + (spread mod (65_534 / max 1 (count - 1))) in
            let near = List.init count (fun i -> current - 1 - (i * step)) in
            let ptrs = if far then near @ [ current - 70_000 ] else near in
            { Stream_header.stream = sid; backptrs = ptrs })
          raw
      in
      let block = Stream_header.encode_block ~k ~current headers in
      let decoded = Stream_header.decode_block ~k ~current block in
      List.for_all
        (fun sid -> header_in_place ~k ~current block sid = Stream_header.find decoded sid)
        (probe :: List.map (fun (h : Stream_header.t) -> h.stream) headers))

(* A grant's entry [index] written at [current]: the tails encoder
   must write the bytes [encode_block] writes for the equivalent
   records (the grant's earlier offsets, then the sequencer's tail,
   truncated to K past index 0), decode back to them, and reject the
   same malformed input with the same message. Cases: K of 4, 8 and 16;
   1 to 4 streams whose tails hold 0 to K+2 pointers spaced near
   (relative format) or far (absolute); grant index 0 to 7; and now and
   then an out-of-range stream id or backpointer. *)
let prop_tails_encoder_matches_records =
  let gen =
    let open QCheck.Gen in
    let ptrs current =
      let* count = int_range 0 18 and* far = bool and* gap = int_range 1 9 in
      let step = if far then 40_000 else gap in
      return (List.filter (fun p -> p >= 0) (List.init count (fun i -> current - 8 - (i * step))))
    in
    let* k = oneofl [ 4; 8; 16 ]
    and* index = int_range 0 7
    and* current = int_range 0 300_000
    and* n = int_range 1 4
    and* fault = int_range 0 9 in
    let* tails = list_repeat n (pair (int_range 0 1000) (ptrs current)) in
    let tails =
      match (fault, tails) with
      | 0, (_, prior) :: rest -> (0x8000_0000, prior) :: rest
      | 1, (sid, _) :: rest -> (sid, [ current ]) :: rest
      | 2, (sid, prior) :: rest -> (sid, prior @ [ -1 ]) :: rest
      | _ -> tails
    in
    return (k, index, current, tails)
  in
  let print (k, index, current, tails) =
    Printf.sprintf "k=%d index=%d current=%d tails=[%s]" k index current
      (String.concat "; "
         (List.map
            (fun (sid, prior) ->
              Printf.sprintf "%d:[%s]" sid (String.concat "," (List.map string_of_int prior)))
            tails))
  in
  let attempt f = match f () with b -> Ok b | exception Invalid_argument m -> Error m in
  QCheck.Test.make ~name:"tails encoder = encode_block of the records" ~count:2_000
    (QCheck.make ~print gen)
    (fun (k, index, current, tails) ->
      let rec take n = function x :: rest when n > 0 -> x :: take (n - 1) rest | _ -> [] in
      let earlier = List.init index (fun j -> current - 1 - j) in
      let records =
        List.map
          (fun (sid, prior) ->
            {
              Stream_header.stream = sid;
              backptrs = (if index = 0 then prior else take k (earlier @ prior));
            })
          tails
      in
      let tails_block = attempt (fun () -> Stream_header.encode_tails ~k ~current ~index tails) in
      let records_block = attempt (fun () -> Stream_header.encode_block ~k ~current records) in
      tails_block = records_block
      &&
      match tails_block with
      | Error _ -> true
      | Ok block ->
          List.for_all2
            (fun (r : Stream_header.t) (d : Stream_header.t) ->
              d.stream = r.stream
              && d.backptrs
                 = if Stream_header.uses_absolute_format ~current r then
                     List.filteri (fun i _ -> i < k / 4) r.backptrs
                   else r.backptrs)
            records
            (Stream_header.decode_block ~k ~current block))

(* One step of a backpointer walk reads the stream's header in place:
   locate it, then every backpointer up to the first empty slot. The
   words are net of an empty loop, so the [Gc.minor_words] probes'
   boxed floats cancel out. *)
let walk_sink = ref 0

let walk_step ~k ~current block sid =
  let at = Stream_header.locate ~k block sid in
  let i = ref 0 in
  let p = ref (Stream_header.backptr ~k ~current block at 0) in
  while !p >= 0 do
    walk_sink := !walk_sink + !p;
    incr i;
    p := Stream_header.backptr ~k ~current block at !i
  done

let test_walk_step_allocates_nothing () =
  let ops = 1_000 in
  let words f =
    let w0 = Gc.minor_words () in
    for _ = 1 to ops do
      f ()
    done;
    Gc.minor_words () -. w0
  in
  let check what ~k ~current headers sid =
    let block = Stream_header.encode_block ~k ~current headers in
    let step () = walk_step ~k ~current block sid in
    let per_op = (words step -. words ignore) /. float_of_int ops in
    if per_op > 0. then Alcotest.failf "%s: %.3f minor words per walk step" what per_op
  in
  let others = [ { Stream_header.stream = 1; backptrs = [ 99; 98 ] } ] in
  check "relative" ~k:4 ~current:100
    (others @ [ { Stream_header.stream = 7; backptrs = [ 97; 90; 80 ] } ])
    7;
  check "absolute" ~k:8 ~current:300_000
    (others @ [ { Stream_header.stream = 7; backptrs = [ 299_999; 100 ] } ])
    7

(* A sync walk allocates its state record and one list cell per member
   it discovers; a walk with no pointer above what the stream already
   knows allocates nothing. The walker wrote the members itself, so
   every entry it reads is cached: no read blocks, no prefetch spawns. *)
let sync_with_words s ~tail ~ptrs =
  let w0 = Gc.minor_words () in
  Stream.sync_with s ~tail ~ptrs;
  let w1 = Gc.minor_words () in
  let e0 = Gc.minor_words () in
  let e1 = Gc.minor_words () in
  w1 -. w0 -. (e1 -. e0)

let own_members cluster sid n =
  let w = Cluster.new_client cluster ~name:"writer" in
  let offs = List.init n (fun i -> Client.append w ~streams:[ sid ] (payload (string_of_int i))) in
  let k = (Client.params w).Sim.Params.backpointer_k in
  let ptrs = List.filteri (fun i _ -> i < k) (List.rev offs) in
  (w, ptrs, List.hd ptrs + 1)

let test_sync_walk_allocates_per_member () =
  with_cluster (fun cluster ->
      let n = 40 in
      let w, ptrs, tail = own_members cluster 5 n in
      let s = Stream.attach w 5 in
      let words = sync_with_words s ~tail ~ptrs in
      check_int "every member discovered" n (Stream.discovered s);
      if words > float_of_int ((3 * n) + 8) then
        Alcotest.failf "a walk discovering %d members allocated %.0f words (budget %d)" n words
          ((3 * n) + 8);
      let again = sync_with_words s ~tail:(tail + 1) ~ptrs in
      if again > 0. then Alcotest.failf "a walk with no new pointer allocated %.0f words" again;
      check_int "nothing rediscovered" n (Stream.discovered s))

let test_sync_no_new_pointer_traced () =
  Sim.Span.set_enabled true;
  Fun.protect ~finally:(fun () -> Sim.Span.set_enabled false) @@ fun () ->
  with_cluster (fun cluster ->
      let w, ptrs, tail = own_members cluster 6 10 in
      let s = Stream.attach w 6 in
      Stream.sync_with s ~tail ~ptrs;
      let walks () =
        List.filter (fun (v : Sim.Span.view) -> v.v_name = "backpointer.walk") (Sim.Span.spans ())
      in
      let before = List.length (walks ()) in
      let later = tail + 5 in
      Stream.sync_with s ~tail:later ~ptrs;
      let spans = walks () in
      check_int "the walk opened its span" (before + 1) (List.length spans);
      let last = List.nth spans (List.length spans - 1) in
      Alcotest.(check (option string)) "entered with the new tail" (Some (string_of_int later))
        (List.assoc_opt "tail" last.v_args);
      check_bool "and closed it" true (last.v_end <> None);
      let peeks = Sim.Metrics.counter ~host:"sequencer-0" "seq.peeks" in
      let before = Sim.Metrics.counter_value peeks in
      Stream.sync_until s later;
      check_int "the horizon moved: no peek below it" 0 (Sim.Metrics.counter_value peeks - before);
      check_int "nothing rediscovered" 10 (Stream.discovered s))

let prop_header_roundtrip =
  QCheck.Test.make ~name:"header block roundtrip (relative and absolute)" ~count:300
    QCheck.(
      pair (int_range 1 1_000_000)
        (small_list (pair (int_range 0 1000) (int_range 1 200_000))))
    (fun (current, raw) ->
      let k = 4 in
      let headers =
        (* Build valid, strictly-descending backpointers below current;
           dedupe stream ids. *)
        raw
        |> List.mapi (fun i (sid, spread) ->
               let sid = sid + (i * 1001) in
               let ptrs =
                 List.filter (fun p -> p >= 0 && p < current)
                   [ current - 1; current - (spread / 2) - 1; current - spread - 1 ]
                 |> List.sort_uniq compare |> List.rev
               in
               { Stream_header.stream = sid; backptrs = ptrs })
      in
      if List.length headers > 255 then true
      else
        let block = Stream_header.encode_block ~k ~current headers in
        let decoded = Stream_header.decode_block ~k ~current block in
        List.for_all2
          (fun (a : Stream_header.t) (b : Stream_header.t) ->
            a.stream = b.stream
            &&
            if Stream_header.uses_absolute_format ~current a then
              (* absolute keeps the first K/4 pointers *)
              b.backptrs
              = List.filteri (fun i _ -> i < k / 4) a.backptrs
            else b.backptrs = a.backptrs)
          headers decoded)

(* ------------------------------------------------------------------ *)
(* Storage node                                                       *)
(* ------------------------------------------------------------------ *)

let with_node body =
  Sim.Engine.run (fun () ->
      let params = Sim.Params.default in
      let net = Sim.Net.create ~latency:10. ~bandwidth:125. ~jitter:0. ~timeout_us () in
      let node = Storage_node.create ~net ~name:"n0" ~params () in
      let me = Sim.Net.add_host net "tester" in
      let write ?(epoch = 0) off cell =
        Sim.Net.call ~from:me (Storage_node.write_service node)
          { Storage_node.wepoch = epoch; woffset = off; wcell = cell }
      in
      let read ?(epoch = 0) off =
        Sim.Net.call ~from:me (Storage_node.read_service node)
          { Storage_node.repoch = epoch; roffset = off }
      in
      body node write read me)

let entry s = Types.Data { Types.headers = Bytes.empty; payload = payload s }

let test_node_write_once () =
  with_node (fun _ write read _ ->
      check_bool "first write ok" true (write 5 (entry "a") = Types.Write_ok);
      (match write 5 (entry "b") with
      | Types.Already_written (Types.Data e) -> check_string "winner kept" "a" (payload_str e)
      | _ -> Alcotest.fail "expected write-once conflict");
      match read 5 with
      | Types.Read_data e -> check_string "read back" "a" (payload_str e)
      | _ -> Alcotest.fail "expected data")

let test_node_unwritten_read () =
  with_node (fun _ _ read _ ->
      check_bool "unwritten" true (read 0 = Types.Read_unwritten))

let test_node_fill_semantics () =
  with_node (fun _ write read _ ->
      check_bool "fill empty" true (write 3 Types.Junk = Types.Write_ok);
      check_bool "fill idempotent" true (write 3 Types.Junk = Types.Write_ok);
      check_bool "junk visible" true (read 3 = Types.Read_junk);
      (* data loses to junk *)
      match write 3 (entry "late") with
      | Types.Already_written Types.Junk -> ()
      | _ -> Alcotest.fail "late writer must lose to junk")

let test_node_seal_rejects_stale_epochs () =
  with_node (fun node write read me ->
      check_bool "w" true (write 0 (entry "x") = Types.Write_ok);
      let tail = Sim.Net.call ~from:me (Storage_node.seal_service node) 2 in
      check_int "local tail returned" 0 tail;
      check_int "sealed" 2 (Storage_node.sealed_epoch node);
      (match write ~epoch:1 1 (entry "y") with
      | Types.Sealed_at 2 -> ()
      | _ -> Alcotest.fail "stale write must be rejected");
      (match read ~epoch:0 0 with
      | Types.Read_sealed 2 -> ()
      | _ -> Alcotest.fail "stale read must be rejected");
      (* current-epoch ops pass *)
      check_bool "new epoch write" true (write ~epoch:2 1 (entry "y") = Types.Write_ok))

let test_node_trim () =
  with_node (fun node write read me ->
      check_bool "w" true (write 4 (entry "x") = Types.Write_ok);
      Sim.Net.call ~from:me (Storage_node.trim_service node)
        { Storage_node.repoch = 0; roffset = 4 };
      check_bool "trimmed" true (read 4 = Types.Read_trimmed);
      match write 4 (entry "again") with
      | Types.Already_written Types.Trimmed -> ()
      | _ -> Alcotest.fail "write to trimmed must fail")

let test_node_prefix_trim () =
  with_node (fun node write read me ->
      for i = 0 to 9 do
        check_bool "w" true (write i (entry (string_of_int i)) = Types.Write_ok)
      done;
      Sim.Net.call ~from:me (Storage_node.prefix_trim_service node)
        { Storage_node.repoch = 0; roffset = 7 };
      check_int "watermark" 7 (Storage_node.trimmed_below node);
      check_bool "below gone" true (read 3 = Types.Read_trimmed);
      match read 8 with
      | Types.Read_data _ -> ()
      | _ -> Alcotest.fail "above watermark must survive")

let test_node_local_tail () =
  with_node (fun node write _ me ->
      check_int "empty tail" (-1)
        (Sim.Net.call ~from:me (Storage_node.tail_service node) ());
      ignore (write 2 (entry "a"));
      ignore (write 7 (entry "b"));
      check_int "tail" 7 (Sim.Net.call ~from:me (Storage_node.tail_service node) ()))

let test_node_capacity () =
  Sim.Engine.run (fun () ->
      let net = Sim.Net.create ~latency:10. ~bandwidth:125. ~jitter:0. ~timeout_us () in
      let node =
        Storage_node.create ~net ~name:"n" ~params:Sim.Params.default ~capacity_entries:2 ()
      in
      let me = Sim.Net.add_host net "tester" in
      let w off =
        Sim.Net.call ~from:me (Storage_node.write_service node)
          { Storage_node.wepoch = 0; woffset = off; wcell = entry "x" }
      in
      check_bool "in space" true (w 1 = Types.Write_ok);
      check_bool "out of space" true (w 2 = Types.Out_of_space))

(* The paged address space against the hash-table node it replaced,
   kept here as the model: random writes, fills, trims, prefix trims
   and reads over three pages near 0 and two past a 10^6 jump must
   answer alike, write-once conflicts and [Trimmed] included. *)
module Hashtbl_node = struct
  type t = { cells : (int, Types.cell) Hashtbl.t; mutable watermark : int }

  let create () = { cells = Hashtbl.create 64; watermark = 0 }

  let lookup m off =
    if off < m.watermark then Types.Trimmed
    else Option.value (Hashtbl.find_opt m.cells off) ~default:Types.Unwritten

  let write m off cell =
    match (lookup m off, cell) with
    | Types.Unwritten, (Types.Data _ | Types.Junk) ->
        Hashtbl.replace m.cells off cell;
        Types.Write_ok
    | Types.Junk, Types.Junk -> Types.Write_ok
    | (Types.Data _ | Types.Junk | Types.Trimmed), _ -> Types.Already_written (lookup m off)
    | Types.Unwritten, (Types.Unwritten | Types.Trimmed) -> assert false

  let read m off =
    match lookup m off with
    | Types.Data e -> Types.Read_data e
    | Types.Unwritten -> Types.Read_unwritten
    | Types.Junk -> Types.Read_junk
    | Types.Trimmed -> Types.Read_trimmed

  let trim m off = Hashtbl.replace m.cells off Types.Trimmed

  let prefix_trim m off =
    if off > m.watermark then begin
      m.watermark <- off;
      Hashtbl.filter_map_inplace (fun o c -> if o < off then None else Some c) m.cells
    end
end

type node_op = N_write of int | N_fill of int | N_trim of int | N_prefix of int | N_read of int

let prop_pages_match_hashtbl =
  let off_gen =
    QCheck.Gen.(
      frequency [ (3, int_range 0 3_071); (1, map (fun o -> 1_000_000 + o) (int_range 0 2_047)) ])
  in
  let op_gen =
    QCheck.Gen.(
      frequency
        [
          (5, map (fun o -> N_write o) off_gen);
          (2, map (fun o -> N_fill o) off_gen);
          (1, map (fun o -> N_trim o) off_gen);
          (1, map (fun o -> N_prefix o) off_gen);
          (5, map (fun o -> N_read o) off_gen);
        ])
  in
  let print_op = function
    | N_write o -> Printf.sprintf "write %d" o
    | N_fill o -> Printf.sprintf "fill %d" o
    | N_trim o -> Printf.sprintf "trim %d" o
    | N_prefix o -> Printf.sprintf "prefix %d" o
    | N_read o -> Printf.sprintf "read %d" o
  in
  QCheck.Test.make ~name:"paged storage matches a hash-table node" ~count:200
    (QCheck.make
       ~print:(fun l -> String.concat "; " (List.map print_op l))
       QCheck.Gen.(list_size (int_range 0 300) op_gen))
    (fun ops ->
      with_node (fun node write read me ->
          let m = Hashtbl_node.create () in
          let ok = ref true in
          let req off = { Storage_node.repoch = 0; roffset = off } in
          List.iteri
            (fun i op ->
              match op with
              | N_write o ->
                  let cell = entry (string_of_int i) in
                  if write o cell <> Hashtbl_node.write m o cell then ok := false
              | N_fill o -> if write o Types.Junk <> Hashtbl_node.write m o Types.Junk then ok := false
              | N_trim o ->
                  Sim.Net.call ~from:me (Storage_node.trim_service node) (req o);
                  Hashtbl_node.trim m o
              | N_prefix o ->
                  Sim.Net.call ~from:me (Storage_node.prefix_trim_service node) (req o);
                  Hashtbl_node.prefix_trim m o
              | N_read o -> if read o <> Hashtbl_node.read m o then ok := false)
            ops;
          (* and every offset touched reads alike at the end *)
          List.iter
            (function
              | N_write o | N_fill o | N_trim o | N_prefix o | N_read o ->
                  if read o <> Hashtbl_node.read m o then ok := false)
            ops;
          !ok))

(* The entry cache's rules, on a hash table: the cap, the shed to
   [high - cap / 2], the floor and [drop_below]. *)
module Hashtbl_cache = struct
  type t = {
    cap : int;
    cells : (int, Types.entry) Hashtbl.t;
    mutable floor : int;
    mutable high : int;
  }

  let create ~cap = { cap; cells = Hashtbl.create 64; floor = 0; high = -1 }

  let add m off e =
    if off >= m.floor then begin
      Hashtbl.replace m.cells off e;
      if off > m.high then m.high <- off;
      if Hashtbl.length m.cells > m.cap then begin
        let keep_from = m.high - (m.cap / 2) in
        Hashtbl.filter_map_inplace (fun o e -> if o < keep_from then None else Some e) m.cells
      end
    end

  let drop_below m off =
    if off > m.floor then begin
      m.floor <- off;
      Hashtbl.filter_map_inplace (fun o e -> if o < off then None else Some e) m.cells
    end
end

type cache_op = C_add of int | C_find of int | C_drop of int

let cache_entry s = { Types.headers = Bytes.empty; payload = payload s }

(* A log-like walk: a cursor that mostly moves up, adds at or a little
   below it (re-adds included), drops and lookups further back, every
   offset a multiple of [k] (a client that writes 1 offset in [k]). *)
let cache_case_gen =
  let open QCheck.Gen in
  let* cap = oneofl [ 8; 64; 512 ] in
  let* k = oneofl [ 1; 3; 8; 100; 2_000 ] in
  let* steps =
    list_size (int_range 0 1_200)
      (pair (int_range 0 3) (frequency [ (6, return `Add); (3, return `Find); (1, return `Drop) ]))
  in
  let* backs = list_repeat (List.length steps) (int_range 0 (3 * cap)) in
  let _, ops =
    List.fold_left2
      (fun (cursor, ops) (delta, kind) back ->
        let cursor = cursor + delta in
        let at b = k * max 0 (cursor - b) in
        let op =
          match kind with
          | `Add -> C_add (at (back mod 20))
          | `Find -> C_find (at back)
          | `Drop -> C_drop (at (back / 2))
        in
        (cursor, op :: ops))
      (0, []) steps backs
  in
  return (cap, List.rev ops)

let print_cache_case (cap, ops) =
  Printf.sprintf "cap %d: %s" cap
    (String.concat "; "
       (List.map
          (function
            | C_add o -> Printf.sprintf "add %d" o
            | C_find o -> Printf.sprintf "find %d" o
            | C_drop o -> Printf.sprintf "drop %d" o)
          ops))

let prop_entry_cache_matches_hashtbl =
  QCheck.Test.make ~name:"paged entry cache matches a hash-table cache" ~count:100
    (QCheck.make ~print:print_cache_case cache_case_gen)
    (fun (cap, ops) ->
      let c = Entry_cache.create ~cap and m = Hashtbl_cache.create ~cap in
      let seen = Hashtbl.create 64 in
      List.iteri
        (fun i op ->
          (match op with
          | C_add o ->
              let e = cache_entry (string_of_int i) in
              Hashtbl.replace seen o ();
              Entry_cache.add c o e;
              Hashtbl_cache.add m o e
          | C_find o ->
              let got = match Entry_cache.find c o with e -> Some e | exception Not_found -> None in
              (match (got, Hashtbl.find_opt m.cells o) with
              | None, None -> ()
              | Some a, Some b when a == b -> ()
              | _ -> QCheck.Test.fail_reportf "step %d: find %d differs" i o)
          | C_drop o ->
              Entry_cache.drop_below c o;
              Hashtbl_cache.drop_below m o);
          if Entry_cache.length c <> Hashtbl.length m.cells then
            QCheck.Test.fail_reportf "step %d: %d cached, model %d" i (Entry_cache.length c)
              (Hashtbl.length m.cells);
          Hashtbl.iter
            (fun o () ->
              if Entry_cache.mem c o <> Hashtbl.mem m.cells o then
                QCheck.Test.fail_reportf "step %d: membership of %d differs" i o)
            seen)
        ops;
      true)

(* The client's own cap: the 16,385th entry sheds everything below
   [high - 8,192]. *)
let test_client_cache_cap () =
  let c = Entry_cache.create ~cap:16_384 in
  for o = 0 to 16_383 do
    Entry_cache.add c o (cache_entry "e")
  done;
  check_int "at the cap" 16_384 (Entry_cache.length c);
  Entry_cache.add c 16_384 (cache_entry "e");
  check_int "shed to half" 8_193 (Entry_cache.length c);
  check_bool "below high - 8192 dropped" false (Entry_cache.mem c 8_191);
  check_bool "high - 8192 kept" true (Entry_cache.mem c 8_192);
  Entry_cache.drop_below c 10_000;
  check_int "floor drops" 6_385 (Entry_cache.length c);
  Entry_cache.add c 9_999 (cache_entry "e");
  check_bool "below the floor refused" false (Entry_cache.mem c 9_999)

let test_node_page_jump () =
  (* A segment boundary moves the local offsets by 10^6: the write
     there allocates one page, and reads across the gap none. *)
  with_node (fun node write read _ ->
      for i = 0 to 9 do
        check_bool "w" true (write i (entry "low") = Types.Write_ok)
      done;
      check_int "one page for the first ten cells" 1 (Storage_node.pages_held node);
      check_bool "jump write" true (write 1_000_003 (entry "high") = Types.Write_ok);
      check_int "the jump allocates one page" 2 (Storage_node.pages_held node);
      check_bool "gap unwritten" true (read 500_000 = Types.Read_unwritten);
      check_bool "past the spine unwritten" true (read 50_000_000 = Types.Read_unwritten);
      check_int "reads allocate nothing" 2 (Storage_node.pages_held node);
      match read 1_000_003 with
      | Types.Read_data e -> check_string "read back" "high" (payload_str e)
      | _ -> Alcotest.fail "expected data past the jump")

let test_node_prefix_trim_frees_pages () =
  (* 5,000 cells fill pages 0-3 and part of 4 (1,024 cells a page). A
     prefix trim at 3,000 frees the two pages wholly below it and keeps
     the page it falls in; one at 4,096 frees that page and the next. *)
  with_node (fun node write read me ->
      for i = 0 to 4_999 do
        ignore (write i (entry "x") : Types.write_result)
      done;
      check_int "five pages" 5 (Storage_node.pages_held node);
      let prefix off =
        Sim.Net.call ~from:me (Storage_node.prefix_trim_service node)
          { Storage_node.repoch = 0; roffset = off }
      in
      prefix 3_000;
      check_int "pages 0 and 1 freed" 3 (Storage_node.pages_held node);
      check_bool "below the watermark trimmed" true (read 2_999 = Types.Read_trimmed);
      check_bool "above it kept" true
        (match read 3_000 with Types.Read_data _ -> true | _ -> false);
      prefix 4_096;
      check_int "pages 2 and 3 freed" 1 (Storage_node.pages_held node);
      check_bool "trim below the watermark allocates nothing" true
        (Sim.Net.call ~from:me (Storage_node.trim_service node)
           { Storage_node.repoch = 0; roffset = 10 };
         Storage_node.pages_held node = 1);
      check_bool "page 4 intact" true
        (match read 4_999 with Types.Read_data _ -> true | _ -> false))

(* ------------------------------------------------------------------ *)
(* Sequencer                                                          *)
(* ------------------------------------------------------------------ *)

let with_sequencer body =
  Sim.Engine.run (fun () ->
      let params = Sim.Params.default in
      let net = Sim.Net.create ~latency:10. ~bandwidth:125. ~jitter:0. ~timeout_us () in
      let seq = Sequencer.create ~net ~name:"seq" ~params () in
      let me = Sim.Net.add_host net "tester" in
      let incr ?(epoch = 0) ?(count = 1) streams =
        Sim.Net.call ~from:me (Sequencer.increment_service seq)
          { Sequencer.iepoch = epoch; istreams = streams; icount = count }
      in
      let peek ?(epoch = 0) streams =
        Sim.Net.call ~from:me (Sequencer.peek_service seq)
          { Sequencer.pepoch = epoch; pstreams = streams }
      in
      body seq incr peek me)

let alloc = function
  | Sequencer.Seq_ok a -> a
  | Sequencer.Seq_sealed _ -> Alcotest.fail "unexpectedly sealed"

let test_sequencer_monotonic () =
  with_sequencer (fun _ incr _ _ ->
      let a = alloc (incr []) in
      let b = alloc (incr []) in
      let c = alloc (incr []) in
      Alcotest.(check (list int)) "consecutive" [ 0; 1; 2 ]
        [ a.Sequencer.base; b.Sequencer.base; c.Sequencer.base ])

let test_sequencer_stream_backpointers () =
  with_sequencer (fun _ incr _ _ ->
      let a = alloc (incr [ 7 ]) in
      Alcotest.(check (list int)) "no history" []
        (List.assoc 7 a.Sequencer.stream_tails);
      let b = alloc (incr [ 7 ]) in
      Alcotest.(check (list int)) "one" [ 0 ] (List.assoc 7 b.Sequencer.stream_tails);
      for _ = 1 to 5 do
        ignore (incr [ 7 ])
      done;
      let z = alloc (incr [ 7 ]) in
      (* K = 4 most recent, newest first *)
      Alcotest.(check (list int)) "last K" [ 6; 5; 4; 3 ]
        (List.assoc 7 z.Sequencer.stream_tails))

let test_sequencer_peek_does_not_advance () =
  with_sequencer (fun seq incr peek _ ->
      ignore (incr [ 1 ]);
      let p1 = alloc (peek [ 1 ]) in
      let p2 = alloc (peek [ 1 ]) in
      check_int "tail stable" p1.Sequencer.base p2.Sequencer.base;
      check_int "tail value" 1 p1.Sequencer.base;
      Alcotest.(check (list int)) "stream tail" [ 0 ] (List.assoc 1 p1.Sequencer.stream_tails);
      check_int "state" 1 (Sequencer.current_tail seq))

let test_sequencer_batched_allocation () =
  with_sequencer (fun seq incr _ _ ->
      let a = alloc (incr ~count:4 []) in
      check_int "base" 0 a.Sequencer.base;
      let b = alloc (incr []) in
      check_int "skipped batch" 4 b.Sequencer.base;
      check_int "tail" 5 (Sequencer.current_tail seq))

let test_sequencer_range_grant_records_streams () =
  (* A multi-offset grant must record every granted offset on every
     requested stream, so later backpointer state stays exact. *)
  with_sequencer (fun seq incr peek _ ->
      let g = alloc (incr ~count:3 [ 7; 8 ]) in
      check_int "grant base" 0 g.Sequencer.base;
      Alcotest.(check (list int)) "no history yet" [] (List.assoc 7 g.Sequencer.stream_tails);
      let a = alloc (incr [ 7 ]) in
      Alcotest.(check (list int)) "all granted offsets on 7" [ 2; 1; 0 ]
        (List.assoc 7 a.Sequencer.stream_tails);
      let b = alloc (incr [ 8 ]) in
      Alcotest.(check (list int)) "offset 3 went to 7 only" [ 2; 1; 0 ]
        (List.assoc 8 b.Sequencer.stream_tails);
      let c = alloc (incr ~count:2 [ 7 ]) in
      check_int "grants stay consecutive" 5 c.Sequencer.base;
      Alcotest.(check (list int)) "truncated to K" [ 3; 2; 1; 0 ]
        (List.assoc 7 c.Sequencer.stream_tails);
      let p = alloc (peek [ 7 ]) in
      Alcotest.(check (list int)) "second grant recorded, newest first" [ 6; 5; 3; 2 ]
        (List.assoc 7 p.Sequencer.stream_tails);
      check_int "tail" 7 (Sequencer.current_tail seq))

let test_sequencer_seal () =
  with_sequencer (fun seq incr _ me ->
      ignore (incr []);
      ignore (Sim.Net.call ~from:me (Sequencer.seal_service seq) 3 : Types.offset);
      (match incr ~epoch:2 [] with
      | Sequencer.Seq_sealed 3 -> ()
      | _ -> Alcotest.fail "stale increment must be rejected");
      match incr ~epoch:3 [] with
      | Sequencer.Seq_ok _ -> ()
      | _ -> Alcotest.fail "current epoch must pass")

let test_sequencer_seeded_state () =
  Sim.Engine.run (fun () ->
      let net = Sim.Net.create ~latency:10. ~bandwidth:125. ~jitter:0. ~timeout_us () in
      let seq =
        Sequencer.create ~net ~name:"seq" ~params:Sim.Params.default ~initial_tail:100
          ~initial_streams:[ (5, [ 90; 80 ]) ] ()
      in
      let me = Sim.Net.add_host net "tester" in
      let r =
        alloc
          (Sim.Net.call ~from:me (Sequencer.increment_service seq)
             { Sequencer.iepoch = 0; istreams = [ 5 ]; icount = 1 })
      in
      check_int "resumes tail" 100 r.Sequencer.base;
      Alcotest.(check (list int)) "resumes streams" [ 90; 80 ]
        (List.assoc 5 r.Sequencer.stream_tails);
      check_bool "state bytes" true (Sequencer.state_bytes seq = 32))

let spawn_increment_loop host seq n =
  Sim.Engine.spawn (fun () ->
      let rec loop () =
        let (_ : Sequencer.response) =
          Sim.Net.call ~from:host (Sequencer.increment_service seq)
            { Sequencer.iepoch = 0; istreams = []; icount = 1 }
        in
        incr n;
        loop ()
      in
      loop ())

let test_sequencer_throughput_cap () =
  (* Saturated sequencer plateaus near 1/service_time = ~570K/s. *)
  let rate =
    Sim.Engine.run (fun () ->
        let params = Sim.Params.default in
        let net = Sim.Net.create ~latency:50. ~bandwidth:125. ~jitter:0. ~timeout_us () in
        let seq = Sequencer.create ~net ~name:"seq" ~params () in
        let n = ref 0 in
        for i = 1 to 80 do
          let host = Sim.Net.add_host net (Printf.sprintf "c%d" i) in
          spawn_increment_loop host seq n
        done;
        Sim.Engine.sleep 100_000.;
        float_of_int !n /. 0.1 (* per second *))
  in
  check_bool "plateau near 570K" true (rate > 480_000. && rate < 600_000.)

(* ------------------------------------------------------------------ *)
(* Projection                                                         *)
(* ------------------------------------------------------------------ *)

let test_projection_mapping () =
  with_cluster ~servers:6 (fun cluster ->
      let proj = Auxiliary.latest (Cluster.auxiliary cluster) in
      check_int "sets" 3 (Projection.num_sets proj);
      check_int "servers" 6 (Projection.num_servers proj);
      (* offset o -> set o mod 3, local o / 3 *)
      check_int "local of 7" 2 (Projection.local_offset proj 7);
      check_int "roundtrip" 7 (Projection.global_offset proj ~seg:0 ~set:(7 mod 3) ~local:2))

let test_projection_global_tail () =
  with_cluster ~servers:4 (fun cluster ->
      let proj = Auxiliary.latest (Cluster.auxiliary cluster) in
      (* set 0 wrote locals 0..2 (globals 0,2,4), set 1 wrote 0..1
         (globals 1,3): highest global is 4, tail is 5. *)
      check_int "tail" 5 (Projection.global_tail_from_locals proj [| 2; 1 |]);
      check_int "empty" 0 (Projection.global_tail_from_locals proj [| -1; -1 |]))

let test_projection_validation () =
  Sim.Engine.run (fun () ->
      let params = Sim.Params.default in
      let net = Sim.Net.create ~latency:10. ~bandwidth:125. ~jitter:0. ~timeout_us () in
      let n1 = Storage_node.create ~net ~name:"n1" ~params () in
      let n2 = Storage_node.create ~net ~name:"n2" ~params () in
      let n3 = Storage_node.create ~net ~name:"n3" ~params () in
      let seq = Sequencer.create ~net ~name:"s" ~params () in
      (match Projection.flat ~epoch:0 ~replica_sets:[||] ~sequencer:seq with
      | _ -> Alcotest.fail "empty projection must be rejected"
      | exception Invalid_argument _ -> ());
      (match Projection.flat ~epoch:0 ~replica_sets:[| [| n1; n2 |]; [||] |] ~sequencer:seq with
      | _ -> Alcotest.fail "empty replica set must be rejected"
      | exception Invalid_argument _ -> ());
      (* Ragged chains are now legal geometry (explicit ~chains). *)
      let ragged = Projection.flat ~epoch:0 ~replica_sets:[| [| n1; n2 |]; [| n3 |] |] ~sequencer:seq in
      check_int "ragged projection accepted" 2 (Projection.num_sets ragged);
      (match Cluster.create ~servers:3 ~chain_length:2 () with
      | _ -> Alcotest.fail "odd server count without ~chains must be rejected"
      | exception Invalid_argument msg ->
          check_bool "error names the fix" true
            (string_contains msg "~chains"));
      (* ... but the same server count with explicit geometry works. *)
      let uneven = Cluster.create ~servers:3 ~chains:[ 2; 1 ] () in
      check_int "uneven cluster" 3 (Projection.num_servers (Auxiliary.latest (Cluster.auxiliary uneven))))

(* ------------------------------------------------------------------ *)
(* Client: append / read / check / fill                               *)
(* ------------------------------------------------------------------ *)

let test_client_append_read () =
  with_cluster (fun cluster ->
      let c = Cluster.new_client cluster ~name:"app-0" in
      let o0 = Client.append c ~streams:[ 1 ] (payload "hello") in
      let o1 = Client.append c ~streams:[ 1 ] (payload "world") in
      check_int "first offset" 0 o0;
      check_int "second offset" 1 o1;
      (match Client.read c o0 with
      | Client.Data e -> check_string "payload" "hello" (payload_str e)
      | _ -> Alcotest.fail "expected data");
      check_int "check" 2 (Client.check c))

(* A single append is a one-entry grant written by the same driver: at
   the same state, [append] and [reserve ~count:1] + [write_granted]
   land the same offset at the same virtual time with byte-equal
   headers, for one stream, several, and a repeated stream id. *)
let test_client_append_is_one_entry_grant () =
  let run ~streams ~granted =
    with_cluster (fun cluster ->
        let c = Cluster.new_client cluster ~name:"app" in
        (* Some history, so the sequencer hands back nonempty tails. *)
        for i = 0 to 6 do
          ignore (Client.append c ~streams:[ 1 + (i mod 3) ] (payload (string_of_int i)))
        done;
        let off =
          if granted then
            let g = Client.reserve c ~streams ~count:1 in
            Client.write_granted c g ~index:0 (payload "x")
          else Client.append c ~streams (payload "x")
        in
        let finished = Sim.Engine.now () in
        match Client.read c off with
        | Client.Data e -> (off, finished, e.Types.headers)
        | _ -> Alcotest.fail "appended entry unreadable")
  in
  List.iter
    (fun streams ->
      let off, finished, headers = run ~streams ~granted:false in
      let g_off, g_finished, g_headers = run ~streams ~granted:true in
      check_int "same offset" off g_off;
      Alcotest.(check (float 0.)) "same completion time" finished g_finished;
      check_bool "byte-equal headers" true (Bytes.equal headers g_headers);
      let decoded = Stream_header.decode_block ~k:4 ~current:off headers in
      check_int "one header per requested stream" (List.length streams) (List.length decoded);
      check_bool "backpointers present" true
        (List.for_all (fun h -> h.Stream_header.backptrs <> []) decoded))
    [ [ 1 ]; [ 1; 2; 3 ]; [ 2; 2 ]; [ 3; 1; 3 ] ]

let test_client_two_clients_interleave () =
  with_cluster (fun cluster ->
      let a = Cluster.new_client cluster ~name:"app-a" in
      let b = Cluster.new_client cluster ~name:"app-b" in
      let offsets = ref [] in
      (* Bind the append before touching [offsets]: the call suspends
         the fiber, and reading [!offsets] across the suspension would
         lose the other fiber's updates. *)
      let run_client tag client =
        Sim.Engine.spawn (fun () ->
            for i = 0 to 4 do
              let off =
                Client.append client ~streams:[ 1 ] (payload (Printf.sprintf "%s%d" tag i))
              in
              offsets := (tag, off) :: !offsets
            done)
      in
      run_client "a" a;
      run_client "b" b;
      Sim.Engine.sleep 1_000_000.;
      let all = List.map snd !offsets in
      check_int "ten appends" 10 (List.length all);
      Alcotest.(check (list int)) "all offsets distinct, 0..9" [ 0; 1; 2; 3; 4; 5; 6; 7; 8; 9 ]
        (List.sort compare all))

let test_client_check_slow_matches_fast () =
  with_cluster ~servers:6 (fun cluster ->
      let c = Cluster.new_client cluster ~name:"app" in
      for i = 0 to 13 do
        ignore (Client.append c ~streams:[ 1 ] (payload (string_of_int i)))
      done;
      check_int "fast" 14 (Client.check c);
      check_int "slow agrees" 14 (Client.check_slow c))

let test_client_fill_hole () =
  with_cluster (fun cluster ->
      let c = Cluster.new_client cluster ~name:"app" in
      (* Simulate a crashed writer: take an offset, never write it. *)
      let resp =
        Sim.Net.call ~from:(Client.host c)
          (Sequencer.increment_service (Cluster.sequencer cluster))
          { Sequencer.iepoch = 0; istreams = [ 1 ]; icount = 1 }
      in
      let hole = (alloc resp).Sequencer.base in
      let after = Client.append c ~streams:[ 1 ] (payload "alive") in
      check_bool "hole below" true (hole < after);
      check_bool "unwritten" true (Client.read c hole = Client.Unwritten);
      (match Client.fill c hole with
      | Client.Filled -> ()
      | _ -> Alcotest.fail "expected junk fill");
      check_bool "junk now" true (Client.read c hole = Client.Junk);
      (* the dead writer's late write must lose *)
      check_bool "late writer loses" true (Client.read c hole = Client.Junk))

let test_client_fill_completes_torn_append () =
  (* Write the head replica only, then let a fill repair the chain
     with the original data rather than junk. *)
  with_cluster ~servers:2 (fun cluster ->
      let c = Cluster.new_client cluster ~name:"app" in
      let proj = Client.projection c in
      let resp =
        Sim.Net.call ~from:(Client.host c)
          (Sequencer.increment_service (Cluster.sequencer cluster))
          { Sequencer.iepoch = 0; istreams = []; icount = 1 }
      in
      let off = (alloc resp).Sequencer.base in
      let head = (Projection.replica_set proj off).(0) in
      let entry = { Types.headers = Bytes.empty; payload = payload "torn" } in
      (match
         Sim.Net.call ~from:(Client.host c) (Storage_node.write_service head)
           { Storage_node.wepoch = 0; woffset = Projection.local_offset proj off;
             wcell = Types.Data entry }
       with
      | Types.Write_ok -> ()
      | _ -> Alcotest.fail "head write failed");
      (match Client.fill c off with
      | Client.Fill_completed e -> check_string "repaired data" "torn" (payload_str e)
      | _ -> Alcotest.fail "fill should complete the torn append");
      match Client.read c off with
      | Client.Data e -> check_string "readable everywhere" "torn" (payload_str e)
      | _ -> Alcotest.fail "expected data after repair")

let test_client_read_resolved_waits_for_slow_writer () =
  with_cluster (fun cluster ->
      let w = Cluster.new_client cluster ~name:"writer" in
      let r = Cluster.new_client cluster ~name:"reader" in
      Sim.Engine.spawn (fun () ->
          Sim.Engine.sleep 500.;
          ignore (Client.append w ~streams:[ 1 ] (payload "slow")));
      (* Reader learns offset 0 will exist only after writer appends;
         block on offset 0 before it's durable. *)
      Sim.Engine.sleep 600.;
      match Client.read_resolved r 0 with
      | Client.Data e -> check_string "got it" "slow" (payload_str e)
      | _ -> Alcotest.fail "expected data")

let test_client_trim_and_prefix_trim () =
  with_cluster (fun cluster ->
      let c = Cluster.new_client cluster ~name:"app" in
      for i = 0 to 9 do
        ignore (Client.append c ~streams:[ 1 ] (payload (string_of_int i)))
      done;
      Client.trim c 4;
      check_bool "trimmed" true (Client.read c 4 = Client.Trimmed);
      Client.prefix_trim c 8;
      check_bool "below gone" true (Client.read c 7 = Client.Trimmed);
      (match Client.read c 8 with
      | Client.Data _ -> ()
      | _ -> Alcotest.fail "8 must survive");
      match Client.read c 9 with
      | Client.Data _ -> ()
      | _ -> Alcotest.fail "9 must survive")

(* ------------------------------------------------------------------ *)
(* Streams                                                            *)
(* ------------------------------------------------------------------ *)

let drain stream =
  let rec go acc =
    match Stream.readnext stream with
    | Some (off, e) -> go ((off, payload_str e) :: acc)
    | None -> List.rev acc
  in
  go []

let test_stream_basic_playback () =
  with_cluster (fun cluster ->
      let c = Cluster.new_client cluster ~name:"app" in
      let s = Stream.attach c 1 in
      let offs = List.init 5 (fun i -> Stream.append s (payload (Printf.sprintf "e%d" i))) in
      let tail = Stream.sync s in
      check_int "tail" 5 tail;
      let got = drain s in
      Alcotest.(check (list (pair int string)))
        "in order"
        (List.mapi (fun i o -> (o, Printf.sprintf "e%d" i)) offs)
        got;
      check_bool "drained" true (Stream.readnext s = None))

let test_stream_selective_consumption () =
  with_cluster (fun cluster ->
      let c = Cluster.new_client cluster ~name:"app" in
      let sa = Stream.attach c 1 in
      let sb = Stream.attach c 2 in
      for i = 0 to 9 do
        let sid = if i mod 3 = 0 then 2 else 1 in
        ignore (Client.append c ~streams:[ sid ] (payload (Printf.sprintf "%d" i)))
      done;
      ignore (Stream.sync sa);
      ignore (Stream.sync sb);
      Alcotest.(check (list string)) "stream 1 skips stream 2"
        [ "1"; "2"; "4"; "5"; "7"; "8" ]
        (List.map snd (drain sa));
      Alcotest.(check (list string)) "stream 2" [ "0"; "3"; "6"; "9" ] (List.map snd (drain sb)))

let test_stream_multiappend_visible_on_all () =
  with_cluster (fun cluster ->
      let c = Cluster.new_client cluster ~name:"app" in
      let sa = Stream.attach c 1 in
      let sb = Stream.attach c 2 in
      ignore (Client.append c ~streams:[ 1 ] (payload "only-a"));
      let shared = Client.append c ~streams:[ 1; 2 ] (payload "both") in
      ignore (Client.append c ~streams:[ 2 ] (payload "only-b"));
      ignore (Stream.sync sa);
      ignore (Stream.sync sb);
      let a = drain sa and b = drain sb in
      Alcotest.(check (list string)) "a" [ "only-a"; "both" ] (List.map snd a);
      Alcotest.(check (list string)) "b" [ "both"; "only-b" ] (List.map snd b);
      let offset_of entries p = fst (List.find (fun (_, q) -> q = p) entries) in
      check_int "same physical entry on a" shared (offset_of a "both");
      check_int "same physical entry on b" shared (offset_of b "both"))

let test_stream_incremental_sync () =
  with_cluster (fun cluster ->
      let c = Cluster.new_client cluster ~name:"app" in
      let s = Stream.attach c 1 in
      ignore (Stream.append s (payload "a"));
      ignore (Stream.sync s);
      Alcotest.(check (list string)) "first batch" [ "a" ] (List.map snd (drain s));
      ignore (Stream.append s (payload "b"));
      ignore (Stream.append s (payload "c"));
      check_bool "nothing before sync" true (Stream.readnext s = None);
      ignore (Stream.sync s);
      Alcotest.(check (list string)) "second batch" [ "b"; "c" ] (List.map snd (drain s)))

let test_stream_reader_on_other_client () =
  with_cluster (fun cluster ->
      let w = Cluster.new_client cluster ~name:"writer" in
      let r = Cluster.new_client cluster ~name:"reader" in
      let sw = Stream.attach w 9 in
      for i = 0 to 19 do
        ignore (Stream.append sw (payload (string_of_int i)))
      done;
      let sr = Stream.attach r 9 in
      ignore (Stream.sync sr);
      Alcotest.(check (list string)) "remote playback"
        (List.init 20 string_of_int)
        (List.map snd (drain sr)))

let test_stream_sync_reads_stride_k () =
  (* Building the list for an N-entry stream should take ~N/K reads
     (plus the K pointers from the sequencer), not N. *)
  with_cluster (fun cluster ->
      let w = Cluster.new_client cluster ~name:"writer" in
      let sw = Stream.attach w 3 in
      let n = 64 in
      for i = 0 to n - 1 do
        ignore (Stream.append sw (payload (string_of_int i)))
      done;
      let r = Cluster.new_client cluster ~name:"reader" in
      let sr = Stream.attach r 3 in
      ignore (Stream.sync sr);
      let reads = Stream.sync_reads sr in
      check_bool
        (Printf.sprintf "stride reads %d for %d entries" reads n)
        true
        (reads <= (n / 4) + 2);
      check_int "membership complete" n (Stream.pending sr))

let test_append_range_visible_in_order () =
  with_cluster (fun cluster ->
      let w = Cluster.new_client cluster ~name:"writer" in
      let payloads = List.init 5 (fun i -> payload (Printf.sprintf "r%d" i)) in
      let offs = Client.append_range w ~streams:[ 1; 2 ] payloads in
      Alcotest.(check (list int)) "granted offsets, payload order" [ 0; 1; 2; 3; 4 ] offs;
      let r = Cluster.new_client cluster ~name:"reader" in
      let expect = List.mapi (fun i o -> (o, Printf.sprintf "r%d" i)) offs in
      List.iter
        (fun sid ->
          let s = Stream.attach r sid in
          ignore (Stream.sync s);
          Alcotest.(check (list (pair int string)))
            (Printf.sprintf "stream %d sees the range in order" sid)
            expect (drain s))
        [ 1; 2 ])

let test_append_range_chains_stay_strided () =
  (* Entries written through grants carry exact backpointers, so a
     fresh reader still builds membership in ~N/K reads. *)
  with_cluster (fun cluster ->
      let w = Cluster.new_client cluster ~name:"writer" in
      let n = 32 in
      for b = 0 to (n / 4) - 1 do
        ignore
          (Client.append_range w ~streams:[ 3 ]
             (List.init 4 (fun i -> payload (string_of_int ((b * 4) + i)))))
      done;
      let r = Cluster.new_client cluster ~name:"reader" in
      let sr = Stream.attach r 3 in
      ignore (Stream.sync sr);
      let reads = Stream.sync_reads sr in
      check_bool
        (Printf.sprintf "stride reads %d for %d granted entries" reads n)
        true
        (reads <= (n / 4) + 2);
      Alcotest.(check (list string))
        "exact membership, log order"
        (List.init n string_of_int)
        (List.map snd (drain sr)))

let test_stream_hole_is_filled_and_skipped () =
  with_cluster (fun cluster ->
      let w = Cluster.new_client cluster ~name:"writer" in
      let s = Stream.attach w 1 in
      ignore (Stream.append s (payload "a"));
      (* Crash injection: allocate an offset on stream 1, never write it. *)
      let resp =
        Sim.Net.call ~from:(Client.host w)
          (Sequencer.increment_service (Cluster.sequencer cluster))
          { Sequencer.iepoch = 0; istreams = [ 1 ]; icount = 1 }
      in
      let hole = (alloc resp).Sequencer.base in
      ignore (Stream.append s (payload "b"));
      let r = Cluster.new_client cluster ~name:"reader" in
      let sr = Stream.attach r 1 in
      ignore (Stream.sync sr);
      Alcotest.(check (list string)) "hole skipped, order kept" [ "a"; "b" ]
        (List.map snd (drain sr));
      check_bool "hole junked" true (Client.read r hole = Client.Junk))

let test_stream_junk_breaks_stride_then_scan () =
  (* A filled hole at the most recent stream slot forces the backward
     scan path; membership must still be exact. *)
  with_cluster (fun cluster ->
      let w = Cluster.new_client cluster ~name:"writer" in
      let s = Stream.attach w 1 in
      for i = 0 to 9 do
        ignore (Stream.append s (payload (string_of_int i)))
      done;
      let resp =
        Sim.Net.call ~from:(Client.host w)
          (Sequencer.increment_service (Cluster.sequencer cluster))
          { Sequencer.iepoch = 0; istreams = [ 1 ]; icount = 1 }
      in
      let hole = (alloc resp).Sequencer.base in
      ignore (Client.fill w hole);
      let r = Cluster.new_client cluster ~name:"reader" in
      let sr = Stream.attach r 1 in
      ignore (Stream.sync sr);
      Alcotest.(check (list string)) "all ten, no junk"
        (List.init 10 string_of_int)
        (List.map snd (drain sr)))

(* Log reads served by every storage node so far. *)
let storage_reads () =
  let n = ref 0 in
  Sim.Metrics.iter_handles
    ~on_counter:(fun c ->
      if Sim.Metrics.counter_name c = "ssd.reads" then n := !n + Sim.Metrics.counter_value c)
    ~on_gauge:ignore ~on_hist:ignore;
  !n

let test_stream_playback_reads_each_member_once () =
  (* A member is either cached by the sync walk or fetched once by
     playback; prefetching the sliding window must never read one
     twice, and must still overlap the fetches. *)
  with_cluster (fun cluster ->
      let w = Cluster.new_client cluster ~name:"writer" in
      let n = 200 in
      for i = 0 to n - 1 do
        ignore (Client.append w ~streams:[ 5 ] (payload (string_of_int i)));
        if i mod 3 = 0 then ignore (Client.append w ~streams:[ 6 ] (payload "other"))
      done;
      let r = Cluster.new_client cluster ~name:"reader" in
      let sr = Stream.attach r 5 in
      let before = storage_reads () in
      ignore (Stream.sync sr);
      let walked = storage_reads () - before in
      check_bool (Printf.sprintf "sync cached %d of %d members" walked n) true
        (walked > 0 && walked < n);
      let t0 = Sim.Engine.now () in
      let got = drain sr in
      let elapsed = Sim.Engine.now () -. t0 in
      Alcotest.(check (list string)) "every member, in order" (List.init n string_of_int)
        (List.map snd got);
      (* let the last prefetch fibers settle before counting *)
      Sim.Engine.sleep 10_000.;
      check_int "one storage read per member" n (storage_reads () - before);
      let t1 = Sim.Engine.now () in
      ignore (Client.read r 0);
      let one_read = Sim.Engine.now () -. t1 in
      check_bool
        (Printf.sprintf "playback pipelined: %.0f us for %d members, one read %.0f us" elapsed
           (n - walked) one_read)
        true
        (elapsed < float_of_int (n - walked) *. one_read /. 4.))

let test_stream_playback_counts_cache_hits () =
  (* A writer's own appends sit in its entry cache, so its playback is
     all hits — and [client.cache_hits] must see every one of them. *)
  with_cluster (fun cluster ->
      let w = Cluster.new_client cluster ~name:"writer" in
      let n = 40 in
      for i = 0 to n - 1 do
        ignore (Client.append w ~streams:[ 3 ] (payload (string_of_int i)))
      done;
      let s = Stream.attach w 3 in
      ignore (Stream.sync s);
      let hits = Sim.Metrics.counter ~host:"writer" "client.cache_hits" in
      let before = Sim.Metrics.counter_value hits in
      let stream_before = Stream.cache_hits s in
      check_int "every member played back" n (List.length (drain s));
      check_int "playback saw only hits" n (Stream.cache_hits s - stream_before);
      check_int "client.cache_hits rose by the member count" n
        (Sim.Metrics.counter_value hits - before))

let test_stream_sync_with_unordered_pointers () =
  (* Peek data normally lists pointers most recent first; a list out of
     that order, with a repeat, must still yield each member once. *)
  with_cluster (fun cluster ->
      let w = Cluster.new_client cluster ~name:"writer" in
      let s = Stream.attach w 4 in
      let offs = List.init 12 (fun i -> Stream.append s (payload (string_of_int i))) in
      let r = Cluster.new_client cluster ~name:"reader" in
      let sr = Stream.attach r 4 in
      let newest = List.rev offs in
      let nth = List.nth newest in
      let ptrs = [ nth 2; nth 0; nth 3; nth 1; nth 0 ] in
      Stream.sync_with sr ~tail:(List.hd newest + 1) ~ptrs;
      Alcotest.(check (list string)) "every member once, in order" (List.init 12 string_of_int)
        (List.map snd (drain sr)))

let test_stream_concurrent_syncs_register_each_member_once () =
  (* Fibers syncing one stream at the same instant all walk from the
     same floor, and each walk blocks on an uncached read; whichever
     pushes second must not re-append what the first registered. *)
  with_cluster (fun cluster ->
      let w = Cluster.new_client cluster ~name:"writer" in
      let r = Cluster.new_client cluster ~name:"reader" in
      let k = (Client.params r).Sim.Params.backpointer_k in
      let write i = Client.append w ~streams:[ 2 ] (payload (string_of_int i)) in
      let first = List.init 5 write in
      let sr = Stream.attach r 2 in
      ignore (Stream.sync sr);
      Alcotest.(check (list int)) "first batch" first (List.map fst (drain sr));
      let fresh = List.init ((3 * k) + 1) (fun i -> write (5 + i)) in
      let fibers = 4 in
      let finished = ref 0 in
      for _ = 1 to fibers do
        Sim.Engine.spawn (fun () ->
            ignore (Stream.sync sr);
            incr finished)
      done;
      while !finished < fibers do
        Sim.Engine.sleep 100.
      done;
      check_int "each member discovered once" (List.length first + List.length fresh)
        (Stream.discovered sr);
      let got = drain sr in
      Alcotest.(check (list int)) "each new member played once, ascending" fresh (List.map fst got);
      check_int "nothing pending" 0 (Stream.pending sr))

let test_stream_slow_older_walk_keeps_horizon () =
  (* A walk for an older tail that finishes after a walk for a newer
     tail must not move the horizon back: a later [sync_until] below
     the newer tail needs no sequencer round trip. *)
  with_cluster (fun cluster ->
      let w = Cluster.new_client cluster ~name:"writer" in
      let r = Cluster.new_client cluster ~name:"reader" in
      let s = Stream.attach w 1 in
      for i = 0 to 2 do
        ignore (Stream.append s (payload (string_of_int i)))
      done;
      (* an offset granted on stream 1 and never written: reading it
         blocks until the fill timeout *)
      let resp =
        Sim.Net.call ~from:(Client.host w)
          (Sequencer.increment_service (Cluster.sequencer cluster))
          { Sequencer.iepoch = 0; istreams = [ 1 ]; icount = 1 }
      in
      let hole = (alloc resp).Sequencer.base in
      let newer = List.init 3 (fun i -> Stream.append s (payload (string_of_int (3 + i)))) in
      let newer_tail = List.nth newer 2 + 1 in
      let sr = Stream.attach r 1 in
      let slow_done = ref false in
      Sim.Engine.spawn (fun () ->
          Stream.sync_with sr ~tail:(hole + 1) ~ptrs:[ hole ];
          slow_done := true);
      Sim.Engine.yield ();
      Stream.sync_with sr ~tail:newer_tail ~ptrs:(List.rev newer);
      check_bool "newer walk finished first" false !slow_done;
      while not !slow_done do
        Sim.Engine.sleep 1_000.
      done;
      let peeks = Sim.Metrics.counter ~host:"sequencer-0" "seq.peeks" in
      let before = Sim.Metrics.counter_value peeks in
      Stream.sync_until sr (newer_tail - 1);
      check_int "no sequencer request below the newer tail" 0
        (Sim.Metrics.counter_value peeks - before);
      Alcotest.(check (list string)) "every member once, junk skipped"
        (List.init 6 string_of_int)
        (List.map snd (drain sr)))

let test_stream_playback_skips_junk_member () =
  (* A hole filled after the walk passed it stays in the membership
     list; playback must skip it and keep order. *)
  with_cluster (fun cluster ->
      let w = Cluster.new_client cluster ~name:"writer" in
      let s = Stream.attach w 1 in
      for i = 0 to 9 do
        ignore (Stream.append s (payload (Printf.sprintf "a%d" i)))
      done;
      let resp =
        Sim.Net.call ~from:(Client.host w)
          (Sequencer.increment_service (Cluster.sequencer cluster))
          { Sequencer.iepoch = 0; istreams = [ 1 ]; icount = 1 }
      in
      ignore (Client.fill w (alloc resp).Sequencer.base);
      for i = 0 to 9 do
        ignore (Stream.append s (payload (Printf.sprintf "b%d" i)))
      done;
      let r = Cluster.new_client cluster ~name:"reader" in
      let sr = Stream.attach r 1 in
      ignore (Stream.sync sr);
      check_int "junk slot is a member" 21 (Stream.pending sr);
      Alcotest.(check (list string))
        "junk skipped, order kept"
        (List.init 10 (Printf.sprintf "a%d") @ List.init 10 (Printf.sprintf "b%d"))
        (List.map snd (drain sr));
      check_int "nothing left" 0 (Stream.pending sr))

let prop_stream_isolation =
  (* The key invariant of §5: each stream delivers exactly its own
     appends — including multiappends shared with other streams — in
     log order, regardless of interleaving. *)
  QCheck.Test.make ~name:"streams partition the log exactly" ~count:30
    QCheck.(
      pair small_int
        (list_of_size Gen.(1 -- 40) (pair (int_range 0 3) (option (int_range 0 3)))))
    (fun (seed, plan) ->
      Sim.Engine.run ~seed:(seed + 1) (fun () ->
          let cluster = Cluster.create ~servers:4 () in
          let c = Cluster.new_client cluster ~name:"app" in
          let expected = Hashtbl.create 4 in
          List.iteri
            (fun i (sid, extra) ->
              let streams =
                match extra with
                | Some e when e <> sid -> [ sid; e ]
                | Some _ | None -> [ sid ]
              in
              let off = Client.append c ~streams (payload (string_of_int i)) in
              List.iter
                (fun sid ->
                  let prev = try Hashtbl.find expected sid with Not_found -> [] in
                  Hashtbl.replace expected sid ((off, string_of_int i) :: prev))
                streams)
            plan;
          List.for_all
            (fun sid ->
              let s = Stream.attach c sid in
              ignore (Stream.sync s);
              let got = drain s in
              let want = List.rev (try Hashtbl.find expected sid with Not_found -> []) in
              got = want)
            [ 0; 1; 2; 3 ]))

(* ------------------------------------------------------------------ *)
(* Sequencer-less (probing) appends                                   *)
(* ------------------------------------------------------------------ *)

let test_probing_append_basic () =
  with_cluster (fun cluster ->
      let c = Cluster.new_client cluster ~name:"prober" in
      let offs = List.init 5 (fun i -> Client.append_probing c ~streams:[ 1 ] (payload (string_of_int i))) in
      Alcotest.(check (list int)) "contiguous from zero" [ 0; 1; 2; 3; 4 ] offs;
      match Client.read c 3 with
      | Client.Data e -> check_string "readable" "3" (payload_str e)
      | _ -> Alcotest.fail "expected data")

let test_probing_races_resolve () =
  (* Two probing clients race for the same offsets: write-once makes
     one winner per offset, losers move up; nothing is lost. *)
  with_cluster (fun cluster ->
      let a = Cluster.new_client cluster ~name:"prober-a" in
      let b = Cluster.new_client cluster ~name:"prober-b" in
      let done_count = ref 0 in
      let run client tag =
        Sim.Engine.spawn (fun () ->
            for i = 0 to 9 do
              ignore (Client.append_probing client ~streams:[ 1 ] (payload (Printf.sprintf "%s%d" tag i)));
              incr done_count
            done)
      in
      run a "a";
      run b "b";
      Sim.Engine.sleep 5_000_000.;
      check_int "all appends landed" 20 !done_count;
      check_int "log is dense" 20 (Client.check_slow a);
      (* every offset holds exactly one of the 20 payloads *)
      let seen = Hashtbl.create 20 in
      for off = 0 to 19 do
        match Client.read a off with
        | Client.Data e -> Hashtbl.replace seen (payload_str e) ()
        | _ -> Alcotest.fail "hole in probed log"
      done;
      check_int "no duplicates, no losses" 20 (Hashtbl.length seen))

let test_probing_bridges_sequencer_outage () =
  (* The paper's claim: the log keeps accepting appends while the
     sequencer is down, and a replacement rebuilt from the log serves
     readers that then see everything. *)
  with_cluster (fun cluster ->
      let w = Cluster.new_client cluster ~name:"writer" in
      for i = 0 to 4 do
        ignore (Client.append w ~streams:[ 1 ] (payload (Printf.sprintf "pre%d" i)))
      done;
      (* sequencer dies *)
      ignore
        (Sim.Net.call ~from:(Client.host w)
           (Sequencer.seal_service (Cluster.sequencer cluster))
           ((Client.projection w).Projection.epoch + 1)
          : Types.offset);
      (* appends continue by probing *)
      for i = 0 to 4 do
        ignore (Client.append_probing w ~streams:[ 1 ] (payload (Printf.sprintf "mid%d" i)))
      done;
      (* reconfiguration installs a replacement rebuilt from the log *)
      ignore (Cluster.replace_sequencer cluster);
      for i = 0 to 4 do
        ignore (Client.append w ~streams:[ 1 ] (payload (Printf.sprintf "post%d" i)))
      done;
      let r = Cluster.new_client cluster ~name:"reader" in
      let s = Stream.attach r 1 in
      ignore (Stream.sync s);
      let got = List.map snd (drain s) in
      Alcotest.(check (list string)) "all three phases, in order"
        (List.concat
           [
             List.init 5 (Printf.sprintf "pre%d");
             List.init 5 (Printf.sprintf "mid%d");
             List.init 5 (Printf.sprintf "post%d");
           ])
        got)

(* Probing appends take their backpointers from a scan of the log, so
   a stream stays walkable whoever wrote its entries. Each test below
   ends with a sequencer rebuilt from the log handing a fresh reader
   the stream's last K, and checks that the reader's walk returns every
   offset appended to the stream. *)
let walk_after_replacement cluster sid =
  ignore (Cluster.replace_sequencer cluster);
  let s = Stream.attach (Cluster.new_client cluster ~name:"reader") sid in
  ignore (Stream.sync s);
  List.map fst (drain s)

let seal_sequencer cluster client =
  ignore
    (Sim.Net.call ~from:(Client.host client)
       (Sequencer.seal_service (Cluster.sequencer cluster))
       ((Client.projection client).Projection.epoch + 1)
      : Types.offset)

let check_walk what cluster sid appended =
  Alcotest.(check (list int)) what (List.sort compare appended) (walk_after_replacement cluster sid)

let test_probing_walk_two_clients () =
  with_cluster ~seed:9 (fun cluster ->
      let appended = ref [] in
      let run name =
        let c = Cluster.new_client cluster ~name in
        Sim.Engine.spawn (fun () ->
            for i = 0 to 9 do
              let off = Client.append_probing c ~streams:[ 1 ] (payload (Printf.sprintf "%s%d" name i)) in
              appended := off :: !appended
            done)
      in
      run "prober-a";
      run "prober-b";
      Sim.Engine.sleep 5_000_000.;
      check_int "all appends landed" 20 (List.length !appended);
      check_walk "both clients' entries" cluster 1 !appended)

let test_probing_walk_after_sequencer_appends () =
  with_cluster ~seed:9 (fun cluster ->
      let w = Cluster.new_client cluster ~name:"writer" in
      let p = Cluster.new_client cluster ~name:"prober" in
      let before = List.init 5 (fun i -> Client.append w ~streams:[ 1 ] (payload (string_of_int i))) in
      seal_sequencer cluster w;
      let probed = List.init 5 (fun i -> Client.append_probing p ~streams:[ 1 ] (payload (string_of_int i))) in
      check_walk "the writer's entries and the prober's" cluster 1 (before @ probed))

let test_probing_walk_across_snapshot () =
  (* The prober's scan meets a sequencer snapshot before it has K
     offsets of stream 1: only stream 2 was appended above it. The
     snapshot's state completes the scan. *)
  with_cluster ~seed:9 (fun cluster ->
      Cluster.start_checkpoint_scribe cluster ~interval_us:5_000.;
      let snapshots = Seq_checkpoint.stream_id in
      let w = Cluster.new_client cluster ~name:"writer" in
      let p = Cluster.new_client cluster ~name:"prober" in
      let before = List.init 6 (fun i -> Client.append w ~streams:[ 1 ] (payload (string_of_int i))) in
      Sim.Engine.sleep 10_000.;
      let snap = Stream.attach w snapshots in
      ignore (Stream.sync snap);
      check_bool "the scribe wrote a snapshot" true (drain snap <> []);
      for i = 0 to 1 do
        ignore (Client.append w ~streams:[ 2 ] (payload (string_of_int i)))
      done;
      seal_sequencer cluster w;
      let probed = List.init 5 (fun i -> Client.append_probing p ~streams:[ 1 ] (payload (string_of_int i))) in
      check_walk "entries below and above the snapshot" cluster 1 (before @ probed))

(* ------------------------------------------------------------------ *)
(* Reconfiguration                                                    *)
(* ------------------------------------------------------------------ *)

(* A peek that meets a sealed sequencer waits for the new epoch and
   retries inside its one [check_tail] section: two peek RPCs, one
   section. *)
let test_sealed_peek_one_check_tail () =
  Sim.Span.set_enabled true;
  Fun.protect ~finally:(fun () -> Sim.Span.set_enabled false) @@ fun () ->
  with_cluster (fun cluster ->
      let c = Cluster.new_client cluster ~name:"peeker" in
      ignore (Client.append c ~streams:[ 1 ] (payload "x"));
      ignore (Cluster.replace_sequencer cluster : int);
      check_int "the tail, read across the seal" 1 (Client.check c));
  let named n = List.length (List.filter (fun v -> v.Sim.Span.v_name = n) (Sim.Span.spans ())) in
  check_int "the sealed peek and its retry" 2 (named "rpc.peek");
  check_int "one check_tail section" 1 (named "check_tail")

let test_reconfig_replaces_sequencer () =
  with_cluster (fun cluster ->
      let c = Cluster.new_client cluster ~name:"app" in
      let s = Stream.attach c 1 in
      for i = 0 to 9 do
        ignore (Stream.append s (payload (string_of_int i)))
      done;
      let old_seq = Cluster.sequencer cluster in
      let epoch = Cluster.replace_sequencer cluster in
      check_int "epoch bumped" 1 epoch;
      check_bool "new sequencer" true (Cluster.sequencer cluster != old_seq);
      (* appends keep working through the seal via retry *)
      let off = Stream.append s (payload "after") in
      check_int "tail resumed exactly" 10 off;
      (* stream state survives: backpointers reconstructed *)
      let r = Cluster.new_client cluster ~name:"reader" in
      let sr = Stream.attach r 1 in
      ignore (Stream.sync sr);
      Alcotest.(check (list string)) "full history"
        (List.init 10 string_of_int @ [ "after" ])
        (List.map snd (drain sr)))

let test_reconfig_under_load () =
  with_cluster (fun cluster ->
      let c = Cluster.new_client cluster ~name:"app" in
      let done_count = ref 0 in
      Sim.Engine.spawn (fun () ->
          for i = 0 to 49 do
            ignore (Client.append c ~streams:[ 1 ] (payload (string_of_int i)));
            incr done_count
          done);
      Sim.Engine.sleep 2_000.;
      ignore (Cluster.replace_sequencer cluster);
      Sim.Engine.sleep 1_000_000.;
      check_int "all appends completed" 50 !done_count;
      let r = Cluster.new_client cluster ~name:"reader" in
      let sr = Stream.attach r 1 in
      ignore (Stream.sync sr);
      let got = List.map snd (drain sr) in
      check_int "no duplicates, no losses" 50 (List.length (List.sort_uniq compare got)))

(* A sequencer replacement with a half-exhausted range grant in flight:
   the grant's unwritten offsets are voided (the new sequencer's tail
   starts past the seal frontier, so nothing is ever double-granted)
   and the holder re-appends the remaining payloads through the new
   epoch. Every acked offset must be unique and hold exactly the acked
   payload. Exercises the g_seq/probe protocol found by the fuzzer. *)
let test_reconfig_voids_inflight_grant () =
  with_cluster (fun cluster ->
      let c = Cluster.new_client cluster ~name:"holder" in
      let g = Client.reserve c ~streams:[ 1 ] ~count:8 in
      let acked = ref [] in
      for i = 0 to 2 do
        let off = Client.write_granted c g ~index:i (payload (Printf.sprintf "pre%d" i)) in
        acked := (off, Printf.sprintf "pre%d" i) :: !acked
      done;
      ignore (Cluster.replace_sequencer cluster);
      (* the holder drains the rest of the grant under the new epoch;
         another client appends concurrently to race for offsets *)
      let other = Cluster.new_client cluster ~name:"other" in
      Sim.Engine.spawn (fun () ->
          for i = 0 to 4 do
            let off = Client.append other ~streams:[ 1 ] (payload (Printf.sprintf "oth%d" i)) in
            acked := (off, Printf.sprintf "oth%d" i) :: !acked
          done);
      for i = 3 to 7 do
        let off = Client.write_granted c g ~index:i (payload (Printf.sprintf "post%d" i)) in
        acked := (off, Printf.sprintf "post%d" i) :: !acked
      done;
      Sim.Engine.sleep 500_000.;
      let offs = List.map fst !acked in
      check_int "no double-granted offset acked twice" (List.length offs)
        (List.length (List.sort_uniq compare offs));
      let reader = Cluster.new_client cluster ~name:"reader" in
      List.iter
        (fun (off, expect) ->
          match Client.read_resolved reader off with
          | Client.Data e -> Alcotest.(check string) "acked payload survives" expect (payload_str e)
          | _ -> Alcotest.failf "acked offset %d unreadable after reconfiguration" off)
        !acked;
      (* stream playback sees every acked entry exactly once *)
      let sr = Stream.attach reader 1 in
      ignore (Stream.sync sr);
      let played = List.map snd (drain sr) in
      check_int "playback complete" (List.length !acked)
        (List.length (List.sort_uniq compare played)))

(* A client that crashes after taking a grant but before writing leaves
   holes below the tail. Readers must unblock in bounded time: the fill
   protocol junk-fills each abandoned slot after [fill_timeout_us], and
   playback skips the junk. *)
let test_crash_mid_append_unblocks_readers () =
  with_cluster (fun cluster ->
      let fault = Sim.Fault.create () in
      Sim.Net.install_fault (Cluster.net cluster) fault;
      let doomed = Cluster.new_client cluster ~name:"doomed" in
      let g = Client.reserve doomed ~streams:[ 1 ] ~count:4 in
      ignore (Client.write_granted doomed g ~index:0 (payload "written"));
      (* crash with offsets 1-3 of the grant never written *)
      Sim.Fault.crash fault "doomed";
      let w = Cluster.new_client cluster ~name:"writer" in
      let last = Client.append w ~streams:[ 1 ] (payload "after") in
      check_bool "appends continue past the corpse's range" true (last > 3);
      let p = Cluster.params cluster in
      let reader = Cluster.new_client cluster ~name:"reader" in
      let sr = Stream.attach reader 1 in
      let started = Sim.Engine.now () in
      ignore (Stream.sync sr);
      let got = List.map snd (drain sr) in
      let took = Sim.Engine.now () -. started in
      Alcotest.(check (list string)) "holes skipped, data intact" [ "written"; "after" ] got;
      check_bool
        (Printf.sprintf "sync unblocked in bounded time (%.0fus)" took)
        true
        (took < (4. *. p.Sim.Params.fill_timeout_us) +. 100_000.);
      (* the abandoned slots resolved as junk, not as stuck holes *)
      for off = 1 to 3 do
        match Client.read_resolved reader off with
        | Client.Junk -> ()
        | Client.Data _ -> Alcotest.failf "offset %d has data from a dead client" off
        | _ -> Alcotest.failf "offset %d still unresolved" off
      done)

(* Drop every message on both directions of the edge between [a] and
   [b] from [at] for [for_us]. *)
let cut_link fault ~a ~b ~at ~for_us =
  Sim.Fault.plan fault
    [
      (at, Sim.Fault.Degrade { d_src = a; d_dst = b; d_drop = 1.; d_delay_us = 0.; d_jitter_us = 0. });
      (at, Sim.Fault.Degrade { d_src = b; d_dst = a; d_drop = 1.; d_delay_us = 0.; d_jitter_us = 0. });
      (at +. for_us, Sim.Fault.Clear_edge (a, b));
      (at +. for_us, Sim.Fault.Clear_edge (b, a));
    ]

(* A client's link to the sequencer drops everything for 20 ms, starting
   after its grant request left and before the grant came back. The
   grant goes unanswered at its deadline; the client backs off,
   refreshes its projection and asks again once the link has cleared. *)
let test_sequencer_link_outage_mid_append () =
  with_cluster (fun cluster ->
      let fault = Sim.Fault.create () in
      Sim.Net.install_fault (Cluster.net cluster) fault;
      let c = Cluster.new_client cluster ~name:"appender" in
      ignore (Client.append c ~streams:[ 1 ] (payload "before"));
      let t0 = Sim.Engine.now () in
      let outage_us = 20_000. in
      cut_link fault ~a:"appender" ~b:"sequencer-0" ~at:(t0 +. 10.) ~for_us:outage_us;
      let off = Client.append c ~streams:[ 1 ] (payload "across") in
      let took = Sim.Engine.now () -. t0 in
      check_bool (Printf.sprintf "returned after the link cleared (%.0f us)" took) true
        (took > outage_us);
      check_bool "the lost grant counted as a failed RPC" true (Client.rpc_failures c >= 1);
      match Client.read_resolved c off with
      | Client.Data e -> check_string "the append landed" "across" (payload_str e)
      | _ -> Alcotest.failf "offset %d unreadable" off)

(* The reconfiguration agent's link to the old sequencer drops
   everything for 20 ms while a replacement starts: its seal goes
   unanswered, is retried, and the replacement installs once the link
   clears. *)
let test_replace_sequencer_survives_dropped_seal () =
  with_cluster (fun cluster ->
      let fault = Sim.Fault.create () in
      Sim.Net.install_fault (Cluster.net cluster) fault;
      let c = Cluster.new_client cluster ~name:"appender" in
      ignore (Client.append c ~streams:[ 1 ] (payload "before"));
      let t0 = Sim.Engine.now () in
      let outage_us = 20_000. in
      cut_link fault ~a:"reconfig-agent" ~b:"sequencer-0" ~at:t0 ~for_us:outage_us;
      let epoch = Cluster.replace_sequencer cluster in
      check_int "new epoch installed" 1 epoch;
      (match Cluster.reconfigs cluster with
      | [ { Cluster.rc_installed_us; _ } ] ->
          check_bool "installed after the link cleared" true (rc_installed_us > t0 +. outage_us)
      | l -> Alcotest.failf "expected one reconfiguration, got %d" (List.length l));
      let off = Client.append c ~streams:[ 1 ] (payload "after") in
      match Client.read_resolved c off with
      | Client.Data e -> check_string "appends continue" "after" (payload_str e)
      | _ -> Alcotest.failf "offset %d unreadable" off)

(* ------------------------------------------------------------------ *)
(* Online scale-out / scale-in (segmented projections)                 *)
(* ------------------------------------------------------------------ *)

let test_scale_out_basic () =
  with_cluster ~servers:4 (fun cluster ->
      let w = Cluster.new_client cluster ~name:"writer" in
      for i = 0 to 9 do
        ignore (Client.append w ~streams:[ 1 ] (payload (string_of_int i)))
      done;
      let epoch = Cluster.scale_out cluster ~add_servers:4 in
      check_int "epoch bumped" 1 epoch;
      let proj = Auxiliary.latest (Cluster.auxiliary cluster) in
      check_int "two segments" 2 (Projection.num_segments proj);
      check_int "servers doubled" 8 (Projection.num_servers proj);
      check_int "tail stripes wider" 4 (Projection.num_sets proj);
      (match Cluster.reconfigs cluster with
      | [ { Cluster.rc_change = Cluster.Scaled_out { boundary }; _ } ] ->
          check_int "sealed at the old tail" 10 boundary
      | l -> Alcotest.failf "expected one scale-out, got %d reconfigurations" (List.length l));
      (* the writer rides the seal: its next append lands exactly at
         the boundary, in the new segment *)
      check_int "append resumes at the boundary" 10
        (Client.append w ~streams:[ 1 ] (payload "after"));
      (* no data moved *)
      check_int "no copy" 0 (List.length (Cluster.recoveries cluster));
      (* reads span the boundary: old offsets through the old chains,
         new ones through the new segment *)
      let r = Cluster.new_client cluster ~name:"reader" in
      for i = 0 to 9 do
        match Client.read r i with
        | Client.Data e -> check_string "old segment data" (string_of_int i) (payload_str e)
        | _ -> Alcotest.failf "offset %d lost across scale_out" i
      done;
      (match Client.read r 10 with
      | Client.Data e -> check_string "new segment data" "after" (payload_str e)
      | _ -> Alcotest.fail "new-segment offset lost");
      (* stream playback walks backpointers across the segment boundary *)
      let sr = Stream.attach r 1 in
      ignore (Stream.sync sr);
      Alcotest.(check (list string)) "stream spans segments"
        (List.init 10 string_of_int @ [ "after" ])
        (List.map snd (drain sr)))

let test_scale_out_under_load () =
  with_cluster ~servers:4 (fun cluster ->
      let c = Cluster.new_client cluster ~name:"app" in
      let done_count = ref 0 in
      Sim.Engine.spawn (fun () ->
          for i = 0 to 49 do
            ignore (Client.append c ~streams:[ 1 ] (payload (string_of_int i)));
            incr done_count
          done);
      Sim.Engine.sleep 2_000.;
      ignore (Cluster.scale_out cluster ~add_servers:4 : Types.epoch);
      Sim.Engine.sleep 1_000_000.;
      check_int "all appends completed" 50 !done_count;
      let r = Cluster.new_client cluster ~name:"reader" in
      let sr = Stream.attach r 1 in
      ignore (Stream.sync sr);
      let got = List.map snd (drain sr) in
      check_int "no duplicates, no losses" 50 (List.length (List.sort_uniq compare got)))

let test_scale_in_and_retire () =
  with_cluster ~servers:6 (fun cluster ->
      let w = Cluster.new_client cluster ~name:"writer" in
      for i = 0 to 11 do
        ignore (Client.append w ~streams:[ 1 ] (payload (string_of_int i)))
      done;
      let epoch = Cluster.scale_in cluster ~remove_servers:2 in
      check_int "epoch bumped" 1 epoch;
      let proj = Auxiliary.latest (Cluster.auxiliary cluster) in
      check_int "two segments" 2 (Projection.num_segments proj);
      check_int "tail stripes narrower" 2 (Projection.num_sets proj);
      (* the removed nodes still serve the bounded segment *)
      check_int "nothing released yet" 6 (Projection.num_servers proj);
      check_int "append resumes at the boundary" 12
        (Client.append w ~streams:[ 1 ] (payload "after"));
      (* nothing trimmed yet: the bounded segment cannot retire *)
      check_bool "not retirable yet" true (Cluster.retire_trimmed_segments cluster = None);
      (* reclaim the whole old segment, then retire it *)
      Client.prefix_trim w 12;
      (match Cluster.retire_trimmed_segments cluster with
      | Some e -> check_int "retire bumps the epoch" 2 e
      | None -> Alcotest.fail "fully trimmed segment must retire");
      let proj = Auxiliary.latest (Cluster.auxiliary cluster) in
      check_int "one segment left" 1 (Projection.num_segments proj);
      check_int "removed nodes released" 4 (Projection.num_servers proj);
      (match Cluster.reconfigs cluster with
      | [
       { Cluster.rc_change = Cluster.Scaled_in _; _ };
       { Cluster.rc_change = Cluster.Retired { released }; _ };
      ] ->
          Alcotest.(check (list string)) "released the scaled-in nodes"
            [ "storage-4"; "storage-5" ]
            (List.sort compare released)
      | l -> Alcotest.failf "expected a scale-in and a retirement, got %d" (List.length l));
      (* retired offsets read as trimmed; live ones still resolve *)
      let r = Cluster.new_client cluster ~name:"reader" in
      check_bool "retired offset is trimmed" true (Client.read r 0 = Client.Trimmed);
      match Client.read r 12 with
      | Client.Data e -> check_string "live data" "after" (payload_str e)
      | _ -> Alcotest.fail "post-boundary offset lost")

let test_scale_out_then_storage_failure () =
  (* After a scale-out the old tail's nodes serve chains in TWO
     segments; replacing one must rebuild its slots in both. *)
  with_cluster ~servers:4 (fun cluster ->
      let f = Sim.Fault.create () in
      Sim.Net.install_fault (Cluster.net cluster) f;
      let w = Cluster.new_client cluster ~name:"writer" in
      for i = 0 to 9 do
        ignore (Client.append w ~streams:[ 1 ] (payload (string_of_int i)))
      done;
      ignore (Cluster.scale_out cluster ~add_servers:4 : Types.epoch);
      for i = 10 to 19 do
        ignore (Client.append w ~streams:[ 1 ] (payload (string_of_int i)))
      done;
      (* storage-0 heads chains in both segments *)
      let dead = (Cluster.storage_nodes cluster).(0) in
      check_string "victim" "storage-0" (Storage_node.name dead);
      Sim.Fault.crash f (Storage_node.name dead);
      let epoch = Cluster.replace_storage_node cluster ~dead in
      check_int "epoch" 2 epoch;
      let r = Cluster.new_client cluster ~name:"reader" in
      for i = 0 to 19 do
        match Client.read r i with
        | Client.Data e -> check_string "payload" (string_of_int i) (payload_str e)
        | _ -> Alcotest.failf "offset %d lost after cross-segment replacement" i
      done;
      Cluster.await_replication cluster;
      check_int "one recovery" 1 (List.length (Cluster.recoveries cluster));
      match List.rev (Cluster.reconfigs cluster) with
      | { Cluster.rc_change = Cluster.Replication_restored { copied_entries; _ }; _ } :: _ ->
          check_bool "copied both segments' slots" true (copied_entries > 0)
      | _ -> Alcotest.fail "expected the restore last")

let test_scale_determinism () =
  (* The reconfiguration path uses only deterministic simulation
     primitives: two runs with one seed give byte-identical traces. *)
  let run () =
    Sim.Trace.capture (fun () ->
        Sim.Engine.run ~seed:7 (fun () ->
            let cluster = Cluster.create ~servers:4 () in
            let c = Cluster.new_client cluster ~name:"app" in
            let done_count = ref 0 in
            Sim.Engine.spawn (fun () ->
                for i = 0 to 29 do
                  ignore (Client.append c ~streams:[ 1 ] (payload (string_of_int i)));
                  incr done_count
                done);
            Sim.Engine.sleep 1_500.;
            ignore (Cluster.scale_out cluster ~add_servers:4 : Types.epoch);
            Sim.Engine.sleep 500_000.;
            !done_count))
  in
  let n1, trace1 = run () in
  let n2, trace2 = run () in
  check_int "all appends completed" 30 n1;
  check_int "same count" n1 n2;
  check_bool "byte-identical traces" true (String.equal trace1 trace2)

let test_projection_layout_roundtrip () =
  with_cluster ~servers:4 (fun cluster ->
      let w = Cluster.new_client cluster ~name:"writer" in
      for i = 0 to 5 do
        ignore (Client.append w ~streams:[ 1 ] (payload (string_of_int i)))
      done;
      ignore (Cluster.scale_out cluster ~add_servers:2 ~chains:[ 3; 3 ] : Types.epoch);
      let proj = Auxiliary.latest (Cluster.auxiliary cluster) in
      let l = Projection.layout proj in
      check_bool "layout roundtrips through the wire" true
        (Projection.decode_layout (Projection.encode_layout proj) = l);
      (* truncated payloads are rejected, not misread *)
      let b = Projection.encode_layout proj in
      match Projection.decode_layout (Bytes.sub b 0 (Bytes.length b - 3)) with
      | _ -> Alcotest.fail "truncated layout must be rejected"
      | exception Invalid_argument _ -> ())

let prop_segment_mapping_roundtrip =
  (* resolve and global_offset are inverse over arbitrary multi-segment
     maps with mixed stripe widths and a retired prefix. *)
  QCheck.Test.make ~name:"segment mapping is a bijection" ~count:100
    QCheck.(
      pair (int_range 0 5)
        (list_of_size Gen.(1 -- 4) (pair (int_range 1 4) (int_range 1 24))))
    (fun (first_base, segs) ->
      Sim.Engine.run ~seed:5 (fun () ->
          let params = Sim.Params.default in
          let net = Sim.Net.create ~latency:10. ~bandwidth:125. ~jitter:0. ~timeout_us () in
          let fresh =
            let n = ref 0 in
            fun () ->
              incr n;
              Storage_node.create ~net ~name:(Printf.sprintf "n%d" !n) ~params ()
          in
          let seq = Sequencer.create ~net ~name:"s" ~params () in
          let nsegs = List.length segs in
          let base = ref first_base and local_base = ref 0 in
          let segments =
            Array.of_list
              (List.mapi
                 (fun i (nsets, span) ->
                   let seg =
                     {
                       Projection.seg_base = !base;
                       seg_limit = (if i = nsegs - 1 then None else Some (!base + span));
                       seg_local_base = !local_base;
                       seg_sets = Array.init nsets (fun _ -> [| fresh () |]);
                     }
                   in
                   base := !base + span;
                   local_base := !local_base + Projection.seg_local_span seg ~span;
                   seg)
                 segs)
          in
          let proj = Projection.v ~epoch:0 ~segments ~sequencer:seq in
          let top = !base + 10 in
          let ok = ref true in
          for off = 0 to top do
            match Projection.resolve proj off with
            | None -> if off >= first_base then ok := false
            | Some (seg, set, local) ->
                if off < first_base then ok := false;
                if Projection.global_offset proj ~seg ~set ~local <> off then ok := false;
                (* the public accessors agree with resolve *)
                if Projection.local_offset proj off <> local then ok := false;
                if
                  Projection.replica_set proj off
                  != (Projection.segment proj seg).Projection.seg_sets.(set)
                then ok := false
          done;
          !ok))

(* ------------------------------------------------------------------ *)
(* Sequencer checkpoints (§5 optimization)                             *)
(* ------------------------------------------------------------------ *)

let test_seq_checkpoint_codec () =
  let snap =
    {
      Seq_checkpoint.snap_tail = 12345;
      snap_streams = [ (1, [ 100; 90; 80; 70 ]); (42, [ 12000 ]); (7, []) ];
    }
  in
  let back = Seq_checkpoint.decode (Seq_checkpoint.encode snap) in
  check_int "tail" snap.Seq_checkpoint.snap_tail back.Seq_checkpoint.snap_tail;
  check_bool "streams" true
    (List.sort compare back.Seq_checkpoint.snap_streams
    = List.sort compare snap.Seq_checkpoint.snap_streams)

let test_seq_checkpoint_bounds_rebuild () =
  (* Without the scribe a rebuild scans the whole log; with it, only
     the suffix above the last snapshot. *)
  let scan_length ~scribe =
    Sim.Engine.run ~seed:91 (fun () ->
        let cluster = Cluster.create ~servers:4 () in
        if scribe then Cluster.start_checkpoint_scribe cluster ~interval_us:20_000.;
        let c = Cluster.new_client cluster ~name:"writer" in
        for i = 0 to 199 do
          ignore (Client.append c ~streams:[ 1 + (i mod 3) ] (payload (string_of_int i)));
          Sim.Engine.sleep 500.
        done;
        ignore (Cluster.replace_sequencer cluster);
        (* Correctness first: streams must replay exactly. *)
        let r = Cluster.new_client cluster ~name:"reader" in
        let s1 = Stream.attach r 1 in
        ignore (Stream.sync s1);
        let first_stream = List.length (drain s1) in
        check_bool "stream intact after rebuild" true (first_stream >= 66);
        match Cluster.reconfigs cluster with
        | [ { Cluster.rc_change = Cluster.Sequencer_replaced { scanned }; _ } ] -> scanned
        | l -> Alcotest.failf "expected one failover, got %d reconfigurations" (List.length l))
  in
  let full = scan_length ~scribe:false in
  let bounded = scan_length ~scribe:true in
  check_bool
    (Printf.sprintf "bounded scan (%d) well below full scan (%d)" bounded full)
    true
    (bounded * 3 < full);
  check_bool "full scan covers the log" true (full >= 200)

let test_seq_checkpoint_appends_resume () =
  with_cluster (fun cluster ->
      Cluster.start_checkpoint_scribe cluster ~interval_us:5_000.;
      let c = Cluster.new_client cluster ~name:"writer" in
      for i = 0 to 19 do
        ignore (Client.append c ~streams:[ 1 ] (payload (string_of_int i)));
        Sim.Engine.sleep 1_000.
      done;
      ignore (Cluster.replace_sequencer cluster);
      (* the reconstructed sequencer must not reuse offsets *)
      let off = Client.append c ~streams:[ 1 ] (payload "after") in
      check_bool "tail strictly advances" true (off >= 20);
      let r = Cluster.new_client cluster ~name:"reader" in
      let s = Stream.attach r 1 in
      ignore (Stream.sync s);
      Alcotest.(check (list string)) "stream history exact"
        (List.init 20 string_of_int @ [ "after" ])
        (List.map snd (drain s)))

(* The scribe's RPCs carry deadlines: a snapshot whose chain head has
   crashed costs one skipped tick, not the scribe. A failover after the
   monitor replaced the head then scans about one interval's appends,
   not everything since the crash. *)
let test_seq_checkpoint_survives_crashed_head () =
  Sim.Engine.run ~seed:91 (fun () ->
      let cluster = Cluster.create ~servers:4 () in
      let f = Sim.Fault.create () in
      Sim.Net.install_fault (Cluster.net cluster) f;
      let interval = 10_000. in
      Cluster.start_checkpoint_scribe cluster ~interval_us:interval;
      Cluster.start_failure_monitor cluster;
      let c = Cluster.new_client cluster ~name:"writer" in
      let append i =
        ignore (Client.append c ~streams:[ 1 + (i mod 3) ] (payload (string_of_int i)));
        Sim.Engine.sleep 500.
      in
      for i = 0 to 49 do
        append i
      done;
      (* Quiet until just before the next tick, so its snapshot takes
         exactly the current tail; crash that offset's chain head. *)
      let now = Sim.Engine.now () in
      let tick = interval *. Float.ceil ((now +. 2_000.) /. interval) in
      Sim.Engine.sleep (tick -. 1_000. -. now);
      let tail = Client.check c in
      Sim.Fault.crash f (Storage_node.name (Cluster.storage_nodes cluster).(2 * (tail mod 2)));
      Sim.Engine.sleep 100_000.;
      check_int "the monitor replaced the head" 1 (List.length (Cluster.recoveries cluster));
      (* 500 us per append: one interval holds about 20 *)
      for i = 50 to 249 do
        append i
      done;
      ignore (Cluster.replace_sequencer cluster : Types.epoch);
      match List.rev (Cluster.reconfigs cluster) with
      | { Cluster.rc_change = Cluster.Sequencer_replaced { scanned }; _ } :: _ ->
          check_bool
            (Printf.sprintf "scanned %d entries, about one interval's" scanned)
            true
            (scanned > 0 && scanned <= 60)
      | _ -> Alcotest.fail "expected the failover last")

(* ------------------------------------------------------------------ *)
(* Storage-node failure recovery (§2.2)                                *)
(* ------------------------------------------------------------------ *)

(* Attach a fault controller to the cluster's fabric. *)
let with_faulty_cluster ?seed ?servers body =
  with_cluster ?seed ?servers (fun cluster ->
      let f = Sim.Fault.create () in
      Sim.Net.install_fault (Cluster.net cluster) f;
      body cluster f)

let test_recover_replace_storage_node () =
  with_faulty_cluster (fun cluster f ->
      let w = Cluster.new_client cluster ~name:"writer" in
      for i = 0 to 19 do
        ignore (Client.append w ~streams:[ 1 ] (payload (string_of_int i)))
      done;
      (* kill the head of replica set 0 (even global offsets) *)
      let dead = (Cluster.storage_nodes cluster).(0) in
      Sim.Fault.crash f (Storage_node.name dead);
      let epoch = Cluster.replace_storage_node cluster ~dead in
      check_int "epoch bumped" 1 epoch;
      check_bool "spare substituted" true
        (Array.exists
           (fun n -> Storage_node.name n = "storage-spare-0")
           (Cluster.storage_nodes cluster));
      (* every acknowledged append survives the replacement *)
      let r = Cluster.new_client cluster ~name:"reader" in
      for i = 0 to 19 do
        match Client.read r i with
        | Client.Data e -> check_string "payload" (string_of_int i) (payload_str e)
        | _ -> Alcotest.failf "offset %d lost" i
      done;
      (* the sequencer was retained: the tail resumes exactly *)
      check_int "tail resumes" 20 (Client.append w ~streams:[ 1 ] (payload "after"));
      Cluster.await_replication cluster;
      match Cluster.reconfigs cluster with
      | [
       {
         Cluster.rc_change = Cluster.Storage_replaced { dead; spare };
         rc_started_us;
         rc_installed_us;
         _;
       };
       { Cluster.rc_change = Cluster.Replication_restored { spare = onto; copied_entries; _ }; _ };
      ] ->
          check_string "dead node" "storage-0" dead;
          check_string "restored onto the spare" spare onto;
          (* set 0 held the even offsets 0..18: ten local cells *)
          check_int "copied the survivor's prefix" 10 copied_entries;
          check_bool "window positive" true (rc_installed_us > rc_started_us)
      | l -> Alcotest.failf "expected a replacement and its restore, got %d entries" (List.length l))

let test_recover_monitor_detects () =
  with_faulty_cluster (fun cluster f ->
      Cluster.start_failure_monitor cluster;
      let w = Cluster.new_client cluster ~name:"writer" in
      for i = 0 to 9 do
        ignore (Client.append w ~streams:[ 1 ] (payload (string_of_int i)))
      done;
      Sim.Engine.sleep 100_000.;
      check_int "no false positives" 0 (List.length (Cluster.recoveries cluster));
      (* this time kill a chain tail: the copy source is the head *)
      Sim.Fault.crash f "storage-1";
      Sim.Engine.sleep 300_000.;
      (match Cluster.recoveries cluster with
      | [ { Cluster.rc_change = Cluster.Storage_replaced { dead; _ }; _ } ] ->
          check_string "detected the dead tail" "storage-1" dead
      | l -> Alcotest.failf "expected one recovery, got %d" (List.length l));
      check_int "append resumes" 10 (Client.append w ~streams:[ 1 ] (payload "x"));
      let r = Cluster.new_client cluster ~name:"reader" in
      for i = 0 to 10 do
        match Client.read r i with
        | Client.Data _ -> ()
        | _ -> Alcotest.failf "offset %d lost" i
      done)

(* The monitor declares a node dead only after three consecutive
   unanswered probes. On a quiet cluster a probe's round trip R (a
   64-byte request, a 4 KB answer: about 180 µs) sets the monitor's RTO
   to about 4 R, so three probes in a row expire after about 4 R, 8 R
   and 16 R. Slowing the monitor's edge to one node to about 10 R costs
   two probes and no recovery, where two misses used to be enough;
   crashing the node costs exactly three more, then its replacement. *)
let test_recover_monitor_needs_three_misses () =
  with_faulty_cluster (fun cluster f ->
      Cluster.start_failure_monitor cluster;
      let misses = Sim.Metrics.counter "cluster.probe_failures" in
      Sim.Engine.sleep 200_000.;
      check_int "quiet rounds miss nothing" 0 (Sim.Metrics.counter_value misses);
      Sim.Fault.degrade f ~src:"reconfig-agent" ~dst:"storage-1" ~delay_us:1_500. ();
      Sim.Engine.sleep 25_000.;
      Sim.Fault.clear_edge f ~src:"reconfig-agent" ~dst:"storage-1";
      Sim.Engine.sleep 200_000.;
      check_int "the slowed node missed two probes" 2 (Sim.Metrics.counter_value misses);
      check_int "two misses replace nothing" 0 (List.length (Cluster.recoveries cluster));
      Sim.Fault.crash f "storage-1";
      Sim.Engine.sleep 300_000.;
      check_int "the dead node missed three more" 5 (Sim.Metrics.counter_value misses);
      match Cluster.recoveries cluster with
      | [ { Cluster.rc_change = Cluster.Storage_replaced { dead; _ }; _ } ] ->
          check_string "the third miss replaced it" "storage-1" dead
      | l -> Alcotest.failf "expected one recovery, got %d" (List.length l))

(* A monitor-driven replacement seals the dead node once, at the
   deadline the monitor's probes of it learnt and their three misses
   backed off (about 8 probe RTOs of about 0.7 ms), not at a timeout of
   its own. Seal to install took 6,566 us here; the bound is that
   plus 1 ms. *)
let test_recover_monitor_seal_at_learnt_deadline () =
  with_faulty_cluster (fun cluster f ->
      Cluster.start_failure_monitor cluster;
      let w = Cluster.new_client cluster ~name:"writer" in
      for i = 0 to 9 do
        ignore (Client.append w ~streams:[ 1 ] (payload (string_of_int i)))
      done;
      Sim.Engine.sleep 50_000.;
      Sim.Fault.crash f "storage-1";
      Sim.Engine.sleep 200_000.;
      match Cluster.recoveries cluster with
      | [ r ] ->
          let took = r.Cluster.rc_installed_us -. r.Cluster.rc_started_us in
          check_bool "seal to install within the measured time plus 1 ms" true
            (took <= 6_566. +. 1_000.)
      | l -> Alcotest.failf "expected one recovery, got %d" (List.length l))

(* The auxiliary's epoch watch parks its callers by design, so its calls
   keep their whole deadline however fast the earlier answers came: a
   watch for an epoch nobody installs is answered when its wait ends,
   not cut short by an RTO learnt from immediate answers. *)
let test_aux_watch_keeps_its_deadline () =
  with_faulty_cluster (fun cluster _ ->
      let c = Cluster.new_client cluster ~name:"watcher" in
      let watch at_least wait_us =
        Sim.Net.call ~from:(Client.host c)
          (Auxiliary.await_service (Cluster.auxiliary cluster))
          { Auxiliary.at_least; wait_us }
      in
      for _ = 1 to 5 do
        ignore (watch 0 0. : Projection.t)
      done;
      let t0 = Sim.Engine.now () in
      match watch 1 5_000. with
      | p ->
          check_int "the newest view, once the wait ended" 0 p.Projection.epoch;
          check_bool "answered after the whole wait" true (Sim.Engine.now () -. t0 > 5_000.)
      | exception Sim.Net.Unanswered -> Alcotest.fail "the held watch was cut short")

(* An SSD failure is not a crash — the host answers, its device
   doesn't. The failed resource raises into read/write RPCs, the
   monitor sees the errors as a dead member, and the same replacement
   path runs. *)
let test_recover_ssd_failure () =
  with_cluster (fun cluster ->
      Cluster.start_failure_monitor cluster;
      let w = Cluster.new_client cluster ~name:"writer" in
      for i = 0 to 9 do
        ignore (Client.append w ~streams:[ 1 ] (payload (string_of_int i)))
      done;
      let module Chaos = Tango_harness.Chaos in
      ignore
        (Chaos.install ~plan:[ (20_000., Chaos.custom (Ssd_fail "storage-0")) ] cluster
          : Sim.Fault.t);
      Sim.Engine.sleep 400_000.;
      (match Cluster.recoveries cluster with
      | [ { Cluster.rc_change = Cluster.Storage_replaced { dead; _ }; _ } ] ->
          check_string "replaced the node with the dead device" "storage-0" dead
      | l -> Alcotest.failf "expected one recovery, got %d" (List.length l));
      check_int "append resumes" 10 (Client.append w ~streams:[ 1 ] (payload "x"));
      let r = Cluster.new_client cluster ~name:"reader" in
      for i = 0 to 10 do
        match Client.read r i with
        | Client.Data _ -> ()
        | _ -> Alcotest.failf "offset %d lost" i
      done)

(* ------------------------------------------------------------------ *)
(* The reconfiguration driver and its log                              *)
(* ------------------------------------------------------------------ *)

(* Count this run's Reconfig_started / Reconfig_installed milestones. *)
let count_reconfig_milestones () =
  let started = ref 0 and installed = ref 0 in
  Sim.Announce.subscribe (function
    | Sim.Announce.Reconfig_started _ -> incr started
    | Sim.Announce.Reconfig_installed _ -> incr installed
    | _ -> ());
  fun () -> (!started, !installed)

let current_epoch cluster = (Auxiliary.latest (Cluster.auxiliary cluster)).Projection.epoch

(* Each of the five operations, and the restore that finishes a
   storage replacement, appends exactly one entry, stamped with the
   epoch it returned; the failover's scan length is what it added to
   the cluster.rebuild_scanned counter. *)
let test_each_reconfiguration_logs_once () =
  with_faulty_cluster (fun cluster f ->
      let rebuild_scanned = Sim.Metrics.counter "cluster.rebuild_scanned" in
      let w = Cluster.new_client cluster ~name:"writer" in
      let append n =
        for i = 1 to n do
          ignore (Client.append w ~streams:[ 1 ] (payload (string_of_int i)))
        done
      in
      let logged name op =
        let before = Cluster.reconfigs cluster in
        let scanned_before = Sim.Metrics.counter_value rebuild_scanned in
        let epoch = op () in
        let after = Cluster.reconfigs cluster in
        if List.length after <> List.length before + 1 then
          Alcotest.failf "%s: logged %d entries, expected one" name
            (List.length after - List.length before);
        let r = List.nth after (List.length before) in
        check_int (name ^ ": entry carries the returned epoch") epoch r.Cluster.rc_epoch;
        check_bool (name ^ ": started <= installed") true
          (r.Cluster.rc_started_us <= r.Cluster.rc_installed_us);
        (match r.Cluster.rc_change with
        | Cluster.Sequencer_replaced { scanned } ->
            check_int "scan length is the counter's delta"
              (Sim.Metrics.counter_value rebuild_scanned - scanned_before)
              scanned
        | _ -> ());
        r.Cluster.rc_change
      in
      append 10;
      (match logged "sequencer" (fun () -> Cluster.replace_sequencer cluster) with
      | Cluster.Sequencer_replaced { scanned } -> check_bool "scanned the log" true (scanned >= 10)
      | _ -> Alcotest.fail "expected a sequencer entry");
      let dead = (Cluster.storage_nodes cluster).(1) in
      Sim.Fault.crash f (Storage_node.name dead);
      (match logged "storage" (fun () -> Cluster.replace_storage_node cluster ~dead) with
      | Cluster.Storage_replaced { dead; spare } ->
          check_string "dead" "storage-1" dead;
          check_string "spare" "storage-spare-0" spare
      | _ -> Alcotest.fail "expected a storage entry");
      (* the restore is the replacement's second epoch change *)
      (match
         logged "restore" (fun () ->
             Cluster.await_replication cluster;
             current_epoch cluster)
       with
      | Cluster.Replication_restored { spare; copied_entries; _ } ->
          check_string "restored spare" "storage-spare-0" spare;
          check_int "copied set 0's cells" 5 copied_entries
      | _ -> Alcotest.fail "expected a restore entry");
      (match logged "scale-out" (fun () -> Cluster.scale_out cluster ~add_servers:2) with
      | Cluster.Scaled_out { boundary } -> check_int "scale-out boundary" 10 boundary
      | _ -> Alcotest.fail "expected a scale-out entry");
      append 6;
      let boundary =
        match logged "scale-in" (fun () -> Cluster.scale_in cluster ~remove_servers:2) with
        | Cluster.Scaled_in { boundary } -> boundary
        | _ -> Alcotest.fail "expected a scale-in entry"
      in
      check_int "scale-in boundary" 16 boundary;
      Client.prefix_trim w boundary;
      (match
         logged "retire" (fun () ->
             match Cluster.retire_trimmed_segments cluster with
             | Some e -> e
             | None -> Alcotest.fail "both bounded segments are trimmed")
       with
      | Cluster.Retired { released } ->
          Alcotest.(check (list string)) "released the scaled-in nodes"
            [ "storage-4"; "storage-5" ] (List.sort compare released)
      | _ -> Alcotest.fail "expected a retirement entry");
      check_int "one recovery among six entries" 1 (List.length (Cluster.recoveries cluster)))

(* The failure monitor and a fault-plan action can race to replace the
   same node. The second caller must find it gone and decline: same
   epoch back, nothing logged, nothing announced. *)
let test_duplicate_replacement_declines () =
  with_faulty_cluster (fun cluster f ->
      let milestones = count_reconfig_milestones () in
      let w = Cluster.new_client cluster ~name:"writer" in
      for i = 0 to 9 do
        ignore (Client.append w ~streams:[ 1 ] (payload (string_of_int i)))
      done;
      let dead = (Cluster.storage_nodes cluster).(0) in
      Sim.Fault.crash f (Storage_node.name dead);
      let replace () =
        let result = Sim.Ivar.create () in
        Sim.Engine.spawn (fun () -> Sim.Ivar.fill result (Cluster.replace_storage_node cluster ~dead));
        result
      in
      let first = replace () in
      let second = replace () in
      let e1 = Sim.Ivar.read first in
      let e2 = Sim.Ivar.read second in
      check_int "first installs epoch 1" 1 e1;
      check_int "second returns the first's epoch" e1 e2;
      Cluster.await_replication cluster;
      check_int "one replacement and its restore logged" 2 (List.length (Cluster.reconfigs cluster));
      check_int "one recovery" 1 (List.length (Cluster.recoveries cluster));
      check_bool "two started/installed pairs" true (milestones () = (2, 2)))

let test_retire_untrimmed_declines () =
  with_cluster (fun cluster ->
      let milestones = count_reconfig_milestones () in
      check_bool "single segment: nothing to retire" true
        (Cluster.retire_trimmed_segments cluster = None);
      let w = Cluster.new_client cluster ~name:"writer" in
      ignore (Client.append w ~streams:[ 1 ] (payload "x"));
      ignore (Cluster.scale_out cluster ~add_servers:2 : Types.epoch);
      check_bool "bounded but untrimmed: nothing to retire" true
        (Cluster.retire_trimmed_segments cluster = None);
      check_int "epoch unchanged" 1 (current_epoch cluster);
      check_int "only the scale-out logged" 1 (List.length (Cluster.reconfigs cluster));
      check_bool "only the scale-out announced" true (milestones () = (1, 1)))

(* A rejected scale-in validates under the lock before it counts,
   seals or logs anything, and leaves the lock free. *)
let test_rejected_scale_in_not_counted () =
  with_cluster (fun cluster ->
      let scale_ins = Sim.Metrics.counter "cluster.scale_ins" in
      (match Cluster.scale_in cluster ~remove_servers:4 with
      | _ -> Alcotest.fail "removing every server must be rejected"
      | exception Invalid_argument _ -> ());
      check_int "not counted" 0 (Sim.Metrics.counter_value scale_ins);
      check_int "epoch unchanged" 0 (current_epoch cluster);
      check_int "nothing logged" 0 (List.length (Cluster.reconfigs cluster));
      check_int "a valid scale-in still runs" 1 (Cluster.scale_in cluster ~remove_servers:2);
      check_int "counted once" 1 (Sim.Metrics.counter_value scale_ins))

(* ------------------------------------------------------------------ *)
(* Two-epoch storage recovery: degrade, re-replicate, restore         *)
(* ------------------------------------------------------------------ *)

(* [writers] clients append [per_writer] entries each, concurrently;
   returns the acked (offset, payload) pairs once all have finished. *)
let append_concurrently cluster ~prefix ~writers ~per_writer =
  let acked = ref [] in
  let finished = ref 0 in
  let all_done = Sim.Ivar.create () in
  for w = 0 to writers - 1 do
    let c = Cluster.new_client cluster ~name:(Printf.sprintf "%s%d" prefix w) in
    Sim.Engine.spawn (fun () ->
        for j = 0 to per_writer - 1 do
          let p = payload (Printf.sprintf "%s%d:%d" prefix w j) in
          acked := (Client.append c ~streams:[ 1 ] p, p) :: !acked
        done;
        incr finished;
        if !finished = writers then Sim.Ivar.fill all_done ())
  done;
  Sim.Ivar.read all_done;
  !acked

let check_acked_readable cluster ~name acked =
  let r = Cluster.new_client cluster ~name in
  List.iter
    (fun (off, p) ->
      match Client.read_resolved r off with
      | Client.Data e when Bytes.equal e.Types.payload p -> ()
      | _ -> Alcotest.failf "%s: acked append at offset %d lost" name off)
    acked

let check_full_chains cluster =
  Array.iteri
    (fun si seg ->
      Array.iteri
        (fun s chain ->
          check_int (Printf.sprintf "segment %d chain %d back at length 2" si s) 2
            (Array.length chain))
        seg.Projection.seg_sets)
    (Auxiliary.latest (Cluster.auxiliary cluster)).Projection.segments

(* Every replica of chain [set] in the bounded segment [si] holds the
   same cells over the segment's whole local range. *)
let check_replicas_agree cluster ~si ~set =
  let proj = Auxiliary.latest (Cluster.auxiliary cluster) in
  let seg = Projection.segment proj si in
  let limit = Option.get seg.Projection.seg_limit in
  let cells = Projection.seg_cells_below seg ~set ~rel:(limit - seg.Projection.seg_base) in
  let host = Sim.Net.add_host (Cluster.net cluster) "replica-audit" in
  let cell node loff =
    match
      Sim.Net.call ~from:host (Storage_node.read_service node)
        { Storage_node.repoch = proj.Projection.epoch; roffset = loff }
    with
    | Types.Read_data e -> "data:" ^ payload_str e
    | Types.Read_junk -> "junk"
    | Types.Read_unwritten -> "unwritten"
    | Types.Read_trimmed -> "trimmed"
    | Types.Read_sealed _ -> "sealed"
  in
  let chain = seg.Projection.seg_sets.(set) in
  check_bool "the old range is not empty" true (cells > 0);
  for loff = seg.Projection.seg_local_base to seg.Projection.seg_local_base + cells - 1 do
    let head = cell chain.(0) loff in
    Array.iter
      (fun node ->
        check_string
          (Printf.sprintf "%s holds local cell %d" (Storage_node.name node) loff)
          head (cell node loff))
      chain
  done

(* Clients wait only for the degraded epoch, which moves no data, so
   the outage does not grow with the log: crash a chain head after 500
   and after 5,000 appends and compare the crash-to-install windows
   (what Chaos.incidents reports as inc_unavailable_us). A copy under
   the seal would add 80 us per extra cell, about 120 ms here. *)
let test_recover_window_flat_in_log_size () =
  let run appends =
    with_faulty_cluster ~servers:6 (fun cluster f ->
        Cluster.start_failure_monitor cluster;
        let acked = append_concurrently cluster ~prefix:"w" ~writers:8 ~per_writer:(appends / 8) in
        let crashed = Sim.Engine.now () in
        Sim.Fault.crash f "storage-0";
        Sim.Engine.sleep 100_000.;
        Cluster.await_replication cluster;
        let window =
          match Cluster.recoveries cluster with
          | [ r ] -> r.Cluster.rc_installed_us -. crashed
          | l -> Alcotest.failf "expected one recovery, got %d" (List.length l)
        in
        check_full_chains cluster;
        let old = Projection.segment (Auxiliary.latest (Cluster.auxiliary cluster)) 0 in
        check_string "the spare is back in the dead head's slot" "storage-spare-0"
          (Storage_node.name old.Projection.seg_sets.(0).(0));
        check_replicas_agree cluster ~si:0 ~set:0;
        check_acked_readable cluster ~name:"reader" acked;
        (* the restored spare is a full replica: losing the survivor
           now loses nothing acked *)
        Sim.Fault.crash f "storage-1";
        Sim.Engine.sleep 100_000.;
        check_int "the survivor was replaced too" 2 (List.length (Cluster.recoveries cluster));
        check_acked_readable cluster ~name:"reader-2" acked;
        window)
  in
  let small = run 500 in
  let large = run 5_000 in
  check_bool
    (Printf.sprintf "windows %.1f ms and %.1f ms stay under 60 ms" (small /. 1e3) (large /. 1e3))
    true
    (small < 60_000. && large < 60_000.);
  check_bool
    (Printf.sprintf "windows differ by %.1f ms, under 10 ms" (Float.abs (large -. small) /. 1e3))
    true
    (Float.abs (large -. small) < 10_000.)

(* A spare that dies while it is being filled is replaced like any
   member: the chains waiting for it wait for the next spare, which
   ends up holding the whole old range, and appends acked during the
   copy stay durable. Every started reconfiguration installs and the
   lock is left free. *)
let test_recover_spare_dies_mid_copy () =
  with_faulty_cluster ~servers:6 (fun cluster f ->
      let milestones = count_reconfig_milestones () in
      Cluster.start_failure_monitor cluster;
      (* about 1,000 cells on the victim's chain: an 80 ms copy *)
      let before = append_concurrently cluster ~prefix:"w" ~writers:8 ~per_writer:375 in
      Sim.Fault.crash f "storage-0";
      while Cluster.recoveries cluster = [] do
        Sim.Engine.sleep 1_000.
      done;
      let restored () =
        List.exists
          (fun r ->
            match r.Cluster.rc_change with Cluster.Replication_restored _ -> true | _ -> false)
          (Cluster.reconfigs cluster)
      in
      let during = ref [] in
      let writing = Sim.Ivar.create () in
      Sim.Engine.spawn (fun () ->
          during := append_concurrently cluster ~prefix:"d" ~writers:4 ~per_writer:25;
          Sim.Ivar.fill writing ());
      Sim.Engine.sleep 10_000.;
      check_bool "still copying" false (restored ());
      Sim.Fault.crash f "storage-spare-0";
      Sim.Ivar.read writing;
      Sim.Engine.sleep 100_000.;
      Cluster.await_replication cluster;
      (match Cluster.recoveries cluster with
      | [ _; { Cluster.rc_change = Cluster.Storage_replaced { dead; spare }; _ } ] ->
          check_string "the dead spare was replaced" "storage-spare-0" dead;
          check_string "by a second spare" "storage-spare-1" spare
      | l -> Alcotest.failf "expected two recoveries, got %d" (List.length l));
      check_full_chains cluster;
      let old = Projection.segment (Auxiliary.latest (Cluster.auxiliary cluster)) 0 in
      check_string "the second spare holds the old range" "storage-spare-1"
        (Storage_node.name old.Projection.seg_sets.(0).(0));
      check_replicas_agree cluster ~si:0 ~set:0;
      check_acked_readable cluster ~name:"reader" (before @ !during);
      let started, installed = milestones () in
      check_int "every started reconfiguration installed" started installed;
      let epoch = current_epoch cluster in
      Array.iter
        (fun node ->
          check_bool
            (Storage_node.name node ^ " sealed at no uninstalled epoch")
            true
            (Storage_node.sealed_epoch node <= epoch))
        (Cluster.storage_nodes cluster);
      check_int "the lock is free" (epoch + 1) (Cluster.replace_sequencer cluster))

(* The hole-fill race, forced with injected message delay: the writer's
   link to the chain tail stalls past the fill timeout, so the filler
   finds the torn append's data at the head and completes it. *)
let test_fill_completes_torn_append_under_delay () =
  with_faulty_cluster ~servers:2 (fun cluster f ->
      let w = Cluster.new_client cluster ~name:"writer" in
      let r = Cluster.new_client cluster ~name:"reader" in
      Sim.Fault.degrade f ~src:"writer" ~dst:"storage-1" ~delay_us:400_000. ();
      let landed = ref (-1) in
      Sim.Engine.spawn (fun () -> landed := Client.append w ~streams:[ 1 ] (payload "x"));
      Sim.Engine.sleep 150_000.;
      (match Client.fill r 0 with
      | Client.Fill_completed e -> check_string "completed the torn append" "x" (payload_str e)
      | Client.Filled -> Alcotest.fail "filler junked data visible at the head"
      | Client.Fill_lost _ -> Alcotest.fail "the tail cannot have the data yet");
      Sim.Fault.clear_edge f ~src:"writer" ~dst:"storage-1";
      Sim.Engine.sleep 500_000.;
      check_int "writer kept its offset" 0 !landed;
      check_int "no duplicate allocation" 1 (Client.check r);
      match Client.read r 0 with
      | Client.Data e -> check_string "data" "x" (payload_str e)
      | _ -> Alcotest.fail "offset 0 must hold the data")

(* The same race when the append wins: a short delay slows the chain
   write but both replicas land before the filler arrives, so the fill
   changes nothing and reports the loss. *)
let test_fill_loses_to_slow_append () =
  with_faulty_cluster ~servers:2 (fun cluster f ->
      let w = Cluster.new_client cluster ~name:"writer" in
      let r = Cluster.new_client cluster ~name:"reader" in
      Sim.Fault.degrade f ~src:"writer" ~dst:"*" ~delay_us:5_000. ();
      let landed = ref (-1) in
      Sim.Engine.spawn (fun () -> landed := Client.append w ~streams:[ 1 ] (payload "x"));
      Sim.Engine.sleep 30_000.;
      (match Client.fill r 0 with
      | Client.Fill_lost e -> check_string "filler lost cleanly" "x" (payload_str e)
      | Client.Fill_completed _ -> Alcotest.fail "nothing was left to repair"
      | Client.Filled -> Alcotest.fail "data must not be junked");
      check_int "writer unaffected" 0 !landed;
      check_int "single allocation" 1 (Client.check r))

(* An append whose first chain-head write is lost resends it once the
   write's deadline has passed and one projection refresh has answered,
   with no wait of its own between them: the deadline, which the fabric
   backs off per host pair, is the only backoff. Only the writer ->
   head edge drops, and only until just after the first send. *)
let test_lost_head_write_resends_at_deadline () =
  Sim.Span.set_enabled true;
  Fun.protect ~finally:(fun () -> Sim.Span.set_enabled false) @@ fun () ->
  with_faulty_cluster ~servers:2 (fun cluster f ->
      let w = Cluster.new_client cluster ~name:"writer" in
      let head = Storage_node.name (Projection.replica_set (Client.projection w) 0).(0) in
      Sim.Fault.degrade f ~src:"writer" ~dst:head ~drop:1.0 ();
      Sim.Engine.spawn (fun () ->
          Sim.Engine.sleep 1_000.;
          Sim.Fault.clear_edge f ~src:"writer" ~dst:head);
      check_int "the append keeps its offset" 0 (Client.append w ~streams:[ 1 ] (payload "x"));
      let rpcs name =
        List.filter
          (fun (v : Sim.Span.view) -> v.v_name = name && v.v_host = Some "writer")
          (Sim.Span.spans ())
      in
      let end_of (v : Sim.Span.view) = Option.get v.v_end in
      match (rpcs "rpc.write", rpcs "rpc.await") with
      | lost :: resent :: _, [ refresh ] ->
          Alcotest.(check (float 1e-6))
            "the lost write waited the cap (no answer yet)" timeout_us
            (end_of lost -. lost.v_start);
          Alcotest.(check (float 1e-6))
            "the refresh leaves at the expiry" (end_of lost) refresh.v_start;
          Alcotest.(check (float 1e-6))
            "the resend leaves at the refresh's answer" (end_of refresh) resent.v_start;
          check_int "one retry" 1 (Client.retries w)
      | writes, awaits ->
          Alcotest.failf "expected two head writes and one refresh, got %d and %d"
            (List.length writes) (List.length awaits))

(* ------------------------------------------------------------------ *)
(* Wire: arena writers and borrowed cursors                           *)
(* ------------------------------------------------------------------ *)

(* One value of each wire shape, as a tagged sum so QCheck can
   generate heterogeneous sequences. *)
type wire_item =
  | Wu8 of int
  | Wbool of bool
  | Wu32 of int
  | Wu64 of int
  | Wstr of string
  | Wbytes of string
  | Wopt of string option

let wire_item_gen =
  QCheck.Gen.(
    oneof
      [
        map (fun v -> Wu8 v) (int_range 0 255);
        map (fun b -> Wbool b) bool;
        map (fun v -> Wu32 v) (int_range 0 0xFFFF_FFFF);
        map (fun v -> Wu64 v) int;  (* the full native range round-trips *)
        map (fun s -> Wstr s) string_small;
        map (fun s -> Wbytes s) string_small;
        map (fun o -> Wopt o) (option string_small);
      ])

let wire_item_print = function
  | Wu8 v -> Printf.sprintf "u8 %d" v
  | Wbool b -> Printf.sprintf "bool %b" b
  | Wu32 v -> Printf.sprintf "u32 %d" v
  | Wu64 v -> Printf.sprintf "u64 %d" v
  | Wstr s -> Printf.sprintf "str %S" s
  | Wbytes s -> Printf.sprintf "bytes %S" s
  | Wopt o ->
      Printf.sprintf "opt %s" (match o with None -> "None" | Some s -> Printf.sprintf "(Some %S)" s)

let wire_put w = function
  | Wu8 v -> Wire.put_u8 w v
  | Wbool b -> Wire.put_bool w b
  | Wu32 v -> Wire.put_u32 w v
  | Wu64 v -> Wire.put_u64 w v
  | Wstr s -> Wire.put_string w s
  | Wbytes s -> Wire.put_bytes w (Bytes.of_string s)
  | Wopt o -> Wire.put_opt_string w o

let wire_get c = function
  | Wu8 _ -> Wu8 (Wire.get_u8 c)
  | Wbool _ -> Wbool (Wire.get_bool c)
  | Wu32 _ -> Wu32 (Wire.get_u32 c)
  | Wu64 _ -> Wu64 (Wire.get_u64 c)
  | Wstr _ -> Wstr (Wire.get_string c)
  | Wbytes _ -> Wbytes (Bytes.to_string (Wire.get_bytes c))
  | Wopt _ -> Wopt (Wire.get_opt_string c)

let wire_items_arb =
  QCheck.make
    ~print:(fun l -> String.concat "; " (List.map wire_item_print l))
    QCheck.Gen.(list_size (int_range 0 40) wire_item_gen)

let prop_wire_roundtrip =
  QCheck.Test.make ~name:"wire values round-trip through the shared arena" ~count:500
    wire_items_arb (fun items ->
      let b = Wire.to_bytes (fun w -> List.iter (wire_put w) items) in
      let c = Wire.reader b in
      let got = List.map (wire_get c) items in
      got = items && Wire.remaining c = 0)

let prop_wire_roundtrip_reused_writer =
  (* Same round-trip through one explicitly reused writer and one
     reused cursor — arena reuse must not leak state between encodes. *)
  let w = Wire.writer ~size:8 () in
  let c = Wire.reader Bytes.empty in
  QCheck.Test.make ~name:"wire round-trip with reused writer and cursor" ~count:500
    wire_items_arb (fun items ->
      Wire.reset w;
      List.iter (wire_put w) items;
      Wire.reset_reader c (Wire.contents w);
      let got = List.map (wire_get c) items in
      got = items && Wire.remaining c = 0)

let test_wire_aliasing () =
  (* [to_bytes] borrows the shared arena and copies at the ownership
     boundary: bytes returned by one encode must survive the arena
     being overwritten by the next. *)
  let enc tag n =
    Wire.to_bytes (fun w ->
        Wire.put_u32 w n;
        Wire.put_string w tag;
        Wire.put_u64 w (n * 1_000_003))
  in
  let a = enc "first-record-payload" 17 in
  let a_copy = Bytes.copy a in
  let _b = enc "second-record-overwriting-the-arena" 99 in
  check_bool "first encode unchanged by second" true (Bytes.equal a a_copy);
  let c = Wire.reader a in
  check_int "u32 survives" 17 (Wire.get_u32 c);
  check_string "string survives" "first-record-payload" (Wire.get_string c);
  check_int "u64 survives" (17 * 1_000_003) (Wire.get_u64 c)

let test_wire_patch () =
  let b =
    Wire.to_bytes (fun w ->
        let at = Wire.pos w in
        Wire.put_u32 w 0;
        Wire.put_string w "body";
        Wire.patch_u32 w ~at (Wire.pos w - at - 4))
  in
  let c = Wire.reader b in
  check_int "patched length" 8 (Wire.get_u32 c);
  check_string "body" "body" (Wire.get_string c);
  let w = Wire.writer () in
  Wire.put_u32 w 1;
  (match Wire.patch_u32 w ~at:1 0 with
  | () -> Alcotest.fail "patch past written region must be rejected"
  | exception Invalid_argument _ -> ());
  match Wire.patch_u32 w ~at:(-1) 0 with
  | () -> Alcotest.fail "negative patch offset must be rejected"
  | exception Invalid_argument _ -> ()

let test_wire_truncated () =
  let b = Wire.to_bytes (fun w -> Wire.put_u32 w 1000) in
  let c = Wire.reader b in
  (match Wire.get_string c with
  | _ -> Alcotest.fail "length past the buffer must be rejected"
  | exception Invalid_argument _ -> ());
  let c2 = Wire.reader (Bytes.create 3) in
  match Wire.get_u32 c2 with
  | _ -> Alcotest.fail "truncated u32 must be rejected"
  | exception Invalid_argument _ -> ()

(* ------------------------------------------------------------------ *)
(* Sequencer.Core: fixed rings behind the counter                     *)
(* ------------------------------------------------------------------ *)

let test_seqcore_ring_semantics () =
  let t = Sequencer.Core.create ~k:4 () in
  check_int "fresh tail" 0 (Sequencer.Core.tail t);
  Alcotest.(check (list int)) "unknown stream" [] (Sequencer.Core.last_k t 7);
  (* Issue 0..5 on stream 7: the ring keeps the newest 4, newest first. *)
  let a = Sequencer.Core.grant t ~streams:[ 7 ] ~count:6 in
  check_int "grant base" 0 a.Sequencer.base;
  Alcotest.(check (list int)) "grant excludes itself" [] (List.assoc 7 a.Sequencer.stream_tails);
  check_int "tail advanced" 6 (Sequencer.Core.tail t);
  Alcotest.(check (list int))
    "newest-first, truncated to k" [ 5; 4; 3; 2 ]
    (Sequencer.Core.last_k t 7);
  (* A later grant sees the pre-grant ring as its tails. *)
  let b = Sequencer.Core.grant t ~streams:[ 7; 9 ] ~count:1 in
  check_int "second base" 6 b.Sequencer.base;
  Alcotest.(check (list int))
    "tails snapshot pre-grant" [ 5; 4; 3; 2 ]
    (List.assoc 7 b.Sequencer.stream_tails);
  Alcotest.(check (list int)) "new stream empty tails" [] (List.assoc 9 b.Sequencer.stream_tails);
  Alcotest.(check (list int)) "ring after" [ 6; 5; 4; 3 ] (Sequencer.Core.last_k t 7);
  Alcotest.(check (list int)) "stream 9 ring" [ 6 ] (Sequencer.Core.last_k t 9)

let test_seqcore_peek_and_seed () =
  (* Seeding truncates newest-first lists to k; peek never advances. *)
  let t =
    Sequencer.Core.create ~k:2 ~initial_tail:50
      ~initial_streams:[ (3, [ 49; 47; 40; 12 ]); (4, [ 48 ]) ]
      ()
  in
  Alcotest.(check (list int)) "seeded truncated to k" [ 49; 47 ] (Sequencer.Core.last_k t 3);
  Alcotest.(check (list int)) "short seed kept" [ 48 ] (Sequencer.Core.last_k t 4);
  let p = Sequencer.Core.peek t ~streams:[ 3; 4; 5 ] in
  check_int "peek base is tail" 50 p.Sequencer.base;
  Alcotest.(check (list int)) "peek tails" [ 49; 47 ] (List.assoc 3 p.Sequencer.stream_tails);
  check_int "peek does not advance" 50 (Sequencer.Core.tail t);
  check_int "nstreams" 2 (Sequencer.Core.nstreams t);
  (* note_issue is the grant inner loop: O(1) ring rotation. *)
  Sequencer.Core.note_issue t 4 50;
  Sequencer.Core.note_issue t 4 51;
  Sequencer.Core.note_issue t 4 52;
  Alcotest.(check (list int)) "rotated ring" [ 52; 51 ] (Sequencer.Core.last_k t 4)

(* ------------------------------------------------------------------ *)
(* Epoch watch: sealed replies wait at the auxiliary                  *)
(* ------------------------------------------------------------------ *)

(* Seal-and-hold, as a reconfiguration does between its seal and its
   install: [seal] closes the current epoch, [install] publishes the
   next view (same layout, same sequencer). *)
let epoch_bump cluster =
  let aux = Cluster.auxiliary cluster in
  let agent = Sim.Net.add_host (Cluster.net cluster) "test-agent" in
  let old = Auxiliary.latest aux in
  let epoch = old.Projection.epoch + 1 in
  let install () =
    match
      Sim.Net.call ~from:agent (Auxiliary.propose_service aux)
        (Projection.v ~epoch ~segments:old.Projection.segments ~sequencer:old.Projection.sequencer)
    with
    | Auxiliary.Installed -> ()
    | Auxiliary.Conflict _ -> Alcotest.fail "install conflicted"
  in
  (agent, epoch, install)

(* Every Epoch_adopted milestone of this run, oldest first, with the
   virtual time it happened at. *)
let record_adoptions () =
  let seen = ref [] in
  Sim.Announce.subscribe (function
    | Sim.Announce.Epoch_adopted { client; epoch } ->
        seen := (client, epoch, Sim.Engine.now ()) :: !seen
    | _ -> ());
  fun client ->
    List.rev (List.filter_map (fun (c, e, at) -> if c = client then Some (e, at) else None) !seen)

(* One auxiliary round trip at the worst jitter, plus the wait of the
   last of [queued] answers leaving the auxiliary's NIC together. *)
let aux_round_trip ?(queued = 1) cluster =
  let p = Cluster.params cluster in
  (2. *. Sim.Net.one_way_delay (Cluster.net cluster) ~bytes:p.Sim.Params.rpc_bytes
  *. (1. +. p.Sim.Params.net_jitter))
  +. (float_of_int (queued - 1) *. float_of_int p.Sim.Params.rpc_bytes /. p.Sim.Params.nic_bandwidth)

let test_sealed_appends_wait_for_install () =
  with_cluster (fun cluster ->
      let p = Cluster.params cluster in
      let agent, epoch, install = epoch_bump cluster in
      let adoptions = record_adoptions () in
      ignore
        (Sim.Net.call ~from:agent (Sequencer.seal_service (Cluster.sequencer cluster)) epoch
          : Types.offset);
      let k = 5 in
      let clients =
        Array.init k (fun i -> Cluster.new_client cluster ~name:(Printf.sprintf "w%d" i))
      in
      let done_at = Array.make k Float.nan in
      let remaining = ref k in
      let all_done = Sim.Ivar.create () in
      Array.iteri
        (fun i c ->
          Sim.Engine.spawn (fun () ->
              ignore (Client.append c ~streams:[ 1 ] (payload (string_of_int i)));
              done_at.(i) <- Sim.Engine.now ();
              decr remaining;
              if !remaining = 0 then Sim.Ivar.fill all_done ()))
        clients;
      let hold_us = 120_000. in
      Sim.Engine.sleep hold_us;
      let installed_at = Sim.Engine.now () in
      install ();
      Sim.Ivar.read all_done;
      let bound = int_of_float (Float.ceil (hold_us /. p.Sim.Params.rpc_timeout_us)) + 1 in
      let fresh_append =
        let t0 = Sim.Engine.now () in
        ignore (Client.append clients.(0) ~streams:[ 1 ] (payload "after"));
        Sim.Engine.now () -. t0
      in
      Array.iteri
        (fun i c ->
          let sealed = Client.retries c in
          check_bool
            (Printf.sprintf "client %d: %d sealed grants, bound %d" i sealed bound)
            true
            (sealed >= 1 && sealed <= bound);
          (match List.filter (fun (e, _) -> e >= epoch) (adoptions (Sim.Net.host_name (Client.host c))) with
          | (_, at) :: _ ->
              check_bool
                (Printf.sprintf "client %d adopted %.0f us after the install" i (at -. installed_at))
                true
                (at >= installed_at && at -. installed_at <= aux_round_trip ~queued:k cluster)
          | [] -> Alcotest.fail "new epoch never adopted");
          (* after adopting: a grant and a chain write, queued behind
             the other k - 1 appends at worst *)
          check_bool
            (Printf.sprintf "client %d completed %.0f us after the install" i
               (done_at.(i) -. installed_at))
            true
            (done_at.(i) -. installed_at
            <= aux_round_trip ~queued:k cluster +. (float_of_int k *. fresh_append)))
        clients)

let test_sealed_wait_times_out () =
  (* The seal is never followed by an install. The waiting client must
     come back after each RPC timeout and retry; a watch that parked
     for good would leave the main fiber below waiting on nothing. *)
  with_cluster (fun cluster ->
      let p = Cluster.params cluster in
      let agent, epoch, _install = epoch_bump cluster in
      let adoptions = record_adoptions () in
      ignore
        (Sim.Net.call ~from:agent (Sequencer.seal_service (Cluster.sequencer cluster)) epoch
          : Types.offset);
      let c = Cluster.new_client cluster ~name:"waiter" in
      let name = Sim.Net.host_name (Client.host c) in
      let returns = 3 in
      let enough = Sim.Ivar.create () in
      Sim.Announce.subscribe (function
        | Sim.Announce.Epoch_adopted { client; _ }
          when client = name
               && List.length (adoptions name) = returns
               && not (Sim.Ivar.is_filled enough) ->
            Sim.Ivar.fill enough ()
        | _ -> ());
      Sim.Engine.spawn (fun () -> ignore (Client.append c ~streams:[ 1 ] (payload "x")));
      Sim.Ivar.read enough;
      let seen = adoptions name in
      List.iter (fun (e, _) -> check_int "still the old epoch" (epoch - 1) e) seen;
      let times = List.map snd seen in
      List.iteri
        (fun i at ->
          if i > 0 then
            check_bool "each wait lasts one RPC timeout" true
              (at -. List.nth times (i - 1) >= p.Sim.Params.rpc_timeout_us))
        times;
      check_int "one sealed grant per wait" returns (Client.retries c))

let test_await_wakes_in_arrival_order () =
  let params = { Sim.Params.default with net_jitter = 0. } in
  Sim.Engine.run ~seed:11 (fun () ->
      let cluster = Cluster.create ~params ~servers:4 () in
      let aux = Cluster.auxiliary cluster in
      let _, epoch, install = epoch_bump cluster in
      let order = ref [] in
      let wait_us = 1_000_000. in
      let spawn_waiter name ~arrive_us ~at_least =
        let host = Sim.Net.add_host (Cluster.net cluster) name in
        Sim.Engine.spawn ~at:arrive_us (fun () ->
            let proj =
              Sim.Net.call ~from:host (Auxiliary.await_service aux)
                { Auxiliary.at_least; wait_us }
            in
            order := (name, proj.Projection.epoch, Sim.Engine.now ()) :: !order)
      in
      (* the host names sort against arrival order *)
      spawn_waiter "d" ~arrive_us:0. ~at_least:epoch;
      spawn_waiter "c" ~arrive_us:10. ~at_least:(epoch + 1);
      spawn_waiter "b" ~arrive_us:20. ~at_least:epoch;
      spawn_waiter "a" ~arrive_us:30. ~at_least:epoch;
      spawn_waiter "now" ~arrive_us:40. ~at_least:(epoch - 1);
      Sim.Engine.sleep 5_000.;
      check_bool "a satisfied watch answers at once" true
        (match !order with [ ("now", e, _) ] -> e = epoch - 1 | _ -> false);
      install ();
      Sim.Engine.sleep (wait_us +. 10_000.);
      let got = List.rev_map (fun (n, e, _) -> (n, e)) !order in
      Alcotest.(check (list (pair string int)))
        "woken in arrival order; the later epoch only at its deadline"
        [ ("now", epoch - 1); ("d", epoch); ("b", epoch); ("a", epoch); ("c", epoch) ]
        got;
      match !order with
      | ("c", _, at) :: _ -> check_bool "deadline honoured" true (at >= 10. +. wait_us)
      | _ -> Alcotest.fail "the unsatisfied watch never returned")

(* An install that wakes parked watches cancels their deadlines: three
   watches parked for up to a second leave no timer behind once the
   install answers them. *)
let test_await_install_cancels_deadlines () =
  let params = { Sim.Params.default with net_jitter = 0. } in
  Sim.Engine.run ~seed:11 (fun () ->
      let cluster = Cluster.create ~params ~servers:4 () in
      let aux = Cluster.auxiliary cluster in
      let _, epoch, install = epoch_bump cluster in
      let answered = ref 0 in
      List.iter
        (fun name ->
          let host = Sim.Net.add_host (Cluster.net cluster) name in
          Sim.Engine.spawn (fun () ->
              let proj =
                Sim.Net.call ~from:host (Auxiliary.await_service aux)
                  { Auxiliary.at_least = epoch; wait_us = 1_000_000. }
              in
              check_int "woken by the install" epoch proj.Projection.epoch;
              incr answered))
        [ "w1"; "w2"; "w3" ];
      Sim.Engine.sleep 5_000.;
      let parked = Sim.Engine.pending_events () in
      install ();
      Sim.Engine.sleep 5_000.;
      check_int "all three answered" 3 !answered;
      check_int "their deadlines cancelled" (parked - 3) (Sim.Engine.pending_events ()))

let test_storage_seals_resolve_through_await () =
  (* Storage nodes sealed ahead of the sequencer: the chain write meets
     [Sealed_at], the read meets [Read_sealed]. Each must adopt the new
     epoch once, when it installs, instead of refreshing in a loop. *)
  with_cluster (fun cluster ->
      let seal_storage agent epoch =
        Array.iter
          (fun node ->
            ignore (Sim.Net.call ~from:agent (Storage_node.seal_service node) epoch : Types.offset))
          (Cluster.storage_nodes cluster)
      in
      let adoptions = record_adoptions () in
      let hold_us = 10_000. in
      let held_sealed ~client ~op =
        let agent, epoch, install = epoch_bump cluster in
        seal_storage agent epoch;
        let result = Sim.Ivar.create () in
        Sim.Engine.spawn (fun () -> Sim.Ivar.fill result (op ()));
        Sim.Engine.sleep hold_us;
        let installed_at = Sim.Engine.now () in
        let before = Client.retries client in
        install ();
        let r = Sim.Ivar.read result in
        let name = Sim.Net.host_name (Client.host client) in
        (match List.filter (fun (_, at) -> at > installed_at -. hold_us) (adoptions name) with
        | [ (e, at) ] ->
            check_int "adopted the sealing epoch" epoch e;
            check_bool "adopted at the install" true
              (at >= installed_at && at -. installed_at <= aux_round_trip cluster)
        | seen ->
            Alcotest.failf "expected one adoption while sealed, saw %d" (List.length seen));
        check_int "no further retries after the wake" before (Client.retries client);
        r
      in
      let w = Cluster.new_client cluster ~name:"writer" in
      let off = held_sealed ~client:w ~op:(fun () -> Client.append w ~streams:[ 1 ] (payload "v")) in
      check_int "one sealed chain write" 1 (Client.retries w);
      let r = Cluster.new_client cluster ~name:"reader" in
      Client.refresh r;
      (match held_sealed ~client:r ~op:(fun () -> Client.read r off) with
      | Client.Data e -> check_string "read through the seal" "v" (payload_str e)
      | _ -> Alcotest.fail "sealed read did not resolve to the data");
      check_int "one sealed read" 1 (Client.retries r))

(* ------------------------------------------------------------------ *)
(* A resent install proposal                                          *)
(* ------------------------------------------------------------------ *)

(* The auxiliary installs the proposal but its answer is lost, so the
   agent resends it at the deadline and finds its own projection
   installed: that is an install, not a concurrent reconfiguration.
   Only the auxiliary -> agent edge drops, and only until the first
   copy has installed. *)
let test_resent_proposal_installs_once () =
  with_faulty_cluster (fun cluster f ->
      let milestones = count_reconfig_milestones () in
      let w = Cluster.new_client cluster ~name:"writer" in
      for i = 1 to 10 do
        ignore (Client.append w ~streams:[ 1 ] (payload (string_of_int i)))
      done;
      Sim.Fault.degrade f ~src:"auxiliary" ~dst:"reconfig-agent" ~drop:1.0 ();
      Sim.Engine.spawn (fun () ->
          while current_epoch cluster = 0 do
            Sim.Engine.sleep 100.
          done;
          Sim.Engine.sleep 1_000.;
          Sim.Fault.clear_edge f ~src:"auxiliary" ~dst:"reconfig-agent");
      let epoch = Cluster.replace_sequencer cluster in
      check_int "one install" 1 epoch;
      check_int "the auxiliary is at that epoch" 1 (current_epoch cluster);
      (match Cluster.reconfigs cluster with
      | [ r ] ->
          check_bool "the first answer was lost: installed after the proposal's deadline" true
            (r.Cluster.rc_installed_us -. r.Cluster.rc_started_us >= timeout_us)
      | l -> Alcotest.failf "expected one reconfigs entry, got %d" (List.length l));
      let s, i = milestones () in
      check_int "one started milestone" 1 s;
      check_int "one installed milestone" 1 i;
      check_int "appends resume exactly" 10 (Client.append w ~streams:[ 1 ] (payload "after")))

(* Two reconfigurations asked for at the same instant run one after
   the other, and the second starts the instant the first installs: it
   waits in line for the lock, not on a poll. *)
let test_queued_reconfiguration_starts_at_install () =
  with_faulty_cluster (fun cluster _ ->
      let w = Cluster.new_client cluster ~name:"writer" in
      for i = 1 to 10 do
        ignore (Client.append w ~streams:[ 1 ] (payload (string_of_int i)))
      done;
      let second = Sim.Ivar.create () in
      Sim.Engine.spawn (fun () -> Sim.Ivar.fill second (Cluster.replace_sequencer cluster));
      let first = Cluster.replace_sequencer cluster in
      check_int "the caller's runs first" 1 first;
      check_int "the queued one runs next" 2 (Sim.Ivar.read second);
      match Cluster.reconfigs cluster with
      | [ r1; r2 ] ->
          Alcotest.(check (float 1e-9))
            "the second starts at the first's install" r1.Cluster.rc_installed_us
            r2.Cluster.rc_started_us
      | l -> Alcotest.failf "expected two reconfigs entries, got %d" (List.length l))

(* A seal delivered but whose answer is lost is resent at the
   deadline, and the resend must answer as the first send did: a node
   or sequencer already sealed at the epoch refuses nothing new and
   returns the same tail. Only [src] -> agent drops, from the start
   until 1 ms after [sealed ()] holds; [src] counts the seals it
   serves in [seals]. [op] runs one reconfiguration and returns its
   epoch and frontier; the dropped run must report the undropped
   run's. *)
let lost_seal_answer ~src ~seals ~sealed ~op =
  let run ~drop =
    with_faulty_cluster (fun cluster f ->
        let w = Cluster.new_client cluster ~name:"writer" in
        for i = 1 to 10 do
          ignore (Client.append w ~streams:[ 1 ] (payload (string_of_int i)))
        done;
        if drop then begin
          Sim.Fault.degrade f ~src ~dst:"reconfig-agent" ~drop:1.0 ();
          Sim.Engine.spawn (fun () ->
              while not (sealed cluster) do
                Sim.Engine.sleep 100.
              done;
              Sim.Engine.sleep 1_000.;
              Sim.Fault.clear_edge f ~src ~dst:"reconfig-agent")
        end;
        let epoch, frontier = op cluster f in
        let served = Sim.Metrics.counter_value (Sim.Metrics.counter ~host:src seals) in
        check_int "one reconfiguration logged" 1 (List.length (Cluster.reconfigs cluster));
        check_int "appends resume exactly" 10 (Client.append w ~streams:[ 1 ] (payload "after"));
        (epoch, frontier, served))
  in
  let epoch, frontier, seals = run ~drop:false in
  let epoch', frontier', seals' = run ~drop:true in
  check_int "one install" 1 epoch;
  check_int "the same install" epoch epoch';
  check_int "the undropped run's frontier" frontier frontier';
  check_int "the seal was served once more" (seals + 1) seals'

(* The old sequencer's seal during [replace_sequencer]: the frontier is
   the new sequencer's first grant. The old sequencer stays the
   cluster's until the install, which waits for the seal's answer. *)
let test_lost_sequencer_seal_answer () =
  lost_seal_answer ~src:"sequencer-0" ~seals:"seq.seals"
    ~sealed:(fun cluster -> Sequencer.sealed_epoch (Cluster.sequencer cluster) >= 1)
    ~op:(fun cluster _ ->
      let epoch = Cluster.replace_sequencer cluster in
      (epoch, Sequencer.current_tail (Cluster.sequencer cluster)))

(* A surviving chain member's seal during a storage replacement: the
   frontier is the base of the tail segment it opens. *)
let test_lost_storage_seal_answer () =
  lost_seal_answer ~src:"storage-1" ~seals:"node.seals"
    ~sealed:(fun cluster -> Storage_node.sealed_epoch (Cluster.storage_nodes cluster).(1) >= 1)
    ~op:(fun cluster f ->
      Sim.Fault.crash f "storage-0";
      let epoch = Cluster.replace_storage_node cluster ~dead:(Cluster.storage_nodes cluster).(0) in
      let proj = Auxiliary.latest (Cluster.auxiliary cluster) in
      (epoch, (Projection.tail_segment proj).Projection.seg_base))

(* ------------------------------------------------------------------ *)
(* The rebuild scan in windows                                        *)
(* ------------------------------------------------------------------ *)

let is_snapshot ~k (e : Types.entry) =
  match Stream_header.locate ~k e.Types.headers Seq_checkpoint.stream_id with
  | at -> at >= 0
  | exception Invalid_argument _ -> false

(* The scan one read at a time, top down: the reference the windowed
   {!Seq_checkpoint.rebuild} must match exactly. A snapshot ends it,
   its state completed by the newest K offsets found above it. *)
let serial_rebuild ~k ~floor ~read ?streams top =
  let tbl = Hashtbl.create 64 in
  let scanned = ref 0 in
  let complete () =
    match streams with
    | None -> false
    | Some sids ->
        List.for_all
          (fun sid ->
            match Hashtbl.find_opt tbl sid with Some l -> List.length l >= k | None -> false)
          sids
  in
  let rec scan off =
    if off >= floor && not (complete ()) then begin
      incr scanned;
      match read off with
      | Types.Read_data e when is_snapshot ~k e ->
          let snap = (Seq_checkpoint.decode e.Types.payload).Seq_checkpoint.snap_streams in
          let above = Hashtbl.copy tbl in
          List.iter (fun (sid, offs) -> Hashtbl.replace tbl sid offs) snap;
          Hashtbl.iter
            (fun sid recent ->
              let older = Option.value ~default:[] (List.assoc_opt sid snap) in
              Hashtbl.replace tbl sid (List.filteri (fun i _ -> i < k) (recent @ older)))
            above
      | Types.Read_data e ->
          List.iter
            (fun (h : Stream_header.t) ->
              let prev = Option.value ~default:[] (Hashtbl.find_opt tbl h.stream) in
              if List.length prev < k then Hashtbl.replace tbl h.stream (prev @ [ off ]))
            (Stream_header.decode_block ~k ~current:off e.Types.headers);
          scan (off - 1)
      | Types.Read_unwritten | Types.Read_junk | Types.Read_trimmed | Types.Read_sealed _ ->
          scan (off - 1)
    end
  in
  scan top;
  (tbl, !scanned)

let sorted_table tbl =
  List.sort compare (Hashtbl.fold (fun sid offs acc -> (sid, offs) :: acc) tbl [])

(* A frozen log: [cells.(i)] is offset [floor + i]'s chain head, which
   answers [delays.(i)] µs after the read is issued. *)
type frozen = {
  fz_k : int;
  fz_floor : int;
  fz_cells : Types.read_result array;
  fz_delays : float array;
  fz_streams : Types.stream_id list;
}

let frozen_gen =
  let open QCheck.Gen in
  let* fz_k = oneofl [ 4; 8 ] in
  let* fz_floor = int_range 0 40 in
  let* len = int_range 0 150 in
  let* kinds =
    array_repeat len
      (frequency
         [
           (6, map (fun l -> `Data l) (list_size (int_range 1 3) (int_range 1 4)));
           (1, return `Junk);
           (1, return `Unwritten);
           (1, return `Trimmed);
         ])
  in
  let* depths = list_size (int_range 0 2) (int_range 0 (max 0 (len - 1))) in
  let* snap_streams =
    flatten_l
      (List.map
         (fun sid ->
           map (fun offs -> (sid, offs)) (list_size (int_range 0 fz_k) (int_range 0 fz_floor)))
         [ 1; 2; 3; 4; 5 ])
  in
  let* fz_delays = array_repeat len (map float_of_int (int_range 0 500)) in
  let* fz_streams = list_size (int_range 0 3) (int_range 1 5) in
  let cell i kind =
    let off = fz_floor + i in
    let headers streams =
      Stream_header.encode_block ~k:fz_k ~current:off
        (List.map (fun stream -> { Stream_header.stream; backptrs = [] }) streams)
    in
    match kind with
    | `Data l ->
        let headers = headers (List.sort_uniq compare l) in
        Types.Read_data { Types.headers; payload = Bytes.empty }
    | `Junk -> Types.Read_junk
    | `Unwritten -> Types.Read_unwritten
    | `Trimmed -> Types.Read_trimmed
    | `Snapshot ->
        let snap =
          {
            Seq_checkpoint.snap_tail = off;
            snap_streams =
              List.map
                (fun (sid, offs) -> (sid, List.sort_uniq (Fun.flip compare) offs))
                snap_streams;
          }
        in
        Types.Read_data
          {
            Types.headers = headers [ Seq_checkpoint.stream_id ];
            payload = Seq_checkpoint.encode snap;
          }
  in
  let top = len - 1 in
  let fz_cells =
    Array.mapi (fun i kind -> cell i (if List.mem (top - i) depths then `Snapshot else kind)) kinds
  in
  return { fz_k; fz_floor; fz_cells; fz_delays; fz_streams }

let frozen_print fz =
  let cell = function
    | Types.Read_data e when is_snapshot ~k:fz.fz_k e -> "S"
    | Types.Read_data _ -> "d"
    | Types.Read_junk -> "j"
    | Types.Read_unwritten -> "u"
    | Types.Read_trimmed -> "t"
    | Types.Read_sealed _ -> "s"
  in
  Printf.sprintf "k=%d floor=%d streams=[%s] cells(floor up)=%s" fz.fz_k fz.fz_floor
    (String.concat ";" (List.map string_of_int fz.fz_streams))
    (String.concat "" (Array.to_list (Array.map cell fz.fz_cells)))

(* Over any frozen log, with and without [?streams], the windowed scan
   returns the serial scan's table and [scanned], reads each offset at
   most once, and reads at most [window - 1] offsets past its stop. The
   heads answer after random delays, so reads complete out of order. *)
let prop_windowed_rebuild_is_serial =
  QCheck.Test.make ~name:"windowed rebuild = serial rebuild" ~count:500
    (QCheck.make ~print:frozen_print frozen_gen)
    (fun fz ->
      let k = fz.fz_k and floor = fz.fz_floor in
      let top = floor + Array.length fz.fz_cells - 1 in
      let cell off = fz.fz_cells.(off - floor) in
      List.for_all
        (fun streams ->
          let serial, serial_scanned = serial_rebuild ~k ~floor ~read:cell ?streams top in
          let read = Hashtbl.create 64 in
          let tbl, scanned =
            Sim.Engine.run ~seed:1 (fun () ->
                Seq_checkpoint.rebuild ~k ~floor ?streams top ~read:(fun off ->
                    if off < floor || off > top || Hashtbl.mem read off then
                      QCheck.Test.fail_reportf "offset %d read twice or out of range" off;
                    Hashtbl.replace read off ();
                    Sim.Engine.sleep fz.fz_delays.(off - floor);
                    cell off))
          in
          if sorted_table tbl <> sorted_table serial then QCheck.Test.fail_report "tables differ";
          if scanned <> serial_scanned then
            QCheck.Test.fail_reportf "scanned %d, serial %d" scanned serial_scanned;
          if Hashtbl.length read > scanned + Fan_out.window - 1 then
            QCheck.Test.fail_reportf "%d reads for %d offsets examined" (Hashtbl.length read)
              scanned;
          true)
        [ None; Some fz.fz_streams ])

(* The fixed part of a failover: the sequencer's and the four storage
   nodes' seals, the first read's round trip and the install. Measured
   at 0.78 ms for the run below; 1 ms bounds it. *)
let failover_slack_us = 1_000.

(* A replacement sequencer with no checkpoint reads the whole log off
   the chain heads. With a window of reads in flight that costs the
   agent's inbound NIC moving every entry, plus the fixed slack; one
   read per round trip cost about 190 µs an entry. *)
let test_failover_at_nic_bandwidth () =
  with_cluster ~seed:5 (fun cluster ->
      let p = Cluster.params cluster in
      let c = Cluster.new_client cluster ~name:"writer" in
      for i = 0 to 299 do
        ignore (Client.append c ~streams:[ 1 + (i mod 4) ] (payload "x"));
        Sim.Engine.sleep 400.
      done;
      ignore (Cluster.replace_sequencer cluster : Types.epoch);
      match Cluster.reconfigs cluster with
      | [
          {
            Cluster.rc_change = Cluster.Sequencer_replaced { scanned };
            rc_started_us;
            rc_installed_us;
            _;
          };
        ] ->
          check_int "scanned the whole log" 300 scanned;
          let bandwidth_us =
            float_of_int (scanned * p.Sim.Params.entry_bytes) /. p.Sim.Params.nic_bandwidth
          in
          let took = rc_installed_us -. rc_started_us in
          check_bool
            (Printf.sprintf "failover %.2f ms within %.2f ms of NIC time + %.2f ms slack"
               (took /. 1e3) (bandwidth_us /. 1e3) (failover_slack_us /. 1e3))
            true
            (took <= bandwidth_us +. failover_slack_us)
      | l -> Alcotest.failf "expected one failover, got %d reconfigurations" (List.length l))

let qcheck tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "corfu"
    [
      ( "stream-header",
        [
          Alcotest.test_case "relative roundtrip" `Quick test_header_relative_roundtrip;
          Alcotest.test_case "absolute on overflow" `Quick test_header_absolute_when_overflow;
          Alcotest.test_case "relative boundary" `Quick test_header_relative_boundary;
          Alcotest.test_case "empty backpointers" `Quick test_header_empty_backptrs;
          Alcotest.test_case "multi-stream block" `Quick test_header_multi_stream_block;
          Alcotest.test_case "rejects bad ids" `Quick test_header_rejects_bad_ids;
          Alcotest.test_case "rejects bad k" `Quick test_header_rejects_bad_k;
        ] );
      ( "storage-node",
        [
          Alcotest.test_case "write once" `Quick test_node_write_once;
          Alcotest.test_case "unwritten read" `Quick test_node_unwritten_read;
          Alcotest.test_case "fill semantics" `Quick test_node_fill_semantics;
          Alcotest.test_case "seal rejects stale epochs" `Quick test_node_seal_rejects_stale_epochs;
          Alcotest.test_case "trim" `Quick test_node_trim;
          Alcotest.test_case "prefix trim" `Quick test_node_prefix_trim;
          Alcotest.test_case "local tail" `Quick test_node_local_tail;
          Alcotest.test_case "capacity" `Quick test_node_capacity;
          Alcotest.test_case "a 10^6 jump allocates one page" `Quick test_node_page_jump;
          Alcotest.test_case "prefix trim frees whole pages" `Quick
            test_node_prefix_trim_frees_pages;
          QCheck_alcotest.to_alcotest prop_pages_match_hashtbl;
        ] );
      ( "entry-cache",
        [
          Alcotest.test_case "the client's cap sheds to half" `Quick test_client_cache_cap;
          QCheck_alcotest.to_alcotest prop_entry_cache_matches_hashtbl;
        ] );
      ( "wire",
        [
          Alcotest.test_case "arena aliasing at ownership boundary" `Quick test_wire_aliasing;
          Alcotest.test_case "length backpatch" `Quick test_wire_patch;
          Alcotest.test_case "truncated input rejected" `Quick test_wire_truncated;
        ] );
      ( "sequencer-core",
        [
          Alcotest.test_case "ring semantics" `Quick test_seqcore_ring_semantics;
          Alcotest.test_case "peek and seeded state" `Quick test_seqcore_peek_and_seed;
        ] );
      ( "sequencer",
        [
          Alcotest.test_case "monotonic offsets" `Quick test_sequencer_monotonic;
          Alcotest.test_case "stream backpointers" `Quick test_sequencer_stream_backpointers;
          Alcotest.test_case "peek does not advance" `Quick test_sequencer_peek_does_not_advance;
          Alcotest.test_case "batched allocation" `Quick test_sequencer_batched_allocation;
          Alcotest.test_case "range grant records streams" `Quick
            test_sequencer_range_grant_records_streams;
          Alcotest.test_case "seal" `Quick test_sequencer_seal;
          Alcotest.test_case "seeded state" `Quick test_sequencer_seeded_state;
          Alcotest.test_case "throughput cap" `Slow test_sequencer_throughput_cap;
        ] );
      ( "projection",
        [
          Alcotest.test_case "offset mapping" `Quick test_projection_mapping;
          Alcotest.test_case "global tail from locals" `Quick test_projection_global_tail;
          Alcotest.test_case "shape validation" `Quick test_projection_validation;
        ] );
      ( "client",
        [
          Alcotest.test_case "append and read" `Quick test_client_append_read;
          Alcotest.test_case "append is a one-entry grant" `Quick
            test_client_append_is_one_entry_grant;
          Alcotest.test_case "two clients interleave" `Quick test_client_two_clients_interleave;
          Alcotest.test_case "slow check matches fast" `Quick test_client_check_slow_matches_fast;
          Alcotest.test_case "fill hole with junk" `Quick test_client_fill_hole;
          Alcotest.test_case "fill completes torn append" `Quick
            test_client_fill_completes_torn_append;
          Alcotest.test_case "read_resolved waits" `Quick
            test_client_read_resolved_waits_for_slow_writer;
          Alcotest.test_case "trim and prefix trim" `Quick test_client_trim_and_prefix_trim;
        ] );
      ( "stream",
        [
          Alcotest.test_case "basic playback" `Quick test_stream_basic_playback;
          Alcotest.test_case "selective consumption" `Quick test_stream_selective_consumption;
          Alcotest.test_case "multiappend on all streams" `Quick
            test_stream_multiappend_visible_on_all;
          Alcotest.test_case "incremental sync" `Quick test_stream_incremental_sync;
          Alcotest.test_case "reader on another client" `Quick test_stream_reader_on_other_client;
          Alcotest.test_case "sync strides K" `Quick test_stream_sync_reads_stride_k;
          Alcotest.test_case "append_range visible in order" `Quick
            test_append_range_visible_in_order;
          Alcotest.test_case "append_range chains stay strided" `Quick
            test_append_range_chains_stay_strided;
          Alcotest.test_case "hole filled and skipped" `Quick test_stream_hole_is_filled_and_skipped;
          Alcotest.test_case "junk breaks stride, scan recovers" `Quick
            test_stream_junk_breaks_stride_then_scan;
          Alcotest.test_case "playback reads each member once" `Quick
            test_stream_playback_reads_each_member_once;
          Alcotest.test_case "playback skips a junk member" `Quick
            test_stream_playback_skips_junk_member;
          Alcotest.test_case "sync_with takes unordered pointers" `Quick
            test_stream_sync_with_unordered_pointers;
          Alcotest.test_case "concurrent syncs register each member once" `Quick
            test_stream_concurrent_syncs_register_each_member_once;
          Alcotest.test_case "slow older walk keeps the horizon" `Quick
            test_stream_slow_older_walk_keeps_horizon;
          Alcotest.test_case "playback counts cache hits" `Quick
            test_stream_playback_counts_cache_hits;
        ] );
      ( "probing",
        [
          Alcotest.test_case "basic probing append" `Quick test_probing_append_basic;
          Alcotest.test_case "probing races resolve" `Quick test_probing_races_resolve;
          Alcotest.test_case "bridges sequencer outage" `Quick
            test_probing_bridges_sequencer_outage;
          Alcotest.test_case "two probing clients stay walkable" `Quick
            test_probing_walk_two_clients;
          Alcotest.test_case "probing after sequencer appends stays walkable" `Quick
            test_probing_walk_after_sequencer_appends;
          Alcotest.test_case "probing scan merges a snapshot" `Quick
            test_probing_walk_across_snapshot;
        ] );
      ( "seq-checkpoint",
        [
          Alcotest.test_case "codec roundtrip" `Quick test_seq_checkpoint_codec;
          Alcotest.test_case "bounds the rebuild scan" `Quick test_seq_checkpoint_bounds_rebuild;
          Alcotest.test_case "appends resume exactly" `Quick test_seq_checkpoint_appends_resume;
          Alcotest.test_case "scribe survives a crashed head" `Quick
            test_seq_checkpoint_survives_crashed_head;
        ] );
      ( "reconfiguration",
        [
          Alcotest.test_case "replace sequencer" `Quick test_reconfig_replaces_sequencer;
          Alcotest.test_case "a sealed peek is one check_tail section" `Quick
            test_sealed_peek_one_check_tail;
          Alcotest.test_case "reconfig under load" `Quick test_reconfig_under_load;
          Alcotest.test_case "reconfig voids in-flight grant" `Quick
            test_reconfig_voids_inflight_grant;
          Alcotest.test_case "crash mid-append unblocks readers" `Quick
            test_crash_mid_append_unblocks_readers;
          Alcotest.test_case "sequencer link outage mid-append" `Quick
            test_sequencer_link_outage_mid_append;
          Alcotest.test_case "replacement survives a dropped seal" `Quick
            test_replace_sequencer_survives_dropped_seal;
        ] );
      ( "scale",
        [
          Alcotest.test_case "scale-out basic" `Quick test_scale_out_basic;
          Alcotest.test_case "scale-out under load" `Quick test_scale_out_under_load;
          Alcotest.test_case "scale-in and retire" `Quick test_scale_in_and_retire;
          Alcotest.test_case "storage failure across segments" `Quick
            test_scale_out_then_storage_failure;
          Alcotest.test_case "scale-out determinism" `Quick test_scale_determinism;
          Alcotest.test_case "layout wire roundtrip" `Quick test_projection_layout_roundtrip;
        ] );
      ( "fault-recovery",
        [
          Alcotest.test_case "replace storage node" `Quick test_recover_replace_storage_node;
          Alcotest.test_case "monitor detects and replaces" `Quick test_recover_monitor_detects;
          Alcotest.test_case "ssd failure triggers replacement" `Quick test_recover_ssd_failure;
          Alcotest.test_case "monitor needs three misses" `Quick
            test_recover_monitor_needs_three_misses;
          Alcotest.test_case "a monitor-driven seal waits the learnt deadline" `Quick
            test_recover_monitor_seal_at_learnt_deadline;
          Alcotest.test_case "auxiliary watch keeps its deadline" `Quick
            test_aux_watch_keeps_its_deadline;
          Alcotest.test_case "fill completes torn append under delay" `Quick
            test_fill_completes_torn_append_under_delay;
          Alcotest.test_case "fill loses to slow append" `Quick test_fill_loses_to_slow_append;
          Alcotest.test_case "a lost head write resends at its deadline" `Quick
            test_lost_head_write_resends_at_deadline;
          Alcotest.test_case "outage flat in log size" `Quick test_recover_window_flat_in_log_size;
          Alcotest.test_case "spare dies mid-copy" `Quick test_recover_spare_dies_mid_copy;
        ] );
      ( "reconfig-log",
        [
          Alcotest.test_case "each operation logs once" `Quick test_each_reconfiguration_logs_once;
          Alcotest.test_case "duplicate replacement declines" `Quick
            test_duplicate_replacement_declines;
          Alcotest.test_case "untrimmed retirement declines" `Quick test_retire_untrimmed_declines;
          Alcotest.test_case "rejected scale-in is not counted" `Quick
            test_rejected_scale_in_not_counted;
          Alcotest.test_case "a resent proposal installs once" `Quick
            test_resent_proposal_installs_once;
          Alcotest.test_case "a queued reconfiguration starts at the install" `Quick
            test_queued_reconfiguration_starts_at_install;
          Alcotest.test_case "a resent sequencer seal answers as the first" `Quick
            test_lost_sequencer_seal_answer;
          Alcotest.test_case "a resent storage seal answers as the first" `Quick
            test_lost_storage_seal_answer;
        ] );
      ( "rebuild-window",
        [
          Alcotest.test_case "failover at NIC bandwidth" `Quick test_failover_at_nic_bandwidth;
          QCheck_alcotest.to_alcotest prop_windowed_rebuild_is_serial;
        ] );
      ( "epoch-watch",
        [
          Alcotest.test_case "sealed appends wait for the install" `Quick
            test_sealed_appends_wait_for_install;
          Alcotest.test_case "a seal that never installs" `Quick test_sealed_wait_times_out;
          Alcotest.test_case "waiters wake in arrival order" `Quick
            test_await_wakes_in_arrival_order;
          Alcotest.test_case "an install cancels the watches' deadlines" `Quick
            test_await_install_cancels_deadlines;
          Alcotest.test_case "storage seals resolve through the watch" `Quick
            test_storage_seals_resolve_through_await;
        ] );
      ( "kernel-alloc",
        [
          Alcotest.test_case "in-place walk step allocates nothing" `Quick
            test_walk_step_allocates_nothing;
          Alcotest.test_case "sync walk allocates per member only" `Quick
            test_sync_walk_allocates_per_member;
          Alcotest.test_case "no-new-pointer walk keeps span and horizon" `Quick
            test_sync_no_new_pointer_traced;
        ] );
      ( "properties",
        qcheck
          [
            prop_header_roundtrip;
            prop_header_lookup_matches_find;
            prop_tails_encoder_matches_records;
            prop_stream_isolation;
            prop_segment_mapping_roundtrip;
            prop_wire_roundtrip;
            prop_wire_roundtrip_reused_writer;
          ] );
    ]
