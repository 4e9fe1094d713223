let slots_per_entry = 64

let pos ~offset ~slot =
  if slot < 0 || slot >= slots_per_entry then invalid_arg "Record.pos: slot out of range";
  (offset * slots_per_entry) + slot

let pos_offset p = p / slots_per_entry
let pos_slot p = p mod slots_per_entry

type update = { u_oid : int; u_key : string option; u_data : bytes }

type commit = {
  c_reads : (int * string option * int) list;
  c_writes : update list;
  c_needs_decision : bool;
}

type t =
  | Update of update
  | Commit of commit
  | Decision of { d_target : int; d_committed : bool }
  | Partial of { p_target : int; p_verdicts : (int * bool) list }
  | Checkpoint of { k_oid : int; k_base : int; k_data : bytes }

(* ------------------------------------------------------------------ *)
(* Wire format: fixed-width big-endian integers, length-prefixed      *)
(* byte strings, via the shared Corfu.Wire codec. One byte of record  *)
(* count, then length-prefixed records so a reader can skip unknown   *)
(* slots.                                                             *)
(* ------------------------------------------------------------------ *)

module Wire = Corfu.Wire

let put_u8 = Wire.put_u8
let put_u32 = Wire.put_u32
let put_u64 = Wire.put_u64
let put_bytes = Wire.put_bytes
let put_key = Wire.put_opt_string

let put_update b { u_oid; u_key; u_data } =
  put_u64 b u_oid;
  put_key b u_key;
  put_bytes b u_data

let encode_one b = function
  | Update u ->
      put_u8 b 0;
      put_update b u
  | Commit { c_reads; c_writes; c_needs_decision } ->
      put_u8 b 1;
      put_u8 b (if c_needs_decision then 1 else 0);
      put_u32 b (List.length c_reads);
      List.iter
        (fun (oid, key, version) ->
          put_u64 b oid;
          put_key b key;
          put_u64 b version)
        c_reads;
      put_u32 b (List.length c_writes);
      List.iter (put_update b) c_writes
  | Decision { d_target; d_committed } ->
      put_u8 b 2;
      put_u64 b d_target;
      put_u8 b (if d_committed then 1 else 0)
  | Checkpoint { k_oid; k_base; k_data } ->
      put_u8 b 3;
      put_u64 b k_oid;
      put_u64 b k_base;
      put_bytes b k_data
  | Partial { p_target; p_verdicts } ->
      put_u8 b 4;
      put_u64 b p_target;
      put_u32 b (List.length p_verdicts);
      List.iter
        (fun (oid, ok) ->
          put_u64 b oid;
          put_u8 b (if ok then 1 else 0))
        p_verdicts

let get_u8 = Wire.get_u8
let get_u32 = Wire.get_u32
let get_u64 = Wire.get_u64
let get_bytes = Wire.get_bytes
let get_key = Wire.get_opt_string

let get_update c =
  let u_oid = get_u64 c in
  let u_key = get_key c in
  let u_data = get_bytes c in
  { u_oid; u_key; u_data }

let decode_one c =
  match get_u8 c with
  | 0 -> Update (get_update c)
  | 1 ->
      let c_needs_decision = get_u8 c = 1 in
      let nreads = get_u32 c in
      let c_reads =
        List.init nreads (fun _ ->
            let oid = get_u64 c in
            let key = get_key c in
            let version = get_u64 c in
            (oid, key, version))
      in
      let nwrites = get_u32 c in
      let c_writes = List.init nwrites (fun _ -> get_update c) in
      Commit { c_reads; c_writes; c_needs_decision }
  | 2 ->
      let d_target = get_u64 c in
      let d_committed = get_u8 c = 1 in
      Decision { d_target; d_committed }
  | 3 ->
      let k_oid = get_u64 c in
      let k_base = get_u64 c in
      let k_data = get_bytes c in
      Checkpoint { k_oid; k_base; k_data }
  | 4 ->
      let p_target = get_u64 c in
      let n = get_u32 c in
      let p_verdicts =
        List.init n (fun _ ->
            let oid = get_u64 c in
            let ok = get_u8 c = 1 in
            (oid, ok))
      in
      Partial { p_target; p_verdicts }
  | tag -> invalid_arg (Printf.sprintf "Record.decode: unknown tag %d" tag)

(* Payload encodes run through a module-level arena: the record body
   goes straight into the writer and its u32 length prefix is
   backpatched once the body's extent is known, so no per-record
   buffer or copy. Encodes never yield, so sharing one arena is safe;
   [Wire.contents] copies out at the ownership boundary. *)
let arena = Wire.writer ~size:1024 ()

let encode_record_into b r =
  let len_at = Wire.pos b in
  put_u32 b 0;
  encode_one b r;
  Wire.patch_u32 b ~at:len_at (Wire.pos b - len_at - 4)

let encode_payload_array records ~len =
  if len = 0 || len > slots_per_entry || len > Array.length records then
    invalid_arg "Record.encode_payload_array: bad record count";
  Wire.reset arena;
  put_u8 arena len;
  for i = 0 to len - 1 do
    encode_record_into arena (Array.unsafe_get records i)
  done;
  Wire.contents arena

let encode_payload records =
  let n = List.length records in
  if n = 0 || n > slots_per_entry then invalid_arg "Record.encode_payload: bad record count";
  Wire.reset arena;
  put_u8 arena n;
  List.iter (encode_record_into arena) records;
  Wire.contents arena

let decode_payload buf =
  let c = Wire.reader buf in
  let n = get_u8 c in
  List.init n (fun _ ->
      let len = get_u32 c in
      let stop = Wire.at c + len in
      let r = decode_one c in
      if Wire.at c <> stop then invalid_arg "Record.decode: record length mismatch";
      r)

(* Every runtime in the process plays the same entries back, and the
   simulated network hands each of them the stored payload itself, not
   a copy. Decoding is a pure function of bytes nobody mutates after
   [Wire.contents], so one decode serves them all: a small direct-mapped
   table indexed by offset remembers the last payload decoded in each
   slot. A slot hits only on the physically same payload, so another
   payload at the same offset (a rewritten hole, another run in the
   process) is a miss, never a stale hit. Replicas trail each other by
   a few entries, so a few slots catch nearly every repeat. *)
let memo_slots = 16
let memo_none = Bytes.create 0 (* a payload no caller holds *)
let memo_payloads = Array.make memo_slots memo_none
let memo_records : t list array = Array.make memo_slots []

let decode_entry ~offset payload =
  let i = offset land (memo_slots - 1) in
  if Array.unsafe_get memo_payloads i == payload then Array.unsafe_get memo_records i
  else begin
    let records = decode_payload payload in
    Array.unsafe_set memo_payloads i payload;
    Array.unsafe_set memo_records i records;
    records
  end

let pp ppf = function
  | Update u -> Fmt.pf ppf "update(oid=%d key=%a)" u.u_oid Fmt.(option string) u.u_key
  | Commit c ->
      Fmt.pf ppf "commit(reads=%d writes=%d%s)" (List.length c.c_reads)
        (List.length c.c_writes)
        (if c.c_needs_decision then " +decision" else "")
  | Decision d -> Fmt.pf ppf "decision(target=%d %b)" d.d_target d.d_committed
  | Checkpoint k -> Fmt.pf ppf "checkpoint(oid=%d base=%d)" k.k_oid k.k_base
  | Partial p ->
      Fmt.pf ppf "partial(target=%d %a)" p.p_target
        Fmt.(list ~sep:comma (pair ~sep:(any ":") int bool))
        p.p_verdicts
