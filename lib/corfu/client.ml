type read_outcome = Data of Types.entry | Junk | Trimmed | Unwritten
type fill_outcome = Filled | Fill_completed of Types.entry | Fill_lost of Types.entry

type t = {
  client_host : Sim.Net.host;
  aux : Auxiliary.t;
  p : Sim.Params.t;
  mutable proj : Projection.t;
  rng : Sim.Rng.t;
  cache : Entry_cache.t;
  inflight : read_ivar Sim.Int_tbl.t;
  rpc_failures : Sim.Metrics.counter;
      (* RPCs that went unanswered; the availability reports read this
         as "failed ops" *)
  retries : Sim.Metrics.counter;
  fills_c : Sim.Metrics.counter;
  cache_hits_c : Sim.Metrics.counter;
  cache_misses_c : Sim.Metrics.counter;
  (* Timed sections; the value each is entered with builds its span
     args. *)
  append_s : Types.stream_id list Sim.Span.site;
  granted_s : Types.offset Sim.Span.site;  (* an append into a range grant *)
  grant_s : unit Sim.Span.site;
  check_tail_s : unit Sim.Span.site;
  chain_s : Types.offset Sim.Span.site;
  commit_s : unit Sim.Span.site;
  fill_s : Types.offset Sim.Span.site;
  read_s : unit Sim.Span.site;
}

and read_ivar = read_outcome Sim.Ivar.t

(* The entry cache exists so playback touches the network once per
   entry; consumed entries are rarely revisited (log-indexed views
   re-read from storage on a miss). Cap residency and shed the oldest
   half when the cap is hit. *)
let max_cached_entries = 16_384

let offset_arg off = [ ("offset", string_of_int off) ]

let create ~host ~aux ~params =
  let hname = Sim.Net.host_name host in
  let histogram name = Sim.Metrics.histogram ~host:hname name in
  let section ?hist ?args name = Sim.Span.site ~host:hname ?hist ?args name in
  let append_h = histogram "append.e2e_us" in
  {
    client_host = host;
    aux;
    p = params;
    proj = Auxiliary.latest aux;
    rng = Sim.Rng.split (Sim.Engine.rng ());
    cache = Entry_cache.create ~cap:max_cached_entries;
    inflight = Sim.Int_tbl.create 64;
    rpc_failures = Sim.Metrics.counter ~host:hname "client.rpc_failures";
    retries = Sim.Metrics.counter ~host:hname "client.retries";
    fills_c = Sim.Metrics.counter ~host:hname "client.fills";
    cache_hits_c = Sim.Metrics.counter ~host:hname "client.cache_hits";
    cache_misses_c = Sim.Metrics.counter ~host:hname "client.cache_misses";
    append_s =
      section ~hist:append_h
        ~args:(fun streams -> [ ("streams", String.concat "," (List.map string_of_int streams)) ])
        "append";
    granted_s =
      section ~hist:append_h ~args:(fun off -> ("granted", "true") :: offset_arg off) "append";
    grant_s = section ~hist:(histogram "sequencer.grant_us") "sequencer.grant";
    check_tail_s = section "check_tail";
    chain_s = section ~hist:(histogram "chain.write_us") ~args:offset_arg "chain.write";
    commit_s = section "commit";
    fill_s = section ~args:offset_arg "fill";
    read_s = Sim.Span.timer (histogram "read.fetch_us");
  }

let host t = t.client_host
let params t = t.p
let projection t = t.proj
let hname t = Sim.Net.host_name t.client_host
let rpc_failures t = Sim.Metrics.counter_value t.rpc_failures
let retries t = Sim.Metrics.counter_value t.retries

let note_failure t = Sim.Metrics.incr t.rpc_failures
let note_retry t = Sim.Metrics.incr t.retries

let adopt t proj =
  t.proj <- proj;
  if Sim.Announce.active () then
    Sim.Announce.emit
      (Sim.Announce.Epoch_adopted { client = hname t; epoch = t.proj.Projection.epoch })

(* The watch may hold the call for [wait_us] before it answers; its
   service declares that hold, so the deadline covers it. An unanswered
   watch keeps the cached view; the caller's retry asks again. *)
let fetch_view t ~at_least ~wait_us =
  match
    Sim.Net.call ~req_bytes:t.p.rpc_bytes ~resp_bytes:t.p.rpc_bytes ~from:t.client_host
      (Auxiliary.await_service t.aux)
      { Auxiliary.at_least; wait_us }
  with
  | proj -> adopt t proj
  | exception Sim.Net.Unanswered -> note_failure t

let refresh t = fetch_view t ~at_least:0 ~wait_us:0.

(* Every sealed reply names the epoch [e] that closed ours. The view
   for [e] is installed only once the reconfiguration finishes, so
   rather than poll the auxiliary until then, wait there for it. The
   watch gives up after one RPC timeout and hands back the newest view
   anyway; the caller's retry then meets the seal again and waits
   again, so a reconfiguration that never installs costs one retry per
   timeout, not a spin. *)
let await_epoch t e =
  note_retry t;
  fetch_view t ~at_least:e ~wait_us:t.p.rpc_timeout_us

(* ------------------------------------------------------------------ *)
(* Chain replication, client-driven                                   *)
(* ------------------------------------------------------------------ *)

type chain_write = Chain_ok | Chain_lost of Types.cell | Chain_sealed of Types.epoch | Chain_down

(* Write [cell] through the chain for global offset [off], head first.
   A mid-chain write-once conflict is benign: it means a concurrent
   filler saw our data at the head and is completing the very same
   write down the chain (or another filler raced us with junk).

   Finding our {e own} entry already stored — recognized by physical
   equality, which survives fills and rebuild copies because the
   simulator never serializes entries — is equally benign at any
   position, including the head: it means an earlier attempt of this
   very write got through (e.g. the response was lost, or a
   reconfiguration copied it) and we must keep completing the chain
   rather than declare the slot lost and append a duplicate. *)
let rec write_from t ~set req cell i =
  if i >= Array.length set then Chain_ok
  else
    match
      Sim.Net.call ~req_bytes:t.p.entry_bytes ~resp_bytes:t.p.rpc_bytes ~from:t.client_host
        (Storage_node.write_service set.(i))
        req
    with
    | exception Sim.Net.Unanswered ->
        note_failure t;
        Chain_down
    | Types.Write_ok -> write_from t ~set req cell (i + 1)
    | Types.Already_written winner ->
        let ours = match (winner, cell) with Types.Data s, Types.Data m -> s == m | _ -> false in
        if ours || i > 0 then write_from t ~set req cell (i + 1) else Chain_lost winner
    | Types.Sealed_at e -> Chain_sealed e
    | Types.Out_of_space -> failwith "CORFU: log capacity exhausted"

let write_chain t off cell =
  let tok = Sim.Span.enter t.chain_s off in
  match
    if Projection.locate t.proj off = Projection.Retired then
      (* The offset's segment was retired from the map: its data was
         prefix-trimmed away, so the slot is permanently lost to us. *)
      Chain_lost Types.Trimmed
    else
      let loff = Projection.local_offset t.proj off in
      write_from t
        ~set:(Projection.replica_set t.proj off)
        { Storage_node.wepoch = t.proj.Projection.epoch; woffset = loff; wcell = cell }
        cell 0
  with
  | r ->
      Sim.Span.leave t.chain_s tok;
      r
  | exception e -> Sim.Span.leave_raise t.chain_s tok e

(* Count the retry and learn the current projection: the shared shape
   of every retry after a timeout or a dead replica (sealed replies wait
   in {!await_epoch} instead). It adds no wait: the unanswered call
   already waited its deadline, which [Sim.Net] backs off per host
   pair, so the retry goes out as soon as the projection is fresh. *)
let down_retry t =
  note_retry t;
  refresh t

(* One replica read under the current projection; shared by the read
   path below and the chain-head reads. *)
let read_replica t node off =
  let loff = Projection.local_offset t.proj off in
  Sim.Net.call ~req_bytes:t.p.rpc_bytes ~resp_bytes:t.p.entry_bytes ~from:t.client_host
    (Storage_node.read_service node)
    { Storage_node.repoch = t.proj.Projection.epoch; roffset = loff }

(* The chain head's answer for [off], which never lags a chain write:
   an unreachable head is retried under a refreshed projection, a
   sealed one waits for the sealing epoch, and a retired offset reads
   as trimmed. Shared by the stale-grant probe and the probing append's
   scan. *)
let rec read_head t off =
  if Projection.locate t.proj off = Projection.Retired then Types.Read_trimmed
  else
    let set = Projection.replica_set t.proj off in
    match read_replica t set.(0) off with
    | exception Sim.Net.Unanswered ->
        note_failure t;
        down_retry t;
        read_head t off
    | Types.Read_sealed e ->
        await_epoch t e;
        read_head t off
    | r -> r

(* A chain write whose projection gained a {e new sequencer} mid-flight
   needs a verdict on its granted offset. The replacement rebuilt the
   backpointer state by scanning chain heads after every storage node
   was sealed, so head-visibility at the handoff is exactly
   scan-visibility:

   - our entry at the head (physical equality, as in {!write_chain}):
     the scan recorded the offset's stream membership, so completing
     the chain under the new projection is correct — and required,
     since readers may already be chaining through it;
   - anything else (unwritten, junk, a foreign winner, trimmed): the
     grant died with the old sequencer. The offset is unknown to the
     rebuilt state, so writing it now would land an entry no stream
     sync could ever discover; the payload must move to a fresh offset
     and the abandoned slot resolves as junk through readers' fills. *)
let probe_stale_grant t off entry =
  match read_head t off with
  | Types.Read_data e when e == entry -> `Complete
  | _ -> `Abandon

type seq_request = Grant of int | Peek

(* Every sequencer request: a sealed reply waits for the sealing epoch
   and retries against the new projection's sequencer; an unanswered
   one refreshes the projection and retries. Each grant
   attempt is one [sequencer.grant] section; a peek is one [check_tail]
   section around its attempts, waits and retries. *)
let rec sequencer_attempt t req ~streams =
  match
    match req with
    | Grant count -> (
        let tok = Sim.Span.enter t.grant_s () in
        match
          Sim.Net.call ~req_bytes:t.p.rpc_bytes ~resp_bytes:t.p.rpc_bytes ~from:t.client_host
            (Sequencer.increment_service t.proj.Projection.sequencer)
            { Sequencer.iepoch = t.proj.Projection.epoch; istreams = streams; icount = count }
        with
        | r ->
            Sim.Span.leave t.grant_s tok;
            r
        | exception e -> Sim.Span.leave_raise t.grant_s tok e)
    | Peek ->
        Sim.Net.call ~req_bytes:t.p.rpc_bytes ~resp_bytes:t.p.rpc_bytes ~from:t.client_host
          (Sequencer.peek_service t.proj.Projection.sequencer)
          { Sequencer.pepoch = t.proj.Projection.epoch; pstreams = streams }
  with
  | Sequencer.Seq_ok a -> a
  | Sequencer.Seq_sealed e ->
      await_epoch t e;
      sequencer_attempt t req ~streams
  | exception Sim.Net.Unanswered ->
      note_failure t;
      down_retry t;
      sequencer_attempt t req ~streams

let sequencer_request t req ~streams =
  match req with
  | Grant _ -> sequencer_attempt t req ~streams
  | Peek -> (
      let tok = Sim.Span.enter t.check_tail_s () in
      match sequencer_attempt t Peek ~streams with
      | a ->
          Sim.Span.leave t.check_tail_s tok;
          a
      | exception e -> Sim.Span.leave_raise t.check_tail_s tok e)

(* The commit of a written entry: our own playback will want it next,
   so cache it and save the round trip; announce the ack. *)
let commit_marker t ~streams ~off entry =
  let tok = Sim.Span.enter t.commit_s () in
  match
    Entry_cache.add t.cache off entry;
    if Sim.Announce.active () then
      Sim.Announce.emit (Sim.Announce.Append_acked { client = hname t; offset = off; streams })
  with
  | () -> Sim.Span.leave t.commit_s tok
  | exception e -> Sim.Span.leave_raise t.commit_s tok e

(* A one-entry grant, written by the shared driver. *)
let rec grant_and_write t ~streams payload =
  let a = sequencer_request t (Grant 1) ~streams in
  write_at t ~seq:t.proj.Projection.sequencer ~streams ~tails:a.Sequencer.stream_tails ~index:0
    a.Sequencer.base payload

(* Drive one sequencer-granted entry's chain write to a decision. A
   sealed or unreachable chain retries the {e same} offset under the
   refreshed projection — as long as the sequencer that granted it
   ([seq]) is still the projection's sequencer, the allocation is
   preserved and the offset is still ours. Once a handoff replaced the
   sequencer, the grant's fate is decided by {!probe_stale_grant}:
   complete a torn write the rebuild scan saw, abandon an unwritten
   slot for a fresh offset. Only a genuine loss of the slot (someone
   filled it) moves the payload to a fresh offset; retrying with a
   fresh offset on seal could commit the entry twice.

   The headers of offset [off], the [index]th of a grant, carry the
   grant's earlier offsets (all on every granted stream, newest first)
   followed by the per-stream tails from before the grant, truncated
   to K. That keeps every stream's chain exactly walkable even though
   the grant's entries are written concurrently. [tails] lists the
   requested streams in request order, so the first entry of a grant
   carries the sequencer's pointers as they are. *)
and write_at t ~seq ~streams ~tails ~index off payload =
  let headers = Stream_header.encode_tails ~k:t.p.backpointer_k ~current:off ~index tails in
  let entry = { Types.headers; payload } in
  let rec attempt ~seq =
    if t.proj.Projection.sequencer != seq then
      match probe_stale_grant t off entry with
      | `Complete -> attempt ~seq:t.proj.Projection.sequencer
      | `Abandon ->
          note_retry t;
          grant_and_write t ~streams payload
    else
      match write_chain t off (Types.Data entry) with
      | Chain_ok ->
          commit_marker t ~streams ~off entry;
          off
      | Chain_lost _ ->
          (* Our offset was filled before we reached the head (we were
             slow past the hole timeout). The junked slot breaks
             nothing: stream readers treat offsets the sequencer issued
             but that carry no header as junk and scan backward. Land
             the payload at a fresh offset. *)
          grant_and_write t ~streams payload
      | Chain_sealed e ->
          await_epoch t e;
          attempt ~seq
      | Chain_down ->
          down_retry t;
          attempt ~seq
  in
  attempt ~seq

(* The public append: one root section covering the whole operation —
   sequencer.grant, chain.write attempts, and the commit marker appear
   as its children. *)
let append t ~streams payload =
  let tok = Sim.Span.enter t.append_s streams in
  match grant_and_write t ~streams payload with
  | off ->
      Sim.Span.leave t.append_s tok;
      off
  | exception e -> Sim.Span.leave_raise t.append_s tok e

(* ------------------------------------------------------------------ *)
(* Range grants: windowed appends                                     *)
(* ------------------------------------------------------------------ *)

type grant = {
  mutable g_base : Types.offset;
  mutable g_count : int;
  mutable g_streams : Types.stream_id list;
  mutable g_tails : (Types.stream_id * Types.offset list) list;
      (* per-stream last-K as of the grant, i.e. excluding the grant *)
  mutable g_seq : Sequencer.t;
      (* the issuing sequencer: a later projection carrying a different
         one voids the unwritten remainder of the grant *)
}

let blank_grant t =
  {
    g_base = 0;
    g_count = 0;
    g_streams = [];
    g_tails = [];
    g_seq = t.proj.Projection.sequencer;
  }

(* Fields are mutable so pooling callers (the batcher's drain loop) can
   refill one grant record per cycle instead of allocating one; the
   grant must not be refilled while writes against it are in flight. *)
let reserve_into t g ~streams ~count =
  if count < 1 then invalid_arg "Client.reserve: count must be >= 1";
  let a = sequencer_request t (Grant count) ~streams in
  g.g_base <- a.Sequencer.base;
  g.g_count <- count;
  g.g_streams <- streams;
  g.g_tails <- a.Sequencer.stream_tails;
  g.g_seq <- t.proj.Projection.sequencer

let reserve t ~streams ~count =
  let g = blank_grant t in
  reserve_into t g ~streams ~count;
  g

let write_granted t g ~index payload =
  if index < 0 || index >= g.g_count then invalid_arg "Client.write_granted: index out of range";
  let off = g.g_base + index in
  let tok = Sim.Span.enter t.granted_s off in
  match write_at t ~seq:g.g_seq ~streams:g.g_streams ~tails:g.g_tails ~index off payload with
  | off ->
      Sim.Span.leave t.granted_s tok;
      off
  | exception e -> Sim.Span.leave_raise t.granted_s tok e

let append_range t ~streams payloads =
  match payloads with
  | [] -> []
  | _ ->
      let n = List.length payloads in
      let g = reserve t ~streams ~count:n in
      let results = Array.make n (-1) in
      let remaining = ref n in
      let all_done = Sim.Ivar.create () in
      (* Overlapped chain writes: offset n+1 hits the chain head while
         n is still propagating down-chain. *)
      let span_parent = Sim.Span.current () in
      List.iteri
        (fun i payload ->
          Sim.Engine.spawn (fun () ->
              Sim.Span.with_parent span_parent (fun () ->
                  results.(i) <- write_granted t g ~index:i payload);
              decr remaining;
              if !remaining = 0 then Sim.Ivar.fill all_done ()))
        payloads;
      Sim.Ivar.read all_done;
      Array.to_list results

(* ------------------------------------------------------------------ *)
(* Reads                                                              *)
(* ------------------------------------------------------------------ *)

(* Walk the replicas starting from a random one; a dead replica is
   skipped, and only when every member is unreachable do we refresh the
   projection and start over, each member having waited out its
   deadline. Top-level recursion, not a local closure: a read allocates
   only its result. *)
let rec read t off =
  if Projection.locate t.proj off = Projection.Retired then Trimmed
  else
    let set = Projection.replica_set t.proj off in
    read_from t off set (Sim.Rng.int t.rng (Array.length set)) 0

and read_from t off set start step =
  let n = Array.length set in
  if step >= n then begin
    refresh t;
    read t off
  end
  else
    let i = (start + step) mod n in
    match read_replica t set.(i) off with
    | exception Sim.Net.Unanswered ->
        note_failure t;
        read_from t off set start (step + 1)
    | r -> read_outcome t off set i r

(* One replica's answer for [off], the [i]th member of [set]. *)
and read_outcome t off set i = function
  | Types.Read_data e -> Data e
  | Types.Read_junk -> Junk
  | Types.Read_trimmed -> Trimmed
  | Types.Read_sealed e ->
      await_epoch t e;
      read t off
  | Types.Read_unwritten -> (
      (* The replica may simply not have seen the write yet; the chain
         tail is authoritative for committed entries. *)
      let tail = Array.length set - 1 in
      if i = tail then Unwritten
      else
        match read_replica t set.(tail) off with
        | exception Sim.Net.Unanswered ->
            (* Tail unreachable: report unwritten and let the caller's
               poll/fill policy sort it out after the chain is
               repaired. *)
            note_failure t;
            Unwritten
        | r -> read_outcome t off set tail r)

(* ------------------------------------------------------------------ *)
(* Checks                                                             *)
(* ------------------------------------------------------------------ *)

let peek_streams t sids = sequencer_request t Peek ~streams:sids
let check t = (peek_streams t []).Sequencer.base

let check_slow t =
  let proj = t.proj in
  (* Only the live tail segment can grow, so only its chains need
     probing; bounded segments end below the tail by construction. *)
  let tail_seg = Projection.tail_segment proj in
  let nsets = Array.length tail_seg.Projection.seg_sets in
  let locals =
    Array.init nsets (fun set ->
        (* The head is written first, so it carries the highest local
           tail of the chain; a dead member falls back to the next one
           (whose tail is a lower bound — safe, the probing append's
           write-once race absorbs an under-estimate). *)
        let chain = tail_seg.Projection.seg_sets.(set) in
        let rec probe i =
          if i >= Array.length chain then -1
          else
            match
              Sim.Net.call ~req_bytes:t.p.rpc_bytes ~resp_bytes:t.p.rpc_bytes ~from:t.client_host
                (Storage_node.tail_service chain.(i)) ()
            with
            | tail -> tail
            | exception Sim.Net.Unanswered ->
                note_failure t;
                probe (i + 1)
        in
        probe 0)
  in
  Projection.global_tail_from_locals proj locals

(* Sequencer-less append (§2.2): find the tail with the slow check and
   claim offsets by writing; the write-once property makes exactly one
   winner per offset, so losers probe upward. Each attempt's
   backpointers come from the replacement sequencer's scan of the chain
   heads below [guess], stopped once every stream has K offsets: the
   last-K a sequencer would have handed out, whoever wrote them. *)
let append_probing t ~streams payload =
  let k = t.p.backpointer_k in
  let rec attempt guess =
    let last, _ =
      Seq_checkpoint.rebuild ~k
        ~floor:(Projection.segment t.proj 0).Projection.seg_base
        ~read:(read_head t)
        ~streams (guess - 1)
    in
    let headers =
      Stream_header.encode_block ~k ~current:guess
        (List.map
           (fun sid ->
             {
               Stream_header.stream = sid;
               backptrs = (match Hashtbl.find_opt last sid with Some l -> l | None -> []);
             })
           streams)
    in
    let entry = { Types.headers; payload } in
    match write_chain t guess (Types.Data entry) with
    | Chain_ok ->
        commit_marker t ~streams ~off:guess entry;
        guess
    | Chain_lost _ -> attempt (guess + 1)
    | Chain_sealed e ->
        await_epoch t e;
        attempt guess
    | Chain_down ->
        down_retry t;
        attempt guess
  in
  attempt (check_slow t)

(* ------------------------------------------------------------------ *)
(* Fill and trim                                                      *)
(* ------------------------------------------------------------------ *)

let fill t off =
  Sim.Metrics.incr t.fills_c;
  let tok = Sim.Span.enter t.fill_s off in
  let rec attempt () =
    if Projection.locate t.proj off = Projection.Retired then
      (* Retired: the hole was prefix-trimmed out of existence along
         with its whole segment — nothing left to patch. *)
      Filled
    else
    let set = Projection.replica_set t.proj off in
    let loff = Projection.local_offset t.proj off in
    let wr cell i =
      Sim.Net.call ~req_bytes:t.p.entry_bytes ~resp_bytes:t.p.rpc_bytes ~from:t.client_host
        (Storage_node.write_service set.(i))
        { Storage_node.wepoch = t.proj.Projection.epoch; woffset = loff; wcell = cell }
    in
    (* Returns (the epoch of a seal it hit, replicas this fill actually
       wrote). An unreachable mid-chain replica is skipped: the next
       fill (or the recovery copy) completes it. *)
    let write_rest cell i0 =
      let rec go i sealed repaired =
        if i >= Array.length set then (sealed, repaired)
        else
          match wr cell i with
          | exception Sim.Net.Unanswered ->
              note_failure t;
              go (i + 1) sealed repaired
          | Types.Write_ok -> go (i + 1) sealed (repaired + 1)
          | Types.Already_written _ -> go (i + 1) sealed repaired
          | Types.Sealed_at e -> go (i + 1) (Some e) repaired
          | Types.Out_of_space -> failwith "CORFU: log capacity exhausted"
      in
      go i0 None 0
    in
    match wr Types.Junk 0 with
    | exception Sim.Net.Unanswered ->
        note_failure t;
        down_retry t;
        attempt ()
    | head_resp -> (
        if Sim.Announce.active () then
          Sim.Announce.emit (Sim.Announce.Hole_filled { client = hname t; offset = off });
        match head_resp with
        | Types.Write_ok | Types.Already_written Types.Junk -> (
            match write_rest Types.Junk 1 with
            | Some e, _ ->
                await_epoch t e;
                attempt ()
            | None, _ -> Filled)
        | Types.Already_written (Types.Data e) -> (
            (* Data at the head: either a torn append to complete down
               the chain, or a fully replicated write we merely lost
               the race against. *)
            match write_rest (Types.Data e) 1 with
            | Some sealed, _ ->
                await_epoch t sealed;
                attempt ()
            | None, repaired -> if repaired > 0 then Fill_completed e else Fill_lost e)
        | Types.Already_written (Types.Trimmed | Types.Unwritten) -> Filled
        | Types.Sealed_at e ->
            await_epoch t e;
            attempt ()
        | Types.Out_of_space -> failwith "CORFU: log capacity exhausted")
  in
  match attempt () with
  | r ->
      Sim.Span.leave t.fill_s tok;
      r
  | exception e -> Sim.Span.leave_raise t.fill_s tok e

(* Resolve an offset that the sequencer has already allocated: poll
   with backoff while a writer may be in flight, then patch the hole. *)
let read_resolved t off =
  let deadline = Sim.Engine.now () +. t.p.fill_timeout_us in
  let rec poll backoff =
    match read t off with
    | Data _ as r ->
        if Sim.Announce.active () then
          Sim.Announce.emit (Sim.Announce.Offset_readable { client = hname t; offset = off });
        r
    | (Junk | Trimmed) as r -> r
    | Unwritten ->
        if Sim.Engine.now () >= deadline then begin
          match fill t off with
          | Filled -> Junk
          | Fill_completed e | Fill_lost e -> Data e
        end
        else begin
          Sim.Engine.sleep backoff;
          poll (Float.min (backoff *. 2.) 1_000.)
        end
  in
  poll 100.

(* Coalesced fetch: one outstanding read per offset, shared by all
   waiters; Data results are cached for the streaming layer. *)
let read_shared t off =
  match Entry_cache.find t.cache off with
  | e ->
      Sim.Metrics.incr t.cache_hits_c;
      Data e
  | exception Not_found -> (
      match Sim.Int_tbl.find_opt t.inflight off with
      | Some iv -> Sim.Ivar.read iv
      | None ->
          Sim.Metrics.incr t.cache_misses_c;
          let iv = Sim.Ivar.create () in
          Sim.Int_tbl.replace t.inflight off iv;
          let tok = Sim.Span.enter t.read_s () in
          let outcome =
            match read_resolved t off with
            | r ->
                Sim.Span.leave t.read_s tok;
                r
            | exception e -> Sim.Span.leave_raise t.read_s tok e
          in
          (match outcome with
          | Data e -> Entry_cache.add t.cache off e
          | Junk | Trimmed | Unwritten -> ());
          Sim.Int_tbl.remove t.inflight off;
          Sim.Ivar.fill iv outcome;
          outcome)

let prefetch t off =
  if not (Entry_cache.mem t.cache off) && not (Sim.Int_tbl.mem t.inflight off) then begin
    let span_parent = Sim.Span.current () in
    Sim.Engine.spawn (fun () ->
        Sim.Span.with_parent span_parent (fun () -> ignore (read_shared t off)))
  end

(* Run [send] (every trim RPC of one trim) until each is answered: an
   unanswered one refreshes the projection and sends them all again
   under it, its deadline the only wait. Trims are idempotent. *)
let rec until_trimmed t send =
  match send () with
  | () -> ()
  | exception Sim.Net.Unanswered ->
      note_failure t;
      down_retry t;
      until_trimmed t send

let trim t off =
  until_trimmed t (fun () ->
      if Projection.locate t.proj off <> Projection.Retired then begin
        let set = Projection.replica_set t.proj off in
        let loff = Projection.local_offset t.proj off in
        Array.iter
          (fun node ->
            Sim.Net.call ~req_bytes:t.p.rpc_bytes ~resp_bytes:t.p.rpc_bytes ~from:t.client_host
              (Storage_node.trim_service node)
              { Storage_node.repoch = t.proj.Projection.epoch; roffset = loff })
          set
      end)

let prefix_trim t off =
  until_trimmed t (fun () ->
      let proj = t.proj in
      (* Each segment overlapping [0, off) gets its own per-set watermark:
         local offsets holding cells whose global offset is below [off].
         Retired segments need nothing — their nodes already trimmed past
         their whole range (that is what retired them). *)
      for si = 0 to Projection.num_segments proj - 1 do
        let seg = Projection.segment proj si in
        let hi =
          match seg.Projection.seg_limit with
          | Some limit -> min off limit
          | None -> off
        in
        let rel = hi - seg.Projection.seg_base in
        if rel > 0 then
          Array.iteri
            (fun set chain ->
              let cells = Projection.seg_cells_below seg ~set ~rel in
              if cells > 0 then begin
                let watermark = seg.Projection.seg_local_base + cells in
                Array.iter
                  (fun node ->
                    Sim.Net.call ~req_bytes:t.p.rpc_bytes ~resp_bytes:t.p.rpc_bytes
                      ~from:t.client_host (Storage_node.prefix_trim_service node)
                      { Storage_node.repoch = proj.Projection.epoch; roffset = watermark })
                  chain
              end)
            seg.Projection.seg_sets
      done);
  Entry_cache.drop_below t.cache off

(* ------------------------------------------------------------------ *)
(* Entry cache                                                        *)
(* ------------------------------------------------------------------ *)

(* Playback consults the cache here before {!read_shared}, so this is
   where its hits are counted; its misses are counted by the fetch. *)
let find_cached t off =
  let e = Entry_cache.find t.cache off in
  Sim.Metrics.incr t.cache_hits_c;
  e

let cache_put t off e = Entry_cache.add t.cache off e
