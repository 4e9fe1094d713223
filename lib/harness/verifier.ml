(* Global invariant oracles for the simulation fuzzer. Every oracle is
   a pure function over observations the fuzz harness collects after
   the run settles — no simulation state in here, so each oracle is
   unit-testable with hand-built histories and reusable outside the
   fuzzer (e.g. in integration tests). *)

type violation = { v_oracle : string; v_detail : string }

let pp_violation ppf v = Format.fprintf ppf "[%s] %s" v.v_oracle v.v_detail

let violation v_oracle fmt = Printf.ksprintf (fun v_detail -> { v_oracle; v_detail }) fmt

(* Cap enumerations inside a detail string: a shrunk reproducer wants
   the first few witnesses, not ten thousand offsets. *)
let sample ?(limit = 5) pp xs =
  let n = List.length xs in
  let shown = List.filteri (fun i _ -> i < limit) xs in
  let body = String.concat ", " (List.map pp shown) in
  if n > limit then Printf.sprintf "%s, ... (%d total)" body n else body

(* ------------------------------------------------------------------ *)
(* Acked-append durability                                            *)
(* ------------------------------------------------------------------ *)

let durability ~acked ~read =
  let lost =
    List.filter_map
      (fun (off, payload) ->
        match read off with
        | Some stored when Bytes.equal stored payload -> None
        | Some _ -> Some (off, "read back different data")
        | None -> Some (off, "resolved as junk or unreadable"))
      acked
  in
  match lost with
  | [] -> []
  | _ ->
      [
        violation "durability" "acked appends lost: %s"
          (sample (fun (off, why) -> Printf.sprintf "offset %d (%s)" off why) lost);
      ]

(* ------------------------------------------------------------------ *)
(* Committed-prefix hole-freedom                                      *)
(* ------------------------------------------------------------------ *)

let hole_freedom ~tail ~resolve =
  let unresolved = ref [] in
  for off = tail - 1 downto 0 do
    match resolve off with
    | `Data | `Junk -> ()
    | `Unresolved -> unresolved := off :: !unresolved
  done;
  match !unresolved with
  | [] -> []
  | offs ->
      [
        violation "hole-freedom" "offsets below tail %d still unresolved after settling: %s" tail
          (sample string_of_int offs);
      ]

(* ------------------------------------------------------------------ *)
(* Per-stream total order                                             *)
(* ------------------------------------------------------------------ *)

(* [views]: per client, per stream, the member offsets in playback
   order after a full sync. [acked]: (stream, offset) pairs whose
   append was acked to some client. Three clauses:
   - each view is strictly increasing (playback follows log order);
   - all clients see the {e same} sequence for a stream;
   - every acked member is present in every view of its stream. *)
let stream_order ~acked ~views =
  let out = ref [] in
  let push v = out := v :: !out in
  List.iter
    (fun (client, streams) ->
      List.iter
        (fun (sid, offsets) ->
          let rec ascending = function
            | a :: (b :: _ as rest) -> if a < b then ascending rest else Some (a, b)
            | _ -> None
          in
          match ascending offsets with
          | Some (a, b) ->
              push
                (violation "stream-order" "client %s stream %d plays offset %d after %d" client
                   sid b a)
          | None -> ())
        streams)
    views;
  (* Cross-client agreement: pick the first client's view of each
     stream as the reference. *)
  (match views with
  | [] -> ()
  | (ref_client, ref_streams) :: rest ->
      List.iter
        (fun (sid, ref_offsets) ->
          List.iter
            (fun (client, streams) ->
              match List.assoc_opt sid streams with
              | None -> ()
              | Some offsets ->
                  if offsets <> ref_offsets then
                    push
                      (violation "stream-order"
                         "clients %s and %s disagree on stream %d: [%s] vs [%s]" ref_client
                         client sid
                         (sample string_of_int ref_offsets)
                         (sample string_of_int offsets)))
            rest)
        ref_streams);
  List.iter
    (fun (sid, off) ->
      List.iter
        (fun (client, streams) ->
          match List.assoc_opt sid streams with
          | None ->
              push
                (violation "stream-order" "client %s never discovered stream %d (acked offset %d)"
                   client sid off)
          | Some offsets ->
              if not (List.mem off offsets) then
                push
                  (violation "stream-order"
                     "acked offset %d on stream %d missing from client %s's playback" off sid
                     client))
        views)
    acked;
  List.rev !out

(* ------------------------------------------------------------------ *)
(* Cross-client object-state convergence                              *)
(* ------------------------------------------------------------------ *)

(* [states]: per client, a canonical (order-independent) rendering of
   every object's state after a full sync. All clients must agree. *)
let convergence ~states =
  match states with
  | [] | [ _ ] -> []
  | (ref_client, ref_state) :: rest ->
      List.filter_map
        (fun (client, state) ->
          if String.equal state ref_state then None
          else
            Some
              (violation "convergence" "clients %s and %s diverge: %S vs %S" ref_client client
                 ref_state state))
        rest

(* ------------------------------------------------------------------ *)
(* Transaction atomicity                                              *)
(* ------------------------------------------------------------------ *)

type tx_probe = {
  t_tag : string;  (** unique marker the transaction wrote to every object *)
  t_committed : bool;  (** what [end_tx] reported to the client *)
  t_in_map : bool;  (** marker visible in the map after settling *)
  t_in_set : bool;  (** marker visible in the set after settling *)
}

(* A committed transaction's writes are all visible; an aborted one's
   are all invisible — no torn transactions, matching §3's
   serializability contract. *)
let atomicity ~txs =
  List.filter_map
    (fun p ->
      match (p.t_committed, p.t_in_map, p.t_in_set) with
      | true, true, true | false, false, false -> None
      | true, m, s ->
          Some
            (violation "atomicity" "committed tx %s torn: map=%b set=%b" p.t_tag m s)
      | false, m, s ->
          Some
            (violation "atomicity" "aborted tx %s leaked writes: map=%b set=%b" p.t_tag m s))
    txs

(* After settling every storage replacement has been restored: each
   chain of each live segment is back at the cluster's chain length, so
   no acked entry rests on a single replica. *)
let replication ~chain_length (proj : Corfu.Projection.t) =
  let short = ref [] in
  Array.iteri
    (fun si seg ->
      Array.iteri
        (fun s chain ->
          if Array.length chain <> chain_length then
            short := Printf.sprintf "seg%d/set%d:%d" si s (Array.length chain) :: !short)
        seg.Corfu.Projection.seg_sets)
    proj.Corfu.Projection.segments;
  match List.rev !short with
  | [] -> []
  | chains ->
      [
        violation "replication" "chains not at length %d after settling (epoch %d): %s"
          chain_length proj.Corfu.Projection.epoch (sample Fun.id chains);
      ]
