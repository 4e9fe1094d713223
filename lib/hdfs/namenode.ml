open Tango_objects

type error = Not_active | Exists | Missing | Not_dir

module Names = Set.Make (String)

type t = {
  nn_name : string;
  zk : Tango_zk.t;
  bk : Tango_bk.t;
  mutable session : Tango_zk.session option;
  mutable active : bool;
  mutable dead : bool;
  mutable my_ledger : int option;
  dirs : (string, Names.t) Hashtbl.t;
  files : (string, int list) Hashtbl.t;  (* newest block first *)
  replay_cursor : (int, int) Hashtbl.t;  (* ledger id -> entries consumed *)
  mutable next_block : int;
  mutable edits : int;
}

let lock_path = "/hdfs/lock"
let ledgers_path = "/hdfs/ledgers"

(* ------------------------------------------------------------------ *)
(* Edits                                                              *)
(* ------------------------------------------------------------------ *)

type edit = Mkdir of string | Create_file of string | Add_block of string * int | Delete of string

let encode_edit e =
  let b = Buffer.create 32 in
  (match e with
  | Mkdir path ->
      Buffer.add_uint8 b 1;
      Buffer.add_string b path
  | Create_file path ->
      Buffer.add_uint8 b 2;
      Buffer.add_string b path
  | Add_block (path, id) ->
      Buffer.add_uint8 b 3;
      Buffer.add_int64_be b (Int64.of_int id);
      Buffer.add_string b path
  | Delete path ->
      Buffer.add_uint8 b 4;
      Buffer.add_string b path);
  Buffer.to_bytes b

let decode_edit data =
  let tail from = Bytes.sub_string data from (Bytes.length data - from) in
  match Bytes.get_uint8 data 0 with
  | 1 -> Mkdir (tail 1)
  | 2 -> Create_file (tail 1)
  | 3 -> Add_block (tail 9, Int64.to_int (Bytes.get_int64_be data 1))
  | 4 -> Delete (tail 1)
  | tag -> invalid_arg (Printf.sprintf "Namenode: unknown edit tag %d" tag)

let parent_of path =
  match String.rindex path '/' with 0 -> "/" | i -> String.sub path 0 i

let name_of path =
  let i = String.rindex path '/' in
  String.sub path (i + 1) (String.length path - i - 1)

let apply_edit t e =
  t.edits <- t.edits + 1;
  let add_child parent name =
    let kids = match Hashtbl.find_opt t.dirs parent with Some s -> s | None -> Names.empty in
    Hashtbl.replace t.dirs parent (Names.add name kids)
  in
  let remove_child parent name =
    match Hashtbl.find_opt t.dirs parent with
    | Some s -> Hashtbl.replace t.dirs parent (Names.remove name s)
    | None -> ()
  in
  match e with
  | Mkdir path ->
      if not (Hashtbl.mem t.dirs path) then Hashtbl.replace t.dirs path Names.empty;
      add_child (parent_of path) (name_of path)
  | Create_file path ->
      if not (Hashtbl.mem t.files path) then Hashtbl.replace t.files path [];
      add_child (parent_of path) (name_of path)
  | Add_block (path, id) ->
      (match Hashtbl.find_opt t.files path with
      | Some blocks -> Hashtbl.replace t.files path (id :: blocks)
      | None -> ());
      if id >= t.next_block then t.next_block <- id + 1
  | Delete path ->
      Hashtbl.remove t.files path;
      Hashtbl.remove t.dirs path;
      remove_child (parent_of path) (name_of path)

(* ------------------------------------------------------------------ *)
(* Replay                                                             *)
(* ------------------------------------------------------------------ *)

let registered_ledgers t =
  match Tango_zk.get_children t.zk ledgers_path with
  | Ok names -> List.sort compare (List.filter_map int_of_string_opt names)
  | Error _ -> []

let refresh t =
  if not t.dead then
    List.iter
      (fun ledger ->
        let from = match Hashtbl.find_opt t.replay_cursor ledger with Some n -> n | None -> 0 in
        match Tango_bk.last_entry_id t.bk ~ledger with
        | Error _ -> ()
        | Ok last ->
            if last >= from then begin
              List.iter
                (fun body -> apply_edit t (decode_edit body))
                (Tango_bk.read_entries t.bk ~ledger ~lo:from ~hi:last);
              Hashtbl.replace t.replay_cursor ledger (last + 1)
            end)
      (registered_ledgers t)

(* ------------------------------------------------------------------ *)
(* Leadership                                                         *)
(* ------------------------------------------------------------------ *)

let ensure_scaffolding t =
  List.iter
    (fun path ->
      match Tango_zk.create t.zk path "" with
      | Ok _ | Error Tango_zk.Node_exists -> ()
      | Error _ -> failwith "Namenode: cannot build /hdfs scaffolding")
    [ "/hdfs"; ledgers_path ]

let campaign t =
  if t.dead then false
  else if t.active then true
  else begin
    refresh t;
    let session =
      match t.session with
      | Some s -> s
      | None ->
          let s = Tango_zk.create_session t.zk in
          t.session <- Some s;
          s
    in
    match Tango_zk.create t.zk ~ephemeral:session lock_path t.nn_name with
    | Error _ -> false
    | Ok _ ->
        (* New term: fresh edit ledger, registered for replayers. *)
        let ledger = Tango_bk.create_ledger t.bk in
        (match Tango_zk.create t.zk (Printf.sprintf "%s/%d" ledgers_path ledger) "" with
        | Ok _ -> ()
        | Error _ -> failwith "Namenode: cannot register edit ledger");
        (* Our own ledger needs no replay: we applied edits as we wrote
           them. *)
        Hashtbl.replace t.replay_cursor ledger 0;
        t.my_ledger <- Some ledger;
        t.active <- true;
        true
  end

let start rt ~name ~zk_oid ~bk_oid =
  let zk = Tango_zk.attach rt ~oid:zk_oid in
  let bk = Tango_bk.attach rt ~oid:bk_oid in
  let t =
    {
      nn_name = name;
      zk;
      bk;
      session = None;
      active = false;
      dead = false;
      my_ledger = None;
      dirs = Hashtbl.create 64;
      files = Hashtbl.create 64;
      replay_cursor = Hashtbl.create 8;
      next_block = 0;
      edits = 0;
    }
  in
  Hashtbl.replace t.dirs "/" Names.empty;
  ensure_scaffolding t;
  refresh t;
  ignore (campaign t);
  t

let name t = t.nn_name
let is_active t = t.active && not t.dead

let crash t =
  (match t.session with Some s -> Tango_zk.close_session t.zk s | None -> ());
  t.dead <- true;
  t.active <- false;
  Hashtbl.reset t.dirs;
  Hashtbl.reset t.files

(* ------------------------------------------------------------------ *)
(* Mutations: edit-log first, then RAM                                *)
(* ------------------------------------------------------------------ *)

let log_edit t e =
  match t.my_ledger with
  | None -> Error Not_active
  | Some ledger -> (
      match Tango_bk.add_entry t.bk ~ledger (encode_edit e) with
      | Ok entry_id ->
          apply_edit t e;
          Hashtbl.replace t.replay_cursor ledger (entry_id + 1);
          Ok ()
      | Error _ ->
          (* Someone sealed our ledger: we've been deposed. *)
          t.active <- false;
          Error Not_active)

let guard_active t f = if not (is_active t) then Error Not_active else f ()

let mkdir t path =
  guard_active t (fun () ->
      if Hashtbl.mem t.dirs path || Hashtbl.mem t.files path then Error Exists
      else if not (Hashtbl.mem t.dirs (parent_of path)) then Error Missing
      else log_edit t (Mkdir path))

let create_file t path =
  guard_active t (fun () ->
      if Hashtbl.mem t.dirs path || Hashtbl.mem t.files path then Error Exists
      else if not (Hashtbl.mem t.dirs (parent_of path)) then Error Missing
      else log_edit t (Create_file path))

let add_block t path =
  guard_active t (fun () ->
      if not (Hashtbl.mem t.files path) then Error Missing
      else begin
        let id = t.next_block in
        match log_edit t (Add_block (path, id)) with Ok () -> Ok id | Error e -> Error e
      end)

let delete t path =
  guard_active t (fun () ->
      match Hashtbl.find_opt t.dirs path with
      | Some kids when not (Names.is_empty kids) -> Error Not_dir
      | Some _ -> log_edit t (Delete path)
      | None -> if Hashtbl.mem t.files path then log_edit t (Delete path) else Error Missing)

(* ------------------------------------------------------------------ *)
(* Queries                                                            *)
(* ------------------------------------------------------------------ *)

let ls t path = Option.map Names.elements (Hashtbl.find_opt t.dirs path)
let file_blocks t path = Option.map List.rev (Hashtbl.find_opt t.files path)
let exists t path = Hashtbl.mem t.dirs path || Hashtbl.mem t.files path
let edits_applied t = t.edits
