(* History, consistent snapshots, rollback, and remote mirroring
   (paper §3.1 "History" and §3.2): because the shared log *is* the
   object, any prefix of it is a legal, consistent state of the whole
   system.

     dune exec examples/time_travel.exe *)

open Tango_objects

let step fmt = Printf.printf ("\n== " ^^ fmt ^^ "\n%!")
let say fmt = Printf.printf ("   " ^^ fmt ^^ "\n%!")

let accounts_oid = 1
let audit_oid = 2

let () =
  Sim.Engine.run ~seed:17 (fun () ->
      (* batch size 1 keeps one record per log offset, so prefixes are
         easy to narrate *)
      let params = { Sim.Params.default with Sim.Params.commit_batch = 1 } in
      let cluster = Corfu.Cluster.create ~params ~servers:18 () in
      let rt = Tango.Runtime.create (Corfu.Cluster.new_client cluster ~name:"bank") in
      let accounts = Tango_map.attach rt ~oid:accounts_oid in
      let audit = Tango_list.attach rt ~oid:audit_oid in

      step "A day of banking, every mutation a log entry";
      let transfer day from_acct to_acct amount =
        Tango.Runtime.begin_tx rt;
        let balance acct =
          int_of_string (Option.value (Tango_map.get accounts acct) ~default:"0")
        in
        Tango_map.put accounts from_acct (string_of_int (balance from_acct - amount));
        Tango_map.put accounts to_acct (string_of_int (balance to_acct + amount));
        Tango_list.add audit (Printf.sprintf "day%d: %s -> %s: %d" day from_acct to_acct amount);
        match Tango.Runtime.end_tx rt with
        | Tango.Runtime.Committed -> ()
        | Tango.Runtime.Aborted -> say "transfer aborted!?"
      in
      Tango_map.put accounts "alice" "100";
      Tango_map.put accounts "bob" "100";
      transfer 1 "alice" "bob" 30;
      transfer 2 "bob" "alice" 10;
      transfer 3 "alice" "bob" 50;
      say "today: %s"
        (String.concat ", " (List.map (fun (k, v) -> k ^ "=" ^ v) (Tango_map.bindings accounts)));
      let tail = Corfu.Client.check (Tango.Runtime.client rt) in
      say "log tail is at offset %d" tail;

      step "Time travel: instantiate fresh views at historical prefixes";
      let snapshot_at upto =
        let rt' =
          Tango.Runtime.create
            (Corfu.Cluster.new_client cluster ~name:(Printf.sprintf "historian-%d" upto))
        in
        let acc = Tango_map.attach rt' ~oid:accounts_oid in
        let au = Tango_list.attach rt' ~oid:audit_oid in
        (acc, au)
      in
      for upto = 2 to tail do
        let acc, au = snapshot_at upto in
        let balance who = Option.value (Tango_map.get_at acc ~upto who) ~default:"0" in
        let alice = balance "alice" and bob = balance "bob" in
        let total = int_of_string alice + int_of_string bob in
        say "prefix %2d: alice=%-4s bob=%-4s (conserved total %d, audit entries %d)" upto alice
          bob total
          (List.length (Tango_list.to_list_at au ~upto))
      done;
      say "every prefix is transactionally consistent: money is conserved";

      step "Coordinated rollback after a corruption event (§3.2)";
      say "suppose day 3's transfer was fraudulent: rebuild both objects";
      say "from the prefix just before it and carry on from there.";
      let rollback_point = tail - 1 in
      let acc', au' = snapshot_at rollback_point in
      say "restored state: alice=%s bob=%s, audit entries %d"
        (Option.value (Tango_map.get_at acc' ~upto:rollback_point "alice") ~default:"-")
        (Option.value (Tango_map.get_at acc' ~upto:rollback_point "bob") ~default:"-")
        (List.length (Tango_list.to_list_at au' ~upto:rollback_point));

      step "Remote mirroring (§3.2)";
      say "a mirror site just plays the log; log order makes the mirror";
      say "a consistent snapshot of the primary at some point in the past.";
      let mirror_rt = Tango.Runtime.create (Corfu.Cluster.new_client cluster ~name:"mirror-site") in
      let mirror = Tango_map.attach mirror_rt ~oid:accounts_oid in
      say "mirror sees: %s"
        (String.concat ", " (List.map (fun (k, v) -> k ^ "=" ^ v) (Tango_map.bindings mirror)));
      say "(simulated time: %.1f ms)" (Sim.Engine.now () /. 1e3))
