(* Fault tolerance on Beehive.

   The paper defers fault tolerance to future work, naming migration as
   its building block ("we are enforcing the foundations of our framework
   specially for fault-tolerance"); the production Beehive replicates
   state with Raft. This example runs a replicated key-value application
   whose every commit is proposed to a 3-hive Raft consensus group (every
   member holding a replica), then kills the hive hosting the account.

   The platform fails the bee over with its state intact and the
   application never notices. The example exits non-zero if the balance
   read after the failover, or after the next deposit, is wrong.

   Run with: dune exec examples/fault_tolerance.exe *)

module Engine = Beehive_sim.Engine
module Simtime = Beehive_sim.Simtime
module Channels = Beehive_net.Channels
module Platform = Beehive_core.Platform
module App = Beehive_core.App
module Mapping = Beehive_core.Mapping
module Context = Beehive_core.Context
module Message = Beehive_core.Message
module Value = Beehive_core.Value
module Raft_replication = Beehive_core.Raft_replication

type Message.payload += Deposit of { account : string; amount : int }

let k_deposit = "bank.deposit"

let bank_app =
  App.create ~name:"bank" ~dicts:[ "balances" ] ~replicated:true
    [
      App.handler ~kind:k_deposit
        ~map:(fun msg ->
          match msg.Message.payload with
          | Deposit { account; _ } -> Mapping.with_key "balances" account
          | _ -> Mapping.Drop)
        (fun ctx msg ->
          match msg.Message.payload with
          | Deposit { account; amount } ->
            Context.update ctx ~dict:"balances" ~key:account (function
              | Some (Value.V_int n) -> Some (Value.V_int (n + amount))
              | _ -> Some (Value.V_int amount))
          | _ -> ());
    ]

let balance platform bee =
  List.find_map
    (fun (dict, key, v) ->
      if dict = "balances" && key = "alice" then
        match v with Value.V_int n -> Some n | _ -> None
      else None)
    (Platform.bee_state_entries platform bee)

let failures = ref 0

let expect what ~expected got =
  if got <> Some expected then begin
    incr failures;
    Format.printf "FAIL: %s: expected %d, got %s@." what expected
      (match got with Some n -> string_of_int n | None -> "none")
  end

let () =
  let engine = Engine.create () in
  let platform = Platform.create engine (Platform.default_config ~n_hives:5) in
  Platform.register_app platform bank_app;
  let rep = Raft_replication.install platform () in
  Platform.start platform;
  Engine.run_until engine (Simtime.of_sec 2.0);

  (* Alice's account lives on hive 2. *)
  for _ = 1 to 10 do
    Platform.inject platform ~from:(Channels.Hive 2) ~kind:k_deposit
      (Deposit { account = "alice"; amount = 10 })
  done;
  Engine.run_until engine (Simtime.of_sec 5.0);
  let bee =
    Option.get
      (Platform.find_owner platform ~app:"bank" (Beehive_core.Cell.cell "balances" "alice"))
  in
  let home = (Option.get (Platform.bee_view platform bee)).Platform.view_hive in
  Format.printf "balance(alice) = %d on hive %d@."
    (Option.value ~default:0 (balance platform bee))
    home;
  Format.printf "raft group of hive %d: members %s, leader %s; %d write sets committed@."
    home
    (String.concat "," (List.map string_of_int (Raft_replication.group_members rep ~hive:home)))
    (match Raft_replication.group_leader rep ~hive:home with
    | Some l -> string_of_int l
    | None -> "?")
    (Raft_replication.replicated_commands rep);

  Format.printf "killing hive %d...@." home;
  Platform.fail_hive platform home;
  let view = Option.get (Platform.bee_view platform bee) in
  Format.printf "bee %d failed over to hive %d, balance(alice) = %d@." bee
    view.Platform.view_hive
    (Option.value ~default:(-1) (balance platform bee));
  expect "balance after failover" ~expected:100 (balance platform bee);

  (* Deposits keep working. *)
  Engine.run_until engine (Simtime.add (Engine.now engine) (Simtime.of_sec 1.0));
  Platform.inject platform ~from:(Channels.Hive 0) ~kind:k_deposit
    (Deposit { account = "alice"; amount = 900 });
  Engine.run_until engine (Simtime.add (Engine.now engine) (Simtime.of_sec 2.0));
  Format.printf "after one more deposit: balance(alice) = %d@."
    (Option.value ~default:(-1) (balance platform bee));
  expect "balance after the next deposit" ~expected:1000 (balance platform bee);
  if !failures > 0 then exit 1
