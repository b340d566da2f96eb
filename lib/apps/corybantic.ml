module App = Beehive_core.App
module Mapping = Beehive_core.Mapping
module Context = Beehive_core.Context
module Message = Beehive_core.Message
module Value = Beehive_core.Value
module Platform = Beehive_core.Platform
module Simtime = Beehive_sim.Simtime

let k_round_start = "cory.round_start"
let k_proposal = "cory.proposal"
let k_evaluation = "cory.evaluation"
let k_adopted = "cory.adopted"
let k_round_tick = "cory.round_tick"
let coordinator_name = "corybantic.coordinator"
let dict_rounds = "rounds"

type Message.payload +=
  | Round_start of { rs_round : int }
  | Proposal of {
      pr_round : int;
      pr_module : string;
      pr_id : int;
      pr_kind : string;
      pr_arg : int;
    }
  | Evaluation of { ev_round : int; ev_module : string; ev_id : int; ev_value : float }
  | Adopted of { ad_round : int; ad_id : int; ad_module : string; ad_value : float }
  | Round_tick

type proposal_rec = {
  p_id : int;
  p_module : string;
  p_kind : string;
  p_arg : int;
}

type Value.t +=
  | V_round of int
  | V_proposals of proposal_rec list
  | V_evals of (int * float) list  (* proposal id, value (one entry per evaluation) *)
  | V_adopted of { va_id : int; va_module : string; va_value : float }

let () =
  Value.register_size (function
    | V_round _ -> Some 8
    | V_proposals l -> Some (8 + (32 * List.length l))
    | V_evals l -> Some (8 + (16 * List.length l))
    | V_adopted _ -> Some 32
    | _ -> None)

let map_whole _ = Mapping.whole_dict dict_rounds

let round_of ctx =
  match Context.get ctx ~dict:dict_rounds ~key:"current" with
  | Some (V_round r) -> r
  | Some _ | None -> 0

let on_proposal =
  App.handler ~kind:k_proposal ~map:map_whole (fun ctx msg ->
      match msg.Message.payload with
      | Proposal { pr_round; pr_module; pr_id; pr_kind; pr_arg } ->
        if pr_round = round_of ctx then begin
          let key = Printf.sprintf "proposals:%d" pr_round in
          let prev =
            match Context.get ctx ~dict:dict_rounds ~key with
            | Some (V_proposals l) -> l
            | Some _ | None -> []
          in
          if not (List.exists (fun p -> p.p_id = pr_id) prev) then
            Context.set ctx ~dict:dict_rounds ~key
              (V_proposals
                 ({ p_id = pr_id; p_module = pr_module; p_kind = pr_kind; p_arg = pr_arg }
                 :: prev))
        end
      | _ -> ())

let on_evaluation =
  App.handler ~kind:k_evaluation ~map:map_whole (fun ctx msg ->
      match msg.Message.payload with
      | Evaluation { ev_round; ev_id; ev_value; _ } ->
        if ev_round = round_of ctx then begin
          let key = Printf.sprintf "evals:%d" ev_round in
          let prev =
            match Context.get ctx ~dict:dict_rounds ~key with
            | Some (V_evals l) -> l
            | Some _ | None -> []
          in
          Context.set ctx ~dict:dict_rounds ~key (V_evals ((ev_id, ev_value) :: prev))
        end
      | _ -> ())

(* Close the current round: adopt the best-valued proposal, then open the
   next round. *)
let on_round_tick =
  App.handler ~kind:k_round_tick ~map:map_whole (fun ctx _msg ->
      let round = round_of ctx in
      (if round > 0 then begin
         let proposals =
           match
             Context.get ctx ~dict:dict_rounds ~key:(Printf.sprintf "proposals:%d" round)
           with
           | Some (V_proposals l) -> l
           | Some _ | None -> []
         in
         let evals =
           match Context.get ctx ~dict:dict_rounds ~key:(Printf.sprintf "evals:%d" round) with
           | Some (V_evals l) -> l
           | Some _ | None -> []
         in
         let total id =
           List.fold_left (fun acc (pid, v) -> if pid = id then acc +. v else acc) 0.0 evals
         in
         let best =
           List.fold_left
             (fun acc p ->
               let v = total p.p_id in
               match acc with
               | Some (_, bv, bid) when bv > v || (bv = v && bid <= p.p_id) -> acc
               | _ -> Some (p, v, p.p_id))
             None proposals
         in
         match best with
         | Some (p, v, _) ->
           Context.set ctx ~dict:dict_rounds ~key:(Printf.sprintf "adopted:%d" round)
             (V_adopted { va_id = p.p_id; va_module = p.p_module; va_value = v });
           Context.emit ctx ~size:32 ~kind:k_adopted
             (Adopted { ad_round = round; ad_id = p.p_id; ad_module = p.p_module; ad_value = v })
         | None -> ()
       end);
      let next = round + 1 in
      Context.set ctx ~dict:dict_rounds ~key:"current" (V_round next);
      Context.emit ctx ~size:16 ~kind:k_round_start (Round_start { rs_round = next }))

let coordinator_app () =
  App.create ~name:coordinator_name ~dicts:[ dict_rounds ]
    ~timers:
      [
        App.timer ~kind:k_round_tick ~period:(Simtime.of_sec 1.0) ~size:16 (fun ~now:_ ->
            Round_tick);
      ]
    [ on_proposal; on_evaluation; on_round_tick ]

(* --- control modules -------------------------------------------------- *)

let module_app ~name ~propose ~evaluate =
  let dict = "module_state" in
  let my_map _ = Mapping.with_key dict name in
  let on_round_start =
    App.handler ~kind:k_round_start ~map:my_map (fun ctx msg ->
        match msg.Message.payload with
        | Round_start { rs_round } -> (
          Context.set ctx ~dict ~key:name (V_round rs_round);
          match propose ~round:rs_round with
          | Some (kind, arg) ->
            (* Deterministic, module-unique proposal id. *)
            let pr_id = (rs_round * 1000) + (Hashtbl.hash name mod 1000) in
            Context.emit ctx ~size:48 ~kind:k_proposal
              (Proposal { pr_round = rs_round; pr_module = name; pr_id; pr_kind = kind; pr_arg = arg })
          | None -> ())
        | _ -> ())
  in
  let on_proposal =
    App.handler ~kind:k_proposal ~map:my_map (fun ctx msg ->
        match msg.Message.payload with
        | Proposal { pr_round; pr_id; pr_kind; pr_arg; _ } ->
          Context.emit ctx ~size:32 ~kind:k_evaluation
            (Evaluation
               {
                 ev_round = pr_round;
                 ev_module = name;
                 ev_id = pr_id;
                 ev_value = evaluate ~kind:pr_kind ~arg:pr_arg;
               })
        | _ -> ())
  in
  App.create ~name ~dicts:[ dict ] [ on_round_start; on_proposal ]

(* --- inspection -------------------------------------------------------- *)

let adopted platform =
  List.filter_map
    (fun (key, v) ->
      if String.length key > 8 && String.sub key 0 8 = "adopted:" then
        match v with
        | V_adopted { va_id; va_module; va_value } ->
          Some (int_of_string (String.sub key 8 (String.length key - 8)), va_id, va_module, va_value)
        | _ -> None
      else None)
    (Platform.read_dict platform ~app:coordinator_name ~dict:dict_rounds)
  |> List.sort compare

let current_round platform =
  match Platform.read platform ~app:coordinator_name ~dict:dict_rounds ~key:"current" with
  | Some (V_round r) -> r
  | _ -> 0
