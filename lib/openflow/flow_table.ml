type fmatch = {
  m_flow_id : int option;
  m_src_mac : int64 option;
  m_dst_mac : int64 option;
  m_in_port : int option;
}

let match_any = { m_flow_id = None; m_src_mac = None; m_dst_mac = None; m_in_port = None }
let match_flow id = { match_any with m_flow_id = Some id }
let match_dst_mac mac = { match_any with m_dst_mac = Some mac }

let field_ok pattern value = match pattern with None -> true | Some p -> p = value

(* A packet carries no flow id, so an entry matching one never matches. *)
let matches m ~src_mac ~dst_mac ~in_port =
  Option.is_none m.m_flow_id
  && field_ok m.m_src_mac src_mac
  && field_ok m.m_dst_mac dst_mac
  && field_ok m.m_in_port in_port

type action =
  | Output of int
  | Set_path of int list
  | To_controller
  | Drop_packet

type command =
  | Add
  | Modify
  | Delete

type mod_msg = {
  fm_switch : int;
  fm_command : command;
  fm_priority : int;
  fm_match : fmatch;
  fm_actions : action list;
}

type entry = {
  e_priority : int;
  e_match : fmatch;
  e_actions : action list;
  mutable e_packets : int;
  mutable e_bytes : float;
}

type t = { mutable table : entry list (* sorted: highest priority first *) }

let create () = { table = [] }
let length t = List.length t.table

let insert t e =
  (* Stable insert before the first strictly-lower priority. *)
  let rec go = function
    | [] -> [ e ]
    | x :: rest when x.e_priority < e.e_priority -> e :: x :: rest
    | x :: rest -> x :: go rest
  in
  t.table <- go t.table

let apply t (m : mod_msg) =
  match m.fm_command with
  | Add ->
    t.table <-
      List.filter
        (fun e -> not (e.e_priority = m.fm_priority && e.e_match = m.fm_match))
        t.table;
    insert t
      {
        e_priority = m.fm_priority;
        e_match = m.fm_match;
        e_actions = m.fm_actions;
        e_packets = 0;
        e_bytes = 0.0;
      }
  | Modify ->
    t.table <-
      List.map
        (fun e ->
          if e.e_match = m.fm_match then { e with e_actions = m.fm_actions } else e)
        t.table
  | Delete -> t.table <- List.filter (fun e -> e.e_match <> m.fm_match) t.table

let lookup t ~src_mac ~dst_mac ~in_port =
  List.find_opt (fun e -> matches e.e_match ~src_mac ~dst_mac ~in_port) t.table

let count e ~bytes =
  e.e_packets <- e.e_packets + 1;
  e.e_bytes <- e.e_bytes +. bytes
