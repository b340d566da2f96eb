module Simtime = Beehive_sim.Simtime

type call =
  | Get of string
  | Put of string * int
  | Del of string
  | Txn of (string * int) list

type outcome =
  | Got of int option
  | Done
  | Old of int option list

type status =
  | Ok of outcome
  | Fail
  | Info

type op = {
  op_id : int;
  op_client : int;
  op_call : call;
  op_invoked : Simtime.t;
  op_returned : Simtime.t option;  (* [None] iff [op_status = Info] *)
  op_status : status;
}

let keys = function
  | Get k -> [ k ]
  | Put (k, _) -> [ k ]
  | Del k -> [ k ]
  | Txn kvs -> List.map fst kvs

type open_call = {
  oc_client : int;
  oc_call : call;
  oc_at : Simtime.t;
}

type t = {
  mutable next_id : int;
  opened : (int, open_call) Hashtbl.t;
  mutable closed : op list;  (* newest first *)
  mutable n_invoked : int;
  callbacks : (int, (unit -> unit) list) Hashtbl.t;
}

let create () =
  {
    next_id = 0;
    opened = Hashtbl.create 256;
    closed = [];
    n_invoked = 0;
    callbacks = Hashtbl.create 64;
  }

let invoke t ~client ~now call =
  let id = t.next_id in
  t.next_id <- id + 1;
  t.n_invoked <- t.n_invoked + 1;
  Hashtbl.replace t.opened id { oc_client = client; oc_call = call; oc_at = now };
  id

let finish t ~id ~now status =
  match Hashtbl.find_opt t.opened id with
  | None -> ()  (* unknown id or duplicate completion: the first one won *)
  | Some oc ->
    Hashtbl.remove t.opened id;
    t.closed <-
      {
        op_id = id;
        op_client = oc.oc_client;
        op_call = oc.oc_call;
        op_invoked = oc.oc_at;
        op_returned = Some now;
        op_status = status;
      }
      :: t.closed;
    (match Hashtbl.find_opt t.callbacks id with
    | None -> ()
    | Some fs ->
      Hashtbl.remove t.callbacks id;
      List.iter (fun f -> f ()) (List.rev fs))

let complete_ok t ~id ~now outcome = finish t ~id ~now (Ok outcome)

let on_complete t ~id f =
  if Hashtbl.mem t.opened id then
    Hashtbl.replace t.callbacks id
      (f :: Option.value ~default:[] (Hashtbl.find_opt t.callbacks id))
  else f ()

let n_invoked t = t.n_invoked

let ops t =
  let pending =
    Hashtbl.fold
      (fun id oc acc ->
        {
          op_id = id;
          op_client = oc.oc_client;
          op_call = oc.oc_call;
          op_invoked = oc.oc_at;
          op_returned = None;
          op_status = Info;
        }
        :: acc)
      t.opened []
  in
  List.sort
    (fun a b ->
      match Simtime.compare a.op_invoked b.op_invoked with
      | 0 -> Int.compare a.op_id b.op_id
      | c -> c)
    (List.rev_append t.closed pending)

let pp_call ppf = function
  | Get k -> Format.fprintf ppf "get %s" k
  | Put (k, v) -> Format.fprintf ppf "put %s=%d" k v
  | Del k -> Format.fprintf ppf "del %s" k
  | Txn kvs ->
    Format.fprintf ppf "txn [%a]"
      (Format.pp_print_list
         ~pp_sep:(fun ppf () -> Format.fprintf ppf "; ")
         (fun ppf (k, v) -> Format.fprintf ppf "%s=%d" k v))
      kvs

let pp_int_opt ppf = function
  | None -> Format.pp_print_string ppf "nil"
  | Some v -> Format.pp_print_int ppf v

let pp_outcome ppf = function
  | Got v -> Format.fprintf ppf "-> %a" pp_int_opt v
  | Done -> Format.pp_print_string ppf "-> ok"
  | Old vs ->
    Format.fprintf ppf "-> old [%a]"
      (Format.pp_print_list
         ~pp_sep:(fun ppf () -> Format.fprintf ppf "; ")
         pp_int_opt)
      vs

let pp_op ppf o =
  let pp_ret ppf = function
    | None -> Format.pp_print_string ppf "?"
    | Some r -> Format.fprintf ppf "%dus" (Simtime.to_us r)
  in
  Format.fprintf ppf "#%d c%d [%dus, %a] %a %s" o.op_id o.op_client
    (Simtime.to_us o.op_invoked) pp_ret o.op_returned pp_call o.op_call
    (match o.op_status with
    | Ok out -> Format.asprintf "%a" pp_outcome out
    | Fail -> ":fail"
    | Info -> ":info")

let pp_ops ppf ops =
  Format.pp_print_list ~pp_sep:Format.pp_print_newline pp_op ppf ops
