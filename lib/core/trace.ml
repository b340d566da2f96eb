type event = {
  ev_msg : int;
  ev_parent : int option;
  ev_kind : string;
  ev_emitter : Message.source;
  ev_at : Beehive_sim.Simtime.t;
}

type t = {
  capacity : int;
  by_id : (int, event) Hashtbl.t;
  by_parent : (int, int list) Hashtbl.t;  (* parent -> children ids, newest first *)
  order : int Queue.t;  (* insertion order, for eviction *)
}

let evict t =
  while Queue.length t.order > t.capacity do
    let victim = Queue.pop t.order in
    (match Hashtbl.find_opt t.by_id victim with
    | Some { ev_parent = Some p; _ } -> (
      match Hashtbl.find_opt t.by_parent p with
      | Some kids ->
        let kids = List.filter (fun k -> k <> victim) kids in
        if kids = [] then Hashtbl.remove t.by_parent p
        else Hashtbl.replace t.by_parent p kids
      | None -> ())
    | Some _ | None -> ());
    Hashtbl.remove t.by_id victim;
    Hashtbl.remove t.by_parent victim
  done

let record t ~parent ~(child : Message.t) =
  let ev =
    {
      ev_msg = child.Message.msg_id;
      ev_parent = Option.map (fun (m : Message.t) -> m.Message.msg_id) parent;
      ev_kind = child.Message.kind;
      ev_emitter = child.Message.src;
      ev_at = child.Message.sent_at;
    }
  in
  Hashtbl.replace t.by_id ev.ev_msg ev;
  Queue.push ev.ev_msg t.order;
  (match ev.ev_parent with
  | Some p ->
    Hashtbl.replace t.by_parent p
      (ev.ev_msg :: Option.value ~default:[] (Hashtbl.find_opt t.by_parent p))
  | None -> ());
  evict t

let attach platform ~capacity =
  if capacity <= 0 then invalid_arg "Trace.attach: capacity must be positive";
  let t =
    {
      capacity;
      by_id = Hashtbl.create 1024;
      by_parent = Hashtbl.create 1024;
      order = Queue.create ();
    }
  in
  Platform.on_emit platform (fun ~parent ~child ~emitter:_ -> record t ~parent ~child);
  t

let recorded t = Hashtbl.length t.by_id
let find t id = Hashtbl.find_opt t.by_id id

let events t =
  Queue.fold (fun acc id -> match find t id with Some ev -> ev :: acc | None -> acc) [] t.order
  |> List.rev

let chain t id =
  let rec go id acc =
    match find t id with
    | None -> acc
    | Some ev -> (
      match ev.ev_parent with
      | Some p -> go p (ev :: acc)
      | None -> ev :: acc)
  in
  go id []

let children t id =
  Option.value ~default:[] (Hashtbl.find_opt t.by_parent id)
  |> List.rev
  |> List.filter_map (find t)

let render_tree t fmt root =
  let rec go indent id =
    match find t id with
    | None -> Format.fprintf fmt "%s#%d (evicted)@." indent id
    | Some ev ->
      let who =
        match ev.ev_emitter with
        | Message.From_bee { bee; app; hive } ->
          Printf.sprintf " by bee %d (%s) on hive %d" bee app hive
        | Message.From_endpoint _ | Message.From_system -> " (injected)"
      in
      Format.fprintf fmt "%s#%d %s at %a%s@." indent id ev.ev_kind Beehive_sim.Simtime.pp
        ev.ev_at who;
      List.iter (fun child -> go (indent ^ "  ") child.ev_msg) (children t id)
  in
  go "" root

let causation_ratio t ~in_kind ~out_kind =
  let parents = ref 0 and caused = ref 0 in
  Hashtbl.iter
    (fun _ ev ->
      if String.equal ev.ev_kind in_kind then begin
        incr parents;
        List.iter
          (fun child -> if String.equal child.ev_kind out_kind then incr caused)
          (children t ev.ev_msg)
      end)
    t.by_id;
  if !parents = 0 then None else Some (float_of_int !caused /. float_of_int !parents)
