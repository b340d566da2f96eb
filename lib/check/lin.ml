module Simtime = Beehive_sim.Simtime

type verdict =
  | Linearizable
  | Non_linearizable of History.op list
  | Unknown of string

type report = {
  r_verdict : verdict;
  r_components : int;
}

let default_max_steps = 2_000_000

(* ------------------------------------------------------------------ *)
(* P-compositionality: partition the history into per-key connected    *)
(* components. Single-key ops partition cleanly; a multi-key [Txn]     *)
(* glues its keys into one component (union-find), so each component   *)
(* can be checked — and shrunk — independently, which is what keeps    *)
(* the search tractable on long histories.                             *)
(* ------------------------------------------------------------------ *)

let components ops =
  let parent : (string, string) Hashtbl.t = Hashtbl.create 16 in
  let rec find k =
    match Hashtbl.find_opt parent k with
    | None ->
      Hashtbl.replace parent k k;
      k
    | Some p when String.equal p k -> k
    | Some p ->
      let r = find p in
      Hashtbl.replace parent k r;
      r
  in
  let union a b =
    let ra = find a and rb = find b in
    if not (String.equal ra rb) then Hashtbl.replace parent ra rb
  in
  List.iter
    (fun o ->
      match History.keys o.History.op_call with
      | [] -> ()
      | k :: rest -> List.iter (union k) rest)
    ops;
  let groups : (string, History.op list) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun o ->
      match History.keys o.History.op_call with
      | [] -> ()
      | k :: _ ->
        let r = find k in
        Hashtbl.replace groups r
          (o :: Option.value ~default:[] (Hashtbl.find_opt groups r)))
    ops;
  Hashtbl.fold (fun r ops acc -> (r, List.rev ops) :: acc) groups []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  |> List.map snd

(* ------------------------------------------------------------------ *)
(* Sequential model: key -> int, kept as a sorted assoc list so equal  *)
(* states memoize to equal keys.                                       *)
(* ------------------------------------------------------------------ *)

let lookup state k = List.assoc_opt k state

let rec store state k v =
  match state with
  | [] -> [ (k, v) ]
  | (k', _) :: rest when String.equal k' k -> (k, v) :: rest
  | ((k', _) as hd) :: rest ->
    if String.compare k k' < 0 then (k, v) :: state else hd :: store rest k v

let rec erase state k =
  match state with
  | [] -> []
  | (k', _) :: rest when String.equal k' k -> rest
  | hd :: rest -> hd :: erase rest k

let apply state = function
  | History.Get k -> (History.Got (lookup state k), state)
  | History.Put (k, v) -> (History.Done, store state k v)
  | History.Del k -> (History.Done, erase state k)
  | History.Txn kvs ->
    let olds = List.map (fun (k, _) -> lookup state k) kvs in
    (History.Old olds, List.fold_left (fun st (k, v) -> store st k v) state kvs)

(* ------------------------------------------------------------------ *)
(* Wing–Gong / Lowe configuration search.                              *)
(*                                                                     *)
(* A configuration is (set of linearized ops, model state). From each  *)
(* configuration the next linearized op may be any un-linearized op    *)
(* invoked no later than the earliest return among un-linearized       *)
(* *completed* ops (anything invoked after that return is strictly     *)
(* ordered behind it in real time). [Info] ops never constrain the     *)
(* frontier — their interval extends to infinity — and may be          *)
(* linearized anywhere after their invocation, or never. Visited       *)
(* configurations are memoized: revisiting the same (set, state) pair  *)
(* through a different order cannot succeed where the first visit      *)
(* failed.                                                             *)
(* ------------------------------------------------------------------ *)

exception Out_of_budget

(* [steps] is the shared configuration budget; raises [Out_of_budget]
   when it runs dry, so a pathological history degrades to [Unknown]
   instead of hanging the run. *)
let linearizable_component ~steps ops_list =
  let ops = Array.of_list ops_list in
  let n = Array.length ops in
  let memo : (string * (string * int) list, unit) Hashtbl.t =
    Hashtbl.create 1024
  in
  let is_info i = ops.(i).History.op_status = History.Info in
  let set_bit bytes i =
    let b = Bytes.copy bytes in
    let byte = i / 8 in
    Bytes.set b byte (Char.chr (Char.code (Bytes.get b byte) lor (1 lsl (i mod 8))));
    b
  in
  let rec search linearized state remaining =
    if List.for_all is_info remaining then true
    else begin
      decr steps;
      if !steps <= 0 then raise Out_of_budget;
      let key = (Bytes.to_string linearized, state) in
      if Hashtbl.mem memo key then false
      else begin
        Hashtbl.add memo key ();
        let frontier =
          List.fold_left
            (fun acc i ->
              if is_info i then acc
              else
                match (ops.(i).History.op_returned, acc) with
                | Some r, None -> Some r
                | Some r, Some a -> Some (Simtime.min a r)
                | None, _ -> acc)
            None remaining
        in
        let permitted i =
          match frontier with
          | None -> true
          | Some r -> Simtime.(ops.(i).History.op_invoked <= r)
        in
        (* Completed ops first: they are the constrained ones, and on a
           clean history the earliest-invoked completed op is almost
           always the right next linearization point, so the greedy
           branch succeeds without touching the Info ops at all. *)
        let completed, info = List.partition (fun i -> not (is_info i)) remaining in
        let candidates =
          List.filter permitted completed @ List.filter permitted info
        in
        List.exists
          (fun i ->
            let op = ops.(i) in
            let outcome, state' = apply state op.History.op_call in
            let matches =
              match op.History.op_status with
              | History.Ok o -> o = outcome
              | History.Info -> true
              | History.Fail -> false
            in
            matches
            && search (set_bit linearized i) state'
                 (List.filter (fun j -> j <> i) remaining))
          candidates
      end
    end
  in
  let init = Bytes.make ((n + 7) / 8) '\000' in
  search init [] (List.init n Fun.id)

(* ------------------------------------------------------------------ *)
(* Witness minimization. ddmin alone would happily shrink a stale read *)
(* down to a single "get returned a value nobody wrote" op — true but  *)
(* useless. The grounding side-condition keeps the writer of every     *)
(* value a surviving read observes, so the minimal witness still tells *)
(* the whole story (e.g. put v1; put v2; get -> v1).                   *)
(* ------------------------------------------------------------------ *)

let grounded ops =
  let written = Hashtbl.create 64 in
  List.iter
    (fun o ->
      match o.History.op_call with
      | History.Put (_, v) -> Hashtbl.replace written v ()
      | History.Txn kvs -> List.iter (fun (_, v) -> Hashtbl.replace written v ()) kvs
      | History.Get _ | History.Del _ -> ())
    ops;
  let value_ok = function None -> true | Some v -> Hashtbl.mem written v in
  List.for_all
    (fun o ->
      match o.History.op_status with
      | History.Ok (History.Got v) -> value_ok v
      | History.Ok (History.Old vs) -> List.for_all value_ok vs
      | _ -> true)
    ops

let minimize_witness ~max_steps ops =
  let per_trial = min max_steps 200_000 in
  let still_fails sub =
    sub <> []
    && grounded sub
    &&
    let steps = ref per_trial in
    match linearizable_component ~steps sub with
    | ok -> not ok
    | exception Out_of_budget -> false
  in
  if List.length ops <= 400 && still_fails ops then
    Shrink.minimize ~still_fails ops
  else ops

let check ?(max_steps = default_max_steps) history =
  let ops = List.filter (fun o -> o.History.op_status <> History.Fail) history in
  let comps = components ops in
  let n_components = List.length comps in
  let steps = ref (max 1 max_steps) in
  let rec go = function
    | [] -> Linearizable
    | c :: rest -> (
      match linearizable_component ~steps c with
      | true -> go rest
      | false -> Non_linearizable (minimize_witness ~max_steps c)
      | exception Out_of_budget ->
        Unknown
          (Printf.sprintf
             "configuration budget (%d steps) exhausted on a component of %d ops"
             max_steps (List.length c)))
  in
  let verdict = go comps in
  { r_verdict = verdict; r_components = n_components }
