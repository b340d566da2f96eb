type t = {
  n : int;
  parents : int array; (* -1 for the root *)
  kids : int list array;
  depths : int array;
  extra : int list array;  (* non-tree adjacency, sorted *)
  mutable has_extra : bool;
}

type host = {
  host_id : int;
  mac : int64;
  attached_to : int;
  port : int;
}

let build parents =
  let n = Array.length parents in
  let kids = Array.make n [] in
  let depths = Array.make n 0 in
  for s = n - 1 downto 1 do
    let p = parents.(s) in
    kids.(p) <- s :: kids.(p)
  done;
  for s = 1 to n - 1 do
    depths.(s) <- depths.(parents.(s)) + 1
  done;
  { n; parents; kids; depths; extra = Array.make n []; has_extra = false }

let tree ~arity ~n_switches =
  if arity < 1 then invalid_arg "Topology.tree: arity must be >= 1";
  if n_switches < 1 then invalid_arg "Topology.tree: need at least one switch";
  let parents = Array.make n_switches (-1) in
  for s = 1 to n_switches - 1 do
    parents.(s) <- (s - 1) / arity
  done;
  build parents

let n_switches t = t.n

let check t s =
  if s < 0 || s >= t.n then invalid_arg "Topology: switch id out of range"

let parent t s =
  check t s;
  if t.parents.(s) < 0 then None else Some t.parents.(s)

let add_extra_link t a b =
  check t a;
  check t b;
  if a = b then invalid_arg "Topology.add_extra_link: self link";
  if not (List.mem b t.extra.(a)) then begin
    t.extra.(a) <- List.sort Int.compare (b :: t.extra.(a));
    t.extra.(b) <- List.sort Int.compare (a :: t.extra.(b));
    t.has_extra <- true
  end

let ring ~n_switches =
  let t = tree ~arity:1 ~n_switches in
  if n_switches > 2 then add_extra_link t 0 (n_switches - 1);
  t

let neighbors t s =
  check t s;
  let tree = match parent t s with None -> t.kids.(s) | Some p -> p :: t.kids.(s) in
  tree @ t.extra.(s)

let degree t s = List.length (neighbors t s)
let is_link t a b = List.mem b (neighbors t a)

let bfs_path t a b =
  let parent = Array.make t.n (-1) in
  parent.(a) <- a;
  let queue = Queue.create () in
  Queue.push a queue;
  let found = ref (a = b) in
  while (not !found) && not (Queue.is_empty queue) do
    let u = Queue.pop queue in
    List.iter
      (fun v ->
        if parent.(v) < 0 then begin
          parent.(v) <- u;
          if v = b then found := true else Queue.push v queue
        end)
      (neighbors t u)
  done;
  if not !found then invalid_arg "Topology.path: disconnected"
  else begin
    let rec walk v acc = if v = a then a :: acc else walk parent.(v) (v :: acc) in
    walk b []
  end

let path t a b =
  check t a;
  check t b;
  if t.has_extra then bfs_path t a b
  else begin
  (* Lift both endpoints to equal depth, then climb together to the LCA. *)
  let rec lift s d = if t.depths.(s) > d then lift t.parents.(s) d else s in
  let rec find x y = if x = y then x else find t.parents.(x) t.parents.(y) in
  let d = min t.depths.(a) t.depths.(b) in
  let lca = find (lift a d) (lift b d) in
  let rec up_from x acc =
    if x = lca then List.rev (x :: acc) else up_from t.parents.(x) (x :: acc)
  in
    (* [up_from a []] is a..lca inclusive; the b side is lca..b minus lca. *)
    up_from a [] @ List.tl (List.rev (up_from b []))
  end

let port_towards t ~src ~dst =
  let rec index i = function
    | [] -> raise Not_found
    | x :: _ when x = dst -> i
    | _ :: rest -> index (i + 1) rest
  in
  1 + index 0 (neighbors t src)

let host_port_base = 100

let attach_hosts t ~per_switch =
  if per_switch < 0 then invalid_arg "Topology.attach_hosts: negative count";
  Array.init (t.n * per_switch) (fun i ->
      let sw = i / per_switch and k = i mod per_switch in
      {
        host_id = i;
        mac = Int64.of_int ((sw * 0x10000) + k + 1);
        attached_to = sw;
        port = host_port_base + k;
      })
