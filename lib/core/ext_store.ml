module Engine = Beehive_sim.Engine
module Channels = Beehive_net.Channels

type t = {
  platform : Platform.t;
  data : (string, Value.t) Hashtbl.t;
  rpc_latency : Stats.latency;
}

let request_size = 32
let ack_size = 16
let n_nodes = 3

let create platform =
  if Platform.n_hives platform < n_nodes then
    invalid_arg "Ext_store.create: fewer hives than store nodes";
  { platform; data = Hashtbl.create 256; rpc_latency = Stats.latency () }

let store_hive_of_key key = Hashtbl.hash key mod n_nodes

(* Charges one request and its response, and runs [k] when the response
   is back, unless [from_hive], whose memory held the call, crashed
   meanwhile. *)
let round_trip t ~from_hive ~to_hive ~req_bytes ~resp_bytes k =
  let rt =
    Channels.round_trip (Platform.channels t.platform) ~src:from_hive ~dst:to_hive ~req_bytes
      ~resp_bytes ~now:(Engine.now (Platform.engine t.platform))
  in
  Stats.record_latency t.rpc_latency rt;
  ignore
    (Engine.schedule_after (Platform.engine t.platform) rt (fun () ->
         if Platform.since_wipe t.platform from_hive then k ()))

let get t ~from_hive ~key k =
  let shard = store_hive_of_key key in
  let value = Hashtbl.find_opt t.data key in
  let resp_bytes =
    match value with Some v -> ack_size + Value.size v | None -> ack_size
  in
  round_trip t ~from_hive ~to_hive:shard ~req_bytes:request_size ~resp_bytes (fun () ->
      k value)

(* The shard holds [v] once the request has left, whether or not the
   client hears back. *)
let write t ~from_hive ~key v ~resp_bytes k =
  Hashtbl.replace t.data key v;
  round_trip t ~from_hive ~to_hive:(store_hive_of_key key)
    ~req_bytes:(request_size + Value.size v) ~resp_bytes k

let put t ~from_hive ~key v k = write t ~from_hive ~key v ~resp_bytes:ack_size k

(* The shard applies [f] itself, as a compare-and-set would, so two
   updates of one key never overwrite each other; the response carries
   the stored value. *)
let update t ~from_hive ~key f k =
  let v = f (Hashtbl.find_opt t.data key) in
  write t ~from_hive ~key v ~resp_bytes:(ack_size + Value.size v) (fun () -> k v)

let fold_keys t f init = Hashtbl.fold f t.data init
let rpc_latency_percentile t p = Stats.latency_percentile t.rpc_latency p
