type payload = ..

type source =
  | From_bee of { bee : int; hive : int; app : string }
  | From_endpoint of Beehive_net.Channels.endpoint
  | From_system

type t = {
  msg_id : int;
  kind : string;
  payload : payload;
  size : int;
  src : source;
  sent_at : Beehive_sim.Simtime.t;
}

let default_size = 64
let counter = ref 0

let make ?(size = default_size) ~kind ~src ~sent_at payload =
  incr counter;
  { msg_id = !counter; kind; payload; size; src; sent_at }

