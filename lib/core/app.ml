module Simtime = Beehive_sim.Simtime

type handler = {
  on_kind : string;
  map : Message.t -> Mapping.t;
  rcv : Context.t -> Message.t -> unit;
  cost : Message.t -> Simtime.t;
}

type timer = {
  timer_kind : string;
  period : Simtime.t;
  tick_payload : now:Simtime.t -> Message.payload;
  tick_size : int;
}

type t = {
  name : string;
  dicts : string list;
  handlers : handler list;
  timers : timer list;
  replicated : bool;
  pinned : bool;
}

let default_cost = Simtime.of_us 10

let handler ?cost ~kind ~map rcv =
  let cost = match cost with Some c -> c | None -> fun _ -> default_cost in
  { on_kind = kind; map; rcv; cost }

let timer ~kind ~period ?(size = Message.default_size) tick_payload =
  { timer_kind = kind; period; tick_payload; tick_size = size }

let create ~name ?(dicts = []) ?(timers = []) ?(replicated = false) ?(pinned = false)
    handlers =
  if name = "" then invalid_arg "App.create: empty name";
  { name; dicts; handlers; timers; replicated; pinned }
