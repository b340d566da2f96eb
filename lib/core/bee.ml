type delivery = {
  d_to : int;
  d_msg : Message.t;
  d_handler : App.handler;
  d_allowed : Mapping.t;
  d_outbox : Beehive_store.Mark.t;
  mutable d_attempts : int;
}

type hold =
  | Migrating of { dst : int; cells : int }
  | Merging
  | Fenced

type t = {
  id : int;
  app : App.t;
  mutable hive : int;
  mutable state : State.t;
  mailbox : delivery Mailbox.t;
  stats : Stats.t;
  is_local : bool;
  mutable busy : bool;
  mutable handling : delivery;
  mutable handling_cost : Beehive_sim.Simtime.t;
  mutable handling_event : Beehive_sim.Engine.handle;
  mutable completion : unit -> unit;
  mutable env : Context.env;
  mutable status : [ `Active | `Crashed | `Dead ];
  mutable holds : hold list;
  mutable incarnation : int;
  mutable on_idle : (unit -> unit) list;
  mutable forwarded_to : t option;
  mutable stale_shadow : (string * string * Value.t) list option;
  mutable stale_until : Beehive_sim.Simtime.t;
}

let create ~id ~app ~hive ~is_local ~env ~idle =
  {
    id;
    app;
    hive;
    state = State.create ();
    mailbox = Mailbox.create ~filler:idle;
    stats = Stats.create ();
    is_local;
    busy = false;
    handling = idle;
    handling_cost = Beehive_sim.Simtime.zero;
    handling_event = Beehive_sim.Engine.none;
    completion = ignore;
    env;
    status = `Active;
    holds = [];
    incarnation = 0;
    on_idle = [];
    forwarded_to = None;
    stale_shadow = None;
    stale_until = Beehive_sim.Simtime.zero;
  }

let held b = match b.holds with [] -> false | _ :: _ -> true
let runnable b = b.status = `Active && not (held b)
let holds b h = List.memq h b.holds

let take hives b h =
  (match h with
  | Migrating { dst; cells } -> Hives.inbound_started hives dst ~cells
  | Merging | Fenced -> ());
  b.holds <- h :: b.holds

let settle hives = function
  | Migrating { dst; cells } -> Hives.inbound_settled hives dst ~cells
  | Merging | Fenced -> ()

let rec remove h = function
  | [] -> []
  | h' :: rest -> if h' == h then rest else h' :: remove h rest

let release hives b h =
  holds b h
  && begin
       settle hives h;
       b.holds <- remove h b.holds;
       runnable b
     end

let arrive hives b h =
  match h with
  | Migrating { dst; _ } when holds b h ->
    b.hive <- dst;
    ignore (release hives b Fenced);
    release hives b h
  | Migrating _ | Merging | Fenced -> false

(* Ending a life drops every hold, settling a move's reservation, and
   the handler in hand: its queued completion no longer matches. *)
let stop hives b status =
  b.status <- status;
  b.busy <- false;
  b.handling_event <- Beehive_sim.Engine.none;
  Mailbox.clear b.mailbox;
  List.iter (settle hives) b.holds;
  b.holds <- []

let crash hives b = stop hives b `Crashed

let kill hives b = stop hives b `Dead

let fold hives b ~into =
  kill hives b;
  b.forwarded_to <- Some into;
  b.hive <- into.hive

let revive b state =
  b.state <- state;
  b.status <- `Active

let fail_over hives b ~hive state =
  b.incarnation <- b.incarnation + 1;
  stop hives b `Active;
  b.hive <- hive;
  b.state <- state
