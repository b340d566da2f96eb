(** Asynchronous messages.

    Control applications communicate exclusively through asynchronous
    messages (Section 2 of the paper). A message carries an extensible
    payload, a [kind] string used for handler dispatch, a size estimate
    used for control-channel byte accounting, and provenance (which bee or
    external endpoint emitted it). *)

type payload = ..
(** Applications extend this with their own constructors, e.g.
    [type Message.payload += Stat_reply of ...]. *)

type source =
  | From_bee of { bee : int; hive : int; app : string }
  | From_endpoint of Beehive_net.Channels.endpoint
      (** injected over an IO channel, e.g. by a switch *)
  | From_system  (** timers and platform-internal events *)

type t = {
  msg_id : int;
  kind : string;
  payload : payload;
  size : int;  (** serialized size estimate in bytes *)
  src : source;
  sent_at : Beehive_sim.Simtime.t;
}

val make :
  ?size:int -> kind:string -> src:source -> sent_at:Beehive_sim.Simtime.t ->
  payload -> t
(** [size] defaults to {!default_size} (64 bytes). Message ids are
    globally unique and increase in creation order. *)

val default_size : int
