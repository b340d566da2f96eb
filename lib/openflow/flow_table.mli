(** Switch flow tables: match/action entries with priorities and
    counters, in the style of OpenFlow 1.0 (McKeown et al. [14]). *)

type fmatch = {
  m_flow_id : int option;
  m_src_mac : int64 option;
  m_dst_mac : int64 option;
  m_in_port : int option;
}

val match_flow : int -> fmatch
val match_dst_mac : int64 -> fmatch

type action =
  | Output of int  (** forward on a port *)
  | Set_path of int list  (** re-steer along a switch path (TE re-routing) *)
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

type t

val create : unit -> t
val length : t -> int

val apply : t -> mod_msg -> unit
(** [Add] inserts (replacing an identical-match same-priority entry),
    [Modify] rewrites actions of matching entries (no-op when absent),
    [Delete] removes entries whose match equals the given match. *)

val lookup : t -> src_mac:int64 -> dst_mac:int64 -> in_port:int -> entry option
(** First (highest-priority) entry matching a packet; the caller bumps its
    counters with {!count}. A field left [None] in a match is a wildcard.
    An entry that matches a flow id (a TE re-route, which the switch keeps
    as its path table) never matches a packet, since packets carry no
    flow id. *)

val count : entry -> bytes:float -> unit
