(** SEATTLE-style host location resolution (Section 4, reference [9]).

    SEATTLE replaces Ethernet flooding with a one-hop DHT: each host's
    location (attachment switch and port) is published to a resolver
    chosen by consistent hashing of its MAC, and lookups go directly to
    that resolver. In Beehive the DHT falls out of the abstraction: the
    directory dictionary is sharded into hash buckets, each bucket one
    cell, so the platform spreads resolvers across hives and the
    optimizer pulls each bucket toward the hives that query it.

    Flooding never happens: a miss answers negatively instead. *)

val app_name : string
(** ["seattle"] *)

val bucket_of_mac : int64 -> string
(** The directory shard responsible for a MAC. *)

(** {2 Messages} *)

val k_publish : string
val k_unpublish : string
val k_resolve : string
val k_location : string

type Beehive_core.Message.payload +=
  | Publish of { pb_mac : int64; pb_switch : int; pb_port : int }
      (** a host was seen: its ingress switch publishes the binding *)
  | Unpublish of { up_mac : int64 }
  | Resolve of { rq_mac : int64; rq_token : int; rq_switch : int }
  | Location of {
      lc_token : int;
      lc_mac : int64;
      lc_found : bool;
      lc_switch : int;
      lc_port : int;
    }

val app : unit -> Beehive_core.App.t

(** {2 Inspection} *)

val lookup : Beehive_core.Platform.t -> mac:int64 -> (int * int) option
(** [(switch, port)] binding currently stored for a MAC. *)

val bucket_sizes : Beehive_core.Platform.t -> (string * int) list
(** Non-empty buckets and their binding counts. *)
