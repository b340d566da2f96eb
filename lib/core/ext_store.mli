(** An ONOS-style external distributed key-value store.

    Section 6 of the paper argues against delegating control-plane state
    to an external system (Cassandra / RAMCloud in ONOS): the platform
    loses control over state placement, and every access crosses the
    control channel. This module models such a store so the claim can be
    measured: a small cluster of store nodes hosted on designated hives,
    a hash-sharded keyspace, and asynchronous GET/PUT whose bytes and
    round-trip latency are charged on the platform's control channels.

    Used by {!page-beehive_apps} [Te_external], the comparison baseline
    for the decoupled TE. *)

type t

val create : Platform.t -> t
(** Places the store's three nodes on hives 0, 1 and 2. *)

val get : t -> from_hive:int -> key:string -> (Value.t option -> unit) -> unit
(** Asynchronous read: charges a request to the shard's hive and a
    response carrying the value; the continuation fires after the round
    trip, unless [from_hive] crashed meanwhile ({!Platform.since_wipe}).
    The continuation runs outside any bee transaction — callers are
    stateless Beehive handlers that may only emit further messages. *)

val put : t -> from_hive:int -> key:string -> Value.t -> (unit -> unit) -> unit
(** Asynchronous write: charges the request carrying the value and an
    acknowledgement. The shard holds the value from the call on. *)

val update :
  t -> from_hive:int -> key:string -> (Value.t option -> Value.t) ->
  (Value.t -> unit) -> unit
(** Read-modify-write in one round trip: the shard applies [f] to the
    value it holds, atomically, as a compare-and-set would, so
    concurrent updates of a key never overwrite each other. Charges the
    request carrying the new value and a response carrying it back —
    the traffic a remote-state application pays for every stat sample.
    The continuation receives the stored value. *)

val fold_keys : t -> (string -> Value.t -> 'a -> 'a) -> 'a -> 'a
(** Offline introspection of store contents (no traffic charged). *)

val rpc_latency_percentile : t -> float -> int option
(** Percentile (microseconds) of store round-trip times — the state
    access latency a remote-state application pays on every sample,
    where cell-based applications pay an in-memory access. *)
