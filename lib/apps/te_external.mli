(** Traffic engineering over an external datastore — the anti-pattern of
    the paper's Section 6, as a measurable baseline.

    Functionally equivalent to {!Te_decoupled}, but all durable state
    (per-switch observations, the topology view, re-route records) lives
    in an ONOS-style external key-value store ({!Beehive_core.Ext_store})
    instead of Beehive cells. Handlers are stateless ([Local] mapping,
    only a hive-private switch cache), so every stat sample costs a
    read-modify-write round trip to the store's shard — byte-for-byte the
    "communication overheads both on controllers and on control
    channels" the paper warns about, plus no control over placement. *)

val app_name : string
(** ["te.external"] *)

val app : store:Beehive_core.Ext_store.t -> Beehive_core.App.t
(** Re-routes the flows above {!Te_common.delta}. *)

val rerouted_count : Beehive_core.Ext_store.t -> int
(** Re-route records currently in the store. *)
