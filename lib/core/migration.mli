(** Moving a bee to another hive, and merging bees whose cells a message
    bridges.

    The platform decides when; this module carries the move out on the
    shared subsystems it is handed. It never calls the platform: sending
    a transfer goes through [transmit], and a bee whose mailbox may have
    work again is handed to [resume]. *)

val transfer :
  Beehive_sim.Engine.t ->
  reg:Registry.t ->
  locks:Cell_locks.t ->
  hives:Hives.t ->
  store:(Value.t, Outbox.entry) Beehive_store.Store.t option ->
  stale_reads:bool ->
  transmit:
    (src_ep:Beehive_net.Channels.endpoint ->
    dst_hive:int ->
    bytes:int ->
    extra:Beehive_sim.Simtime.t ->
    on_drop:(unit -> unit) ->
    (unit -> unit) ->
    unit) ->
  resume:(Bee.t -> unit) ->
  landed:(src:int -> bytes:int -> unit) ->
  Bee.t ->
  Bee.hold ->
  unit
(** [transfer engine ... b hold] ships the bee's state to the destination
    of [hold], the [Migrating] hold the move took at admission: its state
    travels with one lock-service round trip, and on arrival the registry
    re-homes it, the hold is released and [landed] runs before the bee
    resumes on the destination. If the bee no longer holds [hold], or the
    destination is not alive, or the transfer is lost or lands on a dead
    hive, or on one that crashed while it held the package
    ({!Hives.since_wipe} says so of the running event), the hold is
    released and the bee stays where it is. A bee resumes only when no
    other hold keeps it stopped. [stale_reads] injects the [stale-read]
    bug: the landed bee keeps serving reads from its pre-transfer
    snapshot for a few milliseconds. *)

val merge :
  Beehive_sim.Engine.t ->
  chans:Beehive_net.Channels.t ->
  reg:Registry.t ->
  hives:Hives.t ->
  store:(Value.t, Outbox.entry) Beehive_store.Store.t option ->
  resume:(Bee.t -> unit) ->
  winner:Bee.t ->
  losers:Bee.t list ->
  k:(unit -> unit) ->
  unit
(** Folds every loser into the winner: state (a crashed loser's durable
    cut), cells, inbox marks and queued messages move over, and
    the loser is left dead with a forwarding pointer to the winner. A
    busy loser folds in when its handler completes; meanwhile the winner
    and the losers hold [Merging]. Once the last loser is folded, [k] runs (the caller
    claims the message's remaining cells there) and the winner resumes. *)
