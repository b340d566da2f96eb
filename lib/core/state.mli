(** A bee's state: named dictionaries with transactions.

    "To process a message, a function accesses the application state which
    is defined in the form of dictionaries (i.e., key-values) with support
    for transactions" (Section 2). Each bee owns one [State.t] holding the
    entries of the cells it owns. Every handler invocation runs inside a
    transaction: writes are buffered and applied atomically on success,
    discarded if the handler raises.

    Each dictionary is a persistent map, ordered by [String.compare], from
    key to a mutable cell. A cell holds the [Some v] its last committed
    write carried, so a read of a committed key hands that option out
    without allocating. The bee is the single writer of its cells, so
    a commit that overwrites a key assigns its cell in place and
    allocates nothing; only adding or removing a key copies a path of the
    map. {!insert} and {!restore} always make fresh cells, so no cell is
    shared between two states: a commit to one bee never shows through
    another bee's state, such as the copy a migration or snapshot made.

    A transaction's pending writes are immutable [(dict, key, write)]
    tuples in one array kept sorted by [(dict, key)] under
    [String.compare] by binary search: a read looks them up without
    allocating, an overwrite in the same transaction replaces the tuple,
    and {!tx_pending} conses the tuples themselves into a list in that
    order, with no sort and no copy. The WAL record keeps that list.

    A {!tx_iter} view reads the committed cells in place, overlaid with a
    copy of the iterated dictionary's pending writes, so it costs in
    proportion to those writes, never to the dictionary's size. The view
    is fixed when the call starts. The single-writer rule keeps it fixed:
    a {!commit} with writes, made while a view of the same state is being
    iterated, raises [Invalid_argument]. *)

type t
type tx

val create : unit -> t

val size_bytes : t -> int
(** Estimated serialized size of all entries; the byte cost of migrating
    or replicating this state. *)

(** {2 Committed reads}

    Both read the committed cells in place, outside any transaction, and
    copy nothing of the state: [find] allocates nothing, [entries] the
    list it returns. *)

val find : t -> dict:string -> key:string -> Value.t option

val entries : t -> dict:string -> (string * Value.t) list
(** The keys and values of one dictionary, in [String.compare] key
    order. *)

(** {2 Transactions} *)

val begin_tx : t -> tx
(** {!reopen} applied to a new record. *)

val reopen : tx -> t -> unit
(** Reuses a finished transaction and its pending array as a new one
    against the given state: a bee reopens its one transaction for
    every delivery, so a delivery allocates no transaction. *)

val tx_get : tx -> dict:string -> key:string -> Value.t option
val tx_mem : tx -> dict:string -> key:string -> bool
val tx_set : tx -> dict:string -> key:string -> Value.t -> unit
val tx_del : tx -> dict:string -> key:string -> unit

val tx_write : tx -> dict:string -> key:string -> Value.t option -> unit
(** [tx_set] for [Some v], [tx_del] for [None]; the option itself
    becomes the pending write, and on commit the committed cell. *)

val tx_iter : tx -> dict:string -> (string -> Value.t -> unit) -> unit
(** Iterates the transactional view: base entries overlaid with the
    transaction's pending writes and deletions, in [String.compare] key
    order — apps rely on this order. The view is taken when the call
    starts, so writes the callback makes are not seen by this iteration,
    and a commit of the same state made from the callback raises. *)

val tx_pending : tx -> (string * string * Value.t option) list
(** The pending writes ([None] means deletion), in [(dict, key)] order
    under [String.compare]; what a replication scheme ships to its
    replicas on commit and what the WAL record lists, so the order is
    part of the durable byte image. *)

val commit : tx -> unit
(** Applies pending writes. A committed or rolled-back transaction holds
    no write and raises [Invalid_argument] on every use until it is
    reopened. Raises [Invalid_argument] if the transaction has writes
    and a {!tx_iter} over the same state is running. *)

val rollback : tx -> int
(** Discards the pending writes and reports how many there were — the
    platform's handler-failure path, where an exception inside a handler
    atomically throws away the state delta (and, with the transactional
    outbox, the buffered emits that rode the same transaction). *)

(** {2 Bulk transfer (bee migration and merge)} *)

val extract : t -> Cell.Set.t -> (string * string * Value.t) list
(** Removes and returns all entries whose cell intersects the given set
    (wildcards select whole dictionaries), in [(dict, key)] order. *)

val insert : t -> (string * string * Value.t) list -> unit

val snapshot : t -> (string * string * Value.t) list
(** Every entry, in [(dict, key)] order. *)

val restore : (string * string * Value.t) list -> t
