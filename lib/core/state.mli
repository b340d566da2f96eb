(** A bee's state: named dictionaries with transactions.

    "To process a message, a function accesses the application state which
    is defined in the form of dictionaries (i.e., key-values) with support
    for transactions" (Section 2). Each bee owns one [State.t] holding the
    entries of the cells it owns. Every handler invocation runs inside a
    transaction: writes are buffered and applied atomically on success,
    discarded if the handler raises.

    Each dictionary is a persistent map ordered by [String.compare], and a
    transaction's pending writes are a persistent map ordered by
    [(dict, key)]: ordered reads cost no sort, and a transactional view
    costs no copy unless the transaction wrote to that dictionary. *)

type t
type tx

val create : unit -> t

(** {2 Direct (committed) view} *)

val get : t -> dict:string -> key:string -> Value.t option
val keys : t -> dict:string -> string list
(** In [String.compare] order. *)

val entry_count : t -> int

val size_bytes : t -> int
(** Estimated serialized size of all entries; the byte cost of migrating
    or replicating this state. *)

val cells : t -> Cell.Set.t
(** Concrete [(dict, key)] cells currently materialized. *)

(** {2 Transactions} *)

val begin_tx : t -> tx
val tx_get : tx -> dict:string -> key:string -> Value.t option
val tx_mem : tx -> dict:string -> key:string -> bool
val tx_set : tx -> dict:string -> key:string -> Value.t -> unit
val tx_del : tx -> dict:string -> key:string -> unit

val tx_iter : tx -> dict:string -> (string -> Value.t -> unit) -> unit
(** Iterates the transactional view: base entries overlaid with the
    transaction's pending writes and deletions, in [String.compare] key
    order — apps rely on this order. The view is immutable and taken
    when the call starts, so writes the callback makes are not seen by
    this iteration. *)

val tx_pending : tx -> (string * string * Value.t option) list
(** The pending writes ([None] means deletion), in [(dict, key)] order
    under [String.compare]; what a replication scheme ships to its
    replicas on commit and what the WAL record lists, so the order is
    part of the durable byte image. *)

val commit : tx -> unit
(** Applies pending writes. A committed or aborted transaction cannot be
    reused. *)

val abort : tx -> unit

val rollback : tx -> int
(** {!abort} that reports how many pending writes were discarded — the
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
