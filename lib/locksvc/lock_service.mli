(** Chubby-style lock service.

    The paper's platform resolves cell ownership "using a distributed
    locking mechanism (e.g., Chubby [4])". This module provides the same
    contract: named locks in a path namespace, client sessions with leases,
    ephemeral locks that vanish with their session, monotonically
    increasing sequencers (fencing tokens), and watches.

    Failure semantics follow Chubby: a session that is not kept alive
    within its lease expires, all its ephemeral locks are released, and
    watchers are notified. The service itself is a single master whose RPC
    latency is modelled by the caller (the platform charges a round trip on
    the control channel per lookup/acquire). *)

type t

type session

type event =
  | Released of string  (** lock at path released voluntarily *)
  | Expired of string   (** lock at path released by session expiry *)

val create : Beehive_sim.Engine.t -> ?lease:Beehive_sim.Simtime.t -> unit -> t
(** [lease] defaults to 10 s of simulated time. *)

val create_session : t -> owner:string -> session
(** Opens a session. The session expires [lease] after its last
    keep-alive unless renewed. *)

val session_alive : session -> bool

val keep_alive : session -> unit
(** Renews the session lease. Raises [Invalid_argument] on a dead
    session. *)

val close_session : t -> session -> unit
(** Graceful close: releases all locks held by the session (as
    {!Released}). Idempotent. *)

val try_acquire : t -> session -> path:string -> [ `Acquired of int | `Held_by of string ]
(** Non-blocking acquisition of an ephemeral lock. [`Acquired seq]
    carries the lock's sequencer, a token that increases every time the
    lock changes hands (Chubby's fencing number). Acquiring a lock already
    held by the same session returns its current sequencer. *)

val release : t -> session -> path:string -> unit
(** Raises [Invalid_argument] if the session does not hold the lock. *)

val holder : t -> path:string -> string option
val sequencer : t -> path:string -> int option
(** Last sequencer issued for the path, even if currently free. *)

val watch : t -> path:string -> (event -> unit) -> unit
(** Registers a persistent watcher for release/expiry events on [path]. *)

val locks_held : t -> session -> string list
(** Paths currently held, in acquisition order. *)

val n_live_sessions : t -> int
