(** Chubby-style lock service.

    The paper's platform resolves cell ownership "using a distributed
    locking mechanism (e.g., Chubby [4])". This module provides the part
    of that contract the platform uses: named locks in a path namespace,
    client sessions with leases, ephemeral locks that vanish with their
    session, and monotonically increasing sequencers (fencing tokens)
    returned on acquisition.

    Failure semantics follow Chubby: a session that is not kept alive
    within its lease expires and all its ephemeral locks are released.
    The service itself is a single master whose RPC latency is modelled
    by the caller (the platform charges a round trip on the control
    channel per lookup/acquire). *)

type t

type session

val create : Beehive_sim.Engine.t -> ?lease:Beehive_sim.Simtime.t -> unit -> t
(** [lease] defaults to 10 s of simulated time. *)

val create_session : t -> owner:string -> session
(** Opens a session. The session expires [lease] after its last
    keep-alive unless renewed. *)

val session_alive : session -> bool

val keep_alive : session -> unit
(** Renews the session lease. Raises [Invalid_argument] on a dead
    session. *)

val try_acquire : t -> session -> path:string -> [ `Acquired of int | `Held_by of string ]
(** Non-blocking acquisition of an ephemeral lock. [`Acquired seq]
    carries the lock's sequencer, a token that increases every time the
    lock changes hands (Chubby's fencing number). Acquiring a lock already
    held by the same session returns its current sequencer. *)

val release : t -> session -> path:string -> unit
(** Raises [Invalid_argument] if the session does not hold the lock. *)

val holder : t -> path:string -> string option
