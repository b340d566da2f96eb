(** The per-hive lifecycle table: which hives are up, fenced, crashed or
    decommissioned, which are draining, and how many migrations and cells
    are in flight toward each. {!Platform} owns one and runs the side
    effects of every transition; this module only decides which
    transitions are legal. Hive ids are never reused. *)

type t

val create : int -> t
(** [create n] starts hives [0 .. n-1] up, not draining. *)

val count : t -> int
(** Size of the hive id space; grows on {!add}, never shrinks. *)

val valid : t -> int -> bool

val alive : t -> int -> bool
(** Up: neither fenced, crashed nor decommissioned. *)

val crashed : t -> int -> bool
(** Process dead and not restarted — including a hive decommissioned
    while crashed. False for ids outside the table. *)

val fenced : t -> int -> bool
val draining : t -> int -> bool
val decommissioned : t -> int -> bool

val placeable : t -> int -> bool
(** Alive and not draining. *)

val state : t -> int -> [ `Alive | `Draining | `Fenced | `Crashed | `Decommissioned ]
val label : [ `Alive | `Draining | `Fenced | `Crashed | `Decommissioned ] -> string
val members : t -> int list

val since_wipe : t -> Beehive_sim.Engine.t -> int -> bool
(** [since_wipe t engine h]: the running event of [engine] was scheduled
    after [h]'s wipe mark, the engine's push count at its last crash (0
    if it never crashed). An event scheduled before it (its
    {!Beehive_sim.Engine.seq} is lower) stood for the hive's memory,
    which the crash erased, and does nothing. *)

val lowest_running : t -> int option
(** The lowest-numbered member hive whose process runs (up or fenced). *)

val add : t -> int
(** Appends a fresh up hive; returns its id. *)

(** {2 Transitions}

    Each returns whether the transition happened, so the caller runs its
    side effects exactly once. *)

val crash : t -> int -> mark:int -> bool
(** Up or fenced -> crashed. [mark], the engine's push count at the
    crash ({!Beehive_sim.Engine.pushes}), becomes the hive's wipe mark
    ({!since_wipe}). *)

val evict : t -> int -> bool
(** Up -> fenced. *)

val rejoin : t -> int -> bool
(** Fenced -> up. *)

val restart : t -> int -> bool option
(** Fenced or crashed -> up; [Some was_crashed] when it happened. *)

val set_draining : t -> int -> bool -> bool
(** Sets the draining flag; true if it changed. *)

val decommission : t -> int -> unit
(** Retires the hive for good and clears its draining flag. *)

(** {2 In-flight migrations} *)

val inbound : t -> int -> int

val inbound_cells : t -> int -> int
(** The cells of the in-flight migrations toward the hive, each counted
    as its transfer started. *)

val inbound_started : t -> int -> cells:int -> unit
val inbound_settled : t -> int -> cells:int -> unit
(** [cells] must be the count the transfer started with. *)
