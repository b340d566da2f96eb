(** Simulated time.

    All simulation time is kept as an integer number of microseconds since
    the start of the run. Integer time keeps event ordering exact and runs
    deterministic across platforms. *)

type t = private int
(** A point in simulated time, in microseconds. Totally ordered. *)

val zero : t

val of_us : int -> t
(** [of_us n] is the time [n] microseconds after the origin. [n] must be
    non-negative. *)

val of_ms : int -> t
val of_sec : float -> t

val to_us : t -> int
val to_sec : t -> float

val add : t -> t -> t
val diff : t -> t -> t
(** [diff a b] is [a - b]; raises [Invalid_argument] if [b > a]. *)

val compare : t -> t -> int
val equal : t -> t -> bool
val ( <= ) : t -> t -> bool
val ( < ) : t -> t -> bool
val ( >= ) : t -> t -> bool
val ( > ) : t -> t -> bool

val min : t -> t -> t
val max : t -> t -> t

val pp : Format.formatter -> t -> unit
(** Prints as seconds with millisecond precision, e.g. ["12.345s"]. *)
