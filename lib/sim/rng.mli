(** Deterministic, splittable pseudo-random number generator.

    Splitmix64-based. Splitting yields an independent stream, which lets
    each simulated component draw randomness without perturbing the others
    — a prerequisite for reproducible experiments. *)

type t

val create : int -> t
(** [create seed] makes a fresh generator from an integer seed. *)

val split : t -> t
(** [split t] derives an independent generator and advances [t]. *)

val int : t -> int -> int
(** [int t bound] draws uniformly from [0, bound). [bound] must be > 0. *)

val float : t -> float -> float
(** [float t bound] draws uniformly from [0, bound). *)
