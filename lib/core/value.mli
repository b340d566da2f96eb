(** Dictionary values.

    State dictionaries store extensible values so each application can keep
    its own record types. A size estimator (needed for migration-cost and
    replication byte accounting) can be registered per constructor family;
    the built-in scalar constructors have exact-ish sizes. *)

type t = ..

type t +=
  | V_int of int
  | V_float of float
  | V_string of string
  | V_bool of bool
  | V_pair of t * t
  | V_list of t list

val size : t -> int
(** Serialized size estimate in bytes. Unknown constructors fall back to
    64 bytes unless an estimator claims them. *)

val register_size : (t -> int option) -> unit
(** Adds an estimator consulted (most recent first) before the default. *)

val pp : Format.formatter -> t -> unit
(** Prints scalars; unknown constructors print as ["<abstract>"]. *)

val garble : t -> t
(** What a reader gets back from physically damaged bytes it failed to
    verify: a deterministic, size-preserving scramble, so silent
    corruption is semantically visible (a revived counter that exceeds
    every put) but byte accounting stays unchanged. Unknown constructors
    come back as they were. *)
