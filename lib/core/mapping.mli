(** Mapped cells: the result of an application's generated [Map] function.

    "Map(A, M) is a function generated for application A that maps a
    message of type M to a set of cells" (Section 3). In the programming
    abstraction the set is inferred from [with] and [foreach] clauses; here
    the handler author states it directly with the same vocabulary. *)

type t =
  | Key of { dict : string; key : string }
      (** [with S[k]] — the one cell [(dict, key)], the form nearly every
          handler maps to. It means exactly [Cells {(dict, key)}] and
          routes the same way, but costs its 3 words alone: no cell, set
          node or set box is built for it. Routing decides its owner from
          the registry's per-key index, and a delivery carries this very
          value as its allowed cells. *)
  | Cells of Cell.Set.t
      (** [with S[k] ...] — the concrete (and possibly wildcard) cells the
          handler needs. The platform routes the message to the unique bee
          owning them. *)
  | Foreach of string
      (** [foreach k in D] — fan the message out to every bee owning at
          least one cell of dictionary [D]; each invocation sees only that
          bee's cells of [D] at routing. *)
  | Local
      (** hive-local processing (one bee per hive per app), used by
          drivers and instrumentation collectors. *)
  | Drop  (** the application ignores this message *)

val with_key : string -> string -> t
(** [with_key dict k] = [Key { dict; key = k }]. *)

val with_keys : (string * string) list -> t
(** One pair is a [Key], any other list the [Cells] of its pairs. *)

val whole_dict : string -> t
val whole_dicts : string list -> t

val pp : Format.formatter -> t -> unit
(** A [Key] prints as the [Cells] of its one cell. *)
