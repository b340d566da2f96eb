(** Longest-prefix-match binary trie over IPv4-style prefixes.

    Pure, persistent structure backing the distributed routing
    application's per-shard RIB. *)

type 'a t

type prefix = { p_addr : int32; p_len : int }
(** [p_len] in [0, 32]; bits of [p_addr] below the mask must be zero —
    {!normalize} enforces this. *)

val normalize : int32 -> int -> prefix
val prefix_of_string : string -> prefix
(** Parses ["a.b.c.d/len"]; raises [Invalid_argument] on malformed
    input. *)

val string_of_prefix : prefix -> string
val addr_of_string : string -> int32
val string_of_addr : int32 -> string

val prefix_matches : prefix -> int32 -> bool
(** Does the address fall inside the prefix? *)

val empty : 'a t
val is_empty : 'a t -> bool
val cardinal : 'a t -> int

val insert : 'a t -> prefix -> 'a -> 'a t
(** Replaces any existing value at exactly this prefix. *)

val remove : 'a t -> prefix -> 'a t
val find_exact : 'a t -> prefix -> 'a option

val lookup : 'a t -> int32 -> (prefix * 'a) option
(** Longest matching prefix for an address. *)

val to_list : 'a t -> (prefix * 'a) list
