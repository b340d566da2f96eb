(** Fixed pool of OCaml 5 domains with a deterministic shard->lane map.

    [map] fans a batch of independent shards across the pool: shard
    [i] runs on lane [i mod size], lanes run their shards in
    increasing index order, and lane 0 is the calling domain. The
    assignment depends only on the shard index, so as long as shards
    on different lanes are mutually independent, results are identical
    for every pool size — the property the engine's deterministic
    sharded dispatch is built on. *)

type t

val create : domains:int -> t
(** Pool with [domains] lanes (clamped to 1..64). [domains - 1] worker
    domains are spawned; lane 0 is the caller. *)

val size : t -> int
(** Number of lanes, including the caller's. *)

val map : t -> shards:int -> (int -> 'a) -> 'a array
(** [map t ~shards f] computes [|f 0; ...; f (shards-1)|] across the
    pool and waits for all of them (a barrier). Every shard runs even
    if another raised; afterwards the exception of the lowest-numbered
    failing shard is re-raised. Nested calls from inside a shard run
    inline on the calling lane. *)

val tasks_per_domain : t -> int array
(** Per-lane count of shards executed since [create] — the per-domain
    accumulator folded at each barrier, exposed for tests and bench
    reporting. *)

val shutdown : t -> unit
(** Joins the worker domains. Idempotent. A shut-down pool still
    serves [map] inline on the caller. *)

val env_domains : unit -> int
(** Parses [BEEHIVE_DOMAINS] (default 1, clamped to 1..64). *)

val global : unit -> t
(** Process-wide pool, created on first use with [env_domains ()]
    lanes. Shut down automatically at exit. *)

val set_global_domains : int -> unit
(** Replaces the global pool with one of [n] lanes (no-op if it
    already has [n]). Used by tests and the bench harness to
    re-measure at several widths in one process. *)
