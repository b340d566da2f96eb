(** Distributed routing application (Section 4, "Routing").

    "A distributed routing application can be easily defined in Beehive by
    storing the RIBs on a prefix basis ... This results in fine-grain
    cells that can be automatically placed throughout the platform to
    scale."

    The RIB is sharded by the prefix's top octet (finer than one cell per
    app, coarser than one per /32): each shard is a cell holding an LPM
    trie. Prefixes shorter than /8 live in a shared ["default"] shard.
    Lookups are answered asynchronously: a miss in the block shard falls
    back to the default shard before resolving to nothing. *)

val app_name : string
(** ["routing"] *)

val dict_rib : string  (** ["rib"] *)

(** {2 Messages} *)

val k_announce : string
val k_withdraw : string
val k_lookup : string
val k_resolved : string

type route = { nh_switch : int; metric : int }

type Beehive_core.Message.payload +=
  | Announce of { an_prefix : string; an_route : route }
  | Withdraw of { wd_prefix : string; wd_switch : int }
  | Lookup of { lk_addr : string; lk_token : int; lk_fallback : bool }
  | Resolved of {
      rs_token : int;
      rs_addr : string;
      rs_prefix : string option;
      rs_route : route option;
    }

val app : unit -> Beehive_core.App.t

(** {2 Inspection} *)

val best_route : Beehive_core.Platform.t -> addr:string -> (string * route) option
(** Synchronous LPM over the (possibly distributed) shards, reading bee
    state directly; [(prefix, route)] of the longest match. *)

val shard_sizes : Beehive_core.Platform.t -> (string * int) list
(** [(shard, number of prefixes)] for every materialized shard. *)
