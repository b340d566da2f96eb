(** Time-bucketed scalar series.

    Accumulates values (e.g. bytes sent) into fixed-width time buckets;
    used for the bandwidth-over-time panels of Figure 4(d-f). *)

type t

val create : bucket:Beehive_sim.Simtime.t -> t
(** [bucket] is the bucket width (the paper plots per-second KB/s). *)

val add : t -> at:Beehive_sim.Simtime.t -> int -> unit
(** [add t ~at bytes] adds [bytes] to the bucket holding [at]. An int,
    not a float: a float argument to another module's function is boxed,
    and the fabric calls this once per inter-hive message. *)

val rate_kbps : t -> (float * float) array
(** [(bucket_start_seconds, kilobytes per second)] for every bucket from
    0 to the last touched bucket, empty buckets included as 0, assuming
    the accumulated values are bytes. *)

val total : t -> float

val render_sparkline : Format.formatter -> t -> unit
(** One-line ASCII sparkline (levels [ .:-=+*#%@]), one character per
    bucket up to 60; past that each character is a group's peak. *)
