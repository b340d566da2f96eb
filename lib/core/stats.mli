(** Per-bee runtime metrics, and the latency histogram type.

    "Our runtime instrumentation system measures the resource consumption
    of each bee along with the number of messages it exchanges with other
    bees" (Section 3). Each bee owns one [Stats.t]; collectors snapshot a
    window periodically and aggregate on one hive. The message exchange
    is kept as per-hive inbound counts (what placement acts on), not as a
    bee-to-bee matrix. Message provenance is not here: it lives in
    {!Trace} only. Platform-wide gauges are not here either: see
    {!Platform.gauges}. *)

type t

type window = {
  w_processed : int;
  w_in_by_hive : (int * int) list;
      (** (source hive, messages received from bees/endpoints there),
          one entry per hive, in hive order *)
}

val create : unit -> t

(** {2 Recording (called by the platform)} *)

val record_in : t -> src_hive:int -> unit
(** Counts one handled message; [src_hive] is the hive it came from, -1
    for none, feeding the window's per-hive inbound counts. *)

val record_done : t -> busy:Beehive_sim.Simtime.t -> unit

(** {2 Cumulative views} *)

val processed : t -> int
val busy_us : t -> int

(** {2 Windows} *)

val take_window : t -> window
(** Returns counters accumulated since the previous [take_window] and
    starts a fresh window. Allocates nothing when the window is empty. *)

(** {2 Latency histograms} *)

type latency
(** A log2 histogram of delays: the platform's (emission to start of
    processing, every message) and each external store's (RPC trips). *)

val latency : unit -> latency

val record_latency : latency -> Beehive_sim.Simtime.t -> unit

val latency_percentile : latency -> float -> int option
(** [latency_percentile h 0.99] estimates the given percentile in
    microseconds (upper edge of the containing bucket); [None] with no
    samples. *)
