(** Control-channel fabric.

    Models every control-plane byte in flight: hive-to-hive links (the
    inter-controller channels whose consumption Figure 4(d-f) plots) and
    switch-to-hive links (OpenFlow connections). The fabric both computes
    delivery latency and accounts traffic into a {!Traffic_matrix} and a
    bandwidth {!Series}.

    Links are failable: each directed hive-to-hive link carries a loss
    probability and a latency factor, and pairs of hives can be
    partitioned outright. {!transfer} stays reliable (accounting-only
    charges such as lock RPCs use it); the failable wire is
    {!transfer_result}, which {!Transport} builds at-least-once delivery
    on top of. *)

type endpoint =
  | Hive of int
  | Switch of int

type t
(** Delivery between bees on the same hive takes 5 us. A hive-to-hive
    hop takes 200 us and a switch-to-master link 100 us, each plus a
    serialization delay of one us per 100 bytes; bandwidth is bucketed
    per second. *)

val create : rng:Beehive_sim.Rng.t -> n_hives:int -> t
(** [rng] drives the per-message loss draws of {!transfer_result}; pass a
    stream split from the engine RNG so runs stay deterministic. *)

val add_hive : t -> int
(** Grows the fabric by one hive and returns its id ([n_hives] before the
    call). Existing directed-link faults are preserved; every link touching
    the new hive starts healthy. *)

val hive_endpoint : t -> int -> endpoint
(** [hive_endpoint t h] is [Hive h], built once per hive of the fabric
    and shared, so naming a hive on a per-message path allocates
    nothing. *)

val master_of : t -> int -> int
(** [master_of t sw] is the hive that owns switch [sw]'s OpenFlow
    connection. Set by {!assign_switch}; defaults to hive 0. *)

val assign_switch : t -> switch:int -> hive:int -> unit

val hive_of : t -> endpoint -> int
(** The hive an endpoint stands for: a hive itself, or a switch's
    master ({!master_of}). *)

val transfer :
  t -> src:endpoint -> dst:endpoint -> bytes:int -> now:Beehive_sim.Simtime.t ->
  Beehive_sim.Simtime.t
(** Accounts a message of [bytes] and returns its delivery latency.
    Hive-to-hive traffic lands in the traffic matrix (same-hive bee
    messages on the diagonal, as in the paper's Figure 4 panels); only
    cross-hive traffic consumes the control channel and enters the
    bandwidth series. A switch endpoint is attributed to its master
    hive. Always delivers, regardless of configured faults. *)

val round_trip :
  t -> src:int -> dst:int -> req_bytes:int -> resp_bytes:int ->
  now:Beehive_sim.Simtime.t -> Beehive_sim.Simtime.t
(** {!transfer}s a request from hive [src] to hive [dst] and its
    response back, both at [now]; returns the two latencies' sum. *)

val transfer_result :
  t -> src:endpoint -> dst:endpoint -> bytes:int -> now:Beehive_sim.Simtime.t ->
  [ `Delivered of Beehive_sim.Simtime.t | `Lost ]
(** The failable wire. Same accounting and latency as {!transfer}, except:
    a partitioned src/dst hive pair yields [`Lost] with no bytes accounted
    (nothing leaves the NIC), and a lossy link yields [`Lost] with the
    bytes accounted on the source side (the wire carried them, the
    receiver never saw them — so retransmit overhead is visible in the
    bandwidth series). Intra-hive messages never fail. *)

val matrix : t -> Traffic_matrix.t
(** The inter-hive traffic matrix accumulated so far. *)

val bandwidth : t -> Series.t
(** Inter-hive bytes per bucket (plot as KB/s). *)

val reset_accounting : t -> unit
(** Clears matrix and series (e.g. after a warm-up window). *)

(** {2 Fault injection} *)

val set_latency_factor : t -> float -> unit
(** Degrades every link: broadcasts the factor (>= 1.0) to all directed
    links; subsequently computed delivery latencies are multiplied by it.
    Accounting (bytes, matrix, series) is unaffected. *)

val set_link_latency_factor : t -> src:int -> dst:int -> float -> unit
(** Degrades a single directed hive-to-hive link. *)

val set_loss : t -> float -> unit
(** Broadcasts a drop probability [0 <= p < 1] to every directed
    hive-to-hive link. 0 heals them. *)

val partition : t -> a:int -> b:int -> unit
(** Severs both directed links between hives [a] and [b]. *)

val heal_all : t -> unit
(** Clears every partition (loss probabilities are left alone). *)

val faulty : t -> bool
(** True iff any link is lossy or partitioned. Reliability layers use
    this to skip sequence/ack bookkeeping on a healthy fabric. *)
