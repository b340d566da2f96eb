(** Design-bottleneck feedback.

    "Beehive cannot automatically fix a poor design, but provides
    analytics to highlight the design bottlenecks of control applications"
    (Section 6). This module turns platform and instrumentation data into
    actionable reports — e.g. detecting that the naive traffic-engineering
    app is effectively centralized because [Route] maps whole
    dictionaries (the exact feedback loop of Section 5). *)

type severity =
  | Info
  | Warning
  | Critical

type item = {
  severity : severity;
  app : string option;  (** [None] for platform-wide findings *)
  title : string;
  detail : string;
}

val analyze : Platform.t -> item list
(** Runs all checks; items are ordered most severe first. *)

(** {2 Individual checks (exposed for tests)} *)

val check_centralization : Platform.t -> item list
(** Per app: share of messages handled by the busiest bee; wildcard cells
    pinning a whole dictionary to one bee. *)

val provenance_summary : Platform.t -> (string * string * string * int) list
(** [(app, in_kind, out_kind, count)] message-causation edges, heaviest
    first ("packet_out messages are emitted by the learning switch upon
    receiving packet_in's"). *)

val pp : Format.formatter -> item list -> unit
