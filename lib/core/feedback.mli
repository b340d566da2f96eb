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

val pp : Format.formatter -> item list -> unit
