(** Linearizability checking of recorded dictionary histories.

    A Wing–Gong / Lowe-style configuration search over {!History}
    entries, with two scalability levers:

    - {b P-compositionality}: operations are partitioned into per-key
      connected components (multi-key [Txn]s merge the components of
      their keys via union-find). Linearizability of a KV map is
      compositional over this partition, so each component is checked —
      and shrunk — independently.
    - {b Memoized search}: a configuration is the pair (set of
      linearized ops, model state); every visited configuration is
      cached, so the search never re-explores an equivalent frontier
      reached through a different interleaving.

    Real-time order comes from the recorded intervals: the next
    linearized op may be any un-linearized op invoked no later than the
    earliest return among un-linearized completed ops. [Fail] ops are
    excluded (they never executed); [Info] ops are optional and
    unconstrained at the end of the search — they may have taken effect
    at any point after their invocation, or never.

    The search carries a configuration budget and returns {!Unknown}
    rather than hanging when a history is too adversarial to decide —
    callers must treat [Unknown] as "no verdict", never as a failure. *)

type verdict =
  | Linearizable
  | Non_linearizable of History.op list
      (** A minimal non-linearizable sub-history of one offending
          component, shrunk with ddmin under a grounding side-condition
          (the writer of every observed value stays in the witness). *)
  | Unknown of string  (** budget exhausted; the reason is human-readable *)

type report = {
  r_verdict : verdict;
  r_components : int;  (** per-key components checked (histories) *)
}

val check : ?max_steps:int -> History.op list -> report
(** The verdict, with coverage counters for gauges. [max_steps] (default
    2,000,000) is the configuration budget; a small one is the cheap way
    to reach {!Unknown}. *)
