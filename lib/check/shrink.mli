(** Delta-debugging minimization of failing sequences.

    Classic ddmin over a list: repeatedly re-evaluates the predicate with
    chunks removed, keeping any strictly smaller list that still fails
    the same way, until the result is 1-minimal (no single element can be
    removed). The caller's predicate decides "still fails the same way" —
    for fault scripts "the same monitor is violated", for
    {!Lin} sub-histories "still a grounded linearizability violation" —
    so shrinking cannot wander onto an unrelated failure. *)

val minimize : still_fails:('a list -> bool) -> 'a list -> 'a list
(** [minimize ~still_fails xs] assumes [still_fails xs = true] and
    returns a subsequence that still satisfies the predicate. The result
    preserves the relative order of the surviving elements. *)
