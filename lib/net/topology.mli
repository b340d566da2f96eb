(** Dataplane topology.

    Models the switch graph the controllers manage. The paper's evaluation
    uses "a simple tree topology" of 400 switches; we provide a k-ary tree
    generator plus generic graph queries (paths, neighbours) used by the
    routing and traffic-engineering applications. *)

type t

type host = {
  host_id : int;
  mac : int64;
  attached_to : int;  (** switch id *)
  port : int;         (** port on the attachment switch *)
}

val tree : arity:int -> n_switches:int -> t
(** [tree ~arity ~n_switches] builds a complete-as-possible [arity]-ary
    tree rooted at switch 0. Switch ids are [0 .. n_switches-1] in
    breadth-first order. *)

val ring : n_switches:int -> t
(** A cycle: a chain ([tree ~arity:1]) plus a closing extra link — the
    smallest topology with two disjoint paths between any pair. *)

val n_switches : t -> int
val degree : t -> int -> int

val neighbors : t -> int -> int list
(** Adjacent switches: in a tree, the parent (absent at the root)
    followed by the children in id order. *)

val is_link : t -> int -> int -> bool

val path : t -> int -> int -> int list
(** [path t a b] is the unique switch path from [a] to [b] inclusive
    (via the lowest common ancestor in a tree). *)

val port_towards : t -> src:int -> dst:int -> int
(** The port number on [src] facing neighbour [dst]. Ports are numbered
    from 1 in the order of {!neighbors}; port 0 is the local/host port
    region (hosts use ports >= 100). Raises [Not_found] if not adjacent. *)

val attach_hosts : t -> per_switch:int -> host array
(** Attaches [per_switch] hosts to every switch. Host ids and MACs are
    deterministic functions of (switch, index); host ports start at 100. *)
