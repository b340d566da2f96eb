(** Square accumulation matrix of bytes.

    Used for the inter-hive traffic matrices of the paper's Figure 4(a-c).
    Row = source hive, column = destination hive. *)

type t

val create : int -> t
val size : t -> int

val grow : t -> int -> unit
(** [grow t n] widens the matrix to [n] hives, preserving accumulated
    bytes. No-op if already that size; matrices never shrink. *)

val add : t -> src:int -> dst:int -> bytes:int -> unit
(** Accounts one message of [bytes] bytes from [src] to [dst]. *)

val bytes : t -> src:int -> dst:int -> float

val total_bytes : t -> float

val off_diagonal_bytes : t -> float
(** Bytes between distinct hives (the remote traffic). *)

val locality_fraction : t -> float
(** Diagonal bytes / total bytes; 1.0 when all traffic is hive-local.
    Returns 1.0 for an empty matrix. *)

val hotspot_share : t -> float
(** The largest share of total bytes that touches (as source or
    destination) a single hive, counting diagonal once. 1.0 means fully
    centralized on one hive. Returns 0.0 for an empty matrix. *)

val hotspot_hive : t -> int
(** The hive realizing {!hotspot_share}. *)

val row_bytes : t -> int -> float
val col_bytes : t -> int -> float

val merge_into : dst:t -> t -> unit
(** Adds all cells of the source matrix into [dst]. Sizes must match. *)

val reset : t -> unit

val render : Format.formatter -> t -> unit
(** ASCII heat map ('.', digits and '#' by decade of bytes), one character
    per cell, mimicking the figure panels. *)
