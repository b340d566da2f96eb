(** CRC-32 (zlib polynomial), table-driven, pure OCaml.

    Used to frame every durable artifact in the simulator: WAL records,
    snapshots, and Raft log entries carry a stored CRC computed at write
    time that recovery and the background scrub re-verify. *)

val string : string -> int
(** [string s] is the CRC-32 of [s]. [string "123456789" = 0xCBF43926]. *)
