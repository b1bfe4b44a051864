(** 64-bit FNV-1a string hashing: the fuzz trace hash, the replicated
    store digest and the multi-ring shard map. *)

val offset : int64
(** The FNV-1a offset basis: the hash of the empty string. *)

val string : int64 -> string -> int64
(** [string h s] folds the bytes of [s] into the running hash [h]. *)
