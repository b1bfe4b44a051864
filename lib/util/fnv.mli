(** 64-bit FNV-1a string hashing: the fuzz trace hash, the replicated
    store digest and the multi-ring shard map. *)

val offset : int64
(** The FNV-1a offset basis: the hash of the empty string. *)

val string : int64 -> string -> int64
(** [string h s] folds the bytes of [s] into the running hash [h].

    Allocation: one boxed [int64] for the result, whatever the length
    of [s]; the fold itself allocates nothing per byte. The result is
    bit-identical to the plain per-byte fold
    [h := (h lxor byte) * 0x100000001B3] over [s] in order, so digests,
    shard maps and pinned trace hashes do not depend on this module's
    implementation. *)
