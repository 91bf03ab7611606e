(** Columnar projection of an indexed core population — the data layout
    behind the tight-loop Eliminate sweep.

    One flat array per merit and per property, indexed by the dense
    core ids {!Index} assigns (entry insertion order).  Built once per
    layer by [Index.build] and shared immutably by every session
    lineage; vectorized elimination kernels
    ({!Consistency.eliminate_kernel}) read merit columns directly
    instead of probing each core's interned-key lookup per call. *)

type t

val build : (string * Ds_reuse.Core.t) array -> t
(** The store over (qualified id, core) entries; an entry's position is
    its dense id. *)

val length : t -> int

val entry : t -> int -> string * Ds_reuse.Core.t
(** The (qualified id, core) pair of a dense id, as passed to {!build}
    (the same physical pair, so reading it allocates nothing). *)

val qid : t -> int -> string
(** Qualified id of the core at a dense id. *)

val core : t -> int -> Ds_reuse.Core.t
(** The row view of a dense id (what per-core closures receive). *)

val digest_ids : t -> prefix:string -> Bitset.t -> Digest.t
(** The MD5 of [prefix] followed by ["#" ^ qid t i] for every set
    index [i] of the bitset, ascending — byte for byte what appending
    those strings to a [Buffer] and digesting its contents gives.  The
    build lays every ["#" ^ qid] out contiguously in id order, so each
    run of consecutive survivors costs one blit into a per-domain
    scratch buffer instead of one append per core.  The bitset must
    not be longer than the store. *)

val merit_column : t -> string -> (float array * Bitset.t) option
(** [(values, present)] for a merit name; absent bits mean the core
    does not carry the merit (its [values] slot is meaningless).  NaN
    values are stored as-is — presence is a separate bit precisely so
    NaN merits keep their "skipped, not missing" semantics.  [None]
    when no indexed core carries the merit. *)

val property_matches : t -> key:string -> value:string -> (int -> bool) option
(** A per-id predicate equivalent to
    [Core.matches_property (core t i) ~key ~value] — one integer
    compare per core.  [None] when no indexed core declares [key]
    (every core matches; callers skip the filter). *)
