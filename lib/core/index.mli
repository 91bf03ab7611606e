(** Indexing of reusable cores under the CDO hierarchy.

    Cores residing in reuse libraries are "points" of the design space;
    the hierarchy is "a basic schema for classifying and indexing
    families of cores" (Section 4).  A core is indexed under the deepest
    CDO whose chain of generalized-issue options matches the core's
    property bindings: a hardware Montgomery multiplier lands on the
    OMM-HM leaf, a software routine on the Software subtree, and a core
    that does not declare some issue stays at the last node it
    matched.

    The index holds each indexed (qualified id, core) pair once, in the
    {!Columnar} store's entry array; a trie node is a mask of dense ids
    over that array, so every list below is built afresh from a mask
    and shares the stored pairs. *)

type t

val build : Hierarchy.t -> (string * Ds_reuse.Core.t) list -> t
(** [build hierarchy cores] indexes qualified-id/core pairs (typically
    {!Ds_reuse.Registry.all_cores}). *)

val path_of : t -> qualified_id:string -> string list option
(** The node a core is indexed under. *)

val under : t -> string list -> (string * Ds_reuse.Core.t) list
(** All cores indexed at or below the given node path, in insertion
    order; every indexed core for the empty path, none for a path that
    names no node. *)

val at : t -> string list -> (string * Ds_reuse.Core.t) list
(** Cores indexed exactly at the node, in insertion order (none for
    the empty path). *)

val count_under : t -> string list -> int
(** [List.length (under t path)], by popcount of the node's mask. *)

val all : t -> (string * Ds_reuse.Core.t) list
(** Every indexed core (orphans excluded), in insertion order. *)

val unindexed : t -> (string * Ds_reuse.Core.t) list
(** Cores whose root-level generalized option did not match any child —
    they fall outside the modelled design space (e.g. a DSP core in a
    multiplier layer).  Not returned by {!under}. *)

(** {2 Dense-id (columnar) view}

    Every indexed entry carries a dense id in [0, size) — its insertion
    order — which is the index into the {!Columnar} store and the one
    id space of the columnar sweep: its pool masks, verdict slots and
    survivor bitsets all use it, and so do the trie's node masks.
    [under] lists a node's entries in ascending-id order, so a bitset
    materialized in ascending-id order reproduces [under]'s list order
    exactly. *)

val size : t -> int
(** Number of indexed entries (orphans excluded). *)

val under_bits : t -> string list -> Bitset.t
(** The dense ids of [under t path] as a mask over [0, size) — a fresh
    copy of the mask each trie node carries, so the caller may clear
    bits in place.  For the empty path and for the root node every bit
    is set. *)

val entry_at : t -> int -> string * Ds_reuse.Core.t
(** The (qualified id, core) entry of a dense id — the pair passed to
    {!build} and the same physical pair [under] lists, so materializing
    a survivor set allocates only the list cells. *)

val columnar : t -> Columnar.t
(** The flat per-property/per-merit columns over the indexed entries,
    built once with the trie and shared by every session lineage. *)
