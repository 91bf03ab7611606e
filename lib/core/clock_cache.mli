(** Bounded string-keyed cache with second-chance (clock) eviction.

    The compliance caches (survivor sets, merit summaries, signature
    digests) used to relieve memory pressure by
    resetting the whole table at a cap — every live entry lost at once.
    This replaces that valve: at capacity each insert evicts exactly
    one entry that has not been touched since the clock hand last
    passed it, so hot entries survive and churn is visible (each
    eviction fires [on_evict], which the compliance layer wires to a
    [dse_engine_*_evictions_total] counter).

    Eviction is always semantically safe for these caches: every entry
    is a memo whose key determines its value, so a lost entry costs a
    recompute, never a wrong answer.

    Not internally synchronized — callers hold their own lock. *)

type 'a t

val create : ?on_evict:(unit -> unit) -> capacity:int -> unit -> 'a t
(** [capacity >= 1]; [on_evict] fires once per evicted entry. *)

val find : 'a t -> string -> 'a option
(** Marks the entry recently-used (sets its reference bit). *)

val mem : 'a t -> string -> bool
(** Presence probe without touching the reference bit. *)

val store : 'a t -> string -> 'a -> unit
(** Insert or overwrite; at capacity evicts one cold entry first. *)

val length : 'a t -> int
val capacity : 'a t -> int

val evictions : 'a t -> int
(** Total entries evicted since creation. *)
