(** Fixed-length bitsets over [int array] words (32 payload bits per
    word) — the survivor-set and sweep-mask representation of the
    columnar engine.

    32 bits per word (not the full 63 an OCaml int offers) so one
    bitset word corresponds to exactly two packed two-bit verdict words
    of {!Compliance.Slot}; the sweep converts between the two with
    {!spread16}/{!unspread16} instead of per-core stores.

    Mutation is unsynchronized: a bitset shared between domains must be
    synchronized by its callers.  Reads/writes of a single word are
    atomic (OCaml guarantees no tearing on array elements). *)

type t

val bits_per_word : int
(** 32. *)

val create : int -> t
(** All-zero bitset of the given length (>= 0). *)

val create_full : int -> t
(** All-one bitset; trailing bits of the last word stay zero. *)

val length : t -> int

val word_count : t -> int
(** Number of backing words, [ceil (length / 32)]. *)

val mem : t -> int -> bool
(** Unchecked: the index must be within [0, length). *)

val set : t -> int -> unit
val clear : t -> int -> unit

val word : t -> int -> int
(** The 32-bit payload of word [w] (unchecked). *)

val set_word : t -> int -> int -> unit
(** Replace word [w]; payload is masked to 32 bits. *)

val popcount32 : int -> int
(** Set bits in a 32-bit payload. *)

val count : t -> int
(** Total set bits. *)

val iter_true : (int -> unit) -> t -> unit
(** Set indices in ascending order — how bitset survivor sets
    materialize into candidate lists in index (insertion) order. *)

val filter_in_place : (int -> bool) -> t -> unit
(** Clear every set index [i] for which [p i] is false. *)

val fold_true : ('a -> int -> 'a) -> 'a -> t -> 'a

val map_true : (int -> 'a) -> t -> 'a list
(** [f i] for every set index, in ascending order of [i], with one
    cons per element (no intermediate reversed list). *)

val take_true : t -> int -> int list
(** The first [k] set indices, ascending; stops walking once it has
    them, so a short page of a large set reads only its first words. *)

val iter_runs : (int -> int -> unit) -> t -> unit
(** [f lo hi] for every maximal run [\[lo, hi)] of consecutive set
    indices, in ascending order.  Runs crossing word boundaries are
    reported whole. *)

val equal : t -> t -> bool
(** Same length and same bits. *)

val copy : t -> t

val of_ids : length:int -> int array -> t

val spread16 : int -> int
(** Low 16 bits to the even positions of a 32-bit word. *)

val unspread16 : int -> int
(** Even positions of a 32-bit word back to the low 16 bits. *)
