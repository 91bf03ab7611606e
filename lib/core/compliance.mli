(** Memoized per-core constraint verdicts — the incremental-pruning
    cache behind {!Session.candidates}.

    The paper's re-assessment rule ("when the independent set is
    modified, the dependent set needs to be re-assessed") already names
    exactly which constraints a binding change can affect: those whose
    declared independent/dependent sets mention the changed property.
    This table exploits that: every elimination verdict ([Eliminate]
    closure applied to one core) is memoized under the constraint's
    {e state key} — its name plus the value (or absence) of every
    property it mentions — so a binding change moves only the keys of
    the constraints it re-opens, and verdicts of untouched constraints
    survive across decisions, retractions and exploration branches.
    Re-entering a visited state reproduces its keys, so the survivor
    cache (keyed by them) serves the revisit without a sweep.

    Verdicts are stored {e columnar}: two bits per core (unknown /
    inferior / kept), sixteen cores per word of a flat [int array]
    indexed by the index's dense core id.  A warm sweep therefore reads
    one word per (constraint, 32 cores) via {!Slot.peek_word} and
    combines it with the survivor bitset branchlessly; the
    fault-recording fallback reads single verdicts through
    {!Slot.peek}.  Survivor sets are cached as {!Bitset} words over the
    dense-id universe — see {!type:survivors}.

    Correctness contract: a constraint closure must only read properties
    it declares in its independent or dependent set.  (This is the same
    contract {!Consistency} documents for the partial order; a closure
    that reads undeclared properties can observe a binding change that
    never moves its state key.)  The equivalence test suite checks the
    cached path against the naive recompute for all shipped case
    studies.

    A key names its state exactly (it embeds the values, reals by their
    bits), so two exploration branches that bind a property differently
    never share verdicts; two that bind it alike share them rightly.

    Interaction with {!Guard} quarantine is conservative by
    construction: the session skips quarantined constraints {e before}
    consulting the table (their cached verdicts become unreachable), and
    the survivor-set key includes the quarantine state, so a set
    computed before a quarantine transition is never served after it.
    Faulted evaluations are never cached — a faulting closure re-runs
    (and re-strikes) on every query, exactly as on the naive path.

    One table serves a whole session lineage (created by
    [Session.create], shared by every derived session), like the guard
    registry.  Memory is bounded: each constraint keeps verdicts for a
    single (state key, focus) stamp — a store under another stamp
    drops the older verdicts — and the memo tables (survivors,
    summaries, signatures) are second-chance clock caches
    that evict one cold entry per insert past capacity (counted by the
    [dse_engine_*_evictions_total] telemetry) instead of resetting
    wholesale.  Eviction is always safe: each entry is a memo whose key
    determines its value, so a lost entry costs a recompute, never a
    wrong answer.

    {2 Concurrency}

    The table is internally synchronized: since the exploration service
    stopped serializing requests globally, concurrent requests (on
    separate domains) can query the same lineage at once.  The sweep
    protocol is snapshot-and-merge: {!slot} pre-grows the verdict
    buffer to the whole universe under the lock, the sweep
    itself reads a {!Slot.view} locklessly (and in parallel chunks, see
    {!Parallel}), and buffered new verdicts are written back in one
    {!Slot.merge_bits}, which drops them if the stamp
    moved mid-sweep.  Two sweeps racing at the same stamp write
    identical (deterministic) verdicts, so the merge is idempotent;
    lockless readers see each word atomically (array elements never
    tear). *)

type t

val create : unit -> t

(** One constraint's verdict table, resolved (and restamped) once per
    query so the per-core cost is an array read by dense id. *)
module Slot : sig
  type t

  val codes_per_word : int
  (** Sixteen two-bit verdicts per word; a 32-bit {!Bitset} word spans
      exactly two verdict words. *)

  val view : t -> int array
  (** The verdict buffer as of slot resolution.  Stable for the query:
      {!slot} grows it to cover the declared [universe], so no
      concurrent query reallocates it mid-sweep.  Words written by a concurrent merge at the same
      stamp are identical to what this sweep would compute; a
      concurrent invalidation only resets the handle's buffer to
      unknowns (forcing recomputes, never wrong verdicts). *)

  val peek : int array -> id:int -> bool option
  (** The memoized verdict on core [id] in a view ([Some true] =
      inferior); pure, lock-free.  Out-of-range ids read as unknown. *)

  val peek_word : int array -> w:int -> int * int
  (** [(known, inferior)] 32-bit masks for cores [32w, 32w + 32): bit
      [b] of [known] is set iff core [32w + b] has a memoized verdict,
      and of [inferior] iff that verdict is "inferior".  Pure,
      lock-free; out-of-range words read as all-unknown. *)

  val merge_bits :
    t -> touched:Bitset.t -> inferior_bits:Bitset.t -> hits:int -> misses:int -> unit
  (** Write a sweep's buffered verdicts back and add its lookup
      counters to the stats.  [touched] and [inferior_bits] are bitsets
      over the dense-id universe: bit [id] of [touched] marks a fresh
      verdict on core [id] (faults must not be among them), inferior
      iff the same bit of [inferior_bits] is set.  Each 32-id word
      updates its two verdict words with a constant number of logical
      ops.  If the slot was restamped since the handle was resolved,
      the verdicts are dropped — they describe another state — but the
      counters still count. *)
end

val slot : universe:int -> t -> cc:string -> stamp:string -> Slot.t
(** The verdict table of constraint [cc] stamped [stamp] — sessions
    pass the focus and the constraint's state key, which together fix
    every verdict.  A stamp different from the stored one drops the
    constraint's previous verdicts first (latest-state-wins: interactive
    exploration revisits the current state, not past ones).  The
    returned view covers every id below [universe] — sessions pass the
    index size. *)

(** {2 Survivor sets} *)

(** A survivor set: the bitset is authoritative (bit = dense id
    survives); the count is a lazily memoized popcount. *)
type survivors = {
  sv_bits : Bitset.t;
  mutable sv_count : int;  (** -1 until first computed *)
}

val find_survivor_set : t -> key:string -> survivors option
(** The cached candidate set for a full session state signature. *)

val store_survivor_bits : t -> key:string -> Bitset.t -> survivors
(** Wraps [bits] (over the dense-id universe) with an unevaluated count
    memo and caches it; returns the wrapper so the storing query can
    reuse the memo it fills. *)

val survivor_count : survivors -> int
(** Popcount, memoized (idempotent under racing writers). *)

val find_summary : t -> key:string -> Evaluation.merit_summary option
(** The cached merit summary for a (state signature, merit) key —
    merits are immutable per core and the candidate set is a function
    of the signature, so a revisited state's summary is served without
    re-folding the surviving pool.  Bounded like the survivor table. *)

val store_summary : t -> key:string -> Evaluation.merit_summary -> unit

val find_signature : t -> key:string -> string option
(** The cached candidate-signature digest for an observable-state key.
    The digest hashes every surviving core id; the memo spares a
    revisited state that whole-pool walk while returning exactly the
    bytes the full computation produced (journal replay stays
    bit-identical).  Bounded like the survivor table. *)

val store_signature : t -> key:string -> string -> unit

(** Cache effectiveness counters (reported by the bench baseline). *)
type stats = {
  verdict_hits : int;
  verdict_misses : int;  (** includes first-ever evaluations *)
  survivor_hits : int;
  survivor_misses : int;
  evictions : int;  (** clock-cache evictions across the three memos *)
}

val stats : t -> stats

val hit_rate : stats -> float
(** Verdict-level hits / lookups, 0. when no lookups happened. *)
