(** An exploration session: the designer-facing workflow of the design
    space layer.

    A session walks one hierarchy with one population of indexed cores.
    The designer enters requirement values from the system spec (Fig 8),
    then addresses design issues one by one.  Each decision prunes the
    space: deciding the focus node's {e generalized} issue descends the
    focus into the chosen specialization (Fig 3's traversal), and every
    decision narrows the set of complying cores, whose figure-of-merit
    ranges can be queried at any time.  Consistency constraints are
    enforced throughout: they impose the partial order in which issues
    may be addressed, reject inconsistent option combinations, derive
    implied values, eliminate inferior cores, and invalidate dependent
    bindings when an independent one is retracted.

    Sessions are immutable values: every operation returns a new
    session, so exploration branches can be compared side by side (the
    trade-off exploration the paper emphasises).

    {2 Guarded constraint evaluation}

    Constraint closures are layer-author code and may misbehave; every
    invocation runs under {!Guard.run}, so no session operation raises
    because of a faulty CC and non-finite derived/estimated values are
    rejected.  Faults accumulate per constraint in a health registry
    shared by every session derived from the same {!create} (quarantine
    is monotone across exploration branches: a faulty closure is faulty
    on all of them).  A quarantined CC is excluded with conservative
    semantics: [Eliminate] keeps all cores, [Inconsistent] warns (via
    the diagnostics) instead of rejecting, [Derive]/[Estimator_context]
    are skipped — the designer keeps working with a sound-but-wider
    space.  Fault-free sessions behave exactly as before guarding. *)

type source = Designer | Default_value | Derived of string

type binding = private {
  defined_at : string list;  (** node path defining the property *)
  prop : Property.t;
  value : Value.t;
  source : source;
}

type event =
  | Requirement_entered of { name : string; value : Value.t }
  | Decision_made of { name : string; value : Value.t }
  | Focus_descended of {
      path : string list;
      candidates_before : int;
      candidates_after : int;
    }
  | Binding_derived of { name : string; value : Value.t; by : string }
  | Binding_retracted of { name : string; invalidated : string list }
  | Note of string
  | Constraint_faulted of { name : string; op : string; detail : string }
      (** a constraint closure misbehaved during [op] ("check",
          "derive", "estimate" or "eliminate") but is still evaluated *)
  | Constraint_quarantined of { name : string; op : string; reason : string }
      (** the fault pushed the constraint into quarantine; it is
          excluded from evaluation from here on *)

type t

val create :
  hierarchy:Hierarchy.t ->
  ?constraints:Consistency.t list ->
  ?use_cache:bool ->
  cores:(string * Ds_reuse.Core.t) list ->
  unit ->
  t
(** A fresh session focused at the hierarchy root with the given core
    population (typically {!Ds_reuse.Registry.all_cores}).

    [use_cache] (default [true]) enables the incremental pruning cache:
    elimination verdicts and survivor sets are memoized in a
    {!Compliance} table shared by the session lineage, and invalidated
    per constraint when a binding of a property it declares changes (see
    the "Performance model" section of DESIGN.md).  The eliminate sweep
    runs over the index's flat property/merit columns with bitset
    survivor sets and packed word-at-a-time verdict reads; constraints
    may contribute vectorized kernels (see {!Consistency.eliminate}).
    [~use_cache:false] recomputes everything from scratch on every
    query with per-core closures over a candidate list — the reference
    path the equivalence suite checks the cache against. *)

val pristine : t -> t
(** A fresh session over an existing session's layer: shares the
    immutable structure (hierarchy, constraints and the built candidate
    index — the expensive part of {!create}) and nothing else.  Focus
    returns to the root; bindings, trail, guard registry and compliance
    cache start empty, so the result is observably
    identical to a new {!create} over the same inputs.  The exploration
    service uses this to hand each session a private lineage from one
    cached parsed layer. *)

val hierarchy : t -> Hierarchy.t
val focus : t -> string list
val focus_cdo : t -> Cdo.t
val bindings : t -> binding list
val binding : t -> string -> binding option
val value_of : t -> string -> Value.t option
val events : t -> event list
(** Oldest first — the session's self-documentation trail.  Guard
    diagnostics ([Constraint_faulted] / [Constraint_quarantined]) are
    appended after the session's own events, in fault order, because
    they may also be recorded by read-only queries ({!candidates},
    {!estimates}) that return no new session. *)

val health : t -> (string * Guard.status) list
(** Per-constraint health, one entry per constraint in declaration
    order.  All [Healthy] unless a closure has faulted. *)

val diagnostics : t -> Guard.diag list
(** Every guard fault recorded by this session lineage, oldest first. *)

val env : t -> Consistency.env
(** The constraint-evaluation view of the current bindings. *)

val set : t -> string -> Value.t -> (t, string) result
(** Bind a requirement or decide a design issue.  Errors when: the
    property is not visible at the focus, already bound, the value is
    outside its domain, a governing constraint's independent set is not
    yet addressed (partial order; requirements are exempt), or the
    binding would violate an inconsistent-options constraint.  Deciding
    the focus node's generalized issue descends the focus.  Implied
    values are then derived to a fixpoint. *)

val set_default : t -> string -> (t, string) result
(** Bind a property to its declared default. *)

val annotate : t -> string -> t
(** Append a free-form note to the exploration trail (shows up in
    {!pp_trace} and in reports). *)

val retract : t -> string -> (t, string) result
(** Remove a designer-made binding.  Derived bindings are re-assessed
    from scratch (the paper's "when the independent set is modified, the
    dependent set needs to be re-assessed"); retracting a generalized
    decision pops the focus back and drops every binding that is no
    longer visible. *)

val population : t -> (string * Ds_reuse.Core.t) list
(** Every core indexed in the hierarchy, regardless of the current
    focus and decisions (the session's full design space). *)

val candidates : t -> (string * Ds_reuse.Core.t) list
(** Cores indexed at or below the focus that comply with every bound
    design issue and survive the elimination constraints.  Served from
    the compliance cache when enabled; a faulting elimination closure
    still re-runs (and accumulates strikes) on every query, and
    quarantined constraints are skipped before the cache is consulted. *)

val candidates_naive : t -> (string * Ds_reuse.Core.t) list
(** The uncached reference computation, regardless of [use_cache]: every
    ready elimination closure runs against every core under the focus.
    The equivalence suite and the bench baseline compare {!candidates}
    against this. *)

val candidate_count : t -> int

val candidate_page : t -> max:int option -> int * string list
(** [(count, ids)]: the number of {!candidates} and the qualified ids
    of the first [max] of them, in {!candidates} order ([None] or a
    negative [max] pages everything).  Equal to
    [List.length (candidates t)] and the first [max] ids of
    [candidates t], but a cached columnar session answers the count by
    popcount and the page by a walk that stops after [max] survivors,
    so a short page of a large set never builds the candidate list. *)

val cache_stats : t -> Compliance.stats
(** Hit/miss counters of the lineage's compliance cache (all zero when
    [use_cache] is false and nothing was ever cached). *)

val merit_range : t -> merit:string -> (float * float) option
(** Range of a figure of merit over the current candidates (non-finite
    merit values are skipped, see {!Evaluation.merit_range}). *)

val merit_summaries : t -> merits:string list -> Evaluation.merit_summary list
(** Per merit, in order: the range plus how many candidates were
    skipped (non-finite merit) or carry no such merit.  The merits the
    per-state memo misses share one pass over the survivor set. *)

val merit_summary : t -> merit:string -> Evaluation.merit_summary
(** The one-merit case of {!merit_summaries}. *)

(** The outcome of tentatively choosing one option of a design issue. *)
type option_preview = {
  option_value : string;
  outcome : [ `Explored of int * (float * float) option | `Rejected of string ];
      (** [`Explored (candidates, merit range)] for a consistent choice,
          [`Rejected reason] when a constraint forbids it *)
}

val preview_options : t -> issue:string -> merit:string -> (option_preview list, string) result
(** Try every option of an enumerated design issue without committing
    and report the family each would leave — the paper's trade-off
    guidance ("consider the performance ranges ... for each such
    alternatives") made explicit.  Errors when the issue is not visible,
    already bound, or not enumerated. *)

val open_issues : t -> (Property.t * bool) list
(** Unbound design issues visible at the focus, paired with their
    eligibility (true = every governing constraint's independent set is
    addressed, so the issue may be decided now). *)

val violations : t -> Consistency.violation list
(** Inconsistent-options constraints violated by the current bindings
    (can only be non-empty after retractions re-expose a conflict). *)

val estimates : t -> (string * (string * float) list) list
(** Estimator-context constraints whose independent sets are bound:
    [(tool name, metric values)] — the paper's "estimation replaces
    retrieval" path (CC3). *)

val candidate_signature : t -> string
(** A stable hex digest of the session's designer-visible state: the
    focus path, every binding (name, value and source, sorted), and the
    surviving candidate ids in index order.  Two sessions over the same
    hierarchy, constraints and population have equal signatures exactly
    when a designer could not tell them apart by querying focus,
    bindings or candidates — the check the exploration service's
    journal replay is verified against (see {!Ds_serve.Journal}).
    Cache internals (constraint state keys, hit counters) never enter
    the digest, so a cached and an uncached lineage that agree on the
    visible state sign identically. *)

val script : t -> (string * Value.t) list
(** The designer-made bindings in the order they were entered —
    a replayable script of the exploration (derived bindings are
    omitted; they re-derive on replay). *)

val replay : t -> (string * Value.t) list -> (t, string) result
(** Apply a script with {!set}, stopping at the first error.
    [replay fresh (script s)] reproduces [s]'s focus, bindings and
    candidates when [fresh] shares the hierarchy, constraints and core
    population. *)

val pp_trace : Format.formatter -> t -> unit
(** Human-readable session log. *)
