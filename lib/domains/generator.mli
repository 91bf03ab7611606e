(** Parameterised synthetic-layer generator for large-scale sweep
    studies.

    Where {!Synthetic} grows a deep generalization hierarchy with fixed
    per-core merit math, this generator holds the hierarchy shallow (one
    generalized family decision over [branching] leaf families) and
    instead parameterises the dimensions that drive columnar-sweep cost:
    the core population, the cardinality of the interned property
    columns, the number of merit columns, and the fan-in of each
    elimination constraint (how many merit columns it mixes).  All
    randomness flows from one seeded {!Ds_bignum.Prng}, so a spec is a
    complete, reproducible description of a layer — equal specs generate
    bit-identical layers, which is what lets the equivalence suite run
    columnar-vs-naive differentials on generated populations.

    Every elimination constraint carries both a per-core closure and a
    word kernel ({!Ds_layer.Consistency.eliminate_kernel}) built from
    the same weighted-sum loop, so layers from this generator exercise
    the kernel fast path of the columnar sweep while remaining
    bit-comparable to the naive per-core path. *)

type spec = {
  cores : int;  (** population size *)
  branching : int;  (** leaf families under the root (>= 2) *)
  plain_issues : int;  (** non-generalized issues at the root *)
  cardinality : int;  (** options per plain issue (>= 2) *)
  merits : int;  (** merit columns m0..m{n-1} per core (>= 1) *)
  fanin : int;  (** merit columns each elimination constraint mixes (>= 1) *)
  ccs : int;  (** elimination constraints, each with its own budget *)
  seed : int;
}

val default_spec : spec
(** 2000 cores, branching 4, 2 plain issues x 4 options, 4 merits,
    fan-in 3, 4 elimination constraints, seed 11. *)

val gen100k_spec : spec
(** [default_spec] at 10^5 cores — the speedup-gate size of the sweep
    bench. *)

val gen1m_spec : spec
(** [default_spec] at 10^6 cores — the million-core layer of the sweep
    bench's headline phase. *)

val family_issue : string
(** ["G1"] — the root's generalized issue (the core family). *)

val budget_name : int -> string
(** ["GB0"], ["GB1"], ... — the requirement the i-th elimination
    constraint checks its score against. *)

val merit_name : int -> string
(** ["m0"], ["m1"], ... *)

val weight : int -> int -> float
(** [weight i f]: the fixed mixing weight of constraint [i]'s [f]-th
    merit term (a deterministic pattern in [0.25, 1.125]). *)

val hierarchy : spec -> Ds_layer.Hierarchy.t
(** Root ["Gen"] holding the budget requirements, the plain issues and
    the generalized family issue, with one leaf per family.
    @raise Invalid_argument on a malformed spec. *)

val constraints : spec -> Ds_layer.Consistency.t list
(** [ccs] elimination constraints GEL0..GEL{n-1}.  GEL[i] drops a core
    when the weighted sum of [fanin] of its merits (columns rotated by
    [i]) exceeds the bound entered for {!budget_name}[ i].  Each carries
    a word kernel that keeps the cores lacking a merit (a word AND of
    the presence bitsets) and runs the identical floating-point loop
    over the flat merit columns for every other id of the word. *)

val cores : spec -> (string * Ds_reuse.Core.t) list
(** The seeded population: core [i] is ["g-%07d"], binds the family
    issue and every plain issue to uniformly-drawn options, and carries
    [merits] figure-of-merit values correlated with its family.  The
    draw order (family, plain options, merits) is fixed — equal specs
    yield bit-identical core lists. *)

val session : ?use_cache:bool -> spec -> Ds_layer.Session.t
(** Hierarchy + constraints + cores assembled into a session
    ([use_cache] as in {!Ds_layer.Session.create}). *)
