(** Synthetic design space layers for scalability studies.

    The paper claims the layer organisation "is thus easily scalable";
    this generator produces layers of controllable size so the claim can
    be measured: a complete generalization hierarchy of given depth and
    branching, a configurable number of plain design issues per node,
    and a core population with deterministic pseudo-random property
    bindings and figures of merit. *)

type spec = {
  depth : int;  (** levels of generalized issues (>= 1) *)
  branching : int;  (** options per generalized issue (>= 2) *)
  plain_issues : int;  (** non-generalized issues per internal node *)
  options_per_issue : int;  (** options of each plain issue (>= 2) *)
  cores : int;  (** population size *)
  seed : int;
  eliminate_ccs : int;
      (** elimination constraints (each with its own root-level budget
          requirement); 0 = the pre-constraint layer, unchanged *)
}

val default_spec : spec
(** depth 3, branching 3, 2 plain issues x 4 options, 1000 cores,
    seed 7, no elimination constraints. *)

val hierarchy : spec -> Ds_layer.Hierarchy.t
(** The synthetic hierarchy ([branching^depth] leaves).  With
    [eliminate_ccs > 0] the root additionally declares the budget
    requirements [B0..B{n-1}].
    @raise Invalid_argument on a malformed spec. *)

val cores : spec -> (string * Ds_reuse.Core.t) list
(** Cores with uniformly-drawn option bindings for every issue and two
    merits ("delay", "cost") correlated with the chosen options, so
    pruning and ranges behave like a real population. *)

val budget_name : int -> string
(** ["B0"], ["B1"], ... — the requirement the i-th elimination
    constraint checks its score against. *)

val constraints : spec -> Ds_layer.Consistency.t list
(** [eliminate_ccs] elimination constraints EL0..EL{n-1}.  EL[i] drops a
    core when a damped 8-term series over its delay/cost merits exceeds
    the bound entered for {!budget_name}[ i] — per-core work comparable
    to the case studies' analytic elimination formulas, so benches
    exercise realistic pruning cost. *)

val session : ?use_cache:bool -> spec -> Ds_layer.Session.t
(** Hierarchy + constraints + cores assembled into a session
    ([use_cache] as in {!Ds_layer.Session.create}). *)

val random_walk : spec -> steps:int -> Ds_layer.Session.t
(** Descend [steps] generalized decisions (always the first option) —
    the hot pruning path, for benchmarks. *)
