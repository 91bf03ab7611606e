(** Consistency constraints (CCs) — the single modelling construct the
    paper uses for ordering and consistency relationships among
    properties (Section 4, Fig 13).

    A CC has an independent property set, a dependent property set and a
    relation.  The dependent set can only be addressed after the
    independent set; when an independent property changes, dependent
    bindings must be re-assessed.  Four relation forms cover the paper's
    examples:

    - {e inconsistent options} (CC1): a predicate over current bindings
      that flags forbidden combinations;
    - {e quantitative} (CC2): derive dependent values from independent
      ones by a stated formula;
    - {e estimator context} (CC3): declare that an early estimation tool
      produces the dependent metric from the independent property;
    - {e elimination} (CC4): mark cores implementing dominated/inferior
      combinations so the layer drops them from consideration. *)

(** Read access to the session's current bindings during evaluation. *)
type env = {
  value : Propref.t -> Value.t option;
      (** resolve a reference against the current bindings; [None] when
          unbound or not applicable at the current focus *)
  value_of : string -> Value.t option;  (** shorthand: by property name *)
  focus : string list;  (** the session's current node path *)
}

type eliminate_kernel = env -> Columnar.t -> (int -> int -> int) option
(** Optional vectorized form of an elimination predicate, resolved
    once per sweep against the layer's columnar store ([None]: the
    sweep calls the per-core closure).  The result is a word kernel:
    [k w want] returns which of the set bits of [want] (bit [b] is id
    [32w + b]) are inferior; the sweep masks it with [want].  Presence
    is a word AND with {!Columnar.merit_column}'s presence bitsets.
    Contract: verdicts agree with [inferior] on every core, by the same
    floating-point operations in the same order, so cached verdicts and
    candidate signatures stay bit-identical whichever path computed
    them.  Kernels must be total, straight-line column math: they run
    outside {!Guard}'s step budget (an exception still only aborts the
    sweep to the recording fallback, but a non-terminating kernel
    hangs). *)

type relation =
  | Inconsistent of { violated : env -> bool }
      (** true = the current bindings hit a forbidden combination *)
  | Derive of { compute : env -> (string * Value.t) list }
      (** dependent property values implied by the independent ones
          (empty when inputs are missing) *)
  | Estimator_context of { tool : string; estimate : env -> (string * float) list }
      (** the tool and the metric values it produces in this context *)
  | Eliminate of {
      inferior : env -> Ds_reuse.Core.t -> bool;
      vectorized : eliminate_kernel option;
    }
      (** [inferior]: true = this core is an inferior solution under the
          current bindings and must be dropped.  [vectorized]: the
          optional column-sweep fast path (see
          {!type:eliminate_kernel}). *)

val eliminate :
  ?vectorized:eliminate_kernel -> (env -> Ds_reuse.Core.t -> bool) -> relation
(** [Eliminate { inferior; vectorized }] without spelling the record
    out — what layer modules construct. *)

type t = private {
  name : string;  (** "CC1", "CC2", ... *)
  doc : string;  (** the paper's comment line *)
  indep : Propref.t list;
  dep : Propref.t list;
  relation : relation;
}

val make :
  name:string ->
  ?doc:string ->
  indep:Propref.t list ->
  dep:Propref.t list ->
  relation ->
  (t, string) result
(** Rejects an empty name and an empty independent set. *)

val make_exn :
  name:string -> ?doc:string -> indep:Propref.t list -> dep:Propref.t list -> relation -> t

val ready : t -> bound:(Propref.t -> bool) -> bool
(** All independent references bound: the dependent set may be
    addressed. *)

val governs : t -> property:string -> bool
(** Is the property in the dependent set (by name)? *)

val dep_properties : t -> string list
(** The dependent properties by name, deduplicated and sorted (what a
    [Derive] computes, an [Estimator_context] measures). *)

val empty_env : env
(** An environment with no bindings and an empty focus — what a closure
    sees before any designer input (used by lint probes and tests). *)

val relation_kind : t -> string
(** "inconsistent-options" | "derive" | "estimator" | "eliminate". *)

type violation = { constraint_ : t; message : string }

val check : t -> env -> violation option
(** Evaluate an [Inconsistent] relation; [None] for other kinds or when
    not violated. *)

val pp : Format.formatter -> t -> unit
(** Fig 13 style: comment, Indep_Set, Dep_Set, Relation. *)
