(** The evaluation space (Figs 2(c), 3(b), 9, 12): design points plotted
    by figures of merit, with the dominance and range queries the layer
    offers during pruning.

    Both axes are minimised (delay, area, power, cost...). *)

type point = { label : string; x : float; y : float }

val point : label:string -> x:float -> y:float -> point

val of_cores :
  x:string -> y:string -> (string * Ds_reuse.Core.t) list -> point list
(** Project cores onto two merit axes; cores missing either merit are
    skipped.  Labels are core names. *)

val dominates : point -> point -> bool
(** [dominates a b]: a is no worse on both axes and strictly better on
    at least one. *)

val pareto_front : point list -> point list
(** Non-dominated subset, in ascending [x] order (ties broken by [y]).
    Sort-and-sweep, O(n log n).  Exact duplicates do not dominate each
    other, so both survive; points with a NaN coordinate are never
    dominated and always appear on the front. *)

val dominated : point list -> point list
(** The complement of the front, original order. *)

val range : float list -> (float * float) option
(** (min, max); [None] on the empty list. *)

val merit_range : (string * Ds_reuse.Core.t) list -> merit:string -> (float * float) option
(** The range summary the layer shows the designer after each pruning
    step ("critical information on the set of reusable designs that do
    comply ... including ranges of performance").  Cores whose merit is
    NaN or infinite are skipped — they would otherwise poison the whole
    range through [Float.min]/[Float.max]. *)

type merit_summary = {
  merit_range : (float * float) option;  (** over the finite values only *)
  skipped_non_finite : int;  (** cores whose merit was NaN or infinite *)
  missing : int;  (** cores that do not carry the merit at all *)
}

val merit_summary : (string * Ds_reuse.Core.t) list -> merit:string -> merit_summary
(** {!merit_range} plus the census of what was left out of it. *)

val merit_summary_columnar :
  Columnar.t -> Bitset.t -> merits:string list -> merit_summary list
(** The same summary for each of [merits], in order, over a survivor
    bitset and the index's flat merit columns — one word-at-a-time pass
    over the bitset for all of them, no candidate list materialized, no
    per-core property walk.  Each result is identical to
    [merit_summary] over the bitset's materialized entries (an absent
    column counts every survivor as missing). *)

val normalize : point list -> point list
(** Rescale both axes to [0, 1] (used before clustering); a degenerate
    axis maps to 0. *)

val pp_point : Format.formatter -> point -> unit
