module Core = Ds_reuse.Core

type point = { label : string; x : float; y : float }

let point ~label ~x ~y = { label; x; y }

(* Per-element passes over the candidate list run chunked on the
   {!Parallel} pool when the population is large enough; chunk results
   concatenate in index order, so the output is the sequential one
   regardless of the pool size. *)
let chunked_filter_map f cores =
  let arr = Array.of_list cores in
  let n = Array.length arr in
  Parallel.map_chunks ~n (fun lo hi ->
      let acc = ref [] in
      for i = hi - 1 downto lo do
        match f arr.(i) with Some v -> acc := v :: !acc | None -> ()
      done;
      !acc)
  |> List.concat

let of_cores ~x ~y cores =
  chunked_filter_map
    (fun (_, core) ->
      match (Core.merit core x, Core.merit core y) with
      | Some vx, Some vy -> Some { label = core.Core.name; x = vx; y = vy }
      | None, _ | _, None -> None)
    cores

let dominates a b = a.x <= b.x && a.y <= b.y && (a.x < b.x || a.y < b.y)

let by_xy a b = match Float.compare a.x b.x with 0 -> Float.compare a.y b.y | c -> c

(* Sort-and-sweep, O(n log n).  After sorting by (x asc, y asc), walk
   the x-groups left to right carrying the minimum y seen in strictly
   earlier groups: a point is dominated exactly when that minimum is <=
   its y (an earlier-x, no-worse-y point) or a same-x point has strictly
   smaller y (the group's head).  Exact duplicates never dominate each
   other, so a whole group tied at its minimum survives — same
   semantics as the quadratic pairwise filter this replaces.  A point
   with a NaN coordinate neither dominates nor is dominated (every
   comparison is false), so NaN points bypass the sweep and always
   reach the front. *)
let pareto_front points =
  let nan_points, finite =
    List.partition (fun p -> Float.is_nan p.x || Float.is_nan p.y) points
  in
  let sorted = List.stable_sort by_xy finite in
  let rec sweep best_y acc = function
    | [] -> acc
    | p :: _ as pts ->
      let rec split group = function
        | q :: tl when Float.compare q.x p.x = 0 -> split (q :: group) tl
        | tl -> (List.rev group, tl)
      in
      let same_x, rest = split [] pts in
      let y0 = p.y in
      (* [same_x] is y-ascending, so [p] holds the group's minimum *)
      let earlier_dominates y = match best_y with Some b -> b <= y | None -> false in
      let acc =
        List.fold_left
          (fun acc q -> if earlier_dominates q.y || q.y > y0 then acc else q :: acc)
          acc same_x
      in
      let best_y = Some (match best_y with Some b -> Float.min b y0 | None -> y0) in
      sweep best_y acc rest
  in
  List.sort by_xy (nan_points @ List.rev (sweep None [] sorted))

(* Quadratic pairwise probe (diagnostic view, not the front itself);
   each point's scan is independent, so the outer loop chunks over the
   pool. *)
let dominated points =
  chunked_filter_map
    (fun p -> if List.exists (fun q -> dominates q p) points then Some p else None)
    points

let range = function
  | [] -> None
  | v :: rest ->
    Some (List.fold_left (fun (lo, hi) x -> (Float.min lo x, Float.max hi x)) (v, v) rest)

type merit_summary = {
  merit_range : (float * float) option;
  skipped_non_finite : int;
  missing : int;
}

(* NaN would poison the whole range through the comparisons;
   non-finite merits are counted out instead of folded in.  One pass in
   list order, with no intermediate value list: the reference the
   columnar fold below must match bit for bit.  A range is seen once
   its low bound is finite. *)
let merit_summary cores ~merit =
  let lo = ref infinity and hi = ref neg_infinity in
  let skipped = ref 0 and missing = ref 0 in
  List.iter
    (fun (_, core) ->
      match Core.merit core merit with
      | None -> incr missing
      | Some v when not (Float.is_finite v) -> incr skipped
      | Some v ->
        if v < !lo then lo := v;
        if v > !hi then hi := v)
    cores;
  {
    merit_range = (if Float.is_finite !lo then Some (!lo, !hi) else None);
    skipped_non_finite = !skipped;
    missing = !missing;
  }

(* The same summaries off a survivor bitset and the index's flat merit
   columns, all requested merits in one pass: word by word, each merit
   takes the word's survivors ANDed with its presence word and reads one
   array slot per surviving core, in ascending id order as the list
   fold does (so even the sign of a zero bound matches).  An absent
   column reads as an all-absent one: every survivor counts as missing,
   exactly as the list fold would find. *)
let merit_summary_columnar store bits ~merits =
  let absent = ([||], Bitset.create (Bitset.length bits)) in
  let column m = Option.value (Columnar.merit_column store m) ~default:absent in
  let cols = Array.of_list (List.map column merits) in
  let n = Array.length cols in
  let lo = Array.make n infinity and hi = Array.make n neg_infinity in
  let skipped = Array.make n 0 and missing = Array.make n 0 in
  for w = 0 to Bitset.word_count bits - 1 do
    let live = Bitset.word bits w in
    if live <> 0 then
      for k = 0 to n - 1 do
        let values, present = cols.(k) in
        let have = ref (live land Bitset.word present w) in
        missing.(k) <- missing.(k) + Bitset.popcount32 (live land lnot !have);
        while !have <> 0 do
          let v = values.((w lsl 5) + Bitset.popcount32 ((!have land - !have) - 1)) in
          if not (Float.is_finite v) then skipped.(k) <- skipped.(k) + 1
          else begin
            if v < lo.(k) then lo.(k) <- v;
            if v > hi.(k) then hi.(k) <- v
          end;
          have := !have land (!have - 1)
        done
      done
  done;
  List.init n (fun k ->
      {
        merit_range = (if Float.is_finite lo.(k) then Some (lo.(k), hi.(k)) else None);
        skipped_non_finite = skipped.(k);
        missing = missing.(k);
      })

let merit_range cores ~merit = (merit_summary cores ~merit).merit_range

let normalize points =
  let xs = List.map (fun p -> p.x) points and ys = List.map (fun p -> p.y) points in
  match (range xs, range ys) with
  | None, _ | _, None -> []
  | Some (xlo, xhi), Some (ylo, yhi) ->
    let scale lo hi v = if hi -. lo <= 0.0 then 0.0 else (v -. lo) /. (hi -. lo) in
    List.map (fun p -> { p with x = scale xlo xhi p.x; y = scale ylo yhi p.y }) points

let pp_point fmt p = Format.fprintf fmt "%s (%.4g, %.4g)" p.label p.x p.y
