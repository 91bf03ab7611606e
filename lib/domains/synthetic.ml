open Ds_layer
module Prng = Ds_bignum.Prng

type spec = {
  depth : int;
  branching : int;
  plain_issues : int;
  options_per_issue : int;
  cores : int;
  seed : int;
  eliminate_ccs : int;
}

let default_spec =
  {
    depth = 3;
    branching = 3;
    plain_issues = 2;
    options_per_issue = 4;
    cores = 1000;
    seed = 7;
    eliminate_ccs = 0;
  }

let validate spec =
  if spec.depth < 1 then invalid_arg "Synthetic: depth must be >= 1";
  if spec.branching < 2 then invalid_arg "Synthetic: branching must be >= 2";
  if spec.plain_issues < 0 then invalid_arg "Synthetic: negative plain_issues";
  if spec.options_per_issue < 2 then invalid_arg "Synthetic: options_per_issue must be >= 2";
  if spec.cores < 0 then invalid_arg "Synthetic: negative core count";
  if spec.eliminate_ccs < 0 then invalid_arg "Synthetic: negative eliminate_ccs"

let level_issue_name level = Printf.sprintf "L%d" level
let level_option level choice = Printf.sprintf "l%d-o%d" level choice
let plain_issue_name level index = Printf.sprintf "P%d-%d" level index
let plain_option index = Printf.sprintf "p%d" index

let plain_properties spec level =
  List.init spec.plain_issues (fun index ->
      Property.design_issue
        ~name:(plain_issue_name level index)
        ~domain:(Domain.enum (List.init spec.options_per_issue plain_option))
        ~doc:"synthetic plain issue" ())

let budget_name i = Printf.sprintf "B%d" i

(* Root-level latency/cost budget requirements, one per elimination
   constraint, so the bench can rebind a single budget and measure how
   much of the pruning work is repeated. *)
let budget_properties spec =
  List.init spec.eliminate_ccs (fun i ->
      Property.requirement ~name:(budget_name i) ~domain:Domain.non_negative_real
        ~doc:"synthetic score budget" ())

let hierarchy spec =
  validate spec;
  let rec build level name =
    if level > spec.depth then Cdo.leaf_exn ~name []
    else begin
      let options = List.init spec.branching (level_option level) in
      let issue =
        Property.design_issue ~generalized:true ~name:(level_issue_name level)
          ~domain:(Domain.enum options) ~doc:"synthetic generalized issue" ()
      in
      let plain = plain_properties spec level in
      let props = if level = 1 then budget_properties spec @ plain else plain in
      Cdo.node_exn ~name props ~issue
        ~children:(List.map (fun opt -> (opt, build (level + 1) opt)) options)
    end
  in
  Hierarchy.create_exn (build 1 "Root")

(* The score a budget is checked against: an 8-term damped series over
   the core's two merits — the cost shape of a small analytical model
   evaluated per core, which is what a realistic elimination formula
   (crypto CC6, video CC-V4) does. *)
let score ~weight ~delay ~cost =
  let acc = ref 0.0 in
  for k = 1 to 8 do
    let fk = float_of_int k in
    acc := !acc +. (((delay *. weight) +. (cost /. fk)) *. exp (-.fk /. 4.0))
  done;
  !acc

let constraints spec =
  validate spec;
  List.init spec.eliminate_ccs (fun i ->
      let budget = budget_name i in
      let weight = 1.0 +. (0.25 *. float_of_int i) in
      Consistency.make_exn
        ~name:(Printf.sprintf "EL%d" i)
        ~doc:"synthetic elimination: the core's merit score must stay within the budget"
        ~indep:[ Propref.parse_exn (budget ^ "@Root") ]
        ~dep:[ Propref.parse_exn (level_issue_name 1 ^ "@Root") ]
        (Consistency.eliminate
           ~vectorized:(fun env store ->
             (* Same [score] call on the same column values as the
                closure below — bit-identical verdicts either way. *)
             match env.Consistency.value_of budget with
             | Some (Value.Real bound) -> (
               match
                 (Columnar.merit_column store "delay", Columnar.merit_column store "cost")
               with
               | Some (delays, dpresent), Some (costs, cpresent) ->
                 Some
                   (fun w want ->
                     let present = Bitset.word dpresent w land Bitset.word cpresent w in
                     let bits = ref (want land present) and inferior = ref 0 in
                     while !bits <> 0 do
                       let b = !bits land - !bits in
                       let i = (w lsl 5) + Bitset.popcount32 (b - 1) in
                       if score ~weight ~delay:delays.(i) ~cost:costs.(i) > bound then
                         inferior := !inferior lor b;
                       bits := !bits land (!bits - 1)
                     done;
                     !inferior)
               | None, _ | _, None -> Some (fun _ _ -> 0))
             | Some _ | None -> Some (fun _ _ -> 0))
           (fun env core ->
             match env.Consistency.value_of budget with
             | Some (Value.Real bound) -> (
               match
                 (Ds_reuse.Core.merit core "delay", Ds_reuse.Core.merit core "cost")
               with
               | Some delay, Some cost -> score ~weight ~delay ~cost > bound
               | None, _ | _, None -> false)
             | Some _ | None -> false)))

let cores spec =
  validate spec;
  let g = Prng.create spec.seed in
  List.init spec.cores (fun i ->
      let generalized =
        List.init spec.depth (fun l ->
            let level = l + 1 in
            (level_issue_name level, level_option level (Prng.int g spec.branching)))
      in
      let plain =
        List.concat_map
          (fun l ->
            let level = l + 1 in
            List.init spec.plain_issues (fun index ->
                (plain_issue_name level index, plain_option (Prng.int g spec.options_per_issue))))
          (List.init spec.depth Fun.id)
      in
      (* merits correlated with the first generalized choice so pruning
         visibly narrows the ranges *)
      let bias =
        match List.assoc_opt (level_issue_name 1) generalized with
        | Some opt -> float_of_int (Hashtbl.hash opt mod 7)
        | None -> 0.0
      in
      let delay = 10.0 +. (bias *. 5.0) +. Prng.float g in
      let cost = 100.0 +. (bias *. 40.0) +. (10.0 *. Prng.float g) in
      let core =
        Ds_reuse.Core.make_exn
          ~id:(Printf.sprintf "syn-%06d" i)
          ~name:(Printf.sprintf "syn-%06d" i)
          ~provider:"synthetic" ~kind:Ds_reuse.Core.Soft_core
          ~properties:(generalized @ plain)
          ~merits:[ ("delay", delay); ("cost", cost) ]
          ()
      in
      ("syn/" ^ core.Ds_reuse.Core.id, core))

let session ?use_cache spec =
  Session.create ~hierarchy:(hierarchy spec) ~constraints:(constraints spec) ?use_cache
    ~cores:(cores spec) ()

let random_walk spec ~steps =
  validate spec;
  let rec go s level =
    if level > Stdlib.min steps spec.depth then s
    else begin
      match Session.set s (level_issue_name level) (Value.str (level_option level 0)) with
      | Ok s -> go s (level + 1)
      | Error msg -> invalid_arg ("Synthetic.random_walk: " ^ msg)
    end
  in
  go (session spec) 1
