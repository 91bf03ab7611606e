open Ds_layer
module Prng = Ds_bignum.Prng
module Core = Ds_reuse.Core

type spec = {
  cores : int;
  branching : int;
  plain_issues : int;
  cardinality : int;
  merits : int;
  fanin : int;
  ccs : int;
  seed : int;
}

let default_spec =
  {
    cores = 2_000;
    branching = 4;
    plain_issues = 2;
    cardinality = 4;
    merits = 4;
    fanin = 3;
    ccs = 4;
    seed = 11;
  }

let gen100k_spec = { default_spec with cores = 100_000 }
let gen1m_spec = { default_spec with cores = 1_000_000 }

let validate spec =
  if spec.cores < 0 then invalid_arg "Generator: negative core count";
  if spec.branching < 2 then invalid_arg "Generator: branching must be >= 2";
  if spec.plain_issues < 0 then invalid_arg "Generator: negative plain_issues";
  if spec.cardinality < 2 then invalid_arg "Generator: cardinality must be >= 2";
  if spec.merits < 1 then invalid_arg "Generator: merits must be >= 1";
  if spec.fanin < 1 then invalid_arg "Generator: fanin must be >= 1";
  if spec.ccs < 0 then invalid_arg "Generator: negative ccs"

let family_issue = "G1"
let family_option f = Printf.sprintf "fam%d" f
let plain_issue_name q = Printf.sprintf "Q%d" q
let plain_option v = Printf.sprintf "q%d" v
let budget_name i = Printf.sprintf "GB%d" i
let merit_name k = Printf.sprintf "m%d" k

(* Per-(constraint, term) weight — a fixed pattern over eight steps so
   different constraints mix the same merit columns differently, with
   no runtime randomness in the constraint itself. *)
let weight i f = 0.25 +. (0.125 *. float_of_int (((i * 5) + (f * 3)) mod 8))

let hierarchy spec =
  validate spec;
  let options = List.init spec.branching family_option in
  let issue =
    Property.design_issue ~generalized:true ~name:family_issue
      ~domain:(Domain.enum options) ~doc:"generated core family" ()
  in
  let plain =
    List.init spec.plain_issues (fun q ->
        Property.design_issue ~name:(plain_issue_name q)
          ~domain:(Domain.enum (List.init spec.cardinality plain_option))
          ~doc:"generated plain issue" ())
  in
  let budgets =
    List.init spec.ccs (fun i ->
        Property.requirement ~name:(budget_name i) ~domain:Domain.non_negative_real
          ~doc:"generated score budget" ())
  in
  let children = List.map (fun opt -> (opt, Cdo.leaf_exn ~name:opt [])) options in
  Hierarchy.create_exn (Cdo.node_exn ~name:"Gen" (budgets @ plain) ~issue ~children)

(* The elimination predicate of the per-core closure: a weighted sum of
   [fanin] merit readings against the entered budget; a core missing
   any of the merits is kept. *)
let decide ~fanin ~weights ~bound ~get =
  let acc = ref 0.0 in
  let missing = ref false in
  for f = 0 to fanin - 1 do
    match get f with
    | Some v -> acc := !acc +. (weights.(f) *. v)
    | None -> missing := true
  done;
  (not !missing) && !acc > bound

(* The same predicate over flat merit columns, one bitset word at a
   time.  A core missing any of the merits is kept, so the candidates
   are [want] ANDed with every presence word.  Each candidate runs
   [decide]'s float operations in [decide]'s order (start at 0.0, add
   [weights.(f) *. v] for f ascending), so verdicts and signatures stay
   bit-identical to the closure.  A word allocates nothing: the
   accumulator is an unboxed local and no option or closure is built
   per read. *)
let kernel ~fanin ~weights ~bound cols =
  if Array.exists Option.is_none cols then fun _ _ -> 0
  else begin
    let values = Array.map (fun c -> fst (Option.get c)) cols in
    let present = Array.map (fun c -> snd (Option.get c)) cols in
    fun w want ->
      let bits = ref want and inferior = ref 0 in
      for f = 0 to fanin - 1 do
        bits := !bits land Bitset.word (Array.unsafe_get present f) w
      done;
      while !bits <> 0 do
        let b = !bits land - !bits in
        let id = (w lsl 5) + Bitset.popcount32 (b - 1) in
        let acc = ref 0.0 in
        for f = 0 to fanin - 1 do
          acc :=
            !acc
            +. (Array.unsafe_get weights f *. Array.unsafe_get (Array.unsafe_get values f) id)
        done;
        if !acc > bound then inferior := !inferior lor b;
        bits := !bits land (!bits - 1)
      done;
      !inferior
  end

let constraints spec =
  validate spec;
  List.init spec.ccs (fun i ->
      let budget = budget_name i in
      (* each constraint reads [fanin] merit columns, rotated by its own
         index, so constraints overlap but are not identical *)
      let cc_merits =
        Array.init spec.fanin (fun f -> merit_name ((i + f) mod spec.merits))
      in
      let weights = Array.init spec.fanin (fun f -> weight i f) in
      Consistency.make_exn
        ~name:(Printf.sprintf "GEL%d" i)
        ~doc:"generated elimination: weighted merit mix must stay within the budget"
        ~indep:[ Propref.parse_exn (budget ^ "@Gen") ]
        ~dep:[ Propref.parse_exn (family_issue ^ "@Gen") ]
        (Consistency.eliminate
           ~vectorized:(fun env store ->
             match env.Consistency.value_of budget with
             | Some (Value.Real bound) ->
               Some
                 (kernel ~fanin:spec.fanin ~weights ~bound
                    (Array.map (Columnar.merit_column store) cc_merits))
             | Some _ | None -> Some (fun _ _ -> 0))
           (fun env core ->
             match env.Consistency.value_of budget with
             | Some (Value.Real bound) ->
               decide ~fanin:spec.fanin ~weights ~bound ~get:(fun f ->
                   Core.merit core cc_merits.(f))
             | Some _ | None -> false)))

let cores spec =
  validate spec;
  let g = Prng.create spec.seed in
  List.init spec.cores (fun i ->
      (* draw order is part of the generator's contract: family, then
         plain options, then merits — reordering would silently change
         every layer built from a given seed *)
      let fam = Prng.int g spec.branching in
      let plain =
        List.init spec.plain_issues (fun q ->
            (plain_issue_name q, plain_option (Prng.int g spec.cardinality)))
      in
      let merits =
        List.init spec.merits (fun k ->
            ( merit_name k,
              (10.0 *. float_of_int (k + 1))
              +. (2.0 *. float_of_int fam)
              +. (Prng.float g *. 100.0) ))
      in
      let core =
        Core.make_exn
          ~id:(Printf.sprintf "g-%07d" i)
          ~name:(Printf.sprintf "g-%07d" i)
          ~provider:"generated" ~kind:Core.Soft_core
          ~properties:((family_issue, family_option fam) :: plain)
          ~merits ()
      in
      ("gen/" ^ core.Core.id, core))

let session ?use_cache spec =
  Session.create ~hierarchy:(hierarchy spec) ~constraints:(constraints spec) ?use_cache
    ~cores:(cores spec) ()
