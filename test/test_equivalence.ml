(* Cached == naive: the memoized candidate path of PR 2 must be
   observationally identical to the naive recompute — on every step of
   the shipped case-study walks, across retraction and branching, on the
   synthetic layer, and under injected faults with quarantine in play.
   Two comparisons are used throughout: a cached session against its own
   [candidates_naive] (same state, both paths), and a twin session
   created with [~use_cache:false] driven in lockstep. *)

open Ds_layer
module CL = Ds_domains.Crypto_layer
module N = Ds_domains.Names
module VL = Ds_domains.Video_layer
module IL = Ds_domains.Idct_layer
module Syn = Ds_domains.Synthetic
module Gn = Ds_domains.Generator

let crypto_cores () =
  Ds_reuse.Registry.all_cores (Ds_domains.Populate.standard_registry ~eol:768 ())

let ids s = List.map fst (Session.candidates s)

let check_self ctx s =
  Alcotest.(check (list string))
    (ctx ^ ": cached = naive")
    (List.map fst (Session.candidates_naive s))
    (ids s)

(* Apply the same step to a cached and a naive twin; candidate sets must
   agree after every step, queried twice (cold, then warm). *)
let lockstep ~name steps (cached0, naive0) =
  let step (cached, naive) (label, f) =
    let ctx = Printf.sprintf "%s/%s" name label in
    let apply s =
      match f s with Ok s -> s | Error msg -> Alcotest.failf "%s: %s" ctx msg
    in
    let cached = apply cached and naive = apply naive in
    for _ = 1 to 2 do
      Alcotest.(check (list string)) (ctx ^ ": twins agree") (ids naive) (ids cached)
    done;
    check_self ctx cached;
    (cached, naive)
  in
  List.fold_left step (cached0, naive0) steps

(* -------------------------------------------------------------------- *)
(* Crypto case study: the full coprocessor walk, then invalidation        *)

let crypto_steps =
  [
    ("navigate", CL.navigate_to_omm);
    ("requirements", fun s -> CL.apply_requirements s CL.coprocessor_requirements);
    ("style", fun s -> Session.set s N.implementation_style (Value.str N.hardware));
    ("algorithm", fun s -> Session.set s N.algorithm (Value.str N.montgomery));
    ("radix", fun s -> Session.set s N.radix (Value.int 2));
    ("behavioral", fun s -> Session.set_default s N.behavioral_description);
    ("slices", fun s -> Session.set s N.number_of_slices (Value.int 6));
    ("slice width", fun s -> Session.set s N.slice_width (Value.int 128));
    ("retract radix", fun s -> Session.retract s N.radix);
    ("rebind radix", fun s -> Session.set s N.radix (Value.int 4));
  ]

let test_crypto_walk () =
  let cores = crypto_cores () in
  let cached = CL.session ~cores in
  let naive =
    Session.create ~use_cache:false ~hierarchy:CL.hierarchy ~constraints:CL.constraints ~cores ()
  in
  let cached, _ = lockstep ~name:"crypto" crypto_steps (cached, naive) in
  (* the walk re-queried every state twice: the cache must actually have
     been exercised, not silently bypassed *)
  let stats = Session.cache_stats cached in
  Alcotest.(check bool) "verdicts were served from cache" true (stats.Compliance.verdict_hits > 0)

let test_naive_flag_bypasses () =
  let naive =
    Session.create ~use_cache:false ~hierarchy:CL.hierarchy ~constraints:CL.constraints
      ~cores:(crypto_cores ()) ()
  in
  ignore (Session.candidates naive);
  ignore (Session.candidates naive);
  let stats = Session.cache_stats naive in
  Alcotest.(check int) "no verdict lookups" 0
    (stats.Compliance.verdict_hits + stats.Compliance.verdict_misses);
  Alcotest.(check int) "no survivor lookups" 0
    (stats.Compliance.survivor_hits + stats.Compliance.survivor_misses)

(* Branches taken from one lineage share the compliance table;
   interleaved queries on both branches must not cross-contaminate. *)
let test_crypto_branches () =
  let ok = function Ok s -> s | Error msg -> Alcotest.failf "step failed: %s" msg in
  let base =
    List.fold_left (fun s (_, f) -> ok (f s)) (CL.session ~cores:(crypto_cores ()))
      [ List.nth crypto_steps 0; List.nth crypto_steps 1 ]
  in
  let a = ok (Session.set base N.implementation_style (Value.str N.hardware)) in
  let b = ok (Session.set base N.implementation_style (Value.str N.software)) in
  for round = 1 to 3 do
    let ctx side = Printf.sprintf "branch %s round %d" side round in
    check_self (ctx "hw") a;
    check_self (ctx "sw") b;
    check_self (ctx "base") base
  done

(* -------------------------------------------------------------------- *)
(* Video and IDCT case studies                                            *)

let test_video_walk () =
  let requirement_steps =
    List.map
      (fun (name, v) -> ("req " ^ name, fun s -> Session.set s name v))
      VL.mpeg2_main_level_requirements
  in
  let steps =
    requirement_steps
    @ [
        ("structure", fun s -> Session.set s VL.di_structure (Value.str "row-column"));
        ("algorithm", fun s -> Session.set s VL.di_algorithm (Value.str "chen"));
        ("parallelism", fun s -> Session.set s VL.di_parallelism (Value.str "4"));
        ("fraction bits", fun s -> Session.set s VL.di_fraction_bits (Value.str "16"));
        ("retract parallelism", fun s -> Session.retract s VL.di_parallelism);
        ("rebind parallelism", fun s -> Session.set s VL.di_parallelism (Value.str "8"));
      ]
  in
  let naive =
    Session.create ~use_cache:false ~hierarchy:VL.hierarchy ~constraints:VL.constraints
      ~cores:VL.cores ()
  in
  ignore (lockstep ~name:"video" steps (VL.session (), naive))

(* The IDCT hierarchies declare no eliminate constraints: the survivor
   cache and the issue filter still have to agree with the naive path. *)
let test_idct_walk () =
  let generic_walk name make_cached make_naive =
    let cached = ref (make_cached ()) and naive = ref (make_naive ()) in
    let continue = ref true in
    while !continue do
      (match
         List.find_opt
           (fun (p, _) -> Option.is_some (Domain.options p.Property.domain))
           (Session.open_issues !cached)
       with
      | None -> continue := false
      | Some (p, _) ->
        let opt = List.hd (Option.get (Domain.options p.Property.domain)) in
        let ctx = Printf.sprintf "%s/%s" name p.Property.name in
        let apply s =
          match Session.set s p.Property.name (Value.str opt) with
          | Ok s -> s
          | Error msg -> Alcotest.failf "%s: %s" ctx msg
        in
        cached := apply !cached;
        naive := apply !naive);
      Alcotest.(check (list string)) (name ^ ": twins agree") (ids !naive) (ids !cached);
      check_self name !cached
    done
  in
  generic_walk "idct-gen" IL.session_generalization (fun () ->
      Session.create ~use_cache:false ~hierarchy:IL.generalization_first ~cores:IL.cores ());
  generic_walk "idct-abs" IL.session_abstraction (fun () ->
      Session.create ~use_cache:false ~hierarchy:IL.abstraction_first ~cores:IL.cores ())

(* -------------------------------------------------------------------- *)
(* Synthetic layer: many eliminate constraints, per-budget invalidation   *)

let syn_spec = { Syn.default_spec with Syn.cores = 300; eliminate_ccs = 4 }

let test_synthetic_walk () =
  let budget i = Value.real (420.0 +. (55.0 *. float_of_int i)) in
  let bind_all s =
    List.fold_left
      (fun acc i -> Result.bind acc (fun s -> Session.set s (Syn.budget_name i) (budget i)))
      (Ok s)
      (List.init syn_spec.Syn.eliminate_ccs Fun.id)
  in
  let steps =
    [
      ("bind budgets", bind_all);
      ("tighten B0", fun s -> Result.bind (Session.retract s (Syn.budget_name 0))
                                (fun s -> Session.set s (Syn.budget_name 0) (Value.real 200.0)));
      ("relax B2", fun s -> Result.bind (Session.retract s (Syn.budget_name 2))
                              (fun s -> Session.set s (Syn.budget_name 2) (Value.real 5000.0)));
      ("drop B1", fun s -> Session.retract s (Syn.budget_name 1));
    ]
  in
  let cached, _ =
    lockstep ~name:"synthetic" steps (Syn.session syn_spec, Syn.session ~use_cache:false syn_spec)
  in
  let stats = Session.cache_stats cached in
  Alcotest.(check bool) "cache effective" true (Compliance.hit_rate stats > 0.0)

(* -------------------------------------------------------------------- *)
(* Fault injection: deterministic always-faulting modes, so both paths
   see the identical fault-and-quarantine timeline per query.            *)

let test_injected_crypto mode () =
  let cores = crypto_cores () in
  let constraints = Faultsim.wrap_plan ~plan:[ ("CC6", mode) ] CL.constraints in
  let mk use_cache = Session.create ~use_cache ~hierarchy:CL.hierarchy ~constraints ~cores () in
  let walk = [ List.nth crypto_steps 0; List.nth crypto_steps 1; List.nth crypto_steps 2 ] in
  let cached, naive = lockstep ~name:"inject-crypto" walk (mk true, mk false) in
  (* keep querying until the strike policy quarantines CC6 in both *)
  for round = 1 to 3 do
    ignore (Session.candidates cached);
    ignore (Session.candidates naive);
    let ctx = Printf.sprintf "inject round %d" round in
    Alcotest.(check (list string)) (ctx ^ ": twins agree") (ids naive) (ids cached);
    check_self ctx cached
  done;
  match List.assoc "CC6" (Session.health cached) with
  | Guard.Quarantined _ -> check_self "post-quarantine" cached
  | status ->
    Alcotest.failf "CC6 not quarantined on cached path: %s" (Guard.status_label status)

let test_injected_synthetic () =
  let constraints = Faultsim.wrap_plan ~plan:[ ("EL0", Faultsim.Raise) ] (Syn.constraints syn_spec) in
  let mk use_cache =
    Session.create ~use_cache ~hierarchy:(Syn.hierarchy syn_spec) ~constraints
      ~cores:(Syn.cores syn_spec) ()
  in
  let bind s i = Result.bind s (fun s -> Session.set s (Syn.budget_name i) (Value.real 400.0)) in
  let drive s = List.fold_left bind (Ok s) (List.init syn_spec.Syn.eliminate_ccs Fun.id) in
  match (drive (mk true), drive (mk false)) with
  | Ok cached, Ok naive ->
    for round = 1 to 3 do
      ignore (Session.candidates cached);
      ignore (Session.candidates naive);
      let ctx = Printf.sprintf "syn inject round %d" round in
      Alcotest.(check (list string)) (ctx ^ ": twins agree") (ids naive) (ids cached);
      check_self ctx cached
    done;
    (* conservative semantics both sides: the faulty EL0 eliminated
       nothing, so the un-injected constraints alone shaped the set *)
    Alcotest.(check bool) "EL0 quarantined" true
      (match List.assoc "EL0" (Session.health cached) with
      | Guard.Quarantined _ -> true
      | _ -> false)
  | Error msg, _ | _, Error msg -> Alcotest.failf "drive failed: %s" msg

(* Two budgets that agree to 12 significant digits are two states: the
   generation and survivor keys must tell them apart, or the second
   binding is served the first one's survivors.  The budgets straddle
   core 7's GEL0 score, so exactly that core flips. *)
let test_close_reals_keyed_apart () =
  let spec = Gn.default_spec in
  let _, core7 = List.nth (Gn.cores spec) 7 in
  let score =
    List.fold_left
      (fun acc f ->
        acc +. (Gn.weight 0 f *. Option.get (Ds_reuse.Core.merit core7 (Gn.merit_name f))))
      0.0
      (List.init spec.Gn.fanin Fun.id)
  in
  let below = score -. 1e-10 and above = score +. 1e-10 in
  Alcotest.(check string) "budgets print alike" (string_of_float below) (string_of_float above);
  let steps =
    [
      ("below", fun s -> Session.set s (Gn.budget_name 0) (Value.real below));
      ("retract", fun s -> Session.retract s (Gn.budget_name 0));
      ("above", fun s -> Session.set s (Gn.budget_name 0) (Value.real above));
    ]
  in
  ignore (lockstep ~name:"close reals" steps (Gn.session spec, Gn.session ~use_cache:false spec))

(* A decision and its retraction return every constraint to the state
   it was in, so the revisit is one survivor hit: no new survivor miss,
   no verdict lookup.  GB1 is bound first so the retraction lands on a
   state with a bound budget beside the unbound GB0. *)
let test_revisit_hits () =
  let ok ctx = function Ok s -> s | Error msg -> Alcotest.failf "%s: %s" ctx msg in
  let s =
    ok "bind GB1" (Session.set (Gn.session Gn.default_spec) (Gn.budget_name 1) (Value.real 200.0))
  in
  ignore (Session.candidate_count s);
  let signature = Session.candidate_signature s in
  let decided = ok "bind GB0" (Session.set s (Gn.budget_name 0) (Value.real 150.0)) in
  let back = ok "retract GB0" (Session.retract decided (Gn.budget_name 0)) in
  let before = Session.cache_stats back in
  ignore (Session.candidate_count back);
  let after = Session.cache_stats back in
  let delta f = f after - f before in
  Alcotest.(check int) "one survivor hit" 1 (delta (fun st -> st.Compliance.survivor_hits));
  Alcotest.(check int) "no survivor miss" 0 (delta (fun st -> st.Compliance.survivor_misses));
  Alcotest.(check int) "no verdict lookups" 0
    (delta (fun st -> st.Compliance.verdict_hits + st.Compliance.verdict_misses));
  Alcotest.(check string) "same signature" signature (Session.candidate_signature back)

(* -------------------------------------------------------------------- *)
(* Parallel vs sequential: the chunked sweep (PR 4) must be bit-identical
   to the single-chunk path — same candidates, same signatures, same
   merit summaries, same fault-and-quarantine timeline.  The pool size
   and chunk threshold are process-global, so each side of the
   differential re-runs the whole walk from a fresh session under its
   own setting.                                                          *)

let with_parallel ~domains ~threshold f =
  let d0 = Parallel.domain_count () and t0 = Parallel.chunk_threshold () in
  Parallel.set_domain_count domains;
  Parallel.set_chunk_threshold threshold;
  Fun.protect
    ~finally:(fun () ->
      Parallel.set_domain_count d0;
      Parallel.set_chunk_threshold t0)
    f

(* One full observation of a session: everything a service client could
   see that the sweep feeds into. *)
let observe ?(merits = [ "delay"; "cost" ]) s =
  ( ids s,
    Session.candidate_signature s,
    List.map
      (fun merit ->
        let summary = Session.merit_summary s ~merit in
        ( summary.Evaluation.merit_range,
          summary.Evaluation.skipped_non_finite,
          summary.Evaluation.missing ))
      merits,
    List.map (fun (cc, st) -> (cc, Guard.status_label st)) (Session.health s) )

let run_walk ?merits mk steps =
  List.fold_left
    (fun (s, seen) (label, f) ->
      match f s with
      | Error msg -> Alcotest.failf "%s: %s" label msg
      | Ok s -> (s, (label, observe ?merits s) :: seen))
    (mk (), [])
    steps
  |> snd |> List.rev

let check_walks_agree ~name sequential parallel =
  List.iter2
    (fun (label, (ids_s, sig_s, sum_s, health_s)) (label', (ids_p, sig_p, sum_p, health_p)) ->
      let ctx = Printf.sprintf "%s/%s" name label in
      Alcotest.(check string) (ctx ^ ": same step") label label';
      Alcotest.(check (list string)) (ctx ^ ": candidates") ids_s ids_p;
      Alcotest.(check string) (ctx ^ ": signature") sig_s sig_p;
      Alcotest.(check bool) (ctx ^ ": merit summaries") true (sum_s = sum_p);
      Alcotest.(check (list (pair string string))) (ctx ^ ": health") health_s health_p)
    sequential parallel

let syn_walk_steps =
  let rebind name v s = Result.bind (Session.retract s name) (fun s -> Session.set s name v) in
  [
    ("bind B0", fun s -> Session.set s (Syn.budget_name 0) (Value.real 430.0));
    ("bind B1", fun s -> Session.set s (Syn.budget_name 1) (Value.real 480.0));
    ("bind B3", fun s -> Session.set s (Syn.budget_name 3) (Value.real 600.0));
    ("tighten B0", rebind (Syn.budget_name 0) (Value.real 210.0));
    ("relax B1", rebind (Syn.budget_name 1) (Value.real 4200.0));
    ("revisit B0", rebind (Syn.budget_name 0) (Value.real 430.0));
    ("drop B3", fun s -> Session.retract s (Syn.budget_name 3));
  ]

let test_parallel_differential () =
  let walk () = run_walk (fun () -> Syn.session syn_spec) syn_walk_steps in
  let sequential = with_parallel ~domains:1 ~threshold:1 walk in
  let parallel = with_parallel ~domains:4 ~threshold:1 walk in
  check_walks_agree ~name:"par-vs-seq" sequential parallel

let test_parallel_differential_crypto () =
  let walk () =
    run_walk (fun () -> CL.session ~cores:(crypto_cores ())) crypto_steps
  in
  let sequential = with_parallel ~domains:1 ~threshold:1 walk in
  let parallel = with_parallel ~domains:4 ~threshold:1 walk in
  check_walks_agree ~name:"par-vs-seq-crypto" sequential parallel

(* Under injected faults the parallel sweep abandons its optimistic
   chunks and replays sequentially, so the recorded fault order — and
   with it the strike/quarantine timeline — must match the sequential
   path exactly.  A parallel-vs-sequential comparison alone can't catch
   a bug shared by both sides' fallback, so the same walk also runs
   with [~use_cache:false] — the naive recompute never enters the sweep
   at all and is the independent oracle.

   Step order matters for coverage: the un-injected budgets bind (and
   eliminate) {e before} B0 arms the faulting EL0, so the fallback's
   faulting queries run while other constraints are actively pruning —
   a fallback that mishandles the survivor mask diverges from the
   oracle instead of accidentally agreeing on "keep everything". *)
let test_parallel_differential_faults () =
  let walk use_cache () =
    let constraints =
      Faultsim.wrap_plan ~plan:[ ("EL0", Faultsim.Raise) ] (Syn.constraints syn_spec)
    in
    let mk () =
      Session.create ~use_cache ~hierarchy:(Syn.hierarchy syn_spec) ~constraints
        ~cores:(Syn.cores syn_spec) ()
    in
    let rebind name v s =
      Result.bind (Session.retract s name) (fun s -> Session.set s name v)
    in
    let steps =
      [
        ("bind B1", fun s -> Session.set s (Syn.budget_name 1) (Value.real 480.0));
        ("bind B3", fun s -> Session.set s (Syn.budget_name 3) (Value.real 600.0));
        ("bind B0", fun s -> Session.set s (Syn.budget_name 0) (Value.real 430.0));
        ("tighten B1", rebind (Syn.budget_name 1) (Value.real 210.0));
        ("relax B1", rebind (Syn.budget_name 1) (Value.real 4200.0));
        ("drop B3", fun s -> Session.retract s (Syn.budget_name 3));
      ]
      @ List.init 3 (fun i ->
            ( Printf.sprintf "requery %d" i,
              fun s ->
                ignore (Session.candidates s);
                Ok s ))
    in
    run_walk mk steps
  in
  let sequential = with_parallel ~domains:1 ~threshold:1 (walk true) in
  let parallel = with_parallel ~domains:4 ~threshold:1 (walk true) in
  let naive = with_parallel ~domains:4 ~threshold:1 (walk false) in
  check_walks_agree ~name:"par-vs-seq-faults" sequential parallel;
  check_walks_agree ~name:"naive-vs-par-faults" naive parallel;
  (* the injected constraint must actually have been driven into
     quarantine, or the timeline comparison proved nothing *)
  match List.rev parallel with
  | (_, (_, _, _, health)) :: _ ->
    Alcotest.(check string) "EL0 quarantined under parallel sweep" "quarantined"
      (List.assoc "EL0" health)
  | [] -> Alcotest.fail "empty walk"

(* -------------------------------------------------------------------- *)
(* Generated layers: the columnar sweep (bitset survivors, vectorized
   kernels) against the naive recompute, across seeds and population
   sizes — including sizes that do not fall on bitset word boundaries.
   Signatures must match byte for byte: journal replay depends on the
   bitset digest signing a state exactly as the list walk does.          *)

let gen_steps =
  let rebind name v s = Result.bind (Session.retract s name) (fun s -> Session.set s name v) in
  [
    ("bind GB0", fun s -> Session.set s (Gn.budget_name 0) (Value.real 170.0));
    ("bind GB1", fun s -> Session.set s (Gn.budget_name 1) (Value.real 200.0));
    ("bind GB2", fun s -> Session.set s (Gn.budget_name 2) (Value.real 230.0));
    ("bind GB3", fun s -> Session.set s (Gn.budget_name 3) (Value.real 260.0));
    ("tighten GB0", rebind (Gn.budget_name 0) (Value.real 120.0));
    ("relax GB1", rebind (Gn.budget_name 1) (Value.real 2000.0));
    ("revisit GB0", rebind (Gn.budget_name 0) (Value.real 170.0));
    (* narrowed pools: the fam2 subtree, then that subtree under a plain
       issue, then the plain issue alone back at the root *)
    ("decide G1", fun s -> Session.set s Gn.family_issue (Value.str "fam2"));
    ("decide Q0", fun s -> Session.set s "Q0" (Value.str "q1"));
    ("retract G1", fun s -> Session.retract s Gn.family_issue);
    ("drop GB2", fun s -> Session.retract s (Gn.budget_name 2));
  ]

let test_generated_differential () =
  List.iter
    (fun (seed, cores) ->
      let spec = { Gn.default_spec with Gn.seed; Gn.cores } in
      let col = ref (Gn.session spec) in
      let naive = ref (Gn.session ~use_cache:false spec) in
      List.iter
        (fun (label, f) ->
          let ctx = Printf.sprintf "gen s%d n%d/%s" seed cores label in
          let apply r =
            match f !r with Ok s -> r := s | Error msg -> Alcotest.failf "%s: %s" ctx msg
          in
          apply col;
          apply naive;
          (* twice: cold, then served from the columnar cache *)
          for _ = 1 to 2 do
            Alcotest.(check (list string)) (ctx ^ ": columnar = naive") (ids !naive) (ids !col)
          done;
          Alcotest.(check string) (ctx ^ ": signatures")
            (Session.candidate_signature !naive)
            (Session.candidate_signature !col);
          Alcotest.(check int) (ctx ^ ": counts")
            (Session.candidate_count !naive)
            (Session.candidate_count !col);
          check_self ctx !col)
        gen_steps)
    [ (11, 500); (23, 800); (97, 1200); (5, 37); (42, 64) ]

(* The generated kernels must actually exercise the vectorized fast
   path: a columnar walk must report verdict activity in the cache. *)
let test_generated_cache_effective () =
  let spec = { Gn.default_spec with Gn.cores = 600 } in
  let s =
    List.fold_left
      (fun s (label, f) ->
        match f s with
        | Ok s ->
          ignore (Session.candidate_count s);
          s
        | Error msg -> Alcotest.failf "%s: %s" label msg)
      (Gn.session spec) gen_steps
  in
  let stats = Session.cache_stats s in
  Alcotest.(check bool) "verdicts recorded" true (stats.Compliance.verdict_misses > 0);
  Alcotest.(check bool) "cache served requeries" true (stats.Compliance.verdict_hits > 0)

(* Fault injection drops the kernels (Faultsim wraps only the closure),
   so the columnar sweep must abandon its optimistic pass and replay the
   faulting closure sequentially — same candidate sets, same
   quarantine timeline as the naive recompute. *)
let test_generated_faults () =
  let spec = { Gn.default_spec with Gn.cores = 400 } in
  let constraints =
    Faultsim.wrap_plan ~plan:[ ("GEL0", Faultsim.Raise) ] (Gn.constraints spec)
  in
  let mk use_cache =
    Session.create ~use_cache ~hierarchy:(Gn.hierarchy spec) ~constraints
      ~cores:(Gn.cores spec) ()
  in
  let bind s i =
    Result.bind s (fun s ->
        Session.set s (Gn.budget_name i) (Value.real (170.0 +. (30.0 *. float_of_int i))))
  in
  (* the family decision last, so the fallback walks the fam2 subtree *)
  let drive s =
    Result.bind
      (List.fold_left bind (Ok s) (List.init spec.Gn.ccs Fun.id))
      (fun s -> Session.set s Gn.family_issue (Value.str "fam2"))
  in
  let health s = List.map (fun (cc, st) -> (cc, Guard.status_label st)) (Session.health s) in
  match (drive (mk true), drive (mk false)) with
  | Ok col, Ok naive ->
    (* the descent's before-count came from the fallback sweep over the
       fam2 cores at the root; the trail records it *)
    Alcotest.(check bool) "gen inject: same trail" true (Session.events naive = Session.events col);
    for round = 1 to 3 do
      ignore (Session.candidates col);
      ignore (Session.candidates naive);
      let ctx = Printf.sprintf "gen inject round %d" round in
      Alcotest.(check (list string)) (ctx ^ ": columnar = naive") (ids naive) (ids col);
      Alcotest.(check (list (pair string string))) (ctx ^ ": health") (health naive) (health col);
      check_self ctx col
    done;
    List.iter
      (fun (label, s) ->
        Alcotest.(check bool) (label ^ ": GEL0 quarantined") true
          (match List.assoc "GEL0" (Session.health s) with
          | Guard.Quarantined _ -> true
          | _ -> false))
      [ ("columnar", col); ("naive", naive) ]
  | Error msg, _ | _, Error msg -> Alcotest.failf "drive failed: %s" msg

(* Word kernels against their own closures.  Each kernel is called on
   every word of a store, with a full, a sparse and a zero [want] mask
   (never past the store's last id), and each answer bit must equal the
   constraint's [inferior] closure on that id.  Budgets: 0.0, a huge
   value, and one exactly equal to some core's score — found by
   bisection on the closure itself, so the strict [>] is hit on an
   exact tie.  The hand-built store has cores lacking merits (and no
   core carrying m3), which covers the presence AND and the kernel's
   absent-column answer. *)

let budget_env cc bound =
  let budget = (List.hd cc.Consistency.indep).Propref.property in
  {
    Consistency.empty_env with
    value_of = (fun name -> if name = budget then Some (Value.Real bound) else None);
  }

let inferior_and_kernel cc =
  match cc.Consistency.relation with
  | Consistency.Eliminate { inferior; vectorized = Some resolve } -> (inferior, resolve)
  | _ -> Alcotest.failf "%s: no kernel" cc.Consistency.name

(* The smallest budget that keeps [core], searched over the bit
   patterns of non-negative floats: the core's score, if positive. *)
let tie_budget cc core =
  let inferior, _ = inferior_and_kernel cc in
  let cut b = inferior (budget_env cc b) core in
  let lo = ref (Int64.bits_of_float 0.0) and hi = ref (Int64.bits_of_float 1e300) in
  if not (cut 0.0) then Alcotest.failf "%s: score not positive" cc.Consistency.name;
  while Int64.sub !hi !lo > 1L do
    let mid = Int64.add !lo (Int64.div (Int64.sub !hi !lo) 2L) in
    if cut (Int64.float_of_bits mid) then lo := mid else hi := mid
  done;
  Int64.float_of_bits !hi

let check_word_kernel ~ctx store cc bound =
  let inferior, resolve = inferior_and_kernel cc in
  let env = budget_env cc bound in
  let kernel =
    match resolve env store with Some k -> k | None -> Alcotest.failf "%s: kernel declined" ctx
  in
  let n = Columnar.length store in
  let g = Ds_bignum.Prng.create n in
  for w = 0 to ((n + 31) / 32) - 1 do
    let valid = if (32 * w) + 32 <= n then 0xFFFFFFFF else (1 lsl (n - (32 * w))) - 1 in
    let sparse = 0x80000001 lor (Ds_bignum.Prng.int g (1 lsl 30) land Ds_bignum.Prng.int g (1 lsl 30)) in
    List.iter
      (fun (label, want) ->
        let want = want land valid in
        let expected = ref 0 in
        for b = 0 to 31 do
          if want land (1 lsl b) <> 0 && inferior env (Columnar.core store ((32 * w) + b)) then
            expected := !expected lor (1 lsl b)
        done;
        Alcotest.(check int)
          (Printf.sprintf "%s: word %d, %s want" ctx w label)
          !expected
          (kernel w want land want))
      [ ("full", 0xFFFFFFFF); ("sparse", sparse); ("zero", 0) ]
  done

let test_word_kernels () =
  let layer name store ccs =
    List.iter
      (fun cc ->
        let tie = tie_budget cc (Columnar.core store 5) in
        List.iter
          (fun bound ->
            check_word_kernel
              ~ctx:(Printf.sprintf "%s %s budget %h" name cc.Consistency.name bound)
              store cc bound)
          [ 0.0; 1e12; tie ];
        (* the tie itself: core 5 scores exactly the budget, so stays *)
        let _, resolve = inferior_and_kernel cc in
        match resolve (budget_env cc tie) store with
        | Some k -> Alcotest.(check int) (name ^ ": tie kept") 0 (k 0 (1 lsl 5))
        | None -> Alcotest.fail "kernel declined")
      ccs
  in
  let gen = { Gn.default_spec with Gn.cores = 2_017 } in
  layer "gen" (Columnar.build (Array.of_list (Gn.cores gen))) (Gn.constraints gen);
  let syn = { Syn.default_spec with Syn.eliminate_ccs = 3 } in
  layer "syn" (Columnar.build (Array.of_list (Syn.cores syn))) (Syn.constraints syn);
  (* hand-built: every core lacks some merit with probability 1/4, m3
     is carried by no core, and delay/cost are present only in part *)
  let g = Ds_bignum.Prng.create 5 in
  let hand =
    Array.init 70 (fun i ->
        let merits =
          List.filter_map
            (fun m ->
              if Ds_bignum.Prng.int g 4 = 0 then None
              else Some (m, 10.0 +. (Ds_bignum.Prng.float g *. 300.0)))
            [ "m0"; "m1"; "m2"; "delay"; "cost" ]
        in
        let id = Printf.sprintf "hand-%02d" i in
        ( "hand/" ^ id,
          Ds_reuse.Core.make_exn ~id ~name:id ~provider:"t" ~kind:Ds_reuse.Core.Soft_core
            ~properties:[] ~merits () ))
  in
  let store = Columnar.build hand in
  List.iter
    (fun (name, ccs) ->
      List.iter
        (fun cc ->
          List.iter
            (fun bound ->
              check_word_kernel
                ~ctx:(Printf.sprintf "hand %s %s budget %h" name cc.Consistency.name bound)
                store cc bound)
            [ 0.0; 150.0; 1e12 ])
        ccs)
    [ ("gen", Gn.constraints Gn.default_spec); ("syn", Syn.constraints syn) ]

(* Parallel-vs-sequential on a generated layer: chunked columnar sweeps
   with kernels under both pool settings, plus the naive oracle. *)
let test_generated_parallel_differential () =
  let spec = { Gn.default_spec with Gn.cores = 900; Gn.seed = 29 } in
  let merits = [ Gn.merit_name 0; Gn.merit_name 1 ] in
  let walk use_cache () = run_walk ~merits (fun () -> Gn.session ~use_cache spec) gen_steps in
  let sequential = with_parallel ~domains:1 ~threshold:1 (walk true) in
  let parallel = with_parallel ~domains:4 ~threshold:1 (walk true) in
  let naive = with_parallel ~domains:4 ~threshold:1 (walk false) in
  check_walks_agree ~name:"gen-par-vs-seq" sequential parallel;
  check_walks_agree ~name:"gen-naive-vs-par" naive parallel

let test_generator_determinism () =
  let lines spec =
    List.map (fun (qid, c) -> qid ^ "\t" ^ Ds_reuse.Core.to_line c) (Gn.cores spec)
  in
  let spec = { Gn.default_spec with Gn.cores = 300; Gn.seed = 42 } in
  Alcotest.(check (list string)) "same seed, same layer" (lines spec) (lines spec);
  Alcotest.(check bool) "different seed, different layer" true
    (lines spec <> lines { spec with Gn.seed = 43 });
  (* equal specs must also sign identically after the same walk *)
  let sign () =
    let s =
      List.fold_left
        (fun s (label, f) ->
          match f s with Ok s -> s | Error msg -> Alcotest.failf "%s: %s" label msg)
        (Gn.session spec) gen_steps
    in
    Session.candidate_signature s
  in
  Alcotest.(check string) "reproducible signatures" (sign ()) (sign ())

(* -------------------------------------------------------------------- *)
(* Metamorphic properties of pruning on the generated layer: relations
   between states, not a second implementation.  Each decision may only
   prune (binding an unbound property never adds a candidate), a
   decision and its retraction cancel out (the signature comes back),
   every candidate lies under the focus and matches every decided issue,
   and a decision keeps every Pareto-optimal survivor optimal (a
   decision only removes points, so none of them can become dominated —
   Censi's monotone co-design, PAPERS.md).  Random seeded walks over
   the budgets, the family issue G1 and the plain issues Q0/Q1; a step
   the session refuses (already bound, not yet addressable) is
   skipped.                                                              *)

type meta_op = Bind of string * Value.t | Unbind of string

let meta_op_name = function
  | Bind (name, v) -> Printf.sprintf "set %s=%s" name (Value.to_string v)
  | Unbind name -> "retract " ^ name

let meta_op_gen =
  let open QCheck2.Gen in
  let fam = map (fun f -> Value.str (Printf.sprintf "fam%d" f)) (int_bound 3) in
  let opt = map (fun o -> Value.str (Printf.sprintf "q%d" o)) (int_bound 3) in
  frequency
    [
      (4, map2 (fun i v -> Bind (Gn.budget_name i, Value.real v)) (int_bound 3)
            (float_range 60.0 360.0));
      (2, map (fun v -> Bind (Gn.family_issue, v)) fam);
      (2, map2 (fun q v -> Bind (Printf.sprintf "Q%d" q, v)) (int_bound 1) opt);
      (2, map (fun n -> Unbind n)
            (oneofl ([ Gn.family_issue; "Q0"; "Q1" ] @ List.init 4 Gn.budget_name)));
    ]

let test_metamorphic =
  let spec = Gn.default_spec in
  let master = lazy (Gn.session spec) in
  let index = lazy (Index.build (Gn.hierarchy spec) (Gn.cores spec)) in
  let fail fmt = QCheck2.Test.fail_reportf fmt in
  let merits = List.init spec.Gn.merits Gn.merit_name in
  let front s =
    let names = Hashtbl.create 64 in
    List.iter
      (fun p -> Hashtbl.replace names p.Multi_objective.label ())
      (Multi_objective.pareto_front (Multi_objective.of_cores ~merits (Session.candidates s)));
    names
  in
  (* the fronts are quadratic in the pool, so only every second decision
     that changes the candidates is checked *)
  let pareto_checks = ref 0 in
  let check_front ctx s s' =
    let survivors = Session.candidates s' in
    if List.map fst survivors <> List.map fst (Session.candidates s) then begin
      incr pareto_checks;
      if !pareto_checks mod 2 = 0 then begin
        let still = Hashtbl.create 64 in
        List.iter (fun (_, core) -> Hashtbl.replace still core.Ds_reuse.Core.name ()) survivors;
        let after = front s' in
        Hashtbl.iter
          (fun name () ->
            if Hashtbl.mem still name && not (Hashtbl.mem after name) then
              fail "%s: %s left the Pareto front" ctx name)
          (front s)
      end
    end
  in
  let check_candidates ctx s =
    let focus = Session.focus s in
    let issues =
      List.filter (fun b -> Property.is_design_issue b.Session.prop) (Session.bindings s)
    in
    List.iter
      (fun (qid, core) ->
        (match Index.path_of (Lazy.force index) ~qualified_id:qid with
        | Some path when List.filteri (fun i _ -> i < List.length focus) path = focus -> ()
        | _ -> fail "%s: %s lies outside the focus %s" ctx qid (String.concat "." focus));
        List.iter
          (fun b ->
            let key = b.Session.prop.Property.name and value = Value.to_string b.Session.value in
            if not (Ds_reuse.Core.matches_property core ~key ~value) then
              fail "%s: %s does not match %s=%s" ctx qid key value)
          issues)
      (Session.candidates s)
  in
  let walk ops =
    let step s op =
      let ctx = meta_op_name op in
      match op with
      | Unbind name -> (
        match Session.retract s name with
        | Error _ -> s
        | Ok s' ->
          check_candidates ctx s';
          s')
      | Bind (name, v) -> (
        match Session.set s name v with
        | Error _ -> s
        | Ok s' ->
          let before = Session.candidate_count s and after = Session.candidate_count s' in
          if after > before then fail "%s: %d candidates grew to %d" ctx before after;
          check_front ctx s s';
          (match Session.retract s' name with
          | Ok back ->
            if Session.candidate_signature back <> Session.candidate_signature s then
              fail "%s: retracting it did not restore the signature" ctx
          | Error msg -> fail "%s: retract refused: %s" ctx msg);
          check_candidates ctx s';
          s')
    in
    ignore (List.fold_left step (Session.pristine (Lazy.force master)) ops);
    true
  in
  QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 21 |])
    (QCheck2.Test.make ~count:60 ~name:"pruning is monotone and reversible"
       ~print:(fun ops -> String.concat "; " (List.map meta_op_name ops))
       QCheck2.Gen.(list_size (int_range 8 32) meta_op_gen)
       walk)

let () =
  Alcotest.run "equivalence"
    [
      ( "case studies",
        [
          Alcotest.test_case "crypto walk" `Quick test_crypto_walk;
          Alcotest.test_case "crypto branches" `Quick test_crypto_branches;
          Alcotest.test_case "video walk" `Quick test_video_walk;
          Alcotest.test_case "idct walks" `Quick test_idct_walk;
          Alcotest.test_case "synthetic walk" `Quick test_synthetic_walk;
        ] );
      ( "cache behaviour",
        [
          Alcotest.test_case "use_cache:false bypasses" `Quick test_naive_flag_bypasses;
          Alcotest.test_case "close reals keyed apart" `Quick test_close_reals_keyed_apart;
          Alcotest.test_case "revisit after retraction hits" `Quick test_revisit_hits;
        ] );
      ( "fault injection",
        [
          Alcotest.test_case "crypto CC6 raise" `Quick (test_injected_crypto Faultsim.Raise);
          Alcotest.test_case "crypto CC6 nan" `Quick (test_injected_crypto Faultsim.Return_nan);
          Alcotest.test_case "crypto CC6 diverge" `Quick (test_injected_crypto Faultsim.Diverge);
          Alcotest.test_case "synthetic EL0 raise" `Quick test_injected_synthetic;
        ] );
      ( "parallel vs sequential",
        [
          Alcotest.test_case "synthetic walk" `Quick test_parallel_differential;
          Alcotest.test_case "crypto walk" `Quick test_parallel_differential_crypto;
          Alcotest.test_case "fault timeline" `Quick test_parallel_differential_faults;
        ] );
      ( "generated layers",
        [
          Alcotest.test_case "columnar vs naive" `Quick test_generated_differential;
          Alcotest.test_case "cache effective" `Quick test_generated_cache_effective;
          Alcotest.test_case "fault fallback" `Quick test_generated_faults;
          Alcotest.test_case "word kernels vs closures" `Quick test_word_kernels;
          Alcotest.test_case "parallel differential" `Quick
            test_generated_parallel_differential;
          Alcotest.test_case "generator determinism" `Quick test_generator_determinism;
        ] );
      ("metamorphic", [ test_metamorphic ]);
    ]
