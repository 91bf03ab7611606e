(* Tests for ds_layer: values, domains, properties, property references,
   CDOs, hierarchies, consistency constraints, core indexing, the
   session workflow, the evaluation space and clustering. *)

open Ds_layer
module Core = Ds_reuse.Core

let value_t = Alcotest.testable Value.pp Value.equal
let prop name gen f = QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count:150 ~name gen f)

(* -------------------------------------------------------------------- *)
(* Value                                                                 *)

let test_value_basics () =
  Alcotest.check value_t "str eq" (Value.str "x") (Value.str "x");
  Alcotest.(check bool) "int/real differ" false (Value.equal (Value.int 1) (Value.real 1.0));
  Alcotest.(check string) "to_string str" "hardware" (Value.to_string (Value.str "hardware"));
  Alcotest.(check string) "to_string int" "768" (Value.to_string (Value.int 768));
  Alcotest.(check string) "to_string real" "8" (Value.to_string (Value.real 8.0));
  Alcotest.(check string) "to_string flag" "true" (Value.to_string (Value.flag true));
  Alcotest.(check (option (float 1e-9))) "as_real widens int" (Some 3.0) (Value.as_real (Value.int 3));
  Alcotest.(check (option int)) "as_int of str" None (Value.as_int (Value.str "3"))

(* -------------------------------------------------------------------- *)
(* Domain                                                                *)

let test_domain_enum () =
  let d = Domain.enum [ "a"; "b" ] in
  Alcotest.(check bool) "contains a" true (Domain.contains d (Value.str "a"));
  Alcotest.(check bool) "not c" false (Domain.contains d (Value.str "c"));
  Alcotest.(check bool) "wrong kind" false (Domain.contains d (Value.int 1));
  Alcotest.(check (option (list string))) "options" (Some [ "a"; "b" ]) (Domain.options d);
  Alcotest.(check string) "describe" "{a, b}" (Domain.describe d);
  Alcotest.check_raises "empty" (Invalid_argument "Domain.enum: empty option list") (fun () ->
      ignore (Domain.enum []));
  Alcotest.check_raises "dup" (Invalid_argument "Domain.enum: duplicate options") (fun () ->
      ignore (Domain.enum [ "a"; "a" ]))

let test_domain_powers_of_two () =
  List.iter
    (fun (v, expect) ->
      Alcotest.(check bool) (string_of_int v) expect
        (Domain.contains Domain.powers_of_two (Value.int v)))
    [ (1, true); (2, true); (3, false); (4, true); (0, false); (-4, false); (1024, true) ]

let test_domain_ranges () =
  let d = Domain.Int_range { lo = Some 1; hi = Some 10 } in
  Alcotest.(check bool) "in" true (Domain.contains d (Value.int 5));
  Alcotest.(check bool) "low" false (Domain.contains d (Value.int 0));
  Alcotest.(check bool) "high" false (Domain.contains d (Value.int 11));
  let r = Domain.non_negative_real in
  Alcotest.(check bool) "real ok" true (Domain.contains r (Value.real 8.0));
  Alcotest.(check bool) "int widens" true (Domain.contains r (Value.int 8));
  Alcotest.(check bool) "negative" false (Domain.contains r (Value.real (-1.0)));
  Alcotest.(check string) "R+" "R+" (Domain.describe r)

let test_domain_flag () =
  Alcotest.(check bool) "flag in" true (Domain.contains Domain.Flag_dom (Value.flag false));
  Alcotest.(check bool) "str not in flag" false (Domain.contains Domain.Flag_dom (Value.str "t"));
  Alcotest.(check string) "describe" "{true, false}" (Domain.describe Domain.Flag_dom);
  Alcotest.(check bool) "no options" true (Domain.options Domain.Flag_dom = None)

let test_domain_divisors () =
  let d = Domain.divisors_of "EOL" (fun () -> 768) in
  Alcotest.(check bool) "128 divides" true (Domain.contains d (Value.int 128));
  Alcotest.(check bool) "7 does not" false (Domain.contains d (Value.int 7));
  Alcotest.(check bool) "0 invalid" false (Domain.contains d (Value.int 0))

(* -------------------------------------------------------------------- *)
(* Property                                                              *)

let test_property_construction () =
  let p =
    Property.design_issue ~generalized:true ~name:"Style" ~domain:(Domain.enum [ "hw"; "sw" ]) ()
  in
  Alcotest.(check bool) "generalized" true (Property.is_generalized p);
  Alcotest.(check bool) "is issue" true (Property.is_design_issue p);
  Alcotest.(check bool) "not req" false (Property.is_requirement p);
  Alcotest.(check bool) "accepts" true (Property.accepts p (Value.str "hw"));
  Alcotest.(check bool) "rejects" false (Property.accepts p (Value.str "xx"));
  let bad =
    Property.make ~name:"X" ~kind:Property.Requirement ~domain:(Domain.enum [ "a" ])
      ~default:(Value.str "zz") ()
  in
  Alcotest.(check bool) "bad default" true (Result.is_error bad);
  let empty = Property.make ~name:"" ~kind:Property.Requirement ~domain:(Domain.enum [ "a" ]) () in
  Alcotest.(check bool) "empty name" true (Result.is_error empty)

(* -------------------------------------------------------------------- *)
(* Propref                                                               *)

let test_propref_parse () =
  (match Propref.parse "Radix@*.Hardware.Montgomery" with
  | Ok r ->
    Alcotest.(check string) "prop" "Radix" r.Propref.property;
    Alcotest.(check string) "roundtrip" "Radix@*.Hardware.Montgomery" (Propref.to_string r)
  | Error e -> Alcotest.fail e);
  Alcotest.(check bool) "no @" true (Result.is_error (Propref.parse "Radix"));
  Alcotest.(check bool) "empty prop" true (Result.is_error (Propref.parse "@X"));
  Alcotest.(check bool) "empty seg" true (Result.is_error (Propref.parse "P@a..b"))

let gen_propref =
  let open QCheck2.Gen in
  let seg = oneof [ return Propref.Star; map (fun n -> Propref.Name ("n" ^ string_of_int n)) (int_range 0 9) ] in
  let* property = map (fun n -> "P" ^ string_of_int n) (int_range 0 9) in
  let* pattern = list_size (int_range 1 4) seg in
  return (Result.get_ok (Propref.make ~property ~pattern))

let propref_props =
  [
    prop "to_string/parse roundtrip" gen_propref (fun r ->
        match Propref.parse (Propref.to_string r) with
        | Ok r' -> String.equal (Propref.to_string r) (Propref.to_string r')
        | Error _ -> false);
  ]

let test_propref_matching () =
  let r = Propref.parse_exn "Radix@*.Hardware.Montgomery" in
  Alcotest.(check bool) "suffix match" true
    (Propref.matches_path r [ "Operator"; "Modular"; "Multiplier"; "Hardware"; "Montgomery" ]);
  Alcotest.(check bool) "exact suffix" true (Propref.matches_path r [ "Hardware"; "Montgomery" ]);
  Alcotest.(check bool) "wrong tail" false
    (Propref.matches_path r [ "Hardware"; "Brickell" ]);
  Alcotest.(check bool) "prop too" true
    (Propref.matches r ~path:[ "Hardware"; "Montgomery" ] ~property:"Radix");
  Alcotest.(check bool) "wrong prop" false
    (Propref.matches r ~path:[ "Hardware"; "Montgomery" ] ~property:"EOL");
  let exact = Propref.parse_exn "EOL@Operator" in
  Alcotest.(check bool) "exact" true (Propref.matches_path exact [ "Operator" ]);
  Alcotest.(check bool) "exact no subpath" false (Propref.matches_path exact [ "Operator"; "X" ]);
  let star_mid = Propref.parse_exn "P@A.*.C" in
  Alcotest.(check bool) "mid star" true (Propref.matches_path star_mid [ "A"; "B1"; "B2"; "C" ]);
  Alcotest.(check bool) "mid star empty" true (Propref.matches_path star_mid [ "A"; "C" ]);
  Alcotest.(check bool) "mid star wrong" false (Propref.matches_path star_mid [ "A"; "B"; "D" ])

(* -------------------------------------------------------------------- *)
(* A small test hierarchy: root with hw/sw split, hw with algo split.    *)

let issue name opts =
  Property.design_issue ~generalized:true ~name ~domain:(Domain.enum opts) ()

let plain name opts = Property.design_issue ~name ~domain:(Domain.enum opts) ()

let req name = Property.requirement ~name ~domain:(Domain.Int_range { lo = Some 1; hi = None }) ()

let test_root =
  Cdo.node_exn ~name:"Thing" ~abbrev:"T"
    [ req "Size" ]
    ~issue:(issue "Style" [ "hw"; "sw" ])
    ~children:
      [
        ( "hw",
          Cdo.node_exn ~name:"hw" ~abbrev:"T-H"
            [ plain "Tech" [ "old"; "new" ] ]
            ~issue:(issue "Algo" [ "fast"; "slow" ])
            ~children:
              [
                ("fast", Cdo.leaf_exn ~name:"fast" []);
                ("slow", Cdo.leaf_exn ~name:"slow" []);
              ] );
        ("sw", Cdo.leaf_exn ~name:"sw" ~abbrev:"T-S" [ plain "Lang" [ "c"; "asm" ] ]);
      ]

let test_hierarchy = Hierarchy.create_exn test_root

let mk_core id props merits =
  Core.make_exn ~id ~name:id ~provider:"t" ~kind:Core.Hard_core ~properties:props ~merits ()

let test_cores =
  [
    ("L/h-fast-new", mk_core "h-fast-new"
       [ ("Style", "hw"); ("Algo", "fast"); ("Tech", "new") ]
       [ ("delay", 10.0); ("area", 100.0) ]);
    ("L/h-fast-old", mk_core "h-fast-old"
       [ ("Style", "hw"); ("Algo", "fast"); ("Tech", "old") ]
       [ ("delay", 25.0); ("area", 160.0) ]);
    ("L/h-slow", mk_core "h-slow"
       [ ("Style", "hw"); ("Algo", "slow"); ("Tech", "new") ]
       [ ("delay", 40.0); ("area", 80.0) ]);
    ("L/s-c", mk_core "s-c" [ ("Style", "sw"); ("Lang", "c") ] [ ("delay", 500.0) ]);
    ("L/s-asm", mk_core "s-asm" [ ("Style", "sw"); ("Lang", "asm") ] [ ("delay", 200.0) ]);
    ("L/undeclared", mk_core "undeclared" [] [ ("delay", 77.0) ]);
    ("L/alien", mk_core "alien" [ ("Style", "quantum") ] []);
  ]

(* -------------------------------------------------------------------- *)
(* Cdo / Hierarchy                                                       *)

let test_cdo_validation () =
  (* children must match options *)
  let bad =
    Cdo.node ~name:"X" [] ~issue:(issue "I" [ "a"; "b" ])
      ~children:[ ("a", Cdo.leaf_exn ~name:"a" []) ]
  in
  Alcotest.(check bool) "missing child" true (Result.is_error bad);
  let bad2 =
    Cdo.node ~name:"X" [] ~issue:(plain "I" [ "a" ]) ~children:[ ("a", Cdo.leaf_exn ~name:"a" []) ]
  in
  Alcotest.(check bool) "non-generalized issue" true (Result.is_error bad2);
  let bad3 = Cdo.leaf ~name:"X" [ issue "I" [ "a" ] ] in
  Alcotest.(check bool) "generalized in plain list" true (Result.is_error bad3);
  let bad4 = Cdo.leaf ~name:"X" [ plain "P" [ "a" ]; plain "P" [ "b" ] ] in
  Alcotest.(check bool) "duplicate property" true (Result.is_error bad4)

let test_cdo_accessors () =
  Alcotest.(check bool) "root not leaf" false (Cdo.is_leaf test_root);
  Alcotest.(check int) "all props" 2 (List.length (Cdo.all_properties test_root));
  Alcotest.(check bool) "find prop" true (Cdo.property test_root "Style" <> None);
  Alcotest.(check bool) "find req" true (Cdo.property test_root "Size" <> None);
  Alcotest.(check bool) "child" true (Cdo.child_for_option test_root "hw" <> None);
  Alcotest.(check bool) "no child" true (Cdo.child_for_option test_root "xx" = None)

let test_hierarchy_navigation () =
  Alcotest.(check int) "size" 5 (Hierarchy.size test_hierarchy);
  Alcotest.(check int) "depth" 3 (Hierarchy.depth test_hierarchy);
  Alcotest.(check bool) "find root" true (Hierarchy.find test_hierarchy [ "Thing" ] <> None);
  Alcotest.(check bool) "find nested" true
    (Hierarchy.find test_hierarchy [ "Thing"; "hw"; "fast" ] <> None);
  Alcotest.(check bool) "missing" true (Hierarchy.find test_hierarchy [ "Thing"; "xx" ] = None);
  Alcotest.(check bool) "empty path" true (Hierarchy.find test_hierarchy [] = None);
  Alcotest.(check int) "leaves" 3 (List.length (Hierarchy.leaf_paths test_hierarchy));
  (match Hierarchy.find_by_abbrev test_hierarchy "T-H" with
  | Some (path, _) -> Alcotest.(check (list string)) "abbrev path" [ "Thing"; "hw" ] path
  | None -> Alcotest.fail "abbrev not found");
  Alcotest.(check (option (list string))) "parent" (Some [ "Thing" ])
    (Hierarchy.parent_path [ "Thing"; "hw" ]);
  Alcotest.(check (option (list string))) "root parent" None (Hierarchy.parent_path [ "Thing" ])

let test_hierarchy_inheritance () =
  let visible = Hierarchy.visible_properties test_hierarchy [ "Thing"; "hw"; "fast" ] in
  let names = List.map (fun (_, p) -> p.Property.name) visible in
  (* Size and Style from root, Tech and Algo from hw *)
  List.iter
    (fun n -> Alcotest.(check bool) n true (List.mem n names))
    [ "Size"; "Style"; "Tech"; "Algo" ];
  (match Hierarchy.find_property test_hierarchy [ "Thing"; "hw"; "fast" ] "Size" with
  | Some (at, _) -> Alcotest.(check (list string)) "defined at root" [ "Thing" ] at
  | None -> Alcotest.fail "Size not inherited");
  Alcotest.(check bool) "not visible at sw" true
    (Hierarchy.find_property test_hierarchy [ "Thing"; "sw" ] "Tech" = None)

let test_hierarchy_validation () =
  (* duplicate abbrevs *)
  let dup =
    Cdo.node_exn ~name:"R" ~abbrev:"A" [] ~issue:(issue "I" [ "x" ])
      ~children:[ ("x", Cdo.leaf_exn ~name:"x" ~abbrev:"A" []) ]
  in
  Alcotest.(check bool) "dup abbrev" true (Result.is_error (Hierarchy.create dup));
  (* property shadowing along a path *)
  let shadow =
    Cdo.node_exn ~name:"R" [ plain "P" [ "a" ] ] ~issue:(issue "I" [ "x" ])
      ~children:[ ("x", Cdo.leaf_exn ~name:"x" [ plain "P" [ "b" ] ]) ]
  in
  Alcotest.(check bool) "shadowing" true (Result.is_error (Hierarchy.create shadow))

let test_ref_abbrev_matching () =
  let r = Propref.parse_exn "Tech@T-H" in
  Alcotest.(check bool) "abbrev" true
    (Hierarchy.ref_matches test_hierarchy r ~path:[ "Thing"; "hw" ] ~property:"Tech");
  Alcotest.(check bool) "wrong node" false
    (Hierarchy.ref_matches test_hierarchy r ~path:[ "Thing"; "sw" ] ~property:"Tech");
  Alcotest.(check int) "nodes_matching" 1
    (List.length (Hierarchy.nodes_matching test_hierarchy r))

(* -------------------------------------------------------------------- *)
(* Index                                                                 *)

let test_index_classification () =
  let idx = Index.build test_hierarchy test_cores in
  let path id = Index.path_of idx ~qualified_id:id in
  Alcotest.(check (option (list string))) "hw fast leaf" (Some [ "Thing"; "hw"; "fast" ])
    (path "L/h-fast-new");
  Alcotest.(check (option (list string))) "sw leaf" (Some [ "Thing"; "sw" ]) (path "L/s-c");
  (* no Style property: stays at the root *)
  Alcotest.(check (option (list string))) "undeclared at root" (Some [ "Thing" ])
    (path "L/undeclared");
  (* unknown root option: outside the space *)
  Alcotest.(check (option (list string))) "alien unindexed" None (path "L/alien");
  Alcotest.(check int) "orphans" 1 (List.length (Index.unindexed idx));
  Alcotest.(check int) "under root" 6 (Index.count_under idx [ "Thing" ]);
  Alcotest.(check int) "under hw" 3 (Index.count_under idx [ "Thing"; "hw" ]);
  Alcotest.(check int) "at hw exactly" 0 (List.length (Index.at idx [ "Thing"; "hw" ]));
  Alcotest.(check int) "under sw" 2 (Index.count_under idx [ "Thing"; "sw" ]);
  (* the dense-id masks name exactly [under]'s entries, and each call
     hands out a fresh mask *)
  List.iter
    (fun path ->
      let qids bits = Bitset.map_true (fun i -> fst (Index.entry_at idx i)) bits in
      let mask = Index.under_bits idx path in
      Alcotest.(check (list string))
        ("under_bits " ^ String.concat "." path)
        (List.map fst (Index.under idx path))
        (qids mask);
      Bitset.filter_in_place (fun _ -> false) mask;
      Alcotest.(check int)
        ("under_bits fresh " ^ String.concat "." path)
        (Index.count_under idx path)
        (Bitset.count (Index.under_bits idx path)))
    [ []; [ "Thing" ]; [ "Thing"; "hw" ]; [ "Thing"; "sw" ]; [ "Thing"; "nowhere" ] ]

(* Every node of a generated trie answers [under], [at], [count_under]
   and [all] exactly as a scan of the input list by [path_of] does, with
   the input's own pairs in input order.  Some cores are altered to stop
   above a leaf (a level issue undeclared, or an option the hierarchy
   does not model) and some to fall outside the space (an unmodelled
   root option), so [at] sees interior nodes and orphans are excluded. *)
let test_index_every_node () =
  let module Syn = Ds_domains.Synthetic in
  let spec = Syn.default_spec in
  let hierarchy = Syn.hierarchy spec in
  let alter i ((qid, core) as entry) =
    let level = i mod 4 in
    if level = 0 then entry
    else begin
      (* the generated layer's level-[level] generalized issue *)
      let issue = Printf.sprintf "L%d" level in
      let properties =
        if i mod 3 = 0 then List.remove_assoc issue core.Core.properties
        else
          List.map
            (fun (k, v) -> if String.equal k issue then (k, "unmodelled") else (k, v))
            core.Core.properties
      in
      ( qid,
        Core.make_exn ~id:core.Core.id ~name:core.Core.name ~provider:core.Core.provider
          ~kind:core.Core.kind ~properties ~merits:core.Core.merits () )
    end
  in
  let cores = List.mapi alter (Syn.cores spec) in
  let idx = Index.build hierarchy cores in
  let scan keep =
    List.filter
      (fun (qid, _) ->
        match Index.path_of idx ~qualified_id:qid with Some p -> keep p | None -> false)
      cores
  in
  let rec is_prefix = function
    | [], _ -> true
    | x :: xs, y :: ys -> String.equal x y && is_prefix (xs, ys)
    | _ :: _, [] -> false
  in
  let same ctx expected got =
    Alcotest.(check (list string)) ctx (List.map fst expected) (List.map fst got);
    Alcotest.(check bool) (ctx ^ ": the input pairs") true (List.for_all2 ( == ) expected got)
  in
  let paths = Hierarchy.node_paths hierarchy in
  Alcotest.(check int) "40 nodes" 40 (List.length paths);
  Alcotest.(check bool) "orphans exist" true (Index.unindexed idx <> []);
  same "all" (scan (fun _ -> true)) (Index.all idx);
  List.iter
    (fun path ->
      let ctx = String.concat "." path in
      let under = scan (fun p -> is_prefix (path, p)) in
      same ("under " ^ ctx) under (Index.under idx path);
      same ("at " ^ ctx)
        (if path = [] then [] else scan (fun p -> p = path))
        (Index.at idx path);
      Alcotest.(check int) ("count_under " ^ ctx) (List.length under) (Index.count_under idx path))
    ([] :: [ "nowhere" ] :: (List.hd paths @ [ "nowhere" ]) :: paths);
  Alcotest.(check bool) "some interior node holds cores" true
    (List.exists (fun p -> List.length p < 4 && Index.at idx p <> []) paths)

(* The index keeps one (qid, core) store, the columnar entry array, and
   masks over it: building it over 20,000 generated cores retains at
   most 40 live words per core beyond the input list. *)
let test_index_memory () =
  let module Gn = Ds_domains.Generator in
  let spec = { Gn.default_spec with Gn.cores = 20_000 } in
  let hierarchy = Gn.hierarchy spec and cores = Gn.cores spec in
  Gc.compact ();
  let before = (Gc.stat ()).Gc.live_words in
  let idx = Index.build hierarchy cores in
  Gc.compact ();
  let after = (Gc.stat ()).Gc.live_words in
  ignore (Sys.opaque_identity (hierarchy, cores, idx));
  let per_core = float_of_int (after - before) /. float_of_int spec.Gn.cores in
  if per_core > 40.0 then Alcotest.failf "Index.build retains %.1f words per core" per_core

(* -------------------------------------------------------------------- *)
(* Session                                                               *)

let cc_order =
  (* Tech can only be chosen after Size is known. *)
  Consistency.make_exn ~name:"CCO" ~doc:"tech depends on size"
    ~indep:[ Propref.parse_exn "Size@Thing" ]
    ~dep:[ Propref.parse_exn "Tech@*.hw" ]
    (Consistency.Derive { compute = (fun _ -> []) })

let cc_bad_combo =
  Consistency.make_exn ~name:"CCX" ~doc:"old tech cannot be fast"
    ~indep:[ Propref.parse_exn "Tech@*.hw" ]
    ~dep:[ Propref.parse_exn "Algo@T-H" ]
    (Consistency.Inconsistent
       {
         violated =
           (fun env ->
             match (env.Consistency.value_of "Tech", env.Consistency.value_of "Algo") with
             | Some (Value.Str "old"), Some (Value.Str "fast") -> true
             | _ -> false);
       })

let cc_derive =
  Consistency.make_exn ~name:"CCD" ~doc:"double the size"
    ~indep:[ Propref.parse_exn "Size@Thing" ]
    ~dep:[ Propref.parse_exn "Doubled@Thing" ]
    (Consistency.Derive
       {
         compute =
           (fun env ->
             match env.Consistency.value_of "Size" with
             | Some (Value.Int n) -> [ ("Doubled", Value.int (2 * n)) ]
             | _ -> []);
       })

(* a hierarchy that includes the Doubled derived property *)
let hierarchy_with_derived =
  let root =
    Cdo.node_exn ~name:"Thing" ~abbrev:"T"
      [ req "Size"; req "Doubled" ]
      ~issue:(issue "Style" [ "hw"; "sw" ])
      ~children:
        [
          ( "hw",
            Cdo.node_exn ~name:"hw" ~abbrev:"T-H"
              [ plain "Tech" [ "old"; "new" ] ]
              ~issue:(issue "Algo" [ "fast"; "slow" ])
              ~children:
                [
                  ("fast", Cdo.leaf_exn ~name:"fast" []);
                  ("slow", Cdo.leaf_exn ~name:"slow" []);
                ] );
          ("sw", Cdo.leaf_exn ~name:"sw" ~abbrev:"T-S" [ plain "Lang" [ "c"; "asm" ] ]);
        ]
  in
  Hierarchy.create_exn root

let fresh ?(constraints = []) () =
  Session.create ~hierarchy:hierarchy_with_derived ~constraints ~cores:test_cores ()

let ok = function Ok v -> v | Error e -> Alcotest.failf "unexpected error: %s" e

let test_session_requirements () =
  let s = fresh () in
  let s = ok (Session.set s "Size" (Value.int 64)) in
  Alcotest.(check (option value_t)) "bound" (Some (Value.int 64)) (Session.value_of s "Size");
  Alcotest.(check bool) "already bound" true (Result.is_error (Session.set s "Size" (Value.int 8)));
  Alcotest.(check bool) "domain" true (Result.is_error (Session.set s "Doubled" (Value.int 0)));
  Alcotest.(check bool) "unknown" true (Result.is_error (Session.set s "Nope" (Value.int 1)))

let test_session_descend () =
  let s = fresh () in
  Alcotest.(check (list string)) "root focus" [ "Thing" ] (Session.focus s);
  Alcotest.(check int) "all candidates" 6 (Session.candidate_count s);
  let s = ok (Session.set s "Style" (Value.str "hw")) in
  Alcotest.(check (list string)) "descended" [ "Thing"; "hw" ] (Session.focus s);
  Alcotest.(check int) "pruned to hw" 3 (Session.candidate_count s);
  let s = ok (Session.set s "Algo" (Value.str "fast")) in
  Alcotest.(check (list string)) "leaf" [ "Thing"; "hw"; "fast" ] (Session.focus s);
  Alcotest.(check int) "two fast cores" 2 (Session.candidate_count s);
  (* the trace records the pruning *)
  let descents =
    List.filter (function Session.Focus_descended _ -> true | _ -> false) (Session.events s)
  in
  Alcotest.(check int) "two descents" 2 (List.length descents)

let test_session_issue_pruning () =
  (* non-generalized issues prune without descending *)
  let s = fresh () in
  let s = ok (Session.set s "Style" (Value.str "hw")) in
  let s = ok (Session.set s "Tech" (Value.str "new")) in
  Alcotest.(check (list string)) "no descent" [ "Thing"; "hw" ] (Session.focus s);
  Alcotest.(check int) "old filtered out" 2 (Session.candidate_count s);
  (* undeclared cores are not discriminated by requirement bindings *)
  let ids = List.map fst (Session.candidates s) in
  Alcotest.(check bool) "h-fast-new survives" true (List.mem "L/h-fast-new" ids);
  Alcotest.(check bool) "h-slow survives" true (List.mem "L/h-slow" ids)

let test_session_merit_ranges () =
  let s = fresh () in
  (match Session.merit_range s ~merit:"delay" with
  | Some (lo, hi) ->
    Alcotest.(check (float 1e-9)) "lo" 10.0 lo;
    Alcotest.(check (float 1e-9)) "hi" 500.0 hi
  | None -> Alcotest.fail "expected range");
  let s = ok (Session.set s "Style" (Value.str "hw")) in
  (match Session.merit_range s ~merit:"delay" with
  | Some (lo, hi) ->
    Alcotest.(check (float 1e-9)) "hw lo" 10.0 lo;
    Alcotest.(check (float 1e-9)) "hw hi" 40.0 hi
  | None -> Alcotest.fail "expected range");
  Alcotest.(check (option (pair (float 1e-9) (float 1e-9)))) "missing merit" None
    (Session.merit_range s ~merit:"power")

let test_session_ordering_constraint () =
  let s = fresh ~constraints:[ cc_order ] () in
  let s = ok (Session.set s "Style" (Value.str "hw")) in
  (* Tech blocked until Size is bound *)
  (match Session.set s "Tech" (Value.str "new") with
  | Error msg ->
    Alcotest.(check bool) "mentions CCO" true
      (String.length msg > 0 && String.index_opt msg 'C' <> None)
  | Ok _ -> Alcotest.fail "expected ordering rejection");
  let issues = Session.open_issues s in
  let tech_eligible =
    List.find_map
      (fun (p, e) -> if String.equal p.Property.name "Tech" then Some e else None)
      issues
  in
  Alcotest.(check (option bool)) "tech not eligible" (Some false) tech_eligible;
  let s = ok (Session.set s "Size" (Value.int 8)) in
  let s = ok (Session.set s "Tech" (Value.str "new")) in
  Alcotest.(check (option value_t)) "now bound" (Some (Value.str "new")) (Session.value_of s "Tech")

let test_session_inconsistency_rejected () =
  let s = fresh ~constraints:[ cc_bad_combo ] () in
  let s = ok (Session.set s "Style" (Value.str "hw")) in
  let s = ok (Session.set s "Tech" (Value.str "old")) in
  (match Session.set s "Algo" (Value.str "fast") with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected CC violation");
  (* the consistent option goes through *)
  let s = ok (Session.set s "Algo" (Value.str "slow")) in
  Alcotest.(check (list string)) "descended to slow" [ "Thing"; "hw"; "slow" ] (Session.focus s)

let test_session_derivation () =
  let s = fresh ~constraints:[ cc_derive ] () in
  let s = ok (Session.set s "Size" (Value.int 21)) in
  Alcotest.(check (option value_t)) "derived" (Some (Value.int 42)) (Session.value_of s "Doubled");
  (match Session.binding s "Doubled" with
  | Some b ->
    Alcotest.(check bool) "source" true (b.Session.source = Session.Derived "CCD")
  | None -> Alcotest.fail "no binding");
  (* derived bindings cannot be retracted directly *)
  Alcotest.(check bool) "retract derived" true (Result.is_error (Session.retract s "Doubled"))

let test_session_retract_reassesses () =
  let s = fresh ~constraints:[ cc_derive ] () in
  let s = ok (Session.set s "Size" (Value.int 21)) in
  let s = ok (Session.retract s "Size") in
  Alcotest.(check (option value_t)) "derived gone" None (Session.value_of s "Doubled");
  Alcotest.(check (option value_t)) "size gone" None (Session.value_of s "Size");
  Alcotest.(check bool) "retract unbound" true (Result.is_error (Session.retract s "Size"))

let test_session_retract_generalized () =
  let s = fresh () in
  let s = ok (Session.set s "Style" (Value.str "hw")) in
  let s = ok (Session.set s "Tech" (Value.str "new")) in
  let s = ok (Session.set s "Algo" (Value.str "fast")) in
  Alcotest.(check (list string)) "at leaf" [ "Thing"; "hw"; "fast" ] (Session.focus s);
  (* retracting Style pops all the way back and drops hw-only bindings *)
  let s = ok (Session.retract s "Style") in
  Alcotest.(check (list string)) "back at root" [ "Thing" ] (Session.focus s);
  Alcotest.(check (option value_t)) "tech dropped" None (Session.value_of s "Tech");
  Alcotest.(check (option value_t)) "algo dropped" None (Session.value_of s "Algo");
  Alcotest.(check int) "candidates restored" 6 (Session.candidate_count s)

let test_session_retract_mid_generalized () =
  let s = fresh () in
  let s = ok (Session.set s "Style" (Value.str "hw")) in
  let s = ok (Session.set s "Algo" (Value.str "fast")) in
  let s = ok (Session.retract s "Algo") in
  Alcotest.(check (list string)) "back to hw" [ "Thing"; "hw" ] (Session.focus s);
  Alcotest.(check (option value_t)) "style kept" (Some (Value.str "hw"))
    (Session.value_of s "Style")

let test_session_eliminate_cc () =
  let cc =
    Consistency.make_exn ~name:"CCE" ~doc:"drop slow cores once Size known"
      ~indep:[ Propref.parse_exn "Size@Thing" ]
      ~dep:[ Propref.parse_exn "Style@Thing" ]
      (Consistency.eliminate (fun env core ->
           match env.Consistency.value_of "Size" with
           | Some (Value.Int _) -> (
             match Core.merit core "delay" with Some d -> d > 100.0 | None -> false)
           | _ -> false))
  in
  let s = fresh ~constraints:[ cc ] () in
  Alcotest.(check int) "before" 6 (Session.candidate_count s);
  let s = ok (Session.set s "Size" (Value.int 8)) in
  (* the two software cores (delay 200/500) are eliminated *)
  Alcotest.(check int) "after" 4 (Session.candidate_count s)

let test_session_set_default () =
  let hierarchy =
    Hierarchy.create_exn
      (Cdo.leaf_exn ~name:"N"
         [
           Property.design_issue ~name:"P" ~domain:(Domain.enum [ "a"; "b" ])
             ~default:(Value.str "a") ();
           plain "Q" [ "x" ];
         ])
  in
  let s = Session.create ~hierarchy ~cores:[] () in
  let s = ok (Session.set_default s "P") in
  Alcotest.(check (option value_t)) "default bound" (Some (Value.str "a")) (Session.value_of s "P");
  Alcotest.(check bool) "no default" true (Result.is_error (Session.set_default s "Q"))

let test_session_estimates () =
  let cc =
    Consistency.make_exn ~name:"CCT" ~doc:"toy estimator"
      ~indep:[ Propref.parse_exn "Size@Thing" ]
      ~dep:[ Propref.parse_exn "Metric@Thing" ]
      (Consistency.Estimator_context
         {
           tool = "ToyEstimator";
           estimate =
             (fun env ->
               match env.Consistency.value_of "Size" with
               | Some (Value.Int n) -> [ ("metric", float_of_int (n * n)) ]
               | _ -> []);
         })
  in
  let s = fresh ~constraints:[ cc ] () in
  Alcotest.(check int) "not ready" 0 (List.length (Session.estimates s));
  let s = ok (Session.set s "Size" (Value.int 4)) in
  (match Session.estimates s with
  | [ (tool, [ (name, v) ]) ] ->
    Alcotest.(check string) "tool" "ToyEstimator" tool;
    Alcotest.(check string) "metric name" "metric" name;
    Alcotest.(check (float 1e-9)) "value" 16.0 v
  | _ -> Alcotest.fail "expected one estimate")

let test_session_preview_options () =
  let s = fresh ~constraints:[ cc_bad_combo ] () in
  (* previewing the generalized root issue from a fresh session *)
  (match Session.preview_options s ~issue:"Style" ~merit:"delay" with
  | Error e -> Alcotest.fail e
  | Ok previews -> (
    match previews with
    | [ hw; sw ] ->
      Alcotest.(check string) "hw option" "hw" hw.Session.option_value;
      (match hw.Session.outcome with
      | `Explored (n, Some (lo, hi)) ->
        Alcotest.(check int) "hw candidates" 3 n;
        Alcotest.(check (float 1e-9)) "hw lo" 10.0 lo;
        Alcotest.(check (float 1e-9)) "hw hi" 40.0 hi
      | `Explored (_, None) | `Rejected _ -> Alcotest.fail "hw should explore");
      (match sw.Session.outcome with
      | `Explored (n, Some (lo, hi)) ->
        Alcotest.(check int) "sw candidates" 2 n;
        Alcotest.(check (float 1e-9)) "sw lo" 200.0 lo;
        Alcotest.(check (float 1e-9)) "sw hi" 500.0 hi
      | `Explored (_, None) | `Rejected _ -> Alcotest.fail "sw should explore")
    | _ -> Alcotest.fail "expected two options"));
  (* the session itself is untouched by previews *)
  Alcotest.(check (list string)) "focus unchanged" [ "Thing" ] (Session.focus s);
  Alcotest.(check int) "no bindings" 0 (List.length (Session.bindings s));
  (* a CC-forbidden option reports Rejected *)
  let s = ok (Session.set s "Style" (Value.str "hw")) in
  let s = ok (Session.set s "Tech" (Value.str "old")) in
  (match Session.preview_options s ~issue:"Algo" ~merit:"delay" with
  | Error e -> Alcotest.fail e
  | Ok previews ->
    let outcome name =
      List.find_map
        (fun pv -> if String.equal pv.Session.option_value name then Some pv.Session.outcome else None)
        previews
    in
    (match outcome "fast" with
    | Some (`Rejected _) -> ()
    | Some (`Explored _) -> Alcotest.fail "fast should be rejected with old tech"
    | None -> Alcotest.fail "missing option");
    match outcome "slow" with
    | Some (`Explored (0, _)) -> () (* no old-tech slow core exists *)
    | _ -> Alcotest.fail "slow should explore to an empty family");
  (* error cases *)
  Alcotest.(check bool) "unknown issue" true
    (Result.is_error (Session.preview_options s ~issue:"Nope" ~merit:"delay"));
  Alcotest.(check bool) "requirement not an issue" true
    (Result.is_error (Session.preview_options s ~issue:"Size" ~merit:"delay"));
  Alcotest.(check bool) "already bound" true
    (Result.is_error (Session.preview_options s ~issue:"Tech" ~merit:"delay"))

let test_session_trace_rendering () =
  let s = fresh ~constraints:[ cc_derive ] () in
  let s = ok (Session.set s "Size" (Value.int 10)) in
  let s = ok (Session.set s "Style" (Value.str "sw")) in
  let text = Format.asprintf "%a" Session.pp_trace s in
  List.iter
    (fun frag ->
      Alcotest.(check bool) frag true
        (let nl = String.length frag and hl = String.length text in
         let rec go i = i + nl <= hl && (String.equal (String.sub text i nl) frag || go (i + 1)) in
         go 0))
    [ "requirement Size := 10"; "decision Style := sw"; "derived Doubled := 20"; "focus" ]

(* -------------------------------------------------------------------- *)
(* Session random walks: invariants under arbitrary op sequences         *)

type walk_op =
  | Op_set of string * Value.t
  | Op_retract of string
  | Op_default of string

let gen_walk_op =
  let open QCheck2.Gen in
  let prop_names = [ "Size"; "Doubled"; "Style"; "Tech"; "Algo"; "Lang"; "Nope" ] in
  let values =
    [
      Value.int 1; Value.int 64; Value.str "hw"; Value.str "sw"; Value.str "old";
      Value.str "new"; Value.str "fast"; Value.str "slow"; Value.str "c"; Value.str "asm";
      Value.str "bogus";
    ]
  in
  oneof
    [
      map2 (fun n v -> Op_set (n, v)) (oneofl prop_names) (oneofl values);
      map (fun n -> Op_retract n) (oneofl prop_names);
      map (fun n -> Op_default n) (oneofl prop_names);
    ]

let apply_walk_op s op =
  let keep = function Ok s' -> s' | Error _ -> s in
  match op with
  | Op_set (n, v) -> keep (Session.set s n v)
  | Op_retract n -> keep (Session.retract s n)
  | Op_default n -> keep (Session.set_default s n)

let session_invariants s =
  (* the focus always names a real CDO *)
  Hierarchy.find (Session.hierarchy s) (Session.focus s) <> None
  (* every binding's property is visible at the focus *)
  && List.for_all
       (fun b ->
         Hierarchy.find_property (Session.hierarchy s) (Session.focus s)
           b.Session.prop.Property.name
         <> None)
       (Session.bindings s)
  (* no property bound twice *)
  && (let names = List.map (fun b -> b.Session.prop.Property.name) (Session.bindings s) in
      List.length (List.sort_uniq String.compare names) = List.length names)
  (* candidates never exceed the full population *)
  && Session.candidate_count s <= List.length test_cores
  (* no inconsistent-options constraint is violated *)
  && Session.violations s = []

let walk_props =
  [
    prop "random walks preserve session invariants"
      (QCheck2.Gen.list_size (QCheck2.Gen.int_range 0 25) gen_walk_op)
      (fun ops ->
        let s0 = fresh ~constraints:[ cc_order; cc_bad_combo; cc_derive ] () in
        let final =
          List.fold_left
            (fun s op ->
              let s' = apply_walk_op s op in
              if not (session_invariants s') then
                QCheck2.Test.fail_reportf "invariant broken after an operation"
              else s')
            s0 ops
        in
        session_invariants final);
    prop "every decision can be retracted back to the start"
      (QCheck2.Gen.list_size (QCheck2.Gen.int_range 0 15) gen_walk_op)
      (fun ops ->
        let s0 = fresh () in
        let s = List.fold_left apply_walk_op s0 ops in
        (* retract all designer bindings (repeatedly, since popping the
           focus can drop some for us) *)
        let rec unwind s budget =
          if budget = 0 then s
          else begin
            match
              List.find_opt
                (fun b -> match b.Session.source with Session.Derived _ -> false | _ -> true)
                (Session.bindings s)
            with
            | None -> s
            | Some b -> (
              match Session.retract s b.Session.prop.Property.name with
              | Ok s' -> unwind s' (budget - 1)
              | Error _ -> s)
          end
        in
        let s = unwind s 50 in
        List.length (Session.bindings s) = 0
        && Session.focus s = [ "Thing" ]
        && Session.candidate_count s = Session.candidate_count s0);
  ]

(* -------------------------------------------------------------------- *)
(* Evaluation space                                                      *)

let test_pareto () =
  let p l x y = Evaluation.point ~label:l ~x ~y in
  let points = [ p "a" 1.0 10.0; p "b" 2.0 5.0; p "c" 3.0 6.0; p "d" 1.0 10.0; p "e" 4.0 1.0 ] in
  let front = Evaluation.pareto_front points in
  let labels = List.map (fun pt -> pt.Evaluation.label) front in
  (* c is dominated by b; duplicates a/d both stay (neither strictly
     better) *)
  Alcotest.(check (list string)) "front" [ "a"; "d"; "b"; "e" ] labels;
  Alcotest.(check int) "dominated" 1 (List.length (Evaluation.dominated points));
  Alcotest.(check bool) "b dominates c" true (Evaluation.dominates (p "b" 2.0 5.0) (p "c" 3.0 6.0));
  Alcotest.(check bool) "no self-domination" false
    (Evaluation.dominates (p "x" 1.0 1.0) (p "x" 1.0 1.0))

let gen_points =
  let open QCheck2.Gen in
  list_size (int_range 0 30)
    (map (fun (x, y) -> Evaluation.point ~label:"p" ~x ~y) (pair (float_bound_inclusive 100.0) (float_bound_inclusive 100.0)))

let pareto_props =
  [
    prop "front points are mutually non-dominating" gen_points (fun points ->
        let front = Evaluation.pareto_front points in
        List.for_all
          (fun a -> not (List.exists (fun b -> a != b && Evaluation.dominates b a) front))
          front);
    prop "every point dominated by someone on the front or on it" gen_points (fun points ->
        let front = Evaluation.pareto_front points in
        List.for_all
          (fun pt ->
            List.exists (fun f -> Evaluation.dominates f pt) front
            || List.exists
                 (fun f -> f.Evaluation.x = pt.Evaluation.x && f.Evaluation.y = pt.Evaluation.y)
                 front)
          points);
    prop "front size <= input size" gen_points (fun points ->
        List.length (Evaluation.pareto_front points) <= List.length points);
  ]

let test_ranges () =
  Alcotest.(check (option (pair (float 1e-9) (float 1e-9)))) "empty" None (Evaluation.range []);
  Alcotest.(check (option (pair (float 1e-9) (float 1e-9)))) "values" (Some (1.0, 9.0))
    (Evaluation.range [ 3.0; 1.0; 9.0 ]);
  let points = Evaluation.of_cores ~x:"delay" ~y:"area" test_cores in
  (* only cores with both merits *)
  Alcotest.(check int) "projected" 3 (List.length points)

let test_normalize () =
  let p l x y = Evaluation.point ~label:l ~x ~y in
  let n = Evaluation.normalize [ p "a" 0.0 10.0; p "b" 10.0 20.0 ] in
  (match n with
  | [ a; b ] ->
    Alcotest.(check (float 1e-9)) "a.x" 0.0 a.Evaluation.x;
    Alcotest.(check (float 1e-9)) "b.x" 1.0 b.Evaluation.x;
    Alcotest.(check (float 1e-9)) "a.y" 0.0 a.Evaluation.y;
    Alcotest.(check (float 1e-9)) "b.y" 1.0 b.Evaluation.y
  | _ -> Alcotest.fail "shape");
  Alcotest.(check int) "empty" 0 (List.length (Evaluation.normalize []))

(* -------------------------------------------------------------------- *)
(* Clustering                                                            *)

let test_cluster_two_groups () =
  let p l x y = Evaluation.point ~label:l ~x ~y in
  let points =
    [ p "a" 1.0 1.0; p "b" 1.2 0.9; p "c" 0.9 1.1; p "d" 10.0 10.0; p "e" 10.5 9.8 ]
  in
  match Cluster.suggest_split points with
  | None -> Alcotest.fail "expected split"
  | Some (big, small) ->
    Alcotest.(check int) "big" 3 (List.length big);
    Alcotest.(check int) "small" 2 (List.length small);
    let labels c = List.sort String.compare (List.map (fun pt -> pt.Evaluation.label) c) in
    Alcotest.(check (list string)) "abc" [ "a"; "b"; "c" ] (labels big);
    Alcotest.(check (list string)) "de" [ "d"; "e" ] (labels small);
    Alcotest.(check bool) "clear gap" true (Cluster.silhouette_gap points > 2.0)

let test_cluster_edge_cases () =
  Alcotest.(check int) "empty" 0 (List.length (Cluster.agglomerative ~k:2 []));
  let p = Evaluation.point ~label:"only" ~x:1.0 ~y:1.0 in
  Alcotest.(check int) "singleton" 1 (List.length (Cluster.agglomerative ~k:2 [ p ]));
  Alcotest.(check bool) "split of one" true (Cluster.suggest_split [ p ] = None);
  Alcotest.(check (float 1e-9)) "gap of small" 0.0 (Cluster.silhouette_gap [ p ]);
  Alcotest.check_raises "k=0" (Invalid_argument "Cluster.agglomerative: k must be >= 1") (fun () ->
      ignore (Cluster.agglomerative ~k:0 [ p ]))

let cluster_props =
  [
    prop "clusters partition the points" (QCheck2.Gen.pair gen_points (QCheck2.Gen.int_range 1 5))
      (fun (points, k) ->
        let clusters = Cluster.agglomerative ~k points in
        List.length (List.concat clusters) = List.length points);
    prop "cluster count" (QCheck2.Gen.pair gen_points (QCheck2.Gen.int_range 1 5))
      (fun (points, k) ->
        let n = List.length points in
        let clusters = Cluster.agglomerative ~k points in
        List.length clusters = Stdlib.min k n || (n <= k && List.length clusters = n));
  ]

(* -------------------------------------------------------------------- *)
(* Random hierarchies: framework invariants beyond the fixed tree        *)

(* Generate a random hierarchy (depth <= 3, 2-3 options per issue) and a
   random population bound to its issues. *)
let gen_hierarchy_and_cores =
  let open QCheck2.Gen in
  let* depth = int_range 1 3 in
  let* branching = int_range 2 3 in
  let* n_cores = int_range 0 40 in
  let* seed = int_range 0 1_000_000 in
  let issue_name level = Printf.sprintf "G%d" level in
  let option_name level k = Printf.sprintf "g%d-%d" level k in
  let rec build level name =
    if level > depth then Cdo.leaf_exn ~name [ plain (Printf.sprintf "X-%s" name) [ "u"; "v" ] ]
    else begin
      let options = List.init branching (option_name level) in
      Cdo.node_exn ~name []
        ~issue:
          (Property.design_issue ~generalized:true ~name:(issue_name level)
             ~domain:(Domain.enum options) ())
        ~children:(List.map (fun opt -> (opt, build (level + 1) opt)) options)
    end
  in
  let hierarchy = Hierarchy.create_exn (build 1 "R") in
  let rng = ref seed in
  let next bound =
    rng := ((!rng * 1103515245) + 12345) land 0x3FFFFFFF;
    !rng mod bound
  in
  let cores =
    List.init n_cores (fun i ->
        let properties =
          List.concat_map
            (fun level ->
              (* some cores do not declare deeper issues *)
              if level > 1 && next 4 = 0 then []
              else [ (issue_name level, option_name level (next branching)) ])
            (List.init depth (fun l -> l + 1))
        in
        let id = Printf.sprintf "rc-%d" i in
        ( "L/" ^ id,
          Core.make_exn ~id ~name:id ~provider:"r" ~kind:Core.Soft_core ~properties
            ~merits:[ ("m", float_of_int (next 1000)) ]
            () ))
  in
  return (hierarchy, cores, depth, branching)

let random_hierarchy_props =
  [
    prop "index places every core; under-root = population" gen_hierarchy_and_cores
      (fun (hierarchy, cores, _, _) ->
        let idx = Index.build hierarchy cores in
        let root = [ (Hierarchy.root hierarchy).Cdo.name ] in
        List.length (Index.under idx root) + List.length (Index.unindexed idx)
        = List.length cores);
    prop "descending decisions partition the candidates" gen_hierarchy_and_cores
      (fun (hierarchy, cores, _, branching) ->
        let s = Session.create ~hierarchy ~cores () in
        (* the root issue's options partition the cores that declare it;
           undeclared cores stay at the root and appear in every
           branch's complement *)
        let total = Session.candidate_count s in
        let counts =
          List.filter_map
            (fun k ->
              match Session.set s "G1" (Value.str (Printf.sprintf "g1-%d" k)) with
              | Ok s' -> Some (Session.candidate_count s')
              | Error _ -> None)
            (List.init branching Fun.id)
        in
        List.fold_left ( + ) 0 counts <= total
        && List.for_all (fun c -> c <= total) counts);
    prop "document renders for any hierarchy" gen_hierarchy_and_cores
      (fun (hierarchy, _, _, _) -> String.length (Document.render hierarchy) > 0);
    prop "lint accepts generated hierarchies" gen_hierarchy_and_cores
      (fun (hierarchy, _, _, _) -> Lint.is_clean hierarchy);
    prop "organize over random populations never crashes" gen_hierarchy_and_cores
      (fun (hierarchy, cores, depth, _) ->
        ignore hierarchy;
        let issues = List.init depth (fun l -> Printf.sprintf "G%d" (l + 1)) in
        match Organize.derive_hierarchy ~name:"D" cores ~issues ~x:"m" ~y:"m" with
        | Ok derived -> Hierarchy.size derived >= 1
        | Error _ -> true);
  ]

(* -------------------------------------------------------------------- *)
(* Document rendering                                                    *)

let string_contains haystack needle =
  let nl = String.length needle and hl = String.length haystack in
  let rec go i = i + nl <= hl && (String.equal (String.sub haystack i nl) needle || go (i + 1)) in
  nl = 0 || go 0

let test_document_render () =
  let cc =
    Consistency.make_exn ~name:"CCT" ~doc:"toy"
      ~indep:[ Propref.parse_exn "Size@Thing" ]
      ~dep:[ Propref.parse_exn "Tech@T-H" ]
      (Consistency.Derive { compute = (fun _ -> []) })
  in
  let text = Document.render ~title:"Test Layer" ~constraints:[ cc ] test_hierarchy in
  List.iter
    (fun fragment ->
      Alcotest.(check bool) fragment true (string_contains text fragment))
    [
      "# Test Layer";
      "5 classes of design objects";
      "## Thing (T)";
      "**Style**";
      "Generalized Design Issue";
      "specializations: hw, sw";
      "Leaf class";
      "## Consistency constraints";
      "CCT";
      "Indep_Set={Size@Thing}";
    ];
  (* save/load *)
  let path = Filename.temp_file "ds_layer" ".md" in
  (match Document.save test_hierarchy ~path with
  | Ok () -> Alcotest.(check bool) "file written" true (Sys.file_exists path)
  | Error e -> Alcotest.fail e);
  Sys.remove path

(* -------------------------------------------------------------------- *)
(* Script / replay                                                       *)

let test_script_replay_basic () =
  let s0 = fresh ~constraints:[ cc_derive ] () in
  let s = ok (Session.set s0 "Size" (Value.int 12)) in
  let s = ok (Session.set s "Style" (Value.str "hw")) in
  let s = ok (Session.set s "Tech" (Value.str "new")) in
  let script = Session.script s in
  Alcotest.(check int) "three entries (derived Doubled omitted)" 3 (List.length script);
  let replayed = ok (Session.replay s0 script) in
  Alcotest.(check (list string)) "same focus" (Session.focus s) (Session.focus replayed);
  Alcotest.(check int) "same candidates" (Session.candidate_count s)
    (Session.candidate_count replayed);
  Alcotest.(check (option value_t)) "derived re-derives" (Some (Value.int 24))
    (Session.value_of replayed "Doubled")

let test_script_replay_after_retraction () =
  let s0 = fresh () in
  let s = ok (Session.set s0 "Style" (Value.str "hw")) in
  let s = ok (Session.set s "Tech" (Value.str "new")) in
  let s = ok (Session.set s "Algo" (Value.str "fast")) in
  (* pop all the way back, then go the other way *)
  let s = ok (Session.retract s "Style") in
  let s = ok (Session.set s "Style" (Value.str "sw")) in
  let script = Session.script s in
  (* retraction cancelled Style/Tech/Algo; only the new Style remains *)
  Alcotest.(check int) "one entry" 1 (List.length script);
  let replayed = ok (Session.replay s0 script) in
  Alcotest.(check (list string)) "focus sw" [ "Thing"; "sw" ] (Session.focus replayed);
  Alcotest.(check int) "same candidates" (Session.candidate_count s)
    (Session.candidate_count replayed)

let script_replay_props =
  [
    prop "replay of a random walk reproduces the session"
      (QCheck2.Gen.list_size (QCheck2.Gen.int_range 0 20) gen_walk_op)
      (fun ops ->
        let s0 = fresh ~constraints:[ cc_order; cc_bad_combo; cc_derive ] () in
        let s = List.fold_left apply_walk_op s0 ops in
        match Session.replay s0 (Session.script s) with
        | Error e -> QCheck2.Test.fail_reportf "replay failed: %s" e
        | Ok replayed ->
          Session.focus replayed = Session.focus s
          && Session.candidate_count replayed = Session.candidate_count s
          && List.length (Session.bindings replayed) = List.length (Session.bindings s));
  ]

(* -------------------------------------------------------------------- *)
(* Report rendering                                                      *)

let test_report_render () =
  let s0 = fresh ~constraints:[ cc_derive ] () in
  let s1 = ok (Session.set s0 "Size" (Value.int 10)) in
  let s2 = ok (Session.set s1 "Style" (Value.str "hw")) in
  let text =
    Report.render ~title:"Walkthrough" ~merits:[ "delay"; "area" ] ~pareto:("delay", "area") s2
  in
  let has needle =
    let nl = String.length needle and hl = String.length text in
    let rec go i = i + nl <= hl && (String.equal (String.sub text i nl) needle || go (i + 1)) in
    nl = 0 || go 0
  in
  List.iter
    (fun fragment -> Alcotest.(check bool) fragment true (has fragment))
    [
      "# Walkthrough";
      "Focus: `Thing . hw`";
      "| Size | 10 | designer |";
      "| Doubled | 20 | derived by CCD |";
      "decision **Style** := hw";
      (* "before" counts with the decision's own filtering already
         applied (the undeclared-at-root core still matches), "after"
         reflects the focus descent *)
      "specialized to `Thing.hw` (candidates 4 -> 3)";
      "## Surviving candidates (3)";
      "- delay: 10 .. 40";
      "## Pareto front (delay vs area)";
    ];
  (* save *)
  let path = Filename.temp_file "ds_layer" "_report.md" in
  (match Report.save s2 ~path with
  | Ok () -> Alcotest.(check bool) "saved" true (Sys.file_exists path)
  | Error e -> Alcotest.fail e);
  Sys.remove path

(* -------------------------------------------------------------------- *)
(* Session diff                                                          *)

let test_diff_branches () =
  let s0 = fresh () in
  let s0 = ok (Session.set s0 "Size" (Value.int 8)) in
  let hw = ok (Session.set s0 "Style" (Value.str "hw")) in
  let hw = ok (Session.set hw "Tech" (Value.str "new")) in
  let sw = ok (Session.set s0 "Style" (Value.str "sw")) in
  let d = Diff.compare ~merits:[ "delay" ] hw sw in
  Alcotest.(check (list string)) "left focus" [ "Thing"; "hw" ] d.Diff.focus_left;
  Alcotest.(check (list string)) "right focus" [ "Thing"; "sw" ] d.Diff.focus_right;
  (* Size is shared; Style differs; Tech only on the left *)
  let diff_names = List.map (fun bd -> bd.Diff.name) d.Diff.binding_diffs in
  Alcotest.(check (list string)) "differing bindings" [ "Style"; "Tech" ] diff_names;
  Alcotest.(check bool) "size not listed" true (not (List.mem "Size" diff_names));
  Alcotest.(check int) "no shared candidates" 0 d.Diff.shared;
  Alcotest.(check int) "hw keeps 2" 2 (List.length d.Diff.only_left);
  Alcotest.(check int) "sw keeps 2" 2 (List.length d.Diff.only_right);
  (match d.Diff.merit_diffs with
  | [ md ] ->
    Alcotest.(check (option (pair (float 1e-9) (float 1e-9)))) "left range" (Some (10.0, 40.0))
      md.Diff.left_range;
    Alcotest.(check (option (pair (float 1e-9) (float 1e-9)))) "right range" (Some (200.0, 500.0))
      md.Diff.right_range
  | _ -> Alcotest.fail "one merit diff expected");
  (* identical branches diff to nothing *)
  let d0 = Diff.compare s0 s0 in
  Alcotest.(check int) "no binding diffs" 0 (List.length d0.Diff.binding_diffs);
  Alcotest.(check int) "no exclusive cores" 0
    (List.length d0.Diff.only_left + List.length d0.Diff.only_right);
  (* rendering mentions the key facts *)
  let text = Format.asprintf "%a" Diff.pp d in
  let has needle =
    let nl = String.length needle and hl = String.length text in
    let rec go i = i + nl <= hl && (String.equal (String.sub text i nl) needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "mentions style" true (has "Style");
  Alcotest.(check bool) "mentions unbound" true (has "(unbound)")

(* -------------------------------------------------------------------- *)
(* Layer facade                                                          *)

let test_layer_facade () =
  let registry =
    Ds_reuse.Registry.register_exn Ds_reuse.Registry.empty
      (Ds_reuse.Library.make_exn ~name:"L" (List.map snd test_cores))
  in
  let layer =
    Layer.make_exn ~name:"Test" ~hierarchy:test_hierarchy
      ~constraints:[ cc_order; cc_bad_combo ] ~registry ()
  in
  Alcotest.(check int) "core count" (List.length test_cores) (Layer.core_count layer);
  let s = Layer.explore layer in
  Alcotest.(check int) "session sees indexed cores" 6 (Session.candidate_count s);
  Alcotest.(check bool) "document mentions the name" true
    (String.length (Layer.document layer) > 0);
  let summary = Format.asprintf "%a" Layer.pp_summary layer in
  Alcotest.(check bool) "summary mentions CDOs" true
    (let needle = "5 CDOs" in
     let nl = String.length needle and hl = String.length summary in
     let rec go i = i + nl <= hl && (String.equal (String.sub summary i nl) needle || go (i + 1)) in
     go 0);
  (* construction rejects broken constraint sets *)
  let broken =
    Consistency.make_exn ~name:"CCX2" ~indep:[ Propref.parse_exn "Size@Nowhere" ]
      ~dep:[ Propref.parse_exn "Tech@T-H" ]
      (Consistency.Derive { compute = (fun _ -> []) })
  in
  Alcotest.(check bool) "broken rejected" true
    (Result.is_error
       (Layer.make ~name:"Bad" ~hierarchy:test_hierarchy ~constraints:[ broken ] ~registry ()));
  Alcotest.(check bool) "empty name rejected" true
    (Result.is_error (Layer.make ~name:"" ~hierarchy:test_hierarchy ~registry ()))

(* -------------------------------------------------------------------- *)
(* Lint                                                                  *)

let test_lint_clean_layer () =
  (* the tiny test hierarchy with well-formed constraints lints clean *)
  Alcotest.(check bool) "clean" true
    (Lint.is_clean ~constraints:[ cc_order; cc_bad_combo; cc_derive ] test_hierarchy)

let test_lint_dangling_reference () =
  let bad_node =
    Consistency.make_exn ~name:"CCBAD1" ~indep:[ Propref.parse_exn "Size@Nowhere" ]
      ~dep:[ Propref.parse_exn "Tech@T-H" ]
      (Consistency.Derive { compute = (fun _ -> []) })
  in
  let bad_prop =
    Consistency.make_exn ~name:"CCBAD2" ~indep:[ Propref.parse_exn "Typo@Thing" ]
      ~dep:[ Propref.parse_exn "Tech@T-H" ]
      (Consistency.Derive { compute = (fun _ -> []) })
  in
  let findings = Lint.check ~constraints:[ bad_node; bad_prop ] test_hierarchy in
  let errors = List.filter (fun f -> f.Lint.severity = Lint.Error) findings in
  Alcotest.(check int) "two errors" 2 (List.length errors);
  Alcotest.(check bool) "not clean" false
    (Lint.is_clean ~constraints:[ bad_node ] test_hierarchy)

let test_lint_descendant_resolution () =
  (* the paper's loose notation: a property defined in a specialization,
     addressed through the ancestor's name, must resolve *)
  let loose =
    Consistency.make_exn ~name:"CCLOOSE" ~indep:[ Propref.parse_exn "Tech@Thing" ]
      ~dep:[ Propref.parse_exn "Algo@T" ]
      (Consistency.Derive { compute = (fun _ -> []) })
  in
  Alcotest.(check bool) "resolves through descendants" true
    (Lint.is_clean ~constraints:[ loose ] test_hierarchy)

let test_lint_duplicate_names () =
  let cc name =
    Consistency.make_exn ~name ~indep:[ Propref.parse_exn "Size@Thing" ]
      ~dep:[ Propref.parse_exn "Tech@T-H" ]
      (Consistency.Derive { compute = (fun _ -> []) })
  in
  let findings = Lint.check ~constraints:[ cc "X"; cc "X" ] test_hierarchy in
  Alcotest.(check bool) "duplicate flagged" true
    (List.exists
       (fun f -> f.Lint.severity = Lint.Error && String.equal f.Lint.message "duplicate constraint name")
       findings)

let test_lint_crypto_layer_clean () =
  (* the shipped cryptography layer must lint clean (pure-metric
     warnings allowed) *)
  Alcotest.(check bool) "crypto layer clean" true
    (Lint.is_clean ~constraints:Ds_domains.Crypto_layer.constraints
       Ds_domains.Crypto_layer.hierarchy)

(* -------------------------------------------------------------------- *)
(* Multi-objective fronts                                                *)

let mo = Multi_objective.point

let test_multi_dominance () =
  Alcotest.(check bool) "dominates" true
    (Multi_objective.dominates (mo ~label:"a" [| 1.0; 1.0; 1.0 |]) (mo ~label:"b" [| 2.0; 1.0; 1.0 |]));
  Alcotest.(check bool) "equal no" false
    (Multi_objective.dominates (mo ~label:"a" [| 1.0; 1.0 |]) (mo ~label:"b" [| 1.0; 1.0 |]));
  Alcotest.(check bool) "trade-off no" false
    (Multi_objective.dominates (mo ~label:"a" [| 1.0; 2.0 |]) (mo ~label:"b" [| 2.0; 1.0 |]));
  Alcotest.check_raises "dimension mismatch"
    (Invalid_argument "Multi_objective.dominates: dimension mismatch") (fun () ->
      ignore (Multi_objective.dominates (mo ~label:"a" [| 1.0 |]) (mo ~label:"b" [| 1.0; 2.0 |])));
  Alcotest.check_raises "empty point" (Invalid_argument "Multi_objective.point: no coordinates")
    (fun () -> ignore (mo ~label:"x" [||]))

let test_multi_front_3d () =
  (* c is on no 2-D front but is 3-D Pareto-optimal *)
  let a = mo ~label:"a" [| 1.0; 9.0; 9.0 |] in
  let b = mo ~label:"b" [| 9.0; 1.0; 9.0 |] in
  let c = mo ~label:"c" [| 5.0; 5.0; 1.0 |] in
  let d = mo ~label:"d" [| 9.0; 9.0; 9.0 |] in
  let front = Multi_objective.pareto_front [ a; b; c; d ] in
  let labels = List.map (fun p -> p.Multi_objective.label) front in
  Alcotest.(check (list string)) "front" [ "a"; "b"; "c" ] labels;
  Alcotest.(check int) "dominated" 1 (Multi_objective.dominated_count [ a; b; c; d ]);
  (match Multi_objective.ideal [ a; b; c; d ] with
  | Some i -> Alcotest.(check bool) "ideal" true (i = [| 1.0; 1.0; 1.0 |])
  | None -> Alcotest.fail "ideal");
  match Multi_objective.nearest_to_ideal [ a; b; c; d ] with
  | Some p -> Alcotest.(check string) "balanced pick" "c" p.Multi_objective.label
  | None -> Alcotest.fail "nearest"

let gen_multi_points =
  let open QCheck2.Gen in
  let* dim = int_range 1 4 in
  list_size (int_range 0 25)
    (map
       (fun xs -> mo ~label:"p" (Array.of_list xs))
       (list_repeat dim (float_bound_inclusive 10.0)))

let multi_props =
  [
    prop "nd front is mutually non-dominating" gen_multi_points (fun points ->
        let front = Multi_objective.pareto_front points in
        List.for_all
          (fun a -> not (List.exists (fun b -> a != b && Multi_objective.dominates b a) front))
          front);
    prop "nd front covers all points" gen_multi_points (fun points ->
        let front = Multi_objective.pareto_front points in
        List.for_all
          (fun p ->
            List.exists (fun f -> f == p || Multi_objective.dominates f p || f.Multi_objective.coords = p.Multi_objective.coords) front)
          points);
    prop "ideal is a lower bound" gen_multi_points (fun points ->
        match Multi_objective.ideal points with
        | None -> points = []
        | Some i ->
          List.for_all
            (fun p -> Array.for_all2 (fun lo v -> lo <= v) i p.Multi_objective.coords)
            points);
  ]

let () =
  Alcotest.run "ds_layer"
    [
      ("value", [ Alcotest.test_case "basics" `Quick test_value_basics ]);
      ( "domain",
        [
          Alcotest.test_case "enum" `Quick test_domain_enum;
          Alcotest.test_case "powers of two" `Quick test_domain_powers_of_two;
          Alcotest.test_case "ranges" `Quick test_domain_ranges;
          Alcotest.test_case "flags" `Quick test_domain_flag;
          Alcotest.test_case "divisors" `Quick test_domain_divisors;
        ] );
      ("property", [ Alcotest.test_case "construction" `Quick test_property_construction ]);
      ( "propref",
        Alcotest.test_case "parse" `Quick test_propref_parse
        :: Alcotest.test_case "matching" `Quick test_propref_matching
        :: propref_props );
      ( "cdo-hierarchy",
        [
          Alcotest.test_case "cdo validation" `Quick test_cdo_validation;
          Alcotest.test_case "cdo accessors" `Quick test_cdo_accessors;
          Alcotest.test_case "navigation" `Quick test_hierarchy_navigation;
          Alcotest.test_case "inheritance" `Quick test_hierarchy_inheritance;
          Alcotest.test_case "validation" `Quick test_hierarchy_validation;
          Alcotest.test_case "abbrev refs" `Quick test_ref_abbrev_matching;
        ] );
      ( "index",
        [
          Alcotest.test_case "classification" `Quick test_index_classification;
          Alcotest.test_case "every node" `Quick test_index_every_node;
          Alcotest.test_case "memory per core" `Quick test_index_memory;
        ] );
      ( "session",
        [
          Alcotest.test_case "requirements" `Quick test_session_requirements;
          Alcotest.test_case "descend on generalized" `Quick test_session_descend;
          Alcotest.test_case "plain issue pruning" `Quick test_session_issue_pruning;
          Alcotest.test_case "merit ranges" `Quick test_session_merit_ranges;
          Alcotest.test_case "ordering constraint" `Quick test_session_ordering_constraint;
          Alcotest.test_case "inconsistency rejected" `Quick test_session_inconsistency_rejected;
          Alcotest.test_case "derivation" `Quick test_session_derivation;
          Alcotest.test_case "retract re-assesses" `Quick test_session_retract_reassesses;
          Alcotest.test_case "retract generalized" `Quick test_session_retract_generalized;
          Alcotest.test_case "retract mid-level" `Quick test_session_retract_mid_generalized;
          Alcotest.test_case "eliminate" `Quick test_session_eliminate_cc;
          Alcotest.test_case "set_default" `Quick test_session_set_default;
          Alcotest.test_case "estimator contexts" `Quick test_session_estimates;
          Alcotest.test_case "option previews" `Quick test_session_preview_options;
          Alcotest.test_case "trace rendering" `Quick test_session_trace_rendering;
        ]
        @ walk_props );
      ( "evaluation",
        Alcotest.test_case "pareto" `Quick test_pareto
        :: Alcotest.test_case "ranges" `Quick test_ranges
        :: Alcotest.test_case "normalize" `Quick test_normalize
        :: pareto_props );
      ("document", [ Alcotest.test_case "render" `Quick test_document_render ]);
      ("report", [ Alcotest.test_case "render" `Quick test_report_render ]);
      ("random-hierarchies", random_hierarchy_props);
      ( "script-replay",
        Alcotest.test_case "basic" `Quick test_script_replay_basic
        :: Alcotest.test_case "after retraction" `Quick test_script_replay_after_retraction
        :: script_replay_props );
      ("diff", [ Alcotest.test_case "branch comparison" `Quick test_diff_branches ]);
      ("layer-facade", [ Alcotest.test_case "bundle" `Quick test_layer_facade ]);
      ( "lint",
        [
          Alcotest.test_case "clean layer" `Quick test_lint_clean_layer;
          Alcotest.test_case "dangling references" `Quick test_lint_dangling_reference;
          Alcotest.test_case "descendant resolution" `Quick test_lint_descendant_resolution;
          Alcotest.test_case "duplicate names" `Quick test_lint_duplicate_names;
          Alcotest.test_case "crypto layer is clean" `Quick test_lint_crypto_layer_clean;
        ] );
      ( "multi-objective",
        Alcotest.test_case "dominance" `Quick test_multi_dominance
        :: Alcotest.test_case "3d front" `Quick test_multi_front_3d
        :: multi_props );
      ( "cluster",
        Alcotest.test_case "two groups" `Quick test_cluster_two_groups
        :: Alcotest.test_case "edge cases" `Quick test_cluster_edge_cases
        :: cluster_props );
    ]
