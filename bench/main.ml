(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation and prints paper-reported values next to measured ones.

   Usage:
     dune exec bench/main.exe            -- run every experiment + micro
     dune exec bench/main.exe table1     -- one experiment
     dune exec bench/main.exe fig6 fig9  -- several
     dune exec bench/main.exe micro --json [--smoke]
                                         -- incremental-pruning baseline
                                            -> BENCH_PR2.json
     dune exec bench/main.exe serve --json [--smoke]
                                         -- exploration-service bench
                                            (socket server, 8 concurrent
                                            clients, worker-pool sweep)
                                            -> BENCH_PR4.json
     dune exec bench/main.exe obs --json [--smoke]
                                         -- telemetry overhead: the
                                            serve bench with tracing
                                            off vs on -> BENCH_PR5.json
     dune exec bench/main.exe sweep --json [--smoke]
                                         -- columnar Eliminate sweep on
                                            generated 10^5/10^6-core
                                            layers, columnar vs naive
                                            -> BENCH_PR7.json
     dune exec bench/main.exe fleet --json [--smoke]
                                         -- sharded fleet: router + 4
                                            worker processes, 256
                                            clients over 20k sessions,
                                            SIGKILL + journal-resume
                                            leg -> BENCH_PR9.json
     dune exec bench/main.exe obs-fleet --json [--smoke]
                                         -- distributed-tracing
                                            overhead: the depth-16
                                            pipelined fleet with
                                            DSE_TELEMETRY off vs on
                                            -> BENCH_PR10.json

   Every JSON bench honours DSE_BENCH_REPS=n (override per-phase
   repetition counts) and writes a gitignored BENCH_PR*-latest.json
   twin next to the pinned file.

   Experiments: table1 fig3 fig6 fig7 fig8 fig9 fig10 fig12 fig13
                casestudy ablation power micro *)

open Ds_layer
module D = Ds_rtl.Modmul_datapath
module Design = Ds_rtl.Modmul_design
module N = Ds_domains.Names
module CL = Ds_domains.Crypto_layer

let printf = Printf.printf
let ok = function Ok v -> v | Error e -> failwith e

let header title =
  printf "\n%s\n%s\n" title (String.make (String.length title) '=')

let opt_f = function Some v -> Printf.sprintf "%8.0f" v | None -> "       ?"
let opt_f2 = function Some v -> Printf.sprintf "%6.2f" v | None -> "     ?"

(* ------------------------------------------------------------------ *)
(* E1: Table 1                                                          *)

let table1 () =
  header "E1 / Table 1: modular multiplier designs (area um2, latency ns, clock ns; EOL = slice width)";
  printf "%-5s %-28s %6s | %-26s | %-26s\n" "dsgn" "configuration" "width" "paper (reconstructed)"
    "measured";
  let ratios = ref [] in
  List.iter
    (fun design_no ->
      List.iter
        (fun slice_width ->
          let cfg = Design.design design_no ~slice_width in
          let m = D.characterize cfg ~eol:slice_width in
          let paper = Ds_paperdata.Paper_data.table1_cell ~design_no ~slice_width in
          let p_area = Option.bind paper (fun c -> c.Ds_paperdata.Paper_data.area) in
          let p_lat = Option.bind paper (fun c -> c.Ds_paperdata.Paper_data.latency) in
          let p_clk = Option.bind paper (fun c -> c.Ds_paperdata.Paper_data.clock) in
          (match p_area with
          | Some a -> ratios := (m.D.char_area_um2 /. a) :: !ratios
          | None -> ());
          printf "#%d    %-28s %6d | %s %s %s | %8.0f %8.0f %6.2f\n" design_no
            (Printf.sprintf "r%d %s %s" (D.radix cfg)
               (Ds_rtl.Adder.name cfg.D.adder)
               (match cfg.D.multiplier with
               | None -> "and-row"
               | Some mul -> Ds_rtl.Multiplier.name mul))
            slice_width (opt_f p_area) (opt_f p_lat) (opt_f2 p_clk) m.D.char_area_um2
            m.D.char_latency_ns m.D.char_clock_ns)
        Design.slice_widths)
    Design.design_numbers;
  let n = List.length !ratios in
  let log_sum = List.fold_left (fun acc r -> acc +. log r) 0.0 !ratios in
  printf "\narea model vs paper: geometric-mean ratio %.2f over %d known cells\n"
    (exp (log_sum /. float_of_int n))
    n;
  printf "shape checks: CSA clock flat (#2: %.2f -> %.2f), CLA clock grows (#1: %.2f -> %.2f)\n"
    (D.clock_ns (Design.design 2 ~slice_width:8))
    (D.clock_ns (Design.design 2 ~slice_width:128))
    (D.clock_ns (Design.design 1 ~slice_width:8))
    (D.clock_ns (Design.design 1 ~slice_width:128))

(* ------------------------------------------------------------------ *)
(* E5: Figs 2 & 3 (IDCT clusters and organisations)                     *)

let fig3 () =
  header "E5 / Figs 2-3: IDCT evaluation-space clusters and layer organisation";
  let points =
    Evaluation.of_cores ~x:N.m_latency_ns ~y:N.m_area_um2 Ds_domains.Idct_layer.cores
  in
  List.iter (fun p -> Format.printf "  %a@." Evaluation.pp_point p) points;
  (match Cluster.suggest_split points with
  | Some (a, b) ->
    let names c = String.concat "," (List.map (fun p -> p.Evaluation.label) c) in
    printf "clusters found: {%s} vs {%s}   (paper: {1,2,5} vs {3,4})\n" (names a) (names b);
    printf "merge-gap ratio: %.2f (values >> 1 mean a clear two-cluster structure)\n"
      (Cluster.silhouette_gap points)
  | None -> printf "no split found\n");
  printf "\nfirst-decision quality (Section 2.1's argument, quantified):\n";
  printf "%-32s %-8s %5s %13s %12s\n" "organisation" "choice" "cores" "delay spread" "area spread";
  List.iter
    (fun r ->
      printf "%-32s %-8s %5d %13.2f %12.2f\n" r.Ds_domains.Idct_layer.organisation
        r.Ds_domains.Idct_layer.option_chosen r.Ds_domains.Idct_layer.candidates_left
        r.Ds_domains.Idct_layer.delay_spread r.Ds_domains.Idct_layer.area_spread)
    (Ds_domains.Idct_layer.first_decision_report ())

(* ------------------------------------------------------------------ *)
(* E2: Fig 6                                                            *)

let fig6 () =
  header "E2 / Fig 6: one 1024-bit modular multiplication, hardware vs software (us)";
  printf "%-12s %10s %10s\n" "design" "paper" "measured";
  List.iter
    (fun (label, paper_us) ->
      match Design.parse_label label with
      | None -> ()
      | Some (design_no, slice_width) ->
        let cfg = Design.design design_no ~slice_width in
        printf "%-12s %10.2f %10.2f\n" label paper_us (D.latency_ns cfg ~eol:1024 /. 1000.0))
    Ds_paperdata.Paper_data.fig6_hardware_us;
  List.iter
    (fun (label, paper_us) ->
      let routine =
        List.find
          (fun r -> String.equal (Ds_swmodel.Pentium.routine_name r) label)
          Ds_swmodel.Pentium.all_routines
      in
      printf "%-12s %10.0f %10.0f\n" label paper_us
        (Ds_swmodel.Pentium.modmul_time_us routine.Ds_swmodel.Pentium.variant
           routine.Ds_swmodel.Pentium.language ~bits:1024))
    Ds_paperdata.Paper_data.fig6_software_us;
  let hw = D.latency_ns (Design.design 5 ~slice_width:16) ~eol:1024 /. 1000.0 in
  let sw =
    Ds_swmodel.Pentium.modmul_time_us Ds_swmodel.Mont_variants.Cios Ds_swmodel.Pentium.Assembler
      ~bits:1024
  in
  printf "\nhardware/software gap: %.0fx (paper: ~400x between #5_16 and CIOS-ASM)\n" (sw /. hw)

(* ------------------------------------------------------------------ *)
(* E6: Figs 4, 5 & 7                                                    *)

let fig7 () =
  header "E6 / Figs 4-5-7: the cryptography CDO hierarchy";
  Format.printf "%a@." Hierarchy.pp_tree CL.hierarchy;
  printf "nodes: %d   depth: %d   leaves: %d\n" (Hierarchy.size CL.hierarchy)
    (Hierarchy.depth CL.hierarchy)
    (List.length (Hierarchy.leaf_paths CL.hierarchy));
  let registry = Ds_domains.Populate.standard_registry ~eol:768 () in
  let cores = Ds_reuse.Registry.all_cores registry in
  printf "\nindexing of the %d-core registry under the hierarchy:\n" (List.length cores);
  let index = Index.build CL.hierarchy cores in
  List.iter
    (fun path ->
      let n = List.length (Index.at index path) in
      if n > 0 then printf "  %-55s %3d cores\n" (String.concat "." path) n)
    (Hierarchy.node_paths CL.hierarchy)

(* ------------------------------------------------------------------ *)
(* E7: Figs 8 & 11                                                      *)

let fig8 () =
  header "E7 / Figs 8 & 11: requirements and design issues of OMM / OMM-H / OMM-HM";
  let show path =
    match Hierarchy.find CL.hierarchy path with
    | None -> ()
    | Some cdo ->
      printf "-- %s%s --\n" (String.concat "." path)
        (match cdo.Cdo.abbrev with None -> "" | Some a -> " (" ^ a ^ ")");
      List.iter (fun p -> Format.printf "  %a@." Property.pp p) (Cdo.all_properties cdo)
  in
  show CL.omm_path;
  show CL.omm_hardware_path;
  show CL.omm_hardware_montgomery_path;
  show CL.omm_software_path

(* ------------------------------------------------------------------ *)
(* E3: Fig 9                                                            *)

let fig9 () =
  header "E3 / Fig 9: Brickell vs Montgomery evaluation space, 768-bit operands";
  let widths = [ 8; 16; 32; 64; 128 ] in
  let series design_no =
    Design.evaluation_points ~eol:768 (List.map (fun w -> (design_no, w)) widths)
  in
  printf "%-8s %12s %12s\n" "label" "delay ns" "area um2";
  let print_series s =
    List.iter
      (fun (label, ch) -> printf "%-8s %12.0f %12.0f\n" label ch.D.char_latency_ns ch.D.char_area_um2)
      s
  in
  let montgomery = series 2 and brickell = series 8 in
  print_series montgomery;
  print_series brickell;
  let alo, ahi = Ds_paperdata.Paper_data.fig9_area_band and dlo, dhi = Ds_paperdata.Paper_data.fig9_delay_band in
  printf "\npaper bands: area %.0f..%.0f um2, delay %.0f..%.0f ns\n" alo ahi dlo dhi;
  let dominated =
    List.for_all2
      (fun (_, m) (_, b) ->
        m.D.char_area_um2 < b.D.char_area_um2 && m.D.char_latency_ns < b.D.char_latency_ns)
      montgomery brickell
  in
  printf "Montgomery consistently superior on both axes at every width: %b (paper: yes)\n" dominated

(* ------------------------------------------------------------------ *)
(* E8: Fig 10                                                           *)

let fig10 () =
  header "E8 / Fig 10: Montgomery behavioral description and decomposition";
  Format.printf "%a@." Ds_estimate.Behavior.pp Ds_estimate.Bd_library.montgomery;
  printf "operator census (behavioral decomposition targets, DI7):\n";
  List.iter
    (fun (op, count) ->
      printf "  %-4s x%d -> explored via the %s CDOs\n"
        (Ds_estimate.Behavior.binop_name op)
        count
        (match op with
        | Ds_estimate.Behavior.Add | Ds_estimate.Behavior.Sub -> "Arithmetic/Adder"
        | Ds_estimate.Behavior.Mul -> "Arithmetic/Multiplier"
        | Ds_estimate.Behavior.Div | Ds_estimate.Behavior.Mod | Ds_estimate.Behavior.Shift_left
        | Ds_estimate.Behavior.Shift_right | Ds_estimate.Behavior.Lt | Ds_estimate.Behavior.Le
        | Ds_estimate.Behavior.Gt | Ds_estimate.Behavior.Ge | Ds_estimate.Behavior.Eq ->
          "operator"))
    (Ds_estimate.Behavior.operators_in_loops Ds_estimate.Bd_library.montgomery);
  printf "\nBehaviorDelayEstimator ranking of the Section 5.1.1 alternatives (n = 768):\n";
  List.iter
    (fun (bd, est) ->
      printf "  %-26s MaxCombDelay %6.2f   total %10.0f\n" bd.Ds_estimate.Behavior.name
        est.Ds_estimate.Delay_estimator.max_comb_delay est.Ds_estimate.Delay_estimator.total_delay)
    (Ds_estimate.Delay_estimator.rank ~hints_for:Ds_estimate.Bd_library.estimator_hints
       ~bindings:[ ("n", 768) ] Ds_estimate.Bd_library.all);
  (* DI7 downward: open the adder operator CDO from the multiplier
     context and explore it with the same machinery *)
  let cores = Ds_reuse.Registry.all_cores (Ds_domains.Populate.standard_registry ~eol:768 ()) in
  let s = ok (CL.navigate_to_omm (CL.session ~cores)) in
  let s = ok (CL.apply_requirements s CL.coprocessor_requirements) in
  let s = ok (Session.set s N.implementation_style (Value.str N.hardware)) in
  let s = ok (Session.set s N.algorithm (Value.str N.montgomery)) in
  let s = ok (Session.set_default s N.behavioral_description) in
  (match CL.operator_subsession s ~operator:"adder" with
  | Error e -> printf "sub-session failed: %s\n" e
  | Ok sub ->
    printf "\nDI7 sub-session on the loop's adders (%d candidate adder cores):\n"
      (Session.candidate_count sub);
    (match Session.preview_options sub ~issue:N.adder_architecture ~merit:N.m_latency_ns with
    | Ok previews ->
      List.iter
        (fun pv ->
          match pv.Session.outcome with
          | `Explored (n, Some (lo, hi)) ->
            printf "  %-18s %d cores, delay %5.2f..%5.2f ns\n" pv.Session.option_value n lo hi
          | `Explored (n, None) -> printf "  %-18s %d cores\n" pv.Session.option_value n
          | `Rejected reason -> printf "  %-18s rejected: %s\n" pv.Session.option_value reason)
        previews
    | Error e -> printf "  preview failed: %s\n" e);
    let sub = ok (Session.set sub N.adder_architecture (Value.str "carry-save")) in
    match CL.adopt_adder_choice s sub with
    | Ok s' ->
      printf "adopted back into the multiplier session: Adder Implementation = %s\n"
        (Option.value ~default:"?"
           (Option.map Value.to_string (Session.value_of s' N.adder_implementation)))
    | Error e -> printf "adoption failed: %s\n" e)

(* ------------------------------------------------------------------ *)
(* E4: Fig 12                                                           *)

let fig12 () =
  header "E4 / Fig 12: 64-bit Montgomery multipliers with 64-bit slices";
  printf "%-8s | %10s %10s | %10s %10s\n" "label" "paper-area" "paper-dly" "meas-area" "meas-dly";
  List.iter
    (fun (label, (p_area, p_delay)) ->
      match Design.parse_label label with
      | None -> ()
      | Some (design_no, slice_width) ->
        let ch = D.characterize (Design.design design_no ~slice_width) ~eol:64 in
        printf "%-8s | %10.0f %10.0f | %10.0f %10.0f\n" label p_area p_delay ch.D.char_area_um2
          ch.D.char_latency_ns)
    Ds_paperdata.Paper_data.fig12_points;
  (* shape assertions the paper's prose makes about this figure *)
  let ch n = D.characterize (Design.design n ~slice_width:64) ~eol:64 in
  printf "\nradix-4 designs faster than radix-2 (cycles halved): %b\n"
    ((ch 4).D.char_latency_ns < (ch 2).D.char_latency_ns);
  printf "mux-based (#5) smaller than array (#4): %b\n"
    ((ch 5).D.char_area_um2 < (ch 4).D.char_area_um2);
  printf "carry-save (#2) clock faster than CLA (#1): %b\n"
    ((ch 2).D.char_clock_ns < (ch 1).D.char_clock_ns)

(* ------------------------------------------------------------------ *)
(* E9: Fig 13                                                           *)

let fig13 () =
  header "E9 / Fig 13: consistency constraints in action";
  List.iter (fun cc -> Format.printf "%a@." Consistency.pp cc) CL.constraints;
  let cores = Ds_reuse.Registry.all_cores (Ds_domains.Populate.standard_registry ~eol:768 ()) in
  let s0 = ok (CL.navigate_to_omm (CL.session ~cores)) in
  (* CC6 *)
  let s6 = ok (CL.apply_requirements s0 CL.coprocessor_requirements) in
  printf "CC6: %d -> %d candidates after the 8us latency requirement (software eliminated)\n"
    (Session.candidate_count s0) (Session.candidate_count s6);
  (* CC1 *)
  let reqs_even_modulo =
    List.map
      (fun (name, v) ->
        if String.equal name N.modulo_is_odd then (name, Value.str N.not_guaranteed) else (name, v))
      CL.coprocessor_requirements
  in
  let s1 = ok (CL.apply_requirements s0 reqs_even_modulo) in
  let s1 = ok (Session.set s1 N.implementation_style (Value.str N.hardware)) in
  (match Session.set s1 N.algorithm (Value.str N.montgomery) with
  | Error msg -> printf "CC1 fired: %s\n" msg
  | Ok _ -> printf "CC1 FAILED to fire\n");
  (* CC2 *)
  let s2 = ok (Session.set s6 N.implementation_style (Value.str N.hardware)) in
  let s2 = ok (Session.set s2 N.algorithm (Value.str N.montgomery)) in
  let montgomery_survivors = Session.candidate_count s2 in
  let s2 = ok (Session.set s2 N.radix (Value.int 4)) in
  (match Session.value_of s2 N.latency_cycles with
  | Some v ->
    printf "CC2 derived %s = %s for radix 4, EOL 768 (2*EOL/R + 1)\n" N.latency_cycles
      (Value.to_string v)
  | None -> printf "CC2 FAILED\n");
  (* CC3 *)
  let s3 = ok (Session.set_default s2 N.behavioral_description) in
  List.iter
    (fun (tool, metrics) ->
      List.iter (fun (metric, v) -> printf "CC3 estimator %s: %s = %.2f\n" tool metric v) metrics)
    (Session.estimates s3);
  (* CC4/CC5: elimination effect *)
  printf "CC4+CC5: %d Montgomery cores survive of the 20 indexed under OMM-HM\n"
    montgomery_survivors

(* ------------------------------------------------------------------ *)
(* E10: the case study end-to-end                                       *)

let casestudy () =
  header "E10 / Section 5: core selection for the coprocessor of [11]";
  let cores = Ds_reuse.Registry.all_cores (Ds_domains.Populate.standard_registry ~eol:768 ()) in
  let s = CL.session ~cores in
  let step label s =
    printf "%-46s candidates %3d" label (Session.candidate_count s);
    (match Session.merit_range s ~merit:N.m_latency_ns with
    | Some (lo, hi) -> printf "   latency %8.0f..%8.0f ns" lo hi
    | None -> ());
    printf "\n";
    s
  in
  let s = step "start (all libraries)" s in
  let s = step "focus OMM" (ok (CL.navigate_to_omm s)) in
  let s =
    step "requirements entered (CC6 prunes software)"
      (ok (CL.apply_requirements s CL.coprocessor_requirements))
  in
  let s =
    step "Implementation Style := hardware"
      (ok (Session.set s N.implementation_style (Value.str N.hardware)))
  in
  let s =
    step "Algorithm := Montgomery (CC4/CC5 prune)"
      (ok (Session.set s N.algorithm (Value.str N.montgomery)))
  in
  let designs =
    List.sort_uniq String.compare
      (List.filter_map (fun (_, c) -> Ds_reuse.Core.property c N.p_design_no) (Session.candidates s))
  in
  printf "surviving design families: {%s}  (paper's region: {%s})\n"
    (String.concat ", " designs)
    (String.concat ", " (List.map string_of_int Ds_paperdata.Paper_data.case_study_surviving_designs));
  let points = Evaluation.of_cores ~x:N.m_latency_ns ~y:N.m_area_um2 (Session.candidates s) in
  printf "Pareto-optimal cores:\n";
  List.iter (fun p -> Format.printf "  %a@." Evaluation.pp_point p) (Evaluation.pareto_front points);
  (* branch comparison: what Brickell would have looked like *)
  let s_before = step "(branch point: retract Algorithm)" (ok (Session.retract s N.algorithm)) in
  let brickell_branch = ok (Session.set s_before N.algorithm (Value.str N.brickell)) in
  printf "\nMontgomery branch vs Brickell branch:\n";
  Format.printf "%a@."
    Diff.pp
    (Diff.compare ~merits:[ N.m_latency_ns; N.m_area_um2 ] s brickell_branch)

(* ------------------------------------------------------------------ *)
(* Coprocessor level (Section 6)                                        *)

let coproc () =
  header "Section 6: the modular-exponentiation coprocessor over the selected multipliers";
  (* Top-down: the coprocessor's throughput target becomes each
     multiplication's latency budget (CC7/CC8). *)
  let cores = Ds_reuse.Registry.all_cores (Ds_domains.Populate.standard_registry ~eol:768 ()) in
  let explore recoding =
    let s = ok (CL.navigate_to_exponentiator (CL.session ~cores)) in
    let s = ok (Session.set s N.effective_operand_length (Value.int 768)) in
    let s = ok (Session.set s N.exponent_length (Value.int 768)) in
    let s = ok (Session.set s N.operations_per_second (Value.real 100.0)) in
    ok (Session.set s N.exponent_recoding (Value.str recoding))
  in
  List.iter
    (fun recoding ->
      let s = explore recoding in
      let mults =
        match Session.value_of s N.multiplications_per_operation with
        | Some (Value.Int n) -> n
        | _ -> 0
      in
      let budget =
        match Option.bind (Session.value_of s N.multiplication_budget) Value.as_real with
        | Some b -> b
        | None -> nan
      in
      printf "recoding %-9s -> %4d mults/op, budget %.2f us per multiplication (CC7/CC8)\n"
        recoding mults budget)
    [ "binary"; "window-2"; "window-4"; "sliding-4" ];
  (* Bottom-up: characterise the coprocessor over the case study's
     surviving multiplier cores. *)
  printf "\n%-10s %-10s %10s %10s %12s %12s\n" "multiplier" "recoding" "mults" "us/op" "ops/s"
    "area um2";
  List.iter
    (fun (design_no, slice_width) ->
      List.iter
        (fun recoding ->
          let cfg =
            {
              Ds_rtl.Modexp_datapath.multiplier = Design.design design_no ~slice_width;
              recoding;
              bus_width = 32;
            }
          in
          let ch = Ds_rtl.Modexp_datapath.characterize cfg ~eol:768 ~exp_bits:768 in
          printf "#%d_%-7d %-10s %10d %10.1f %12.0f %12.0f\n" design_no slice_width
            (Ds_rtl.Modexp_datapath.recoding_name recoding)
            ch.Ds_rtl.Modexp_datapath.multiplications ch.Ds_rtl.Modexp_datapath.coproc_latency_us
            ch.Ds_rtl.Modexp_datapath.ops_per_second ch.Ds_rtl.Modexp_datapath.coproc_area_um2)
        Ds_rtl.Modexp_datapath.[ Binary; Window 4; Sliding_window 4 ])
    [ (2, 64); (5, 64) ];
  let t r =
    (Ds_rtl.Modexp_datapath.characterize
       {
         Ds_rtl.Modexp_datapath.multiplier = Design.design 5 ~slice_width:64;
         recoding = r;
         bus_width = 32;
       }
       ~eol:768 ~exp_bits:768)
      .Ds_rtl.Modexp_datapath.ops_per_second
  in
  printf
    "\nwindow-4 buys ~%.0f%% throughput for its table area; the sliding form gets\n\
     ~%.0f%% with half the table (odd powers only).\n"
    (100.0 *. ((t (Ds_rtl.Modexp_datapath.Window 4) /. t Ds_rtl.Modexp_datapath.Binary) -. 1.0))
    (100.0
    *. ((t (Ds_rtl.Modexp_datapath.Sliding_window 4) /. t Ds_rtl.Modexp_datapath.Binary) -. 1.0))

(* ------------------------------------------------------------------ *)
(* Ablations                                                            *)

let ablation () =
  header "Ablation A: generalization-first vs abstraction-first (IDCT)";
  List.iter
    (fun r ->
      printf "%-32s -> %d cores, delay spread %.2f\n" r.Ds_domains.Idct_layer.organisation
        r.Ds_domains.Idct_layer.candidates_left r.Ds_domains.Idct_layer.delay_spread)
    (Ds_domains.Idct_layer.first_decision_report ());

  header "Ablation B: with vs without the dominance-elimination constraints (CC4/CC5)";
  let cores = Ds_reuse.Registry.all_cores (Ds_domains.Populate.standard_registry ~eol:768 ()) in
  let explore constraints =
    let s = Session.create ~hierarchy:CL.hierarchy ~constraints ~cores () in
    let s = ok (CL.navigate_to_omm s) in
    let s = ok (CL.apply_requirements s CL.coprocessor_requirements) in
    let s = ok (Session.set s N.implementation_style (Value.str N.hardware)) in
    ok (Session.set s N.algorithm (Value.str N.montgomery))
  in
  let with_cc = explore CL.constraints in
  let without_cc = explore [ CL.cc1; CL.cc2; CL.cc3; CL.cc6 ] in
  let points s = Evaluation.of_cores ~x:N.m_latency_ns ~y:N.m_area_um2 (Session.candidates s) in
  printf "with CC4/CC5:    %2d candidates, Pareto front %d\n" (Session.candidate_count with_cc)
    (List.length (Evaluation.pareto_front (points with_cc)));
  printf "without CC4/CC5: %2d candidates, Pareto front %d\n" (Session.candidate_count without_cc)
    (List.length (Evaluation.pareto_front (points without_cc)));
  (* What the elimination costs and buys: CC4/CC5 encode the designer
     judgment that at large EOL the carry-propagating and array-
     multiplier families are not worth exploring.  That judgment trades
     part of the area-optimal end of the front for a 3x smaller space;
     the performance-optimal end must survive intact. *)
  let front_without = Evaluation.pareto_front (points without_cc) in
  let front_with = Evaluation.pareto_front (points with_cc) in
  let min_delay pts =
    List.fold_left (fun acc p -> Float.min acc p.Evaluation.x) infinity pts
  in
  printf "front shrinks %d -> %d; fastest core retained: %b (%.0f ns vs %.0f ns)\n"
    (List.length front_without) (List.length front_with)
    (min_delay (points with_cc) <= min_delay (points without_cc) +. 1e-9)
    (min_delay (points with_cc)) (min_delay (points without_cc));
  printf "the dropped front points are area-optimal CLA designs the paper's CC4 judges\n";
  printf "inferior on loop performance -- the price of aggressive pruning.\n"

(* ------------------------------------------------------------------ *)
(* Organize extension                                                   *)

let organize () =
  header "Extension: deriving layer organisations from the population (co-existing hierarchies)";
  let all = Ds_reuse.Registry.all_cores (Ds_domains.Populate.standard_registry ~eol:768 ()) in
  let modmul =
    List.filter
      (fun (_, c) -> Ds_reuse.Core.property c N.modular_operator = Some "multiplier")
      all
  in
  printf "issue impact over the %d modular-multiplier cores (latency axis):\n" (List.length modmul);
  List.iter
    (fun imp ->
      printf "  %-26s separation %7.2f  options {%s}\n" imp.Organize.issue imp.Organize.separation
        (String.concat ", " (List.map fst imp.Organize.option_counts)))
    (Organize.rank_issues modmul
       ~issues:
         [
           N.implementation_style; N.algorithm; N.adder_implementation;
           N.multiplier_implementation; N.slice_width; N.scanning_variant;
           N.programmable_platform;
         ]
       ~x:N.m_latency_ns ~y:N.m_latency_ns);
  printf "\nderived hierarchy for the IDCT population (Section 2, automated):\n";
  (match
     Organize.derive_hierarchy ~name:"IDCT-derived" Ds_domains.Idct_layer.cores
       ~issues:
         [ Ds_domains.Idct_layer.algorithm_issue; Ds_domains.Idct_layer.technology_issue ]
       ~x:N.m_latency_ns ~y:N.m_area_um2
   with
  | Ok h ->
    Format.printf "%a@." Hierarchy.pp_tree h;
    printf "first-decision guidance (expected spread, smaller = better):\n";
    printf "  derived:            %.2f\n"
      (Organize.guidance_quality h Ds_domains.Idct_layer.cores ~merit:N.m_latency_ns);
    printf "  abstraction-first:  %.2f\n"
      (Organize.guidance_quality Ds_domains.Idct_layer.abstraction_first
         Ds_domains.Idct_layer.cores ~merit:N.m_latency_ns)
  | Error e -> printf "derivation failed: %s\n" e);
  let hw = List.filter (fun (_, c) -> Ds_reuse.Core.property c N.implementation_style = Some N.hardware) all in
  printf "\nco-existing hierarchies over the %d hardware cores:\n" (List.length hw);
  List.iter
    (fun (label, x, y) ->
      match
        Organize.derive_hierarchy ~name:"HW" hw
          ~issues:[ N.algorithm; N.adder_implementation; N.multiplier_implementation; N.slice_width ]
          ~x ~y
      with
      | Ok h -> (
        match Cdo.generalized_issue (Hierarchy.root h) with
        | Some issue ->
          printf "  %-18s -> first issue: %s (%d nodes)\n" label issue.Property.name
            (Hierarchy.size h)
        | None -> ())
      | Error e -> printf "  %-18s -> %s\n" label e)
    [
      ("performance-first", N.m_latency_ns, N.m_latency_ns);
      ("area-first", N.m_area_um2, N.m_area_um2);
      ("energy-first", N.m_energy_nj, N.m_energy_nj);
    ]

(* ------------------------------------------------------------------ *)
(* Power extension                                                      *)

let power () =
  header "Extension: power as a third figure of merit (the paper's work-in-progress)";
  printf "%-8s %10s %10s %12s\n" "design" "clk ns" "power mW" "energy nJ/op";
  List.iter
    (fun n ->
      let cfg = Design.design n ~slice_width:64 in
      let p = D.power cfg ~eol:768 in
      printf "#%d_64    %10.2f %10.1f %12.1f\n" n (D.clock_ns cfg) p.Ds_tech.Power.dynamic_mw
        p.Ds_tech.Power.energy_per_op_nj)
    Design.design_numbers;
  printf "\nobservations: carry-save redundancy toggles more gates (higher activity);\n";
  printf "radix-4 halves the cycle count so energy per operation drops despite more area.\n";
  let e n = (D.power (Design.design n ~slice_width:64) ~eol:768).Ds_tech.Power.energy_per_op_nj in
  printf "energy(#4, r4) < energy(#2, r2): %b\n" (e 4 < e 2);
  (* the three-merit view: a core can be off both 2-D fronts yet
     3-D Pareto-optimal once energy counts *)
  let cores =
    Ds_reuse.Library.make_exn ~name:"tmp"
      (List.concat_map
         (fun n ->
           List.filter_map
             (fun w ->
               if 768 mod w = 0 then
                 Some (Ds_domains.Populate.hardware_core ~design_no:n ~slice_width:w ~eol:768 ())
               else None)
             Design.slice_widths)
         Design.design_numbers)
  in
  let tagged = List.map (fun c -> (c.Ds_reuse.Core.id, c)) cores.Ds_reuse.Library.cores in
  let front3 =
    Multi_objective.pareto_front
      (Multi_objective.of_cores ~merits:[ N.m_latency_ns; N.m_area_um2; N.m_energy_nj ] tagged)
  in
  let front2 =
    Evaluation.pareto_front (Evaluation.of_cores ~x:N.m_latency_ns ~y:N.m_area_um2 tagged)
  in
  printf "\n3-D Pareto front (latency, area, energy): %d cores of %d (2-D front: %d)\n"
    (List.length front3) (List.length tagged) (List.length front2);
  (match Multi_objective.nearest_to_ideal front3 with
  | Some p -> Format.printf "balanced recommendation: %a@." Multi_objective.pp_point p
  | None -> ())

(* ------------------------------------------------------------------ *)
(* Software platforms                                                   *)

let platforms () =
  header "Extension: the programmable-platform axis (768-bit exponentiation, ms)";
  let module P = Ds_swmodel.Platform in
  let module MV = Ds_swmodel.Mont_variants in
  printf "%-14s %10s %10s %16s\n" "platform" "C" "ASM" "ASM+sqr-aware";
  List.iter
    (fun platform ->
      let t ?squaring_aware lang =
        P.modexp_time_ms ?squaring_aware platform MV.Cios lang ~bits:768
      in
      printf "%-14s %10.0f %10.0f %16.0f\n" platform.P.name (t Ds_swmodel.Pentium.C)
        (t Ds_swmodel.Pentium.Assembler)
        (t ~squaring_aware:true Ds_swmodel.Pentium.Assembler))
    P.all;
  printf
    "\nthe DSP's single-cycle MAC compensates its narrower digits; dedicated\n\
     squaring buys a further ~15%% on every platform.  None comes within two\n\
     orders of magnitude of the hardware family -- Fig 6's gap is structural.\n"

(* ------------------------------------------------------------------ *)
(* Estimator calibration                                                *)

let estimator () =
  header "Extension: does the early estimator agree with the detailed characterisation?";
  (* CC3's justification: the algorithm-level rank should predict the
     RTL-level outcome.  Compare BehaviorDelayEstimator's ranking of the
     algorithm alternatives with the characterised clock/latency of the
     corresponding best designs. *)
  let ranked =
    Ds_estimate.Delay_estimator.rank ~hints_for:Ds_estimate.Bd_library.estimator_hints
      ~bindings:[ ("n", 768) ] Ds_estimate.Bd_library.all
  in
  printf "%-26s %14s | %18s\n" "alternative" "estimator rank" "best RTL latency ns";
  let best_latency algorithm =
    (* the best characterised core of that algorithm at 768 bits *)
    List.filter_map
      (fun design_no ->
        let cfg = Design.design design_no ~slice_width:64 in
        if cfg.D.algorithm = algorithm then
          Some (D.latency_ns cfg ~eol:768)
        else None)
      Design.design_numbers
    |> List.fold_left Float.min infinity
  in
  List.iter
    (fun (bd, est) ->
      let rtl =
        match bd.Ds_estimate.Behavior.name with
        | "montgomery-modmul" -> Printf.sprintf "%.0f" (best_latency D.Montgomery)
        | "brickell-modmul" -> Printf.sprintf "%.0f" (best_latency D.Brickell)
        | _ -> "(not built: the paper rejected it before RTL)"
      in
      printf "%-26s %14.2f | %18s\n" bd.Ds_estimate.Behavior.name
        est.Ds_estimate.Delay_estimator.max_comb_delay rtl)
    ranked;
  let est_ratio =
    match ranked with
    | (_, a) :: (_, b) :: _ ->
      b.Ds_estimate.Delay_estimator.max_comb_delay /. a.Ds_estimate.Delay_estimator.max_comb_delay
    | _ -> nan
  in
  let rtl_ratio = best_latency D.Brickell /. best_latency D.Montgomery in
  printf
    "\nBrickell/Montgomery ratio: estimator %.2f vs RTL %.2f — same ordering, same\n\
     ballpark, which is all CC3 promises (\"values ... used to compare alternative\n\
     solutions\", not absolute numbers).\n"
    est_ratio rtl_ratio

(* ------------------------------------------------------------------ *)
(* Radix sweep extension                                                *)

let radix_sweep () =
  header "Extension: the full Radix design issue (DI3) swept to radix 16";
  printf "%-8s %10s %10s %8s %12s %12s\n" "radix" "area um2" "clk ns" "cycles" "latency ns"
    "energy nJ";
  let base = Design.design 2 ~slice_width:64 in
  List.iter
    (fun radix_bits ->
      let cfg =
        if radix_bits = 1 then base
        else
          {
            base with
            D.radix_bits;
            multiplier = Some Ds_rtl.Multiplier.Mux_select;
          }
      in
      let ch = D.characterize cfg ~eol:768 in
      printf "%-8d %10.0f %10.2f %8d %12.0f %12.1f\n" (D.radix cfg) ch.D.char_area_um2
        ch.D.char_clock_ns ch.D.char_cycles ch.D.char_latency_ns
        ch.D.char_power.Ds_tech.Power.energy_per_op_nj)
    [ 1; 2; 3; 4 ];
  printf
    "\nhigher radices halve the cycles again while the mux trees deepen the clock\n\
     and the precomputed-multiple storage grows exponentially; the paper's designs\n\
     stop at radix 4.\n";
  (* the knee quantified: area-delay product *)
  let adp radix_bits =
    let cfg =
      if radix_bits = 1 then base
      else { base with D.radix_bits; multiplier = Some Ds_rtl.Multiplier.Mux_select }
    in
    let ch = D.characterize cfg ~eol:768 in
    ch.D.char_area_um2 *. ch.D.char_latency_ns
  in
  let best =
    List.fold_left
      (fun (bi, bv) i -> if adp i < bv then (i, adp i) else (bi, bv))
      (1, adp 1) [ 2; 3; 4 ]
  in
  printf "best area-delay product at radix %d\n" (1 lsl fst best)

(* ------------------------------------------------------------------ *)
(* The video layer (second domain)                                      *)

let mpeg () =
  header "Second domain: the MPEG-2 IDCT subsystem layer (intro's 'IDCT blocks, MPEG decoders')";
  let module V = Ds_domains.Video_layer in
  Format.printf "%a@." Hierarchy.pp_tree V.hierarchy;
  let s = V.session () in
  printf "population: %d generated cores (merits from the ds_media models)\n"
    (Session.candidate_count s);
  let s =
    List.fold_left (fun s (n, v) -> ok (Session.set s n v)) s V.mpeg2_main_level_requirements
  in
  printf "MPEG-2 main level (720x576@25, 4:2:0 -> 243,000 blocks/s; 8 exact bits):\n";
  printf "  %d cores survive CCV1 (block rate) and CCV2 (precision)\n"
    (Session.candidate_count s);
  (match Session.preview_options s ~issue:V.di_structure ~merit:V.m_blocks_per_second with
  | Ok previews ->
    List.iter
      (fun pv ->
        match pv.Session.outcome with
        | `Explored (n, Some (lo, hi)) ->
          printf "  structure %-11s -> %2d cores, %8.2e..%8.2e blocks/s\n" pv.Session.option_value
            n lo hi
        | `Explored (n, None) -> printf "  structure %-11s -> %2d cores\n" pv.Session.option_value n
        | `Rejected reason -> printf "  structure %-11s rejected: %s\n" pv.Session.option_value reason)
      previews
  | Error e -> printf "  preview failed: %s\n" e);
  let s = ok (Session.set s V.di_structure (Value.str "row-column")) in
  (* minimise area subject to the requirements already enforced *)
  let best =
    List.fold_left
      (fun best (qid, core) ->
        let area = Option.value ~default:infinity (Ds_reuse.Core.merit core Ds_domains.Names.m_area_um2) in
        match best with
        | Some (_, best_area) when best_area <= area -> best
        | _ -> Some (qid, area))
      None (Session.candidates s)
  in
  (match best with
  | Some (qid, area) -> printf "smallest compliant core: %s (%.0f um2)\n" qid area
  | None -> printf "no compliant core\n");
  printf "the layer framework carried over unchanged: only the domain definition is new.\n"

(* ------------------------------------------------------------------ *)
(* Technology sweep (DI6 explored)                                      *)

let techsweep () =
  header "Extension: the Fabrication Technology issue (DI6) swept across process generations";
  let sweep budget_us =
    printf "latency budget %.1f us:\n" budget_us;
    printf "%-8s | %10s %10s %10s | %s\n" "process" "cands" "min ns" "max ns"
      "surviving design families";
    List.iter
      (fun technology ->
        let registry = Ds_domains.Populate.standard_registry ~technology ~eol:768 () in
        let s = CL.session ~cores:(Ds_reuse.Registry.all_cores registry) in
        let s = ok (CL.navigate_to_omm s) in
        let reqs =
          List.map
            (fun (name, v) ->
              if String.equal name N.latency_single_operation then (name, Value.real budget_us)
              else (name, v))
            CL.coprocessor_requirements
        in
        let s = ok (CL.apply_requirements s reqs) in
        let s = ok (Session.set s N.implementation_style (Value.str N.hardware)) in
        let s = ok (Session.set s N.algorithm (Value.str N.montgomery)) in
        let families =
          List.sort_uniq String.compare
            (List.filter_map
               (fun (_, c) -> Ds_reuse.Core.property c N.p_design_no)
               (Session.candidates s))
        in
        match Session.merit_range s ~merit:N.m_latency_ns with
        | Some (lo, hi) ->
          printf "%-8s | %10d %10.0f %10.0f | {%s}\n" technology.Ds_tech.Process.name
            (Session.candidate_count s) lo hi
            (String.concat ", " families)
        | None ->
          printf "%-8s | %10d %10s %10s | none meet the budget\n"
            technology.Ds_tech.Process.name (Session.candidate_count s) "-" "-")
      Ds_tech.Process.all;
    printf "\n"
  in
  sweep 8.0;
  sweep 2.5;
  printf
    "the same layer and requirements against libraries in four processes: the paper's\n\
     8 us budget is comfortable everywhere, but a 2.5 us target is only reachable by\n\
     migrating to finer technologies -- DI6 becomes the binding decision.\n"

(* ------------------------------------------------------------------ *)
(* Scalability study                                                    *)

let scale () =
  header "Extension: scalability of the layer (the paper's 'easily scalable' claim, measured)";
  printf "%8s %8s | %12s %12s %12s %12s\n" "cores" "leaves" "index ms" "decide ms" "preview ms"
    "report ms";
  List.iter
    (fun n_cores ->
      let spec = { Ds_domains.Synthetic.default_spec with Ds_domains.Synthetic.cores = n_cores } in
      let time f =
        let t0 = Sys.time () in
        let v = f () in
        (v, (Sys.time () -. t0) *. 1000.0)
      in
      let s, t_index = time (fun () -> Ds_domains.Synthetic.session spec) in
      let s1, t_decide =
        time (fun () ->
            match Session.set s "L1" (Value.str "l1-o0") with Ok s -> s | Error e -> failwith e)
      in
      let _, t_preview =
        time (fun () -> ok (Session.preview_options s1 ~issue:"L2" ~merit:"delay"))
      in
      let _, t_report = time (fun () -> Report.render ~merits:[ "delay" ] s1) in
      let leaves =
        List.length (Hierarchy.leaf_paths (Session.hierarchy s))
      in
      printf "%8d %8d | %12.1f %12.1f %12.1f %12.1f\n" n_cores leaves t_index t_decide t_preview
        t_report)
    [ 1_000; 5_000; 20_000 ];
  printf "\n(depth 3, branching 3, 2 plain issues per node; times are CPU ms)\n"

(* ------------------------------------------------------------------ *)
(* Incremental-pruning baseline (BENCH_PR2.json)                        *)

(* Measures the interactive unit the paper cares about: after a single
   binding change, re-query the candidate family and its merit ranges.
   The naive path (use_cache:false) re-runs every elimination closure
   against every core; the cached path re-runs only the constraint the
   change re-opened and reads the rest from the compliance table. *)

module Syn = Ds_domains.Synthetic

let bench_eliminate_ccs = 10

let bench_spec n = { Syn.default_spec with Syn.cores = n; Syn.eliminate_ccs = bench_eliminate_ccs }

let bench_budget i = 450.0 +. (60.0 *. float_of_int i)

let bind_budgets s =
  let rec go s i =
    if i >= bench_eliminate_ccs then s
    else begin
      match Session.set s (Syn.budget_name i) (Value.real (bench_budget i)) with
      | Ok s -> go s (i + 1)
      | Error e -> failwith ("bench: binding " ^ Syn.budget_name i ^ ": " ^ e)
    end
  in
  go s 0

(* One interactive step: the designer revises budget B0, and the layer
   re-reports the candidate count and both merit ranges. *)
let render s =
  ignore (Session.candidate_count s);
  ignore (Session.merit_summary s ~merit:"delay");
  ignore (Session.merit_summary s ~merit:"cost")

let requery s value =
  let s = ok (Session.retract s (Syn.budget_name 0)) in
  let s = ok (Session.set s (Syn.budget_name 0) (Value.real value)) in
  render s;
  s

let time_ms f =
  let t0 = Sys.time () in
  f ();
  (Sys.time () -. t0) *. 1000.0

(* [DSE_BENCH_REPS=n] overrides every per-phase repetition count of the
   JSON benches — quick local iterations (n=1..3) or extra-stable
   figures (large n) without editing the harness. *)
let env_reps () =
  match Sys.getenv_opt "DSE_BENCH_REPS" with
  | Some s -> (
    match int_of_string_opt (String.trim s) with
    | Some n when n > 0 -> Some n
    | Some _ | None -> None)
  | None -> None

(* Allocator/collector work of one measured phase, from [Gc.quick_stat]
   deltas (words are floats upstream; collections are counts). *)
type gc_delta = {
  gd_minor_words : float;
  gd_major_words : float;
  gd_promoted_words : float;
  gd_minor_collections : int;
  gd_major_collections : int;
}

let with_gc f =
  let a = Gc.quick_stat () in
  let r = f () in
  let b = Gc.quick_stat () in
  ( r,
    {
      gd_minor_words = b.Gc.minor_words -. a.Gc.minor_words;
      gd_major_words = b.Gc.major_words -. a.Gc.major_words;
      gd_promoted_words = b.Gc.promoted_words -. a.Gc.promoted_words;
      gd_minor_collections = b.Gc.minor_collections - a.Gc.minor_collections;
      gd_major_collections = b.Gc.major_collections - a.Gc.major_collections;
    } )

let gc_json d =
  Printf.sprintf
    "{ \"minor_words\": %.0f, \"major_words\": %.0f, \"promoted_words\": %.0f, \
     \"minor_collections\": %d, \"major_collections\": %d }"
    d.gd_minor_words d.gd_major_words d.gd_promoted_words d.gd_minor_collections
    d.gd_major_collections

(* Every JSON bench writes its pinned file (committed, the regression
   baseline) and a [-latest] twin (gitignored) so a local rerun can be
   diffed against the pinned figures without touching them. *)
let write_bench name buf =
  List.iter
    (fun file ->
      let oc = open_out file in
      output_string oc (Buffer.contents buf);
      close_out oc)
    [ name ^ ".json"; name ^ "-latest.json" ]

let requery_loop s reps =
  (* alternate the revised bound so every step is a real change *)
  let s = ref s in
  for rep = 1 to reps do
    let delta = if rep mod 2 = 0 then 25.0 else -25.0 in
    s := requery !s (bench_budget 0 +. delta)
  done

let micro_json ?(smoke = false) () =
  header
    (if smoke then "Incremental-pruning bench (smoke) -> BENCH_PR2.json"
     else "Incremental-pruning bench -> BENCH_PR2.json");
  let sizes = if smoke then [ 100; 500 ] else [ 100; 1_000; 10_000 ] in
  let reps_for n =
    match env_reps () with
    | Some r -> r
    | None -> Stdlib.max 5 (if smoke then 20_000 / n else 100_000 / n)
  in
  let rows =
    List.map
      (fun n ->
        let reps = reps_for n in
        let cached = bind_budgets (Syn.session (bench_spec n)) in
        let naive = bind_budgets (Syn.session ~use_cache:false (bench_spec n)) in
        (* the two paths must prune identically *)
        let ids s = List.map fst (Session.candidates s) in
        let equivalent = ids cached = ids naive in
        (* warm both once so the measured loop is steady-state *)
        render cached;
        render naive;
        let naive_ms, naive_gc =
          with_gc (fun () -> time_ms (fun () -> requery_loop naive reps))
        in
        let naive_ms = naive_ms /. float_of_int reps in
        let cached_ms, cached_gc =
          with_gc (fun () -> time_ms (fun () -> requery_loop cached reps))
        in
        let cached_ms = cached_ms /. float_of_int reps in
        (* single uncached candidate query vs a warm cached one *)
        let naive_query_ms =
          time_ms (fun () ->
              for _ = 1 to reps do
                ignore (Session.candidates_naive naive)
              done)
          /. float_of_int reps
        in
        let warm_query_ms, warm_gc =
          with_gc (fun () ->
              time_ms (fun () ->
                  for _ = 1 to reps do
                    ignore (Session.candidates cached)
                  done))
        in
        let warm_query_ms = warm_query_ms /. float_of_int reps in
        let points = Evaluation.of_cores ~x:"delay" ~y:"cost" (Session.population cached) in
        let pareto_reps = Stdlib.max reps 20 in
        let pareto_ms =
          time_ms (fun () ->
              for _ = 1 to pareto_reps do
                ignore (Evaluation.pareto_front points)
              done)
          /. float_of_int pareto_reps
        in
        let front = List.length (Evaluation.pareto_front points) in
        let stats = Session.cache_stats cached in
        printf
          "%8d cores | requery naive %8.3f ms  cached %8.3f ms  speedup %6.2fx | hit rate %.3f%s\n"
          n naive_ms cached_ms (naive_ms /. cached_ms) (Compliance.hit_rate stats)
          (if equivalent then "" else "  [MISMATCH]");
        ( n,
          naive_ms,
          cached_ms,
          naive_query_ms,
          warm_query_ms,
          (List.length points, front, pareto_ms),
          stats,
          equivalent,
          (reps, naive_gc, cached_gc, warm_gc) ))
      sizes
  in
  let buf = Buffer.create 2048 in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  add "{\n";
  add "  \"bench\": \"incremental-candidate-pruning\",\n";
  add "  \"smoke\": %b,\n" smoke;
  add "  \"config\": { \"eliminate_ccs\": %d, \"depth\": %d, \"branching\": %d },\n"
    bench_eliminate_ccs Syn.default_spec.Syn.depth Syn.default_spec.Syn.branching;
  add "  \"sizes\": [\n";
  List.iteri
    (fun i
         ( n,
           naive_ms,
           cached_ms,
           naive_query_ms,
           warm_query_ms,
           (points, front, pareto_ms),
           stats,
           eq,
           (reps, naive_gc, cached_gc, warm_gc) ) ->
      add "    {\n";
      add "      \"cores\": %d,\n" n;
      add "      \"reps\": %d,\n" reps;
      add "      \"equivalent_to_naive\": %b,\n" eq;
      add "      \"requery_after_binding_change\": {\n";
      add "        \"naive_ms\": %.4f, \"cached_ms\": %.4f, \"speedup\": %.2f\n" naive_ms cached_ms
        (naive_ms /. cached_ms);
      add "      },\n";
      add "      \"single_candidate_query\": { \"naive_ms\": %.4f, \"warm_cached_ms\": %.4f },\n"
        naive_query_ms warm_query_ms;
      add "      \"pareto\": { \"points\": %d, \"front\": %d, \"ms\": %.4f },\n" points front
        pareto_ms;
      add "      \"cache\": { \"verdict_hits\": %d, \"verdict_misses\": %d, \"hit_rate\": %.4f,\n"
        stats.Compliance.verdict_hits stats.Compliance.verdict_misses (Compliance.hit_rate stats);
      add "                 \"survivor_hits\": %d, \"survivor_misses\": %d },\n"
        stats.Compliance.survivor_hits stats.Compliance.survivor_misses;
      add "      \"gc\": { \"requery_naive\": %s,\n" (gc_json naive_gc);
      add "              \"requery_cached\": %s,\n" (gc_json cached_gc);
      add "              \"warm_query\": %s }\n" (gc_json warm_gc);
      add "    }%s\n" (if i < List.length rows - 1 then "," else ""))
    rows;
  add "  ],\n";
  let headline =
    match List.rev rows with
    | (n, naive_ms, cached_ms, _, _, _, _, _, _) :: _ -> (n, naive_ms /. cached_ms)
    | [] -> (0, 0.0)
  in
  add "  \"headline\": { \"cores\": %d, \"requery_speedup\": %.2f }\n" (fst headline)
    (snd headline);
  add "}\n";
  write_bench "BENCH_PR2" buf;
  printf "\nwrote BENCH_PR2.json (headline: %.2fx requery speedup at %d cores)\n" (snd headline)
    (fst headline)

(* ------------------------------------------------------------------ *)
(* Exploration-service bench (BENCH_PR4.json)                           *)

(* Measures the service end to end: a real Unix-socket server over the
   10^4-core synthetic layer, N concurrent clients each running the
   interactive requery loop over the wire (set a budget, read the
   candidates and ranges, retract).  Client-side wall-clock per request
   is the figure a designer at a front end would feel; the server's own
   per-op metrics (including the accept-to-dispatch queue wait) ride
   along via the [stats] op.  A worker-scaling sweep re-runs the same
   load at pool sizes 1/2/4/8 so the effect of per-session locking and
   worker parallelism is visible in one file. *)

let serve_bench_clients = 8
let serve_pool_sweep = [ 1; 2; 4; 8 ]
let pipeline_depth_sweep = [ 1; 4; 16 ]

(* Split [l] into consecutive groups of at most [n] — the unit a
   pipelined client keeps in flight. *)
let chunk_list n l =
  let rec go acc cur cnt = function
    | [] -> List.rev (if cur = [] then acc else List.rev cur :: acc)
    | x :: tl ->
      if cnt + 1 >= n then go (List.rev (x :: cur) :: acc) [] 0 tl
      else go acc (x :: cur) (cnt + 1) tl
  in
  go [] [] 0 l

(* Latency digest over the shared telemetry histogram type instead of a
   fully sorted sample array: count, mean and max are exact; the
   quantiles are bucket estimates (geometric buckets, ratio 1.25 — at
   most one bucket off, ~±12% with the midpoint interpolation; the
   bounds are documented in DESIGN.md section 13).  This is the same
   estimator the live service exports through the [metrics] op, so the
   bench and a [dse top] session report comparable figures. *)
let serve_latency_stats samples =
  let module Obs = Ds_obs.Obs in
  let h = Obs.histogram (Obs.create_registry ()) "scratch_us" in
  List.iter (Obs.observe h) samples;
  let s = Obs.h_snapshot h in
  let n = s.Obs.h_count in
  let q p = if n = 0 then 0.0 else Obs.quantile s p in
  ( n,
    (if n = 0 then 0.0 else s.Obs.h_sum /. float_of_int n),
    q 0.50,
    q 0.95,
    q 0.99,
    if n = 0 then 0.0 else s.Obs.h_max )

type serve_round = {
  sr_pool : int;
  sr_reps : int;
  sr_requests : int;
  sr_errors : int;
  sr_wall : float;
  sr_samples : (string * float) list;
  sr_queue_wait : (int * float * float) option; (* count, mean us, max us *)
  sr_server_stats : string;
}

let sr_rps r = if r.sr_wall > 0.0 then float_of_int r.sr_requests /. r.sr_wall else 0.0

(* One complete round at a given worker-pool size: fresh server and
   service, [serve_bench_clients] concurrent clients. *)
let serve_round ~pool ~reps ~tag =
  let socket =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "dse_bench_%d_%s.sock" (Unix.getpid ()) tag)
  in
  let svc =
    Ds_serve.Service.create
      (Ds_serve.Service.config ~default_merits:[ "delay"; "cost" ]
         ~layers:Ds_domains.Catalog.factories ())
  in
  let server = Ds_serve.Server.create ~socket ~pool svc in
  let server_thread = Thread.create Ds_serve.Server.serve server in
  let errors = Atomic.make 0 in
  let results = Array.make serve_bench_clients [] in
  let run_client i =
    match Ds_serve.Client.connect_retry ~socket () with
    | Error msg ->
      Atomic.incr errors;
      Printf.eprintf "client %d: %s\n" i msg
    | Ok c ->
      let lat = ref [] in
      let timed op line =
        let t0 = Unix.gettimeofday () in
        match Ds_serve.Client.request_line c line with
        | Ok reply when String.length reply >= 10 && String.equal (String.sub reply 0 10) "{\"ok\":true" ->
          lat := (op, (Unix.gettimeofday () -. t0) *. 1.0e6) :: !lat
        | Ok reply ->
          Atomic.incr errors;
          Printf.eprintf "client %d: %s -> %s\n" i op reply
        | Error msg ->
          Atomic.incr errors;
          Printf.eprintf "client %d: %s -> %s\n" i op msg
      in
      let sid = Printf.sprintf "bench%d" i in
      let budget = Syn.budget_name 0 in
      timed "open"
        (Printf.sprintf "{\"op\":\"open\",\"session\":\"%s\",\"layer\":\"synthetic10k\"}" sid);
      for r = 1 to reps do
        let v = bench_budget 0 +. if r mod 2 = 0 then 25.0 else -25.0 in
        timed "set"
          (Printf.sprintf "{\"op\":\"set\",\"session\":\"%s\",\"name\":\"%s\",\"value\":%.1f}"
             sid budget v);
        timed "candidates"
          (Printf.sprintf "{\"op\":\"candidates\",\"session\":\"%s\"}" sid);
        timed "ranges" (Printf.sprintf "{\"op\":\"ranges\",\"session\":\"%s\"}" sid);
        timed "retract"
          (Printf.sprintf "{\"op\":\"retract\",\"session\":\"%s\",\"name\":\"%s\"}" sid budget)
      done;
      timed "close" (Printf.sprintf "{\"op\":\"close\",\"session\":\"%s\"}" sid);
      results.(i) <- !lat;
      Ds_serve.Client.close c
  in
  let t0 = Unix.gettimeofday () in
  let threads = List.init serve_bench_clients (fun i -> Thread.create run_client i) in
  List.iter Thread.join threads;
  let wall = Unix.gettimeofday () -. t0 in
  (* server-side view of the same run, straight off the wire *)
  let server_stats =
    match Ds_serve.Client.connect ~socket () with
    | Error _ -> "null"
    | Ok c ->
      let reply =
        match Ds_serve.Client.request_line c "{\"op\":\"stats\"}" with
        | Ok reply -> reply
        | Error _ -> "null"
      in
      Ds_serve.Client.close c;
      reply
  in
  Ds_serve.Server.shutdown server;
  Thread.join server_thread;
  let queue_wait =
    match Ds_serve.Jsonx.of_string server_stats with
    | Error _ -> None
    | Ok json ->
      Option.bind (Ds_serve.Jsonx.member "queue_wait" json) (fun q ->
          match
            ( Option.bind (Ds_serve.Jsonx.member "count" q) Ds_serve.Jsonx.to_int,
              Option.bind (Ds_serve.Jsonx.member "mean_us" q) Ds_serve.Jsonx.to_float,
              Option.bind (Ds_serve.Jsonx.member "max_us" q) Ds_serve.Jsonx.to_float )
          with
          | Some c, Some m, Some x -> Some (c, m, x)
          | _ -> None)
  in
  let all = Array.to_list results |> List.concat in
  {
    sr_pool = pool;
    sr_reps = reps;
    sr_requests = List.length all;
    sr_errors = Atomic.get errors;
    sr_wall = wall;
    sr_samples = all;
    sr_queue_wait = queue_wait;
    sr_server_stats = server_stats;
  }

(* One pipelined round: same mix and client count as [serve_round],
   but each client keeps [depth] requests in flight via
   {!Ds_serve.Client.pipeline} — one coalesced write per group, the
   replies read back in order.  Depth 1 is the lockstep baseline the
   sweep is normalized against. *)
let serve_pipeline_round ~depth ~reps ~tag =
  let socket =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "dse_bench_%d_%s.sock" (Unix.getpid ()) tag)
  in
  let svc =
    Ds_serve.Service.create
      (Ds_serve.Service.config ~default_merits:[ "delay"; "cost" ]
         ~layers:Ds_domains.Catalog.factories ())
  in
  let server = Ds_serve.Server.create ~socket ~pool:serve_bench_clients svc in
  let server_thread = Thread.create Ds_serve.Server.serve server in
  let errors = Atomic.make 0 in
  let counts = Array.make serve_bench_clients 0 in
  let run_client i =
    match Ds_serve.Client.connect_retry ~socket () with
    | Error msg ->
      Atomic.incr errors;
      Printf.eprintf "pipeline client %d: %s\n" i msg
    | Ok c ->
      let sid = Printf.sprintf "bench%d" i in
      let budget = Syn.budget_name 0 in
      let one line =
        match Ds_serve.Client.request_line c line with
        | Ok reply
          when String.length reply >= 10 && String.equal (String.sub reply 0 10) "{\"ok\":true"
          ->
          counts.(i) <- counts.(i) + 1
        | Ok reply ->
          Atomic.incr errors;
          Printf.eprintf "pipeline client %d: %s\n" i reply
        | Error msg ->
          Atomic.incr errors;
          Printf.eprintf "pipeline client %d: %s\n" i msg
      in
      one
        (Printf.sprintf "{\"op\":\"open\",\"session\":\"%s\",\"layer\":\"synthetic10k\"}" sid);
      let mix r =
        let v = bench_budget 0 +. if r mod 2 = 0 then 25.0 else -25.0 in
        [
          Printf.sprintf "{\"op\":\"set\",\"session\":\"%s\",\"name\":\"%s\",\"value\":%.1f}"
            sid budget v;
          Printf.sprintf "{\"op\":\"candidates\",\"session\":\"%s\"}" sid;
          Printf.sprintf "{\"op\":\"ranges\",\"session\":\"%s\"}" sid;
          Printf.sprintf "{\"op\":\"retract\",\"session\":\"%s\",\"name\":\"%s\"}" sid budget;
        ]
      in
      let all = List.concat_map mix (List.init reps (fun r -> r + 1)) in
      List.iter
        (fun group ->
          List.iter
            (fun res ->
              match res with
              | Ok reply
                when String.length reply >= 10
                     && String.equal (String.sub reply 0 10) "{\"ok\":true" ->
                counts.(i) <- counts.(i) + 1
              | Ok reply ->
                Atomic.incr errors;
                Printf.eprintf "pipeline client %d: %s\n" i reply
              | Error msg ->
                Atomic.incr errors;
                Printf.eprintf "pipeline client %d: %s\n" i msg)
            (Ds_serve.Client.pipeline c group))
        (chunk_list depth all);
      one (Printf.sprintf "{\"op\":\"close\",\"session\":\"%s\"}" sid);
      Ds_serve.Client.close c
  in
  let t0 = Unix.gettimeofday () in
  let threads = List.init serve_bench_clients (fun i -> Thread.create run_client i) in
  List.iter Thread.join threads;
  let wall = Unix.gettimeofday () -. t0 in
  Ds_serve.Server.shutdown server;
  Thread.join server_thread;
  (Array.fold_left ( + ) 0 counts, Atomic.get errors, wall)

let serve_json ?(smoke = false) () =
  header
    (if smoke then "Exploration-service bench (smoke) -> BENCH_PR4.json"
     else "Exploration-service bench -> BENCH_PR4.json");
  let reps = match env_reps () with Some r -> r | None -> if smoke then 25 else 250 in
  let sweep_reps =
    match env_reps () with Some r -> r | None -> if smoke then 10 else 100
  in
  printf "worker-scaling sweep, %d clients (pool %s):\n" serve_bench_clients
    (String.concat "/" (List.map string_of_int serve_pool_sweep));
  let sweep =
    List.map
      (fun pool ->
        (* the headline pool gets the full rep count; the sweep points
           a lighter one (same shape, enough to place the knee) *)
        let r =
          serve_round ~pool
            ~reps:(if pool = serve_bench_clients then reps else sweep_reps)
            ~tag:(Printf.sprintf "p%d" pool)
        in
        let qw = match r.sr_queue_wait with Some (_, m, _) -> m | None -> 0.0 in
        printf "  pool %d: %5d req in %6.2f s  %7.0f req/s  queue-wait mean %6.0f us  errors %d\n"
          pool r.sr_requests r.sr_wall (sr_rps r) qw r.sr_errors;
        r)
      serve_pool_sweep
  in
  let headline =
    match List.find_opt (fun r -> r.sr_pool = serve_bench_clients) sweep with
    | Some r -> r
    | None -> List.nth sweep (List.length sweep - 1)
  in
  let all = headline.sr_samples in
  let total = headline.sr_requests in
  let wall = headline.sr_wall in
  let ops =
    List.sort_uniq String.compare (List.map fst all)
    |> List.map (fun op -> (op, List.filter_map (fun (o, us) -> if String.equal o op then Some us else None) all))
  in
  let _, mean, p50, p95, p99, max_us = serve_latency_stats (List.map snd all) in
  printf "\nheadline (pool %d): %d clients x (1 open + %d x 4 ops + 1 close) = %d requests in %.2f s  (%.0f req/s)\n"
    headline.sr_pool serve_bench_clients reps total wall (sr_rps headline);
  printf "latency us: mean %.0f  p50 %.0f  p95 %.0f  p99 %.0f  max %.0f  errors %d\n" mean p50
    p95 p99 max_us headline.sr_errors;
  List.iter
    (fun (op, samples) ->
      let n, mean, p50, p95, p99, max_us = serve_latency_stats samples in
      printf "  %-12s n %5d  mean %8.0f  p50 %8.0f  p95 %8.0f  p99 %8.0f  max %8.0f us\n" op n
        mean p50 p95 p99 max_us)
    ops;
  (match headline.sr_queue_wait with
  | Some (n, qmean, qmax) ->
    printf "server queue wait (accept -> dispatch): n %d  mean %.0f us  max %.0f us\n" n qmean qmax
  | None -> ());
  (* pipelining sweep: same mix, [depth] requests in flight per client *)
  let pipeline_reps = match env_reps () with Some r -> r | None -> if smoke then 10 else 100 in
  printf "\npipeline sweep, %d clients, depth %s:\n" serve_bench_clients
    (String.concat "/" (List.map string_of_int pipeline_depth_sweep));
  let pipeline_rows =
    List.map
      (fun depth ->
        let requests, errs, wall =
          serve_pipeline_round ~depth ~reps:pipeline_reps ~tag:(Printf.sprintf "pd%d" depth)
        in
        let rps = if wall > 0.0 then float_of_int requests /. wall else 0.0 in
        printf "  depth %2d: %5d req in %6.2f s  %7.0f req/s  errors %d\n%!" depth requests wall
          rps errs;
        (depth, requests, errs, wall, rps))
      pipeline_depth_sweep
  in
  let buf = Buffer.create 4096 in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  add "{\n";
  add "  \"bench\": \"exploration-service\",\n";
  add "  \"smoke\": %b,\n" smoke;
  add "  \"layer\": \"synthetic10k\",\n";
  add "  \"cores\": %d,\n" Ds_domains.Catalog.synthetic10k_spec.Syn.cores;
  add "  \"clients\": %d,\n" serve_bench_clients;
  add "  \"pool\": %d,\n" headline.sr_pool;
  add "  \"iterations_per_client\": %d,\n" reps;
  add "  \"requests\": %d,\n" total;
  add "  \"errors\": %d,\n" headline.sr_errors;
  add "  \"wall_s\": %.3f,\n" wall;
  add "  \"requests_per_second\": %.1f,\n" (sr_rps headline);
  add "  \"latency_us\": { \"mean\": %.1f, \"p50\": %.1f, \"p95\": %.1f, \"p99\": %.1f, \"max\": %.1f },\n"
    mean p50 p95 p99 max_us;
  (match headline.sr_queue_wait with
  | Some (n, qmean, qmax) ->
    add "  \"queue_wait_us\": { \"count\": %d, \"mean\": %.1f, \"max\": %.1f },\n" n qmean qmax
  | None -> add "  \"queue_wait_us\": null,\n");
  add "  \"pool_sweep\": [\n";
  List.iteri
    (fun i r ->
      let qw =
        match r.sr_queue_wait with
        | Some (_, m, _) -> Printf.sprintf "%.1f" m
        | None -> "null"
      in
      add
        "    { \"pool\": %d, \"iterations_per_client\": %d, \"requests\": %d, \"errors\": %d, \
         \"wall_s\": %.3f, \"requests_per_second\": %.1f, \"queue_wait_mean_us\": %s }%s\n"
        r.sr_pool r.sr_reps r.sr_requests r.sr_errors r.sr_wall (sr_rps r) qw
        (if i < List.length sweep - 1 then "," else ""))
    sweep;
  add "  ],\n";
  add "  \"per_op_latency_us\": {\n";
  List.iteri
    (fun i (op, samples) ->
      let n, mean, p50, p95, p99, max_us = serve_latency_stats samples in
      add
        "    \"%s\": { \"count\": %d, \"mean\": %.1f, \"p50\": %.1f, \"p95\": %.1f, \"p99\": %.1f, \"max\": %.1f }%s\n"
        op n mean p50 p95 p99 max_us
        (if i < List.length ops - 1 then "," else ""))
    ops;
  add "  },\n";
  add "  \"pipeline\": [\n";
  List.iteri
    (fun i (depth, requests, errs, wall, rps) ->
      add
        "    { \"depth\": %d, \"iterations_per_client\": %d, \"requests\": %d, \"errors\": %d, \
         \"wall_s\": %.3f, \"requests_per_second\": %.1f }%s\n"
        depth pipeline_reps requests errs wall rps
        (if i < List.length pipeline_rows - 1 then "," else ""))
    pipeline_rows;
  add "  ],\n";
  add "  \"server_stats\": %s\n" headline.sr_server_stats;
  add "}\n";
  write_bench "BENCH_PR4" buf;
  printf "\nwrote BENCH_PR4.json (%.0f req/s over %d concurrent clients at pool %d)\n"
    (sr_rps headline) serve_bench_clients headline.sr_pool

(* ------------------------------------------------------------------ *)
(* Telemetry-overhead bench (BENCH_PR5.json)                            *)

(* BENCH_PR4's headline round (pool 8, 8 concurrent clients over the
   10^4-core layer) run under both telemetry settings.  Metrics record
   in both — counters and histograms are always on — so the measured
   delta is the cost of span recording into the trace ring, the budget
   DESIGN.md section 13 caps at 3% of serve throughput.  Each setting
   gets [pairs] rounds and keeps its best (min-noise) figure. *)

let obs_json ?(smoke = false) () =
  let module Obs = Ds_obs.Obs in
  header
    (if smoke then "Telemetry-overhead bench (smoke) -> BENCH_PR5.json"
     else "Telemetry-overhead bench -> BENCH_PR5.json");
  let reps = if smoke then 25 else 250 in
  let pairs = if smoke then 1 else 3 in
  let pool = serve_bench_clients in
  let was_enabled = Obs.enabled () in
  ignore (serve_round ~pool ~reps:(if smoke then 5 else 25) ~tag:"obs_warm");
  let spans_on = ref 0 in
  let round enabled i =
    Obs.set_enabled enabled;
    (* since:max_int returns no spans but the live head cursor, i.e.
       the global count of spans ever recorded *)
    let _, seq0, _ = Obs.trace_read ~since:max_int () in
    let r = serve_round ~pool ~reps ~tag:(Printf.sprintf "obs_%b_%d" enabled i) in
    let _, seq1, _ = Obs.trace_read ~since:max_int () in
    if enabled then spans_on := !spans_on + (seq1 - seq0);
    r
  in
  (* interleave off/on rounds so drift (thermal, page cache) hits both *)
  let rounds = List.init pairs (fun i -> (round false i, round true i)) in
  Obs.set_enabled was_enabled;
  let best side =
    List.fold_left
      (fun best r -> match best with Some b when sr_rps b >= sr_rps r -> best | _ -> Some r)
      None (List.map side rounds)
    |> Option.get
  in
  let off = best fst and on = best snd in
  let digest r =
    let n, mean, p50, p95, p99, max_us = serve_latency_stats (List.map snd r.sr_samples) in
    (n, mean, p50, p95, p99, max_us)
  in
  let show label r =
    let _, mean, p50, _, p99, _ = digest r in
    printf "  %-14s %5d req in %6.2f s  %7.0f req/s  mean %6.0f us  p50 %6.0f  p99 %6.0f  errors %d\n"
      label r.sr_requests r.sr_wall (sr_rps r) mean p50 p99 r.sr_errors
  in
  printf "pool %d, %d clients, %d iterations/client, best of %d round(s) per setting:\n" pool
    serve_bench_clients reps pairs;
  show "telemetry off" off;
  show "telemetry on" on;
  let overhead_pct =
    if sr_rps off > 0.0 then 100.0 *. (1.0 -. (sr_rps on /. sr_rps off)) else 0.0
  in
  let within = overhead_pct <= 3.0 in
  printf "throughput overhead with tracing enabled: %.2f%% (target <= 3%%) %s\n" overhead_pct
    (if within then "" else " [OVER BUDGET]");
  printf "spans recorded during the enabled rounds: %d\n" !spans_on;
  let buf = Buffer.create 2048 in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  let add_side key r =
    let n, mean, p50, p95, p99, max_us = digest r in
    add "  \"%s\": {\n" key;
    add "    \"requests\": %d, \"errors\": %d, \"wall_s\": %.3f, \"requests_per_second\": %.1f,\n"
      r.sr_requests r.sr_errors r.sr_wall (sr_rps r);
    add "    \"latency_us\": { \"count\": %d, \"mean\": %.1f, \"p50\": %.1f, \"p95\": %.1f, \"p99\": %.1f, \"max\": %.1f }\n"
      n mean p50 p95 p99 max_us;
    add "  },\n"
  in
  add "{\n";
  add "  \"bench\": \"telemetry-overhead\",\n";
  add "  \"smoke\": %b,\n" smoke;
  add "  \"layer\": \"synthetic10k\",\n";
  add "  \"clients\": %d,\n" serve_bench_clients;
  add "  \"pool\": %d,\n" pool;
  add "  \"iterations_per_client\": %d,\n" reps;
  add "  \"rounds_per_setting\": %d,\n" pairs;
  add "  \"quantile_estimator\": \"shared histogram buckets (ratio 1.25; see DESIGN.md 13)\",\n";
  add_side "telemetry_off" off;
  add_side "telemetry_on" on;
  add "  \"spans_recorded\": %d,\n" !spans_on;
  add "  \"overhead_pct\": %.2f,\n" overhead_pct;
  add "  \"target_pct\": 3.0,\n";
  add "  \"within_target\": %b\n" within;
  add "}\n";
  let oc = open_out "BENCH_PR5.json" in
  output_string oc (Buffer.contents buf);
  close_out oc;
  printf "\nwrote BENCH_PR5.json (%.2f%% overhead at pool %d)\n" overhead_pct pool

(* ------------------------------------------------------------------ *)
(* Columnar-sweep bench (BENCH_PR7.json)                                *)

(* Measures the columnar Eliminate sweep on generated large-population
   layers (10^5 and 10^6 cores): layer build cost, the cold
   sweep-everything query against the uncached naive recompute
   ([Session.candidates_naive], per-core closures over a candidate list —
   the equivalence oracle, same run, same machine), the warm requery
   step, and allocator pressure per phase.  A
   PR4-shaped serve round rides along so scripts/bench_compare.sh can
   gate end-to-end serve throughput against the pinned BENCH_PR4
   figures. *)

module Gen = Ds_domains.Generator

let sweep_budget i = 180.0 +. (15.0 *. float_of_int i)

let gen_bind_budgets spec s =
  let rec go s i =
    if i >= spec.Gen.ccs then s
    else begin
      match Session.set s (Gen.budget_name i) (Value.real (sweep_budget i)) with
      | Ok s -> go s (i + 1)
      | Error e -> failwith ("bench: binding " ^ Gen.budget_name i ^ ": " ^ e)
    end
  in
  go s 0

(* Wall clock, not [Sys.time]: the sweep fans out over the domain pool,
   and CPU time would add the workers' time together. *)
let wall_ms f =
  let t0 = Unix.gettimeofday () in
  f ();
  (Unix.gettimeofday () -. t0) *. 1000.0

let sweep_json ?(smoke = false) () =
  header
    (if smoke then "Columnar-sweep bench (smoke) -> BENCH_PR7.json"
     else "Columnar-sweep bench -> BENCH_PR7.json");
  let sizes = if smoke then [ 100_000 ] else [ 100_000; 1_000_000 ] in
  let reps_for n =
    match env_reps () with
    | Some r -> r
    | None -> if n >= 1_000_000 then 2 else if smoke then 3 else 5
  in
  (* the serve leg: BENCH_PR4's headline shape (8 clients, pool 8,
     synthetic10k, same rep count) for the throughput gate.  It runs
     FIRST, before the large-layer builds: a 10^6-core layer leaves a
     multi-GB major heap behind, and GC pressure from that heap would
     depress the measured request throughput by ~2x, skewing the
     PR4-vs-PR7 comparison. *)
  let serve_reps = match env_reps () with Some r -> r | None -> if smoke then 25 else 250 in
  let sr = serve_round ~pool:serve_bench_clients ~reps:serve_reps ~tag:"sweep" in
  printf "serve leg: %d req in %.2f s  %.0f req/s  errors %d\n" sr.sr_requests sr.sr_wall
    (sr_rps sr) sr.sr_errors;
  let rows =
    List.map
      (fun n ->
        let spec = { Gen.default_spec with Gen.cores = n } in
        let reps = reps_for n in
        let master = ref None in
        let build_ms, build_gc =
          with_gc (fun () -> wall_ms (fun () -> master := Some (Gen.session spec)))
        in
        let master = Option.get !master in
        let naive_master = Gen.session ~use_cache:false spec in
        (* cold sweep: fresh lineage (own compliance cache) per rep, so
           every rep pays the full sweep over all [ccs] constraints *)
        let cold mst count =
          let survivors = ref 0 in
          let ms, gc =
            with_gc (fun () ->
                wall_ms (fun () ->
                    for _ = 1 to reps do
                      let s = gen_bind_budgets spec (Session.pristine mst) in
                      survivors := count s
                    done))
          in
          (ms /. float_of_int reps, gc, !survivors)
        in
        let columnar_ms, columnar_gc, survivors = cold master Session.candidate_count in
        let naive_ms, naive_gc, naive_survivors =
          cold naive_master (fun s -> List.length (Session.candidates_naive s))
        in
        let speedup = if columnar_ms > 0.0 then naive_ms /. columnar_ms else 0.0 in
        (* warm requery: revise one budget, re-read count and a range —
           only the revised constraint re-sweeps *)
        let warm = gen_bind_budgets spec (Session.pristine master) in
        ignore (Session.candidate_count warm);
        let warm = ref warm in
        let warm_ms, warm_gc =
          with_gc (fun () ->
              wall_ms (fun () ->
                  for rep = 1 to reps do
                    let delta = if rep mod 2 = 0 then 10.0 else -10.0 in
                    let s = ok (Session.retract !warm (Gen.budget_name 0)) in
                    let s =
                      ok (Session.set s (Gen.budget_name 0) (Value.real (sweep_budget 0 +. delta)))
                    in
                    ignore (Session.candidate_count s);
                    ignore (Session.merit_summary s ~merit:(Gen.merit_name 0));
                    warm := s
                  done))
        in
        let warm_ms = warm_ms /. float_of_int reps in
        (* differential: columnar and uncached-naive candidate ids must
           be identical (checked at the gate size; the equivalence suite
           covers more seeds and shapes) *)
        let equivalent =
          if n > 100_000 then None
          else begin
            let col = gen_bind_budgets spec (Session.pristine master) in
            let naive = gen_bind_budgets spec (Session.pristine naive_master) in
            Some
              (List.map fst (Session.candidates col)
              = List.map fst (Session.candidates_naive naive))
          end
        in
        printf
          "%8d cores | build %8.0f ms | cold sweep columnar %8.2f ms  naive %8.2f ms  speedup %6.2fx | warm %6.3f ms | survivors %d%s\n"
          n build_ms columnar_ms naive_ms speedup warm_ms survivors
          (match equivalent with
          | Some true | None -> if naive_survivors = survivors then "" else "  [MISMATCH]"
          | Some false -> "  [MISMATCH]");
        ( n,
          reps,
          (build_ms, build_gc),
          (columnar_ms, columnar_gc),
          (naive_ms, naive_gc, speedup),
          (warm_ms, warm_gc),
          survivors,
          equivalent ))
      sizes
  in
  let buf = Buffer.create 4096 in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  add "{\n";
  add "  \"bench\": \"columnar-sweep\",\n";
  add "  \"smoke\": %b,\n" smoke;
  add
    "  \"config\": { \"branching\": %d, \"plain_issues\": %d, \"cardinality\": %d, \
     \"merits\": %d, \"fanin\": %d, \"ccs\": %d, \"seed\": %d },\n"
    Gen.default_spec.Gen.branching Gen.default_spec.Gen.plain_issues
    Gen.default_spec.Gen.cardinality Gen.default_spec.Gen.merits Gen.default_spec.Gen.fanin
    Gen.default_spec.Gen.ccs Gen.default_spec.Gen.seed;
  add "  \"sizes\": [\n";
  List.iteri
    (fun i
         ( n,
           reps,
           (build_ms, build_gc),
           (columnar_ms, columnar_gc),
           (naive_ms, naive_gc, speedup),
           (warm_ms, warm_gc),
           survivors,
           equivalent ) ->
      add "    {\n";
      add "      \"cores\": %d,\n" n;
      add "      \"reps\": %d,\n" reps;
      add "      \"survivors\": %d,\n" survivors;
      (match equivalent with
      | Some eq -> add "      \"equivalent_to_naive\": %b,\n" eq
      | None -> add "      \"equivalent_to_naive\": null,\n");
      add "      \"build\": { \"ms\": %.1f, \"gc\": %s },\n" build_ms (gc_json build_gc);
      add "      \"cold_sweep\": {\n";
      add "        \"columnar_ms\": %.3f, \"naive_ms\": %.3f, \"speedup\": %.2f,\n"
        columnar_ms naive_ms speedup;
      add "        \"columnar_gc\": %s,\n" (gc_json columnar_gc);
      add "        \"naive_gc\": %s\n" (gc_json naive_gc);
      add "      },\n";
      add "      \"warm_requery\": { \"ms\": %.4f, \"gc\": %s }\n" warm_ms (gc_json warm_gc);
      add "    }%s\n" (if i < List.length rows - 1 then "," else ""))
    rows;
  add "  ],\n";
  let speedup_at_gate =
    List.fold_left
      (fun acc (n, _, _, _, (_, _, sp), _, _, _) -> if n = 100_000 then sp else acc)
      0.0 rows
  in
  let largest, largest_ms =
    match List.rev rows with
    | (n, _, _, (cms, _), _, _, _, _) :: _ -> (n, cms)
    | [] -> (0, 0.0)
  in
  add "  \"headline\": { \"cores\": %d, \"cold_sweep_ms\": %.3f, \"speedup_at_100k\": %.2f },\n"
    largest largest_ms speedup_at_gate;
  add
    "  \"serve\": { \"layer\": \"synthetic10k\", \"clients\": %d, \"pool\": %d, \
     \"iterations_per_client\": %d, \"requests\": %d, \"errors\": %d, \"wall_s\": %.3f, \
     \"requests_per_second\": %.1f }\n"
    serve_bench_clients serve_bench_clients serve_reps sr.sr_requests sr.sr_errors sr.sr_wall
    (sr_rps sr);
  add "}\n";
  write_bench "BENCH_PR7" buf;
  printf
    "\nwrote BENCH_PR7.json (cold sweep %.1f ms over %d cores; columnar %.2fx naive at 10^5)\n"
    largest_ms largest speedup_at_gate

(* ------------------------------------------------------------------ *)
(* Fleet bench (BENCH_PR9.json)                                        *)

(* A sharded fleet (4 workers, consistent-hash router) under a
   20k-session, 256-client load — the multi-process counterpart of the
   serve bench.  Workers are fresh execs of this bench binary (the
   hidden [fleet-worker] argv mode below); the router runs in-process
   so its queueing is part of every measured latency, exactly as a
   front-end client would see it.  Three legs:

   - open: every session opened and given one acknowledged binding;
   - drive: the clients hammer a bounded-candidates poll mix (set, a
     16-id candidates page, signature) over their sessions while one
     worker is SIGKILLed mid-leg.  Clients run Durable connections
     with [retry_failures], so the crash window must surface only as
     retried requests — any client-visible failure fails the bench;
   - verify: once the supervisor has restarted the shard, a held-out
     sample of the victim's sessions (untouched by the drive leg) must
     reproduce their pre-kill signatures bit-identically — journal
     resume checked end to end, through the router.

   Shard attribution is computed bench-side with the same {!Ring} the
   router uses: placement is pure arithmetic over the worker-name set,
   so per-shard latency needs no per-request cooperation from the
   fleet. *)

module Fleet = Ds_fleet
module FP = Ds_serve.Protocol
module Dur = Ds_serve.Client.Durable

(* Hidden argv mode: run one fleet worker in this process.  The
   supervisor spawns workers as fresh execs of [Sys.executable_name];
   in the bench that binary is this one, so the bench carries its own
   worker entry point — the serve bench's service config plus the
   per-worker journal directory that makes restart-in-place work. *)
let fleet_worker rest =
  let socket = ref "" and journal = ref "" in
  let capacity = ref 8192 and pool = ref 4 in
  let rec parse = function
    | "--socket" :: v :: tl ->
      socket := v;
      parse tl
    | "--journal-dir" :: v :: tl ->
      journal := v;
      parse tl
    | "--capacity" :: v :: tl ->
      capacity := int_of_string v;
      parse tl
    | "--pool" :: v :: tl ->
      pool := int_of_string v;
      parse tl
    | [] -> ()
    | a :: _ -> failwith ("fleet-worker: unknown argument " ^ a)
  in
  parse rest;
  if String.equal !socket "" || String.equal !journal "" then
    failwith "fleet-worker: --socket and --journal-dir are required";
  (try Unix.mkdir !journal 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  Fleet.Worker.run ~socket:!socket ~pool:!pool
    (Ds_serve.Service.config ~journal_dir:!journal ~capacity:!capacity
       ~default_merits:[ "delay"; "cost" ] ~layers:Ds_domains.Catalog.factories ())

let fleet_n_workers = 4
let fleet_victim = "w0"

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
    (try Unix.rmdir path with Unix.Unix_error _ -> ())
  | _ -> ( try Unix.unlink path with Unix.Unix_error _ -> ())
  | exception Unix.Unix_error _ -> ()

module FJ = Ds_serve.Jsonx
module FO = Ds_obs.Obs

(* Hidden argv mode: the fleet's front door in its own process.  On a
   one-core box the router's per-connection threads must not share an
   OCaml runtime lock with the client threads — co-hosting the two
   tiers convoys every reply wake-up behind the lock and collapses
   throughput ~15x, so the bench deploys the router exactly like
   [dse fleet serve] does: as a separate process. *)
let fleet_router rest =
  let socket = ref "" and workers = ref [] and slots = ref 8 in
  let rec parse = function
    | "--socket" :: v :: tl ->
      socket := v;
      parse tl
    | "--workers" :: v :: tl ->
      workers :=
        List.map
          (fun kv ->
            match String.index_opt kv '=' with
            | Some i -> (String.sub kv 0 i, String.sub kv (i + 1) (String.length kv - i - 1))
            | None -> failwith "fleet-router: --workers wants name=socket[,name=socket...]")
          (String.split_on_char ',' v);
      parse tl
    | "--slots" :: v :: tl ->
      slots := int_of_string v;
      parse tl
    | [] -> ()
    | a :: _ -> failwith ("fleet-router: unknown argument " ^ a)
  in
  parse rest;
  if String.equal !socket "" || !workers = [] then
    failwith "fleet-router: --socket and --workers are required";
  let router = Ds_fleet.Router.create ~socket:!socket ~workers:!workers ~slots:!slots () in
  Ds_fleet.Router.install_signal_handlers router;
  Ds_fleet.Router.serve router

(* Placement arithmetic shared by the bench and its driver processes:
   rendezvous placement is a pure function of the worker-name set, so
   every process computes identical shard maps and the same held-out
   sample without any coordination. *)
let fleet_ids sessions = Array.init sessions (fun i -> Printf.sprintf "f%05d" i)

let fleet_shards ring ids =
  let tbl = Hashtbl.create (2 * Array.length ids) in
  Array.iter
    (fun id -> Hashtbl.replace tbl id (Option.value (Fleet.Ring.route ring id) ~default:"?"))
    ids;
  tbl

let fleet_sample ~shard ~victim ~target ids =
  Array.to_list ids
  |> List.filter (fun id -> String.equal (Hashtbl.find shard id) victim)
  |> List.filteri (fun i _ -> i < target)

(* Hidden argv mode: one shard of the client load.  256 concurrent
   clients cannot live in one OCaml process on one core (same convoy
   as the router), so the bench spawns several of these, each running
   its slice of the client threads over its own Durable connections.
   The driver buckets every request latency into a per-shard histogram
   (global geometric bounds) and prints one JSON line; the bench
   merges driver histograms bucket-wise — the same
   {!Ds_obs.Obs.merge_hsnapshots} the router uses for metrics fan-out. *)
let fleet_drive rest =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let socket = ref "" and names = ref [] and victim = ref "w0" and phase = ref "drive" in
  let sample_n = ref 0 and nclients = ref 16 and offset = ref 0 and total = ref 16 in
  let sessions = ref 0 and reps = ref 1 and depth = ref 1 in
  let rec parse = function
    | "--socket" :: v :: tl ->
      socket := v;
      parse tl
    | "--workers" :: v :: tl ->
      names := String.split_on_char ',' v;
      parse tl
    | "--victim" :: v :: tl ->
      victim := v;
      parse tl
    | "--sample" :: v :: tl ->
      sample_n := int_of_string v;
      parse tl
    | "--clients" :: v :: tl ->
      nclients := int_of_string v;
      parse tl
    | "--client-offset" :: v :: tl ->
      offset := int_of_string v;
      parse tl
    | "--client-total" :: v :: tl ->
      total := int_of_string v;
      parse tl
    | "--sessions" :: v :: tl ->
      sessions := int_of_string v;
      parse tl
    | "--reps" :: v :: tl ->
      reps := int_of_string v;
      parse tl
    | "--depth" :: v :: tl ->
      depth := int_of_string v;
      parse tl
    | "--phase" :: v :: tl ->
      phase := v;
      parse tl
    | [] -> ()
    | a :: _ -> failwith ("fleet-drive: unknown argument " ^ a)
  in
  parse rest;
  let ring = Fleet.Ring.create !names in
  let ids = fleet_ids !sessions in
  let shard = fleet_shards ring ids in
  let sampled = Hashtbl.create 97 in
  List.iter
    (fun id -> Hashtbl.replace sampled id ())
    (fleet_sample ~shard ~victim:!victim ~target:!sample_n ids);
  (* the paper's IDCT design space: per-session state is the size a
     real exploration session has, so 20k of them fit one host and the
     bench measures fleet dispatch, not sweep compute (PR 7 owns that) *)
  let fleet_layer = "idct" in
  let bound_prop = "Word Size" and drive_prop = "Precision" in
  let errors = Atomic.make 0 in
  let registry = FO.create_registry () in
  let hists =
    List.map (fun w -> (w, FO.histogram registry ("shard_" ^ w))) (Fleet.Ring.nodes ring)
  in
  let conns = Array.init !nclients (fun _ -> Dur.create ~socket:!socket ()) in
  let requests = Array.make !nclients 0 in
  let owned k =
    let rec go i acc = if i >= !sessions then List.rev acc else go (i + !total) (ids.(i) :: acc) in
    go (!offset + k) []
  in
  let fail_err k ctx msg =
    Atomic.incr errors;
    Printf.eprintf "fleet driver client %d: %s: %s\n%!" (!offset + k) ctx msg
  in
  let run_open k =
    let c = conns.(k) in
    let send ctx req =
      match Dur.request ~retry_failures:true c req with
      | Ok (FP.Reply _) -> requests.(k) <- requests.(k) + 1
      | Ok (FP.Failed (code, msg)) -> fail_err k ctx (FP.error_code_label code ^ ": " ^ msg)
      | Error msg -> fail_err k ctx msg
    in
    List.iter
      (fun id ->
        send ("open " ^ id)
          (FP.Open { session = Some id; layer = fleet_layer; eol = None; resume = false });
        send ("set " ^ id)
          (FP.Set { session = id; name = bound_prop; value = Value.int 16; decide = false }))
      (owned k)
  in
  let run_drive k =
    let c = conns.(k) in
    let timed id hist op req =
      let r0 = Dur.retried c in
      let t = Unix.gettimeofday () in
      match Dur.request ~retry_failures:true c req with
      | Ok (FP.Reply _) ->
        requests.(k) <- requests.(k) + 1;
        FO.observe hist ((Unix.gettimeofday () -. t) *. 1.0e6)
      | Ok (FP.Failed (FP.Rejected, _)) when Dur.retried c > r0 ->
        (* an at-least-once artifact of the crash window: the first
           send applied but its ack was lost, so the resend was
           legitimately rejected (set: already bound; retract: not
           bound).  The mutation IS applied — count the request, but
           keep its mostly-backoff duration out of the histogram. *)
        requests.(k) <- requests.(k) + 1
      | Ok (FP.Failed (code, msg)) ->
        fail_err k (op ^ " " ^ id) (FP.error_code_label code ^ ": " ^ msg)
      | Error msg -> fail_err k (op ^ " " ^ id) msg
    in
    let mine = List.filter (fun id -> not (Hashtbl.mem sampled id)) (owned k) in
    for r = 1 to !reps do
      List.iter
        (fun id ->
          let hist = List.assoc (Hashtbl.find shard id) hists in
          let v = if r mod 2 = 0 then 12 else 14 in
          timed id hist "set"
            (FP.Set { session = id; name = drive_prop; value = Value.int v; decide = false });
          timed id hist "candidates" (FP.Candidates { session = id; max = Some 16 });
          timed id hist "signature" (FP.Signature { session = id });
          timed id hist "retract" (FP.Retract { session = id; name = drive_prop }))
        mine
    done
  in
  (* the drive mix, [depth] requests in flight through
     Durable.request_many — one coalesced write per group, replies read
     back in order (suffix-only resend on transport loss) *)
  let run_pipeline k =
    let c = conns.(k) in
    let mine = List.filter (fun id -> not (Hashtbl.mem sampled id)) (owned k) in
    for r = 1 to !reps do
      let reqs =
        List.concat_map
          (fun id ->
            let v = if r mod 2 = 0 then 12 else 14 in
            [
              FP.Set { session = id; name = drive_prop; value = Value.int v; decide = false };
              FP.Candidates { session = id; max = Some 16 };
              FP.Signature { session = id };
              FP.Retract { session = id; name = drive_prop };
            ])
          mine
      in
      List.iter
        (fun group ->
          let r0 = Dur.retried c in
          let results = Dur.request_many ~retry_failures:true c group in
          List.iter
            (fun res ->
              match res with
              | Ok (FP.Reply _) -> requests.(k) <- requests.(k) + 1
              | Ok (FP.Failed (FP.Rejected, _)) when Dur.retried c > r0 ->
                (* same at-least-once artifact as [run_drive] *)
                requests.(k) <- requests.(k) + 1
              | Ok (FP.Failed (code, msg)) ->
                fail_err k "pipeline" (FP.error_code_label code ^ ": " ^ msg)
              | Error msg -> fail_err k "pipeline" msg)
            results)
        (chunk_list !depth reqs)
    done
  in
  let t0 = Unix.gettimeofday () in
  let body =
    match !phase with
    | "open" -> run_open
    | "pipeline" -> run_pipeline
    | _ -> run_drive
  in
  let threads = List.init !nclients (fun k -> Thread.create body k) in
  List.iter Thread.join threads;
  let wall = Unix.gettimeofday () -. t0 in
  let reconnects = Array.fold_left (fun a c -> a + Dur.reconnects c) 0 conns in
  let retried = Array.fold_left (fun a c -> a + Dur.retried c) 0 conns in
  Array.iter Dur.close conns;
  let buf = Buffer.create 4096 in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  add
    "{ \"requests\": %d, \"errors\": %d, \"wall_s\": %.3f, \"reconnects\": %d, \"retried\": %d, \
     \"per_shard\": {"
    (Array.fold_left ( + ) 0 requests)
    (Atomic.get errors) wall reconnects retried;
  List.iteri
    (fun i (w, h) ->
      let s = FO.h_snapshot h in
      add "%s \"%s\": { \"count\": %d, \"sum\": %.1f, \"min\": %.1f, \"max\": %.1f, \"counts\": [%s] }"
        (if i = 0 then "" else ",")
        w s.FO.h_count s.FO.h_sum
        (if s.FO.h_count = 0 then 0.0 else s.FO.h_min)
        (if s.FO.h_count = 0 then 0.0 else s.FO.h_max)
        (String.concat "," (Array.to_list (Array.map string_of_int s.FO.h_counts))))
    hists;
  add " } }\n";
  print_string (Buffer.contents buf)

let fleet_snap_of_json j =
  let count = Option.value (Option.bind (FJ.member "count" j) FJ.to_int) ~default:0 in
  let getf k d = Option.value (Option.bind (FJ.member k j) FJ.to_float) ~default:d in
  let counts =
    match Option.bind (FJ.member "counts" j) FJ.to_list with
    | Some l -> Array.of_list (List.map (fun x -> Option.value (FJ.to_int x) ~default:0) l)
    | None -> Array.make (Array.length FO.bucket_bounds + 1) 0
  in
  {
    FO.h_count = count;
    h_sum = getf "sum" 0.0;
    h_min = (if count = 0 then infinity else getf "min" 0.0);
    h_max = (if count = 0 then neg_infinity else getf "max" 0.0);
    h_counts = counts;
  }

let fleet_snap_stats s =
  let n = s.FO.h_count in
  let q p = if n = 0 then 0.0 else FO.quantile s p in
  ( n,
    (if n = 0 then 0.0 else s.FO.h_sum /. float_of_int n),
    q 0.50,
    q 0.95,
    q 0.99,
    if n = 0 then 0.0 else s.FO.h_max )

(* Spawn every driver, then drain each stdout to EOF and reap.  The
   drivers run concurrently (all spawned before any drain); a driver's
   whole report is one short line, far below the pipe buffer, so the
   sequential drain cannot deadlock. *)
let fleet_run_drivers argvs =
  let procs =
    List.map
      (fun argv ->
        let r, w = Unix.pipe () in
        let pid = Unix.create_process argv.(0) argv Unix.stdin w Unix.stderr in
        Unix.close w;
        (pid, r))
      argvs
  in
  List.map
    (fun (pid, r) ->
      let buf = Buffer.create 4096 in
      let chunk = Bytes.create 65536 in
      let rec drain () =
        match Unix.read r chunk 0 65536 with
        | 0 -> ()
        | n ->
          Buffer.add_subbytes buf chunk 0 n;
          drain ()
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> drain ()
      in
      drain ();
      Unix.close r;
      let _, status = Unix.waitpid [] pid in
      (status, Buffer.contents buf))
    procs

let fleet_json ?(smoke = false) () =
  header
    (if smoke then "Fleet bench (smoke) -> BENCH_PR9.json"
     else "Fleet bench -> BENCH_PR9.json");
  (* the kill leg makes EPIPE a working-as-intended event — it must
     come back as an error, not a process death *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let clients = if smoke then 32 else 256 in
  let drivers = if smoke then 2 else 8 in
  let per_driver = clients / drivers in
  let sessions = if smoke then 1_024 else 20_000 in
  let reps = match env_reps () with Some r -> r | None -> if smoke then 1 else 4 in
  let dir =
    let d =
      Filename.concat (Filename.get_temp_dir_name ())
        (Printf.sprintf "dse_bench_fleet_%d" (Unix.getpid ()))
    in
    rm_rf d;
    Unix.mkdir d 0o755;
    d
  in
  let specs =
    List.init fleet_n_workers (fun i ->
        let name = Printf.sprintf "w%d" i in
        let sock = Filename.concat dir (name ^ ".sock") in
        {
          Fleet.Supervisor.w_name = name;
          w_socket = sock;
          w_argv =
            (* pool = slots + 2: a worker thread owns a connection for
               its lifetime, so the pool must exceed the router's
               persistent slots or routed connections starve in the
               accept queue (the spares answer health probes) *)
            [|
              Sys.executable_name; "fleet-worker"; "--socket"; sock; "--journal-dir";
              Filename.concat dir (name ^ ".journal"); "--capacity"; "8192"; "--pool"; "10";
            |];
          w_log = Some (Filename.concat dir (name ^ ".log"));
        })
  in
  let sup = Fleet.Supervisor.start specs in
  (match Fleet.Supervisor.await_ready sup with
  | Ok () -> ()
  | Error msg ->
    Fleet.Supervisor.stop sup;
    failwith ("fleet bench: workers not ready: " ^ msg));
  let worker_list = Fleet.Supervisor.workers sup in
  let names = List.map fst worker_list in
  let router_sock = Filename.concat dir "router.sock" in
  let router_pid =
    let log =
      Unix.openfile (Filename.concat dir "router.log")
        [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ]
        0o644
    in
    Fun.protect
      ~finally:(fun () -> Unix.close log)
      (fun () ->
        Unix.create_process Sys.executable_name
          [|
            Sys.executable_name; "fleet-router"; "--socket"; router_sock; "--workers";
            String.concat "," (List.map (fun (n, s) -> n ^ "=" ^ s) worker_list); "--slots"; "8";
          |]
          Unix.stdin log log)
  in
  let probe = Dur.create ~socket:router_sock () in
  let healthz_ok () =
    match Dur.request probe FP.Healthz with
    | Ok (FP.Reply fields) -> (
      match Option.bind (List.assoc_opt "status" fields) FJ.to_str with
      | Some "ok" -> true
      | _ -> false)
    | _ -> false
  in
  let await_healthy what timeout =
    let deadline = Unix.gettimeofday () +. timeout in
    let rec go () =
      if healthz_ok () then ()
      else if Unix.gettimeofday () > deadline then failwith ("fleet bench: " ^ what)
      else begin
        Thread.delay 0.2;
        go ()
      end
    in
    go ()
  in
  await_healthy "router did not come up" 30.0;
  let ring = Fleet.Ring.create names in
  let ids = fleet_ids sessions in
  let shard = fleet_shards ring ids in
  let sample_target = if smoke then 16 else 64 in
  let sample = fleet_sample ~shard ~victim:fleet_victim ~target:sample_target ids in
  printf "fleet: %d workers + router up, %d clients in %d driver processes, %d sessions\n%!"
    fleet_n_workers clients drivers sessions;
  let driver_argvs ?(depth = 1) phase =
    List.init drivers (fun d ->
        [|
          Sys.executable_name; "fleet-drive"; "--socket"; router_sock; "--workers";
          String.concat "," names; "--victim"; fleet_victim; "--sample";
          string_of_int sample_target; "--clients"; string_of_int per_driver; "--client-offset";
          string_of_int (d * per_driver); "--client-total"; string_of_int clients; "--sessions";
          string_of_int sessions; "--reps"; string_of_int reps; "--depth"; string_of_int depth;
          "--phase"; phase;
        |])
  in
  let parse_driver (status, out) =
    (match status with
    | Unix.WEXITED 0 -> ()
    | _ -> failwith "fleet bench: a driver process died");
    match FJ.of_string (String.trim out) with
    | Ok j -> j
    | Error e -> failwith ("fleet bench: unparseable driver report: " ^ e)
  in
  let dint k j = Option.value (Option.bind (FJ.member k j) FJ.to_int) ~default:0 in
  let sum k reports = List.fold_left (fun acc j -> acc + dint k j) 0 reports in
  (* leg 1: open every session, bind one acknowledged budget *)
  let t0 = Unix.gettimeofday () in
  let open_reports = List.map parse_driver (fleet_run_drivers (driver_argvs "open")) in
  let open_wall = Unix.gettimeofday () -. t0 in
  let open_requests = sum "requests" open_reports in
  let open_errors = sum "errors" open_reports in
  printf "open: %d req in %.2f s  (%.0f req/s)  errors %d\n%!" open_requests open_wall
    (float_of_int open_requests /. open_wall)
    open_errors;
  let read_sig id =
    match Dur.request ~retry_failures:true probe (FP.Signature { session = id }) with
    | Ok (FP.Reply fields) -> Option.bind (List.assoc_opt "signature" fields) FJ.to_str
    | _ -> None
  in
  let before = List.map (fun id -> (id, read_sig id)) sample in
  (* leg 2: the drive mix, with a SIGKILL of one worker mid-leg *)
  let kill_after = if smoke then 0.5 else 10.0 in
  let t1 = Unix.gettimeofday () in
  let killed_pid = ref 0 in
  let killer =
    Thread.create
      (fun () ->
        Thread.delay kill_after;
        match Fleet.Supervisor.pid sup fleet_victim with
        | Some pid -> (
          killed_pid := pid;
          try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ())
        | None -> ())
      ()
  in
  let drive_reports = List.map parse_driver (fleet_run_drivers (driver_argvs "drive")) in
  let drive_wall = Unix.gettimeofday () -. t1 in
  Thread.join killer;
  let drive_requests = sum "requests" drive_reports in
  let drive_errors = sum "errors" drive_reports in
  let reconnects = sum "reconnects" (open_reports @ drive_reports) in
  let retried = sum "retried" (open_reports @ drive_reports) in
  let drive_rps = if drive_wall > 0.0 then float_of_int drive_requests /. drive_wall else 0.0 in
  printf "drive: %d req in %.2f s  (%.0f req/s)  victim pid %d killed at t+%.1fs  errors %d\n%!"
    drive_requests drive_wall drive_rps !killed_pid kill_after drive_errors;
  (* leg 3: wait for the fleet to report healthy, then verify the
     held-out signatures against their pre-kill values *)
  await_healthy "fleet did not recover after the kill" 60.0;
  let after = List.map (fun id -> (id, read_sig id)) sample in
  let mismatches =
    List.fold_left2
      (fun acc (id, b) (_, a) ->
        match (b, a) with
        | Some b, Some a when String.equal b a -> acc
        | b, a ->
          Printf.eprintf "fleet: signature mismatch for %s: %s -> %s\n%!" id
            (Option.value b ~default:"<none>")
            (Option.value a ~default:"<none>");
          acc + 1)
      0 before after
  in
  let restarts = Fleet.Supervisor.restarts sup in
  let victim_restarts =
    match List.assoc_opt fleet_victim restarts with Some n -> n | None -> 0
  in
  printf "verify: %d sample sessions, %d mismatches; restarts %s\n%!" (List.length sample)
    mismatches
    (String.concat " " (List.map (fun (w, n) -> Printf.sprintf "%s=%d" w n) restarts));
  (* leg 4: the pipelining sweep — the same drive mix with [depth]
     requests in flight per client, run after recovery so no kill
     window perturbs the depth comparison.  Depth 1 is lockstep; the
     deepest point is the PR 9 headline the compare script gates. *)
  let pipeline_rows =
    List.map
      (fun depth ->
        let t = Unix.gettimeofday () in
        let reports =
          List.map parse_driver (fleet_run_drivers (driver_argvs ~depth "pipeline"))
        in
        let wall = Unix.gettimeofday () -. t in
        let requests = sum "requests" reports in
        let errs = sum "errors" reports in
        let rps = if wall > 0.0 then float_of_int requests /. wall else 0.0 in
        printf "pipeline depth %2d: %d req in %.2f s  (%.0f req/s)  errors %d\n%!" depth
          requests wall rps errs;
        (depth, requests, wall, rps, errs))
      pipeline_depth_sweep
  in
  let best_depth, _, _, best_rps, _ =
    List.fold_left
      (fun ((_, _, _, best, _) as acc) ((_, _, _, rps, _) as row) ->
        if rps > best then row else acc)
      (List.hd pipeline_rows) pipeline_rows
  in
  let pipeline_errors = List.fold_left (fun acc (_, _, _, _, e) -> acc + e) 0 pipeline_rows in
  printf "pipeline best: depth %d at %.0f req/s (%.2fx the lockstep drive leg)\n%!" best_depth
    best_rps
    (if drive_rps > 0.0 then best_rps /. drive_rps else 0.0);
  let fleet_stats =
    match Dur.request_line probe "{\"op\":\"stats\"}" with Ok s -> s | Error _ -> "null"
  in
  (* per-shard latency: driver histograms merged bucket-wise *)
  let shard_snap w =
    List.fold_left
      (fun acc j ->
        match Option.bind (FJ.member "per_shard" j) (FJ.member w) with
        | Some sj -> FO.merge_hsnapshots acc (fleet_snap_of_json sj)
        | None -> acc)
      (FO.empty_hsnapshot ()) drive_reports
  in
  let shard_rows =
    List.map
      (fun w ->
        let routed =
          Array.fold_left
            (fun acc id -> if String.equal (Hashtbl.find shard id) w then acc + 1 else acc)
            0 ids
        in
        (w, routed, shard_snap w))
      names
  in
  let agg =
    List.fold_left (fun acc (_, _, s) -> FO.merge_hsnapshots acc s) (FO.empty_hsnapshot ())
      shard_rows
  in
  let _, mean, p50, p95, p99, max_us = fleet_snap_stats agg in
  printf "latency us: mean %.0f  p50 %.0f  p95 %.0f  p99 %.0f  max %.0f\n%!" mean p50 p95 p99
    max_us;
  List.iter
    (fun (w, routed, s) ->
      let n, mean, p50, _, p99, max_us = fleet_snap_stats s in
      printf "  %-4s %5d sessions  n %6d  mean %7.0f  p50 %7.0f  p99 %7.0f  max %8.0f us\n" w
        routed n mean p50 p99 max_us)
    shard_rows;
  printf "client: %d reconnects, %d retried\n%!" reconnects retried;
  (* teardown before writing the report: the numbers above are final *)
  Dur.close probe;
  (try Unix.kill router_pid Sys.sigterm with Unix.Unix_error _ -> ());
  let rec reap_router tries =
    match Unix.waitpid [ Unix.WNOHANG ] router_pid with
    | 0, _ when tries > 0 ->
      Thread.delay 0.1;
      reap_router (tries - 1)
    | 0, _ ->
      (try Unix.kill router_pid Sys.sigkill with Unix.Unix_error _ -> ());
      ignore (Unix.waitpid [] router_pid)
    | _ -> ()
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
  in
  reap_router 50;
  Fleet.Supervisor.stop sup;
  let errors = open_errors + drive_errors + pipeline_errors in
  let buf = Buffer.create 4096 in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  add "{\n";
  add "  \"bench\": \"fleet\",\n";
  add "  \"smoke\": %b,\n" smoke;
  add "  \"layer\": \"idct\",\n";
  add "  \"workers\": %d,\n" fleet_n_workers;
  add "  \"clients\": %d,\n" clients;
  add "  \"driver_processes\": %d,\n" drivers;
  add "  \"sessions\": %d,\n" sessions;
  add "  \"reps\": %d,\n" reps;
  add "  \"requests\": %d,\n" (open_requests + drive_requests);
  add "  \"errors\": %d,\n" errors;
  add "  \"wall_s\": %.3f,\n" drive_wall;
  add "  \"requests_per_second\": %.1f,\n" drive_rps;
  add "  \"open\": { \"requests\": %d, \"wall_s\": %.3f, \"requests_per_second\": %.1f },\n"
    open_requests open_wall
    (if open_wall > 0.0 then float_of_int open_requests /. open_wall else 0.0);
  add
    "  \"drive\": { \"requests\": %d, \"wall_s\": %.3f, \"requests_per_second\": %.1f, \
     \"mix\": [\"set\", \"candidates max=16\", \"signature\", \"retract\"] },\n"
    drive_requests drive_wall drive_rps;
  add
    "  \"latency_us\": { \"mean\": %.1f, \"p50\": %.1f, \"p95\": %.1f, \"p99\": %.1f, \"max\": %.1f },\n"
    mean p50 p95 p99 max_us;
  add "  \"per_shard\": {\n";
  List.iteri
    (fun i (w, routed, s) ->
      let n, mean, p50, p95, p99, max_us = fleet_snap_stats s in
      add
        "    \"%s\": { \"sessions\": %d, \"requests\": %d, \"mean_us\": %.1f, \"p50_us\": %.1f, \
         \"p95_us\": %.1f, \"p99_us\": %.1f, \"max_us\": %.1f }%s\n"
        w routed n mean p50 p95 p99 max_us
        (if i < List.length shard_rows - 1 then "," else ""))
    shard_rows;
  add "  },\n";
  add "  \"pipeline\": {\n";
  add "    \"depths\": [\n";
  List.iteri
    (fun i (depth, requests, wall, rps, errs) ->
      add
        "      { \"depth\": %d, \"requests\": %d, \"errors\": %d, \"wall_s\": %.3f, \
         \"requests_per_second\": %.1f }%s\n"
        depth requests errs wall rps
        (if i < List.length pipeline_rows - 1 then "," else ""))
    pipeline_rows;
  add "    ],\n";
  add "    \"best\": { \"depth\": %d, \"requests_per_second\": %.1f },\n" best_depth best_rps;
  add "    \"mix\": [\"set\", \"candidates max=16\", \"signature\", \"retract\"]\n";
  add "  },\n";
  add "  \"client\": { \"reconnects\": %d, \"retried\": %d },\n" reconnects retried;
  add
    "  \"kill\": { \"victim\": \"%s\", \"after_s\": %.1f, \"victim_restarts\": %d, \
     \"sample_sessions\": %d, \"signature_mismatches\": %d },\n"
    fleet_victim kill_after victim_restarts (List.length sample) mismatches;
  add "  \"restarts\": { %s },\n"
    (String.concat ", " (List.map (fun (w, n) -> Printf.sprintf "\"%s\": %d" w n) restarts));
  add "  \"fleet_stats\": %s\n" fleet_stats;
  add "}\n";
  write_bench "BENCH_PR9" buf;
  printf
    "\nwrote BENCH_PR9.json (%.0f req/s lockstep, %.0f req/s at depth %d, over %d clients, %d \
     sessions, %d shards)\n"
    drive_rps best_rps best_depth clients sessions fleet_n_workers;
  rm_rf dir;
  if errors > 0 then begin
    Printf.eprintf "fleet bench: %d client-visible failures (want structured retryable only)\n"
      errors;
    exit 1
  end;
  if mismatches > 0 then begin
    Printf.eprintf "fleet bench: %d signature mismatches after worker restart\n" mismatches;
    exit 1
  end;
  if victim_restarts < 1 then begin
    Printf.eprintf "fleet bench: victim %s was never restarted (kill leg did not run?)\n"
      fleet_victim;
    exit 1
  end

(* ------------------------------------------------------------------ *)
(* Fleet tracing-overhead bench (BENCH_PR10.json)                      *)

(* The PR 9 pipelined data plane (depth-16 groups through the router's
   pass-through path) run with DSE_TELEMETRY=0 and =1, each over a
   freshly spawned fleet so the setting reaches every process — the
   drivers mint a trace context per sampled request when telemetry is
   on, the router and workers record remote-parented spans under it,
   so the "on" side pays the distributed-tracing path end to end
   (DESIGN.md 18).

   The gated leg runs at the operational head-sampling rate below:
   the sampling decision is taken once at the minting client
   (Obs.mint_trace_sampled), so unsampled requests carry zero tracing
   bytes through the fleet and the overhead scales with the rate —
   which is exactly the knob DSE_TRACE_SAMPLE exists to turn.  The
   compare script gates that leg at <= 3%, the same budget the
   single-process telemetry bench (BENCH_PR5) enforces; full runs also
   measure sample-everything tracing as an uncapped informational
   figure. *)

let obs_fleet_depth = 16
let obs_fleet_sample = 0.02

let obs_fleet_round ~smoke ~telemetry ~sample =
  Unix.putenv "DSE_TELEMETRY" (if telemetry then "1" else "0");
  Unix.putenv "DSE_TRACE_SAMPLE" (Printf.sprintf "%g" sample);
  let clients = if smoke then 8 else 64 in
  let drivers = if smoke then 2 else 4 in
  let per_driver = clients / drivers in
  let sessions = if smoke then 256 else 4_000 in
  let reps = match env_reps () with Some r -> r | None -> if smoke then 1 else 12 in
  let dir =
    let d =
      Filename.concat (Filename.get_temp_dir_name ())
        (Printf.sprintf "dse_bench_obsfleet_%d_%b" (Unix.getpid ()) telemetry)
    in
    rm_rf d;
    Unix.mkdir d 0o755;
    d
  in
  let specs =
    List.init fleet_n_workers (fun i ->
        let name = Printf.sprintf "w%d" i in
        let sock = Filename.concat dir (name ^ ".sock") in
        {
          Fleet.Supervisor.w_name = name;
          w_socket = sock;
          w_argv =
            [|
              Sys.executable_name; "fleet-worker"; "--socket"; sock; "--journal-dir";
              Filename.concat dir (name ^ ".journal"); "--capacity"; "8192"; "--pool"; "10";
            |];
          w_log = Some (Filename.concat dir (name ^ ".log"));
        })
  in
  let sup = Fleet.Supervisor.start specs in
  (match Fleet.Supervisor.await_ready sup with
  | Ok () -> ()
  | Error msg ->
    Fleet.Supervisor.stop sup;
    failwith ("obs-fleet bench: workers not ready: " ^ msg));
  let worker_list = Fleet.Supervisor.workers sup in
  let names = List.map fst worker_list in
  let router_sock = Filename.concat dir "router.sock" in
  let router_pid =
    let log =
      Unix.openfile (Filename.concat dir "router.log")
        [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ]
        0o644
    in
    Fun.protect
      ~finally:(fun () -> Unix.close log)
      (fun () ->
        Unix.create_process Sys.executable_name
          [|
            Sys.executable_name; "fleet-router"; "--socket"; router_sock; "--workers";
            String.concat "," (List.map (fun (n, s) -> n ^ "=" ^ s) worker_list); "--slots"; "8";
          |]
          Unix.stdin log log)
  in
  let probe = Dur.create ~socket:router_sock () in
  let healthz_ok () =
    match Dur.request probe FP.Healthz with
    | Ok (FP.Reply fields) -> (
      match Option.bind (List.assoc_opt "status" fields) FJ.to_str with
      | Some "ok" -> true
      | _ -> false)
    | _ -> false
  in
  let deadline = Unix.gettimeofday () +. 30.0 in
  let rec wait_up () =
    if healthz_ok () then ()
    else if Unix.gettimeofday () > deadline then failwith "obs-fleet bench: router did not come up"
    else begin
      Thread.delay 0.2;
      wait_up ()
    end
  in
  wait_up ();
  let driver_argvs phase =
    List.init drivers (fun d ->
        [|
          Sys.executable_name; "fleet-drive"; "--socket"; router_sock; "--workers";
          String.concat "," names; "--victim"; fleet_victim; "--sample"; "0"; "--clients";
          string_of_int per_driver; "--client-offset";
          string_of_int (d * per_driver); "--client-total"; string_of_int clients; "--sessions";
          string_of_int sessions; "--reps"; string_of_int reps; "--depth";
          string_of_int obs_fleet_depth; "--phase"; phase;
        |])
  in
  let parse_driver (status, out) =
    (match status with
    | Unix.WEXITED 0 -> ()
    | _ -> failwith "obs-fleet bench: a driver process died");
    match FJ.of_string (String.trim out) with
    | Ok j -> j
    | Error e -> failwith ("obs-fleet bench: unparseable driver report: " ^ e)
  in
  let dint k j = Option.value (Option.bind (FJ.member k j) FJ.to_int) ~default:0 in
  let sum k reports = List.fold_left (fun acc j -> acc + dint k j) 0 reports in
  (* unmeasured: open every session *)
  let open_reports = List.map parse_driver (fleet_run_drivers (driver_argvs "open")) in
  if sum "errors" open_reports > 0 then failwith "obs-fleet bench: open leg saw errors";
  (* measured: the depth-16 pipelined drive mix *)
  let t0 = Unix.gettimeofday () in
  let reports = List.map parse_driver (fleet_run_drivers (driver_argvs "pipeline")) in
  let wall = Unix.gettimeofday () -. t0 in
  let requests = sum "requests" reports in
  let errors = sum "errors" reports in
  let rps = if wall > 0.0 then float_of_int requests /. wall else 0.0 in
  (* proof the traced side actually traced: the merged fleet span
     stream must carry remote-parented spans (and none when off) *)
  let spans =
    match Dur.request_line probe {|{"op":"trace","spans":true}|} with
    | Ok line -> (
      match FJ.of_string line with
      | Ok j -> (
        match Option.bind (FJ.member "spans" j) FJ.to_list with
        | Some l ->
          List.length
            (List.filter
               (fun s -> Option.bind (FJ.member "attrs" s) (FJ.str_member "trace") <> None)
               l)
        | None -> 0)
      | Error _ -> 0)
    | Error _ -> 0
  in
  Dur.close probe;
  (try Unix.kill router_pid Sys.sigterm with Unix.Unix_error _ -> ());
  let rec reap tries =
    match Unix.waitpid [ Unix.WNOHANG ] router_pid with
    | 0, _ when tries > 0 ->
      Thread.delay 0.1;
      reap (tries - 1)
    | 0, _ ->
      (try Unix.kill router_pid Sys.sigkill with Unix.Unix_error _ -> ());
      ignore (Unix.waitpid [] router_pid)
    | _ -> ()
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
  in
  reap 50;
  Fleet.Supervisor.stop sup;
  rm_rf dir;
  printf "tracing %-11s: %d req in %.2f s  (%.0f req/s)  traced spans %d  errors %d\n%!"
    (if telemetry then Printf.sprintf "on @ %g" sample else "off")
    requests wall rps spans errors;
  (requests, wall, rps, errors, spans)

let obs_fleet_json ?(smoke = false) () =
  header
    (if smoke then "Fleet tracing-overhead bench (smoke) -> BENCH_PR10.json"
     else "Fleet tracing-overhead bench -> BENCH_PR10.json");
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let saved_tel = Sys.getenv_opt "DSE_TELEMETRY" in
  let saved_sample = Sys.getenv_opt "DSE_TRACE_SAMPLE" in
  let pairs = if smoke then 1 else 7 in
  (* adjacent off/on pairs, order alternating between pairs, gated on
     the TRIMMED MEAN of per-pair overheads (lowest and highest pair
     dropped): a fresh fleet per round on a shared box makes single
     rounds swing +/-15%, and a per-side best-of turns one lucky
     baseline round into phantom overhead.  Pairing adjacent rounds
     cancels slow drift, and because the noise is one-sided (a load
     burst only ever slows a round down) the median is the right
     robust estimate — a trimmed mean still leans into the skewed
     tail. *)
  let rounds =
    List.init pairs (fun i ->
        if i mod 2 = 0 then begin
          let off = obs_fleet_round ~smoke ~telemetry:false ~sample:obs_fleet_sample in
          let on = obs_fleet_round ~smoke ~telemetry:true ~sample:obs_fleet_sample in
          (off, on)
        end
        else begin
          let on = obs_fleet_round ~smoke ~telemetry:true ~sample:obs_fleet_sample in
          let off = obs_fleet_round ~smoke ~telemetry:false ~sample:obs_fleet_sample in
          (off, on)
        end)
  in
  (* one sample-everything round, reported but not gated: the cost of
     tracing literally every request through every hop *)
  let full_rate =
    if smoke then None else Some (obs_fleet_round ~smoke ~telemetry:true ~sample:1.0)
  in
  Unix.putenv "DSE_TELEMETRY" (Option.value saved_tel ~default:"1");
  Unix.putenv "DSE_TRACE_SAMPLE" (Option.value saved_sample ~default:"1.0");
  let rps_of (_, _, rps, _, _) = rps in
  let pair_overhead ((off, on) : (int * float * float * int * int) * (int * float * float * int * int)) =
    if rps_of off > 0.0 then 100.0 *. (1.0 -. (rps_of on /. rps_of off)) else 0.0
  in
  let overheads = List.sort compare (List.map pair_overhead rounds) in
  let median_overhead = List.nth overheads (List.length overheads / 2) in
  (* the pair closest to the estimate, for the reported absolute figures *)
  let median_pair =
    List.fold_left
      (fun best p ->
        if Float.abs (pair_overhead p -. median_overhead)
           < Float.abs (pair_overhead best -. median_overhead)
        then p
        else best)
      (List.hd rounds) rounds
  in
  let (off_req, off_wall, off_rps, _, _) = fst median_pair in
  let (on_req, on_wall, on_rps, _, on_spans) = snd median_pair in
  let errors =
    List.fold_left
      (fun acc ((_, _, _, e1, _), (_, _, _, e2, _)) -> acc + e1 + e2)
      0 rounds
  in
  if errors > 0 then begin
    Printf.eprintf "obs-fleet bench: %d client-visible failures\n" errors;
    exit 1
  end;
  if on_spans = 0 then begin
    Printf.eprintf "obs-fleet bench: tracing-on round recorded no propagated spans\n";
    exit 1
  end;
  let overhead_pct = median_overhead in
  let within = overhead_pct <= 3.0 in
  printf "fleet tracing overhead at depth %d, sampling %g: %.2f%% median of [%s] (target <= 3%%)%s\n"
    obs_fleet_depth obs_fleet_sample overhead_pct
    (String.concat "; " (List.map (Printf.sprintf "%.2f") overheads))
    (if within then "" else "  [OVER BUDGET]");
  let buf = Buffer.create 2048 in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  add "{\n";
  add "  \"bench\": \"fleet-tracing-overhead\",\n";
  add "  \"smoke\": %b,\n" smoke;
  add "  \"layer\": \"idct\",\n";
  add "  \"workers\": %d,\n" fleet_n_workers;
  add "  \"depth\": %d,\n" obs_fleet_depth;
  add "  \"rounds_per_setting\": %d,\n" pairs;
  add "  \"pair_overheads_pct\": [%s],\n"
    (String.concat ", " (List.map (Printf.sprintf "%.2f") overheads));
  add "  \"trace_sample\": %g,\n" obs_fleet_sample;
  add "  \"requests_per_second\": %.1f,\n" on_rps;
  add
    "  \"tracing_off\": { \"requests\": %d, \"wall_s\": %.3f, \"requests_per_second\": %.1f },\n"
    off_req off_wall off_rps;
  add
    "  \"tracing_on\": { \"requests\": %d, \"wall_s\": %.3f, \"requests_per_second\": %.1f, \
     \"propagated_spans\": %d },\n"
    on_req on_wall on_rps on_spans;
  (match full_rate with
  | Some (fr_req, fr_wall, fr_rps, _, fr_spans) ->
    let fr_overhead = if off_rps > 0.0 then 100.0 *. (1.0 -. (fr_rps /. off_rps)) else 0.0 in
    printf "sample-everything tracing overhead (informational): %.2f%%\n" fr_overhead;
    add
      "  \"full_sampling\": { \"trace_sample\": 1.0, \"requests\": %d, \"wall_s\": %.3f, \
       \"requests_per_second\": %.1f, \"propagated_spans\": %d, \"overhead_pct\": %.2f },\n"
      fr_req fr_wall fr_rps fr_spans fr_overhead
  | None -> ());
  add "  \"overhead_pct\": %.2f,\n" overhead_pct;
  add "  \"target_pct\": 3.0,\n";
  add "  \"within_target\": %b\n" within;
  add "}\n";
  write_bench "BENCH_PR10" buf;
  printf "\nwrote BENCH_PR10.json (%.2f%% tracing overhead at depth %d, sampling %g)\n"
    overhead_pct obs_fleet_depth obs_fleet_sample

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks (one Test.make per table/figure)           *)

let micro () =
  header "Micro-benchmarks (Bechamel, monotonic clock)";
  let open Bechamel in
  let registry = Ds_domains.Populate.standard_registry ~eol:768 () in
  let cores = Ds_reuse.Registry.all_cores registry in
  let g = Ds_bignum.Prng.create 42 in
  let m768 =
    let m = Ds_bignum.Prng.nat_bits g 768 in
    if Ds_bignum.Nat.is_even m then Ds_bignum.Nat.succ m else m
  in
  let a768 = Ds_bignum.Prng.nat_below g m768 and b768 = Ds_bignum.Prng.nat_below g m768 in
  let redc = Ds_bignum.Modmul.Redc.make m768 in
  let m64 =
    let m = Ds_bignum.Prng.nat_bits g 64 in
    if Ds_bignum.Nat.is_even m then Ds_bignum.Nat.succ m else m
  in
  let a64 = Ds_bignum.Prng.nat_below g m64 and b64 = Ds_bignum.Prng.nat_below g m64 in
  let sim_cfg = Design.design 2 ~slice_width:16 in
  let base_session = lazy (ok (CL.navigate_to_omm (CL.session ~cores))) in
  let tests =
    [
      Test.make ~name:"table1-characterization"
        (Staged.stage (fun () -> ignore (Design.table1 ())));
      Test.make ~name:"fig6-sw-count-CIOS-1024"
        (Staged.stage (fun () ->
             ignore (Ds_swmodel.Mont_variants.count_only Ds_swmodel.Mont_variants.Cios ~bits:1024)));
      Test.make ~name:"fig9-evaluation-points"
        (Staged.stage (fun () ->
             ignore
               (Design.evaluation_points ~eol:768
                  (List.concat_map
                     (fun n -> List.map (fun w -> (n, w)) [ 8; 16; 32; 64; 128 ])
                     [ 2; 8 ]))));
      Test.make ~name:"fig12-pareto"
        (Staged.stage (fun () ->
             let points =
               List.map
                 (fun (label, ch) ->
                   Evaluation.point ~label ~x:ch.D.char_latency_ns ~y:ch.D.char_area_um2)
                 (Design.evaluation_points ~eol:64
                    (List.map (fun n -> (n, 64)) [ 1; 2; 3; 4; 5; 6 ]))
             in
             ignore (Evaluation.pareto_front points)));
      Test.make ~name:"fig3-idct-clustering"
        (Staged.stage (fun () ->
             ignore
               (Cluster.suggest_split
                  (Evaluation.of_cores ~x:N.m_latency_ns ~y:N.m_area_um2
                     Ds_domains.Idct_layer.cores))));
      Test.make ~name:"fig13-session-propagation"
        (Staged.stage (fun () ->
             let s = Lazy.force base_session in
             let s = ok (CL.apply_requirements s CL.coprocessor_requirements) in
             let s = ok (Session.set s N.implementation_style (Value.str N.hardware)) in
             ignore (Session.set s N.algorithm (Value.str N.montgomery))));
      Test.make ~name:"casestudy-index-build"
        (Staged.stage (fun () -> ignore (Index.build CL.hierarchy cores)));
      Test.make ~name:"bignum-redc-modmul-768"
        (Staged.stage (fun () -> ignore (Ds_bignum.Modmul.Redc.mul redc a768 b768)));
      Test.make ~name:"rtl-sim-montgomery-64b"
        (Staged.stage (fun () -> ignore (D.simulate sim_cfg ~eol:64 ~a:a64 ~b:b64 ~modulus:m64)));
      Test.make ~name:"fig10-delay-estimator"
        (Staged.stage (fun () ->
             ignore
               (Ds_estimate.Delay_estimator.rank
                  ~hints_for:Ds_estimate.Bd_library.estimator_hints ~bindings:[ ("n", 768) ]
                  Ds_estimate.Bd_library.all)));
    ]
  in
  let grouped = Test.make_grouped ~name:"dse" tests in
  let instances = [ Toolkit.Instance.monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:1000 ~quota:(Time.second 0.25) ~kde:None () in
  let raw = Benchmark.all cfg instances grouped in
  let ols = Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| Measure.run |] in
  let results = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
  let rows = Hashtbl.fold (fun name o acc -> (name, o) :: acc) results [] in
  List.iter
    (fun (name, o) ->
      match Analyze.OLS.estimates o with
      | Some [ t ] ->
        if t > 1.0e6 then printf "%-34s %10.3f ms/run\n" name (t /. 1.0e6)
        else if t > 1.0e3 then printf "%-34s %10.3f us/run\n" name (t /. 1.0e3)
        else printf "%-34s %10.1f ns/run\n" name t
      | Some _ | None -> printf "%-34s (no estimate)\n" name)
    (List.sort (fun (a, _) (b, _) -> String.compare a b) rows)

(* ------------------------------------------------------------------ *)
(* soak: the crash-recovery chaos gate (driven by scripts/chaos_soak.sh)

   Three phases, one executable:
     --drive   seeded mixed traffic against a live server, reconnecting
               through SIGKILL/restart chaos — transport errors retry,
               structured degradation replies (failed-fsync eviction,
               shutdown drain) are tolerated;
     --settle  after the chaos, ask a clean server for every soak
               session's candidate signature -> settle.json;
     --verify  offline gate over the journal dir: the production resume
               (snapshot fast path) and the sequential no-fault oracle
               (full-history replay, prefer_snapshot:false) must agree
               with each other and with settle.json — identical
               signatures, candidate sets and merit ranges — within a
               resume-latency budget -> chaos_report.json, nonzero exit
               on any divergence. *)

module SC = Ds_serve.Client
module SP = Ds_serve.Protocol
module SJx = Ds_serve.Jsonx
module SVc = Ds_serve.Service

let soak_arg rest key default =
  let rec go = function
    | k :: v :: _ when String.equal k key -> v
    | _ :: tl -> go tl
    | [] -> default
  in
  go rest

let soak_session_id i = Printf.sprintf "soak-%d" i
let soak_merits = [ "delay"; "cost" ]

let soak_drive ~socket ~sessions ~iters ~seed ~pace_ms =
  let issue = "L1" and pick = "l1-o0" in
  let rng = Ds_bignum.Prng.create (seed lxor 0x50AC) in
  let connect () =
    match SC.connect_retry ~deadline:30.0 ~socket () with
    | Ok c -> c
    | Error msg -> failwith msg
  in
  let client = ref (connect ()) in
  let reconnects = ref 0 in
  let rec send retries req =
    match SC.request !client req with
    | Ok resp -> resp
    | Error _ when retries > 0 ->
      (* the chaos harness SIGKILLs the server under us: reconnect and
         re-ask — the journal on disk decides what actually happened,
         and a double-applied set/retract comes back as a tolerated
         structured rejection *)
      SC.close !client;
      incr reconnects;
      client := connect ();
      send (retries - 1) req
    | Error msg -> failwith msg
  in
  let send req = send 100 req in
  let adopted = ref 0 in
  (* opens retry through injected journal faults: the fault plan is
     probabilistic, so a failed create/rehydrate succeeds on re-ask *)
  let rec setup attempts sid =
    let retry () =
      if attempts = 0 then failwith (sid ^ ": could not open through injected faults")
      else setup (attempts - 1) sid
    in
    match send (SP.Open { session = Some sid; layer = "synthetic"; eol = None; resume = false })
    with
    | SP.Reply _ -> ()
    | SP.Failed (SP.Session_exists, _) -> (
      incr adopted;
      (* journal from a previous incarnation: the first touch rehydrates *)
      match send (SP.Signature { session = sid }) with
      | SP.Reply _ -> ()
      | SP.Failed ((SP.Journal_error | SP.Unknown_session), _) -> retry ()
      | SP.Failed (code, msg) ->
        failwith (Printf.sprintf "cannot adopt %s: %s: %s" sid (SP.error_code_label code) msg))
    | SP.Failed (SP.Journal_error, _) -> retry ()
    | SP.Failed (code, msg) ->
      failwith (Printf.sprintf "cannot open %s: %s: %s" sid (SP.error_code_label code) msg)
  in
  for i = 0 to sessions - 1 do
    setup 25 (soak_session_id i)
  done;
  let applied = ref 0 and tolerated = ref 0 in
  for it = 1 to iters do
    for i = 0 to sessions - 1 do
      let sid = soak_session_id i in
      let req =
        match Ds_bignum.Prng.int rng 5 with
        | 0 -> SP.Set { session = sid; name = issue; value = Value.str pick; decide = false }
        | 1 -> SP.Retract { session = sid; name = issue }
        | 2 -> SP.Annotate { session = sid; text = Printf.sprintf "soak %d.%d" it i }
        | 3 -> SP.Candidates { session = sid; max = None }
        | _ -> SP.Ranges { session = sid; merits = Some soak_merits }
      in
      if pace_ms > 0.0 then Thread.delay (pace_ms /. 1000.0);
      match send req with
      | SP.Reply _ -> incr applied
      | SP.Failed ((SP.Rejected | SP.Unknown_session | SP.Journal_error | SP.Shutting_down), _)
        ->
        (* structured degradation, all by design: an unbound retract, a
           mid-eviction miss, a failed-fsync eviction, a draining
           server — the journal stays the truth *)
        incr tolerated
      | SP.Failed (code, msg) ->
        failwith (Printf.sprintf "%s: unexpected %s: %s" sid (SP.error_code_label code) msg)
    done
  done;
  SC.close !client;
  printf "soak drive: %d ops applied, %d tolerated, %d reconnects, %d adopted\n%!" !applied
    !tolerated !reconnects !adopted

let soak_settle ~socket ~sessions ~out =
  match SC.connect_retry ~deadline:30.0 ~socket () with
  | Error msg -> failwith msg
  | Ok client ->
    let sigs =
      List.init sessions (fun i ->
          let sid = soak_session_id i in
          (* the clean server holds nothing resident: the signature
             request transparently rehydrates from the journal *)
          match SC.request client (SP.Signature { session = sid }) with
          | Ok (SP.Reply payload) -> (
            match Option.bind (List.assoc_opt "signature" payload) SJx.to_str with
            | Some s -> (sid, SJx.Str s)
            | None -> failwith (sid ^ ": signature reply missing the field"))
          | Ok (SP.Failed (code, msg)) ->
            failwith (Printf.sprintf "%s: %s: %s" sid (SP.error_code_label code) msg)
          | Error msg -> failwith msg)
    in
    SC.close client;
    let doc = SJx.Obj [ ("sessions", SJx.Obj sigs) ] in
    Out_channel.with_open_text out (fun oc ->
        Out_channel.output_string oc (SJx.to_string doc ^ "\n"));
    printf "soak settle: %d signatures -> %s\n%!" (List.length sigs) out

let soak_verify ~dir ~settle_file ~out ~max_resume_ms =
  if String.equal dir "" then failwith "soak --verify needs --dir JOURNAL_DIR";
  let layers = Ds_domains.Catalog.factories in
  let settle =
    if String.equal settle_file "" then []
    else
      let text = In_channel.with_open_text settle_file In_channel.input_all in
      match SJx.of_string text with
      | Ok json -> (
        match SJx.member "sessions" json with
        | Some (SJx.Obj kvs) ->
          List.filter_map (fun (k, v) -> Option.map (fun s -> (k, s)) (SJx.to_str v)) kvs
        | _ -> failwith "settle file has no sessions object")
      | Error msg -> failwith ("bad settle file: " ^ msg)
  in
  let ids =
    if settle <> [] then List.map fst settle
    else
      Sys.readdir dir |> Array.to_list
      |> List.filter_map (fun f -> Filename.chop_suffix_opt ~suffix:".journal" f)
      |> List.sort String.compare
  in
  let rows, divergences, max_resume_us =
    List.fold_left
      (fun (rows, bad, worst) id ->
        let t0 = Unix.gettimeofday () in
        let production = SVc.resume ~layers ~dir ~id () in
        let resume_us = (Unix.gettimeofday () -. t0) *. 1.0e6 in
        let oracle = SVc.resume ~prefer_snapshot:false ~layers ~dir ~id () in
        let verdict =
          match (production, oracle) with
          | Error msg, _ -> Error ("production resume failed: " ^ msg)
          | _, Error msg -> Error ("oracle resume failed: " ^ msg)
          | Ok p, Ok o ->
            let sig_p = Session.candidate_signature p.SVc.r_session in
            let sig_o = Session.candidate_signature o.SVc.r_session in
            let cands s = List.map fst (Session.candidates s) in
            let ranges s = List.map (fun m -> Session.merit_range s ~merit:m) soak_merits in
            if not (String.equal sig_p sig_o) then
              Error
                (Printf.sprintf "signature divergence: production %s, oracle %s" sig_p sig_o)
            else if cands p.SVc.r_session <> cands o.SVc.r_session then
              Error "candidate sets diverge between production and oracle resume"
            else if ranges p.SVc.r_session <> ranges o.SVc.r_session then
              Error "merit ranges diverge between production and oracle resume"
            else (
              match List.assoc_opt id settle with
              | Some s when not (String.equal s sig_p) ->
                Error
                  (Printf.sprintf "diverges from settled state: resumed %s, settled %s" sig_p s)
              | _ -> Ok (sig_p, p))
        in
        let row =
          SJx.Obj
            (("session", SJx.Str id)
            :: ("resume_us", SJx.Float resume_us)
            ::
            (match verdict with
            | Ok (signature, p) ->
              [
                ("ok", SJx.Bool true);
                ("signature", SJx.Str signature);
                ("replayed", SJx.Int p.SVc.r_replayed);
                ("tail_replayed", SJx.Int p.SVc.r_tail_replayed);
                ("from_snapshot", SJx.Bool p.SVc.r_from_snapshot);
                ("fallback", SJx.Bool p.SVc.r_fallback);
              ]
            | Error msg -> [ ("ok", SJx.Bool false); ("error", SJx.Str msg) ]))
        in
        ( row :: rows,
          (match verdict with Ok _ -> bad | Error _ -> bad + 1),
          Float.max worst resume_us ))
      ([], 0, 0.0) ids
  in
  let latency_ok = max_resume_us <= max_resume_ms *. 1000.0 in
  let report =
    SJx.Obj
      [
        ("sessions", SJx.Int (List.length ids));
        ("divergences", SJx.Int divergences);
        ("max_resume_us", SJx.Float max_resume_us);
        ("max_resume_budget_ms", SJx.Float max_resume_ms);
        ("latency_ok", SJx.Bool latency_ok);
        ("results", SJx.List (List.rev rows));
      ]
  in
  Out_channel.with_open_text out (fun oc ->
      Out_channel.output_string oc (SJx.to_string report ^ "\n"));
  printf "soak verify: %d sessions, %d divergences, max resume %.1f ms -> %s\n%!"
    (List.length ids) divergences (max_resume_us /. 1000.0) out;
  if divergences > 0 || not latency_ok then exit 1

let soak rest =
  (* a SIGKILLed server must surface as a request error the driver can
     retry, not a silent SIGPIPE death mid-write *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let get k d = soak_arg rest k d in
  let socket = get "--socket" "/tmp/dse_soak.sock" in
  let sessions = int_of_string (get "--sessions" "4") in
  if List.mem "--drive" rest then
    soak_drive ~socket ~sessions
      ~iters:(int_of_string (get "--iters" "50"))
      ~seed:(int_of_string (get "--seed" "1"))
      ~pace_ms:(float_of_string (get "--pace" "0"))
  else if List.mem "--settle" rest then
    soak_settle ~socket ~sessions ~out:(get "--out" "settle.json")
  else if List.mem "--verify" rest then
    soak_verify ~dir:(get "--dir" "") ~settle_file:(get "--settle-file" "")
      ~out:(get "--out" "chaos_report.json")
      ~max_resume_ms:(float_of_string (get "--max-resume-ms" "2000"))
  else begin
    Printf.eprintf "soak: one of --drive | --settle | --verify is required\n";
    exit 1
  end

(* ------------------------------------------------------------------ *)

let experiments =
  [
    ("table1", table1);
    ("fig3", fig3);
    ("fig6", fig6);
    ("fig7", fig7);
    ("fig8", fig8);
    ("fig9", fig9);
    ("fig10", fig10);
    ("fig12", fig12);
    ("fig13", fig13);
    ("casestudy", casestudy);
    ("coproc", coproc);
    ("ablation", ablation);
    ("organize", organize);
    ("power", power);
    ("radix", radix_sweep);
    ("scale", scale);
    ("techsweep", techsweep);
    ("mpeg", mpeg);
    ("estimator", estimator);
    ("platforms", platforms);
    ("micro", micro);
  ]

let () =
  match Array.to_list Sys.argv with
  (* [micro --json [--smoke]]: the incremental-pruning baseline, written
     to BENCH_PR2.json (--smoke: small sizes, for CI) *)
  | _ :: "micro" :: rest when List.mem "--json" rest ->
    micro_json ~smoke:(List.mem "--smoke" rest) ()
  (* [serve --json [--smoke]]: the exploration-service bench, written
     to BENCH_PR3.json (--smoke: fewer iterations, for CI) *)
  | _ :: "serve" :: rest when List.mem "--json" rest ->
    serve_json ~smoke:(List.mem "--smoke" rest) ()
  (* [obs --json [--smoke]]: telemetry-overhead comparison (tracing on
     vs off over the serve bench), written to BENCH_PR5.json *)
  | _ :: "obs" :: rest when List.mem "--json" rest ->
    obs_json ~smoke:(List.mem "--smoke" rest) ()
  (* [sweep --json [--smoke]]: the columnar-sweep bench on generated
     10^5/10^6-core layers, written to BENCH_PR7.json (--smoke: 10^5
     only, for CI) *)
  | _ :: "sweep" :: rest when List.mem "--json" rest ->
    sweep_json ~smoke:(List.mem "--smoke" rest) ()
  (* [fleet --json [--smoke]]: the sharded-fleet bench (router + 4
     worker processes, SIGKILL mid-drive, pipeline depth sweep),
     written to BENCH_PR9.json *)
  | _ :: "fleet" :: rest when List.mem "--json" rest ->
    fleet_json ~smoke:(List.mem "--smoke" rest) ()
  (* [obs-fleet --json [--smoke]]: distributed-tracing overhead over
     the depth-16 pipelined fleet (DSE_TELEMETRY off vs on), written
     to BENCH_PR10.json *)
  | _ :: "obs-fleet" :: rest when List.mem "--json" rest ->
    obs_fleet_json ~smoke:(List.mem "--smoke" rest) ()
  (* hidden: one fleet worker process (execed by the bench's own
     supervisor — not a user entry point) *)
  | _ :: "fleet-worker" :: rest -> fleet_worker rest
  (* hidden: the fleet router in its own process (avoids sharing a
     runtime lock with the driver threads on small boxes) *)
  | _ :: "fleet-router" :: rest -> fleet_router rest
  (* hidden: one shard of the fleet bench's client load *)
  | _ :: "fleet-drive" :: rest -> fleet_drive rest
  (* [soak --drive|--settle|--verify ...]: the crash-recovery chaos
     gate; see scripts/chaos_soak.sh for the full orchestration *)
  | _ :: "soak" :: rest -> soak rest
  | [] | [ _ ] -> List.iter (fun (_, run) -> run ()) experiments
  | _ :: picks ->
    List.iter
      (fun pick ->
        match List.assoc_opt pick experiments with
        | Some run -> run ()
        | None ->
          Printf.eprintf "unknown experiment %S; available: %s\n" pick
            (String.concat " " (List.map fst experiments));
          exit 1)
      picks
