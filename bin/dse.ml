(* dse: command-line front end to the design space layer.

   Commands:
     dse tree        [--layer crypto|idct|idct-abs]
     dse properties  NODE            (node path "a.b.c" or abbreviation)
     dse constraints
     dse cores       [--eol N] [--library NAME]
     dse explore     [--eol N] [--latency US] [--set "Name=value"]...
     dse export      [--eol N] DIR
     dse check       FILE            (validate a reuse-library file)
     dse serve       [--socket PATH] [--journal-dir DIR] [--pool N]
     dse client      [--socket PATH] [REQUEST...]

   Examples:
     dse explore --set "Implementation Style=hardware" --set "Algorithm=Montgomery"
     dse properties OMM-H
     dse export /tmp/libs *)

open Cmdliner
open Ds_layer
module CL = Ds_domains.Crypto_layer
module N = Ds_domains.Names
module SV = Ds_serve.Service
module SP = Ds_serve.Protocol
module SJ = Ds_serve.Jsonx
module Obs = Ds_obs.Obs

(* One service configuration for every front end (shell, serve, client
   tests): the full layer catalogue, the four crypto figures of merit,
   and the latency/area Pareto axes the reports use. *)
let service_config ?journal_dir ?(journal_sync = false) ?(capacity = 64) ?compact_after ~eol () =
  SV.config ?journal_dir ~journal_sync ~capacity ?compact_after ~default_eol:eol
    ~default_merits:[ N.m_latency_ns; N.m_area_um2; N.m_power_mw; N.m_energy_nj ]
    ~report_pareto:(N.m_latency_ns, N.m_area_um2)
    ~layers:Ds_domains.Catalog.factories ()

let printf = Printf.printf

(* ----- shared arguments ------------------------------------------------ *)

let eol_arg =
  Arg.(value & opt int 768 & info [ "eol" ] ~docv:"BITS" ~doc:"Effective operand length.")

let layer_arg =
  Arg.(
    value
    & opt
        (enum
           [
             ("crypto", `Crypto); ("idct", `Idct); ("idct-abs", `Idct_abs); ("video", `Video);
           ])
        `Crypto
    & info [ "layer" ] ~docv:"LAYER"
        ~doc:"Which design space layer: crypto, idct, idct-abs or video.")

let hierarchy_of = function
  | `Crypto -> CL.hierarchy
  | `Idct -> Ds_domains.Idct_layer.generalization_first
  | `Idct_abs -> Ds_domains.Idct_layer.abstraction_first
  | `Video -> Ds_domains.Video_layer.hierarchy

(* ----- tree ------------------------------------------------------------ *)

let tree_cmd =
  let run layer =
    Format.printf "%a@." Hierarchy.pp_tree (hierarchy_of layer);
    0
  in
  Cmd.v (Cmd.info "tree" ~doc:"Print the CDO generalization hierarchy.")
    Term.(const run $ layer_arg)

(* ----- properties ------------------------------------------------------ *)

let properties_cmd =
  let node =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"NODE"
           ~doc:"Node path (dot-separated) or abbreviation (e.g. OMM-H).")
  in
  let run layer node_name =
    let hierarchy = hierarchy_of layer in
    let resolved =
      match Hierarchy.find_by_abbrev hierarchy node_name with
      | Some (path, cdo) -> Some (path, cdo)
      | None -> (
        let path = String.split_on_char '.' node_name in
        match Hierarchy.find hierarchy path with
        | Some cdo -> Some (path, cdo)
        | None -> None)
    in
    match resolved with
    | None ->
      Printf.eprintf "unknown node %S\n" node_name;
      1
    | Some (path, _) ->
      printf "properties visible at %s (own and inherited):\n" (String.concat "." path);
      List.iter
        (fun (defined_at, prop) ->
          Format.printf "  [%s] %a@." (String.concat "." defined_at) Property.pp prop)
        (Hierarchy.visible_properties hierarchy path);
      0
  in
  Cmd.v
    (Cmd.info "properties" ~doc:"List the properties visible at a CDO (Fig 8 / Fig 11 view).")
    Term.(const run $ layer_arg $ node)

(* ----- constraints ------------------------------------------------------ *)

let constraints_cmd =
  let run () =
    List.iter (fun cc -> Format.printf "%a@." Consistency.pp cc) CL.constraints;
    0
  in
  Cmd.v (Cmd.info "constraints" ~doc:"Print the consistency constraints (Fig 13).")
    Term.(const run $ const ())

(* ----- cores ------------------------------------------------------------ *)

let cores_cmd =
  let library =
    Arg.(value & opt (some string) None & info [ "library" ] ~docv:"NAME"
           ~doc:"Restrict to one library (hw-lib, sw-lib, arith-lib).")
  in
  let run eol library =
    let registry = Ds_domains.Populate.standard_registry ~eol () in
    let libs =
      match library with
      | None -> Ds_reuse.Registry.libraries registry
      | Some name -> (
        match Ds_reuse.Registry.library registry ~name with
        | Some lib -> [ lib ]
        | None ->
          Printf.eprintf "unknown library %S\n" name;
          exit 1)
    in
    List.iter
      (fun lib ->
        printf "== %s (%d cores) ==\n" lib.Ds_reuse.Library.name (Ds_reuse.Library.size lib);
        List.iter
          (fun core -> Format.printf "  %a@." Ds_reuse.Core.pp core)
          lib.Ds_reuse.Library.cores)
      libs;
    0
  in
  Cmd.v (Cmd.info "cores" ~doc:"List the generated reuse-library cores.")
    Term.(const run $ eol_arg $ library)

(* ----- explore ---------------------------------------------------------- *)

(* Print per-constraint health when anything is non-healthy (silent for
   a fault-free run, keeping its output identical to the unguarded
   tool). *)
let print_health session =
  match List.filter (fun (_, s) -> s <> Guard.Healthy) (Session.health session) with
  | [] -> ()
  | faulty ->
    printf "\nconstraint health:\n";
    List.iter
      (fun (name, status) ->
        match status with
        | Guard.Quarantined { reason; _ } -> printf "  %-6s quarantined: %s\n" name reason
        | status -> printf "  %-6s %s\n" name (Guard.status_label status))
      faulty

let explore_cmd =
  let latency =
    Arg.(value & opt float 8.0 & info [ "latency" ] ~docv:"US"
           ~doc:"Latency requirement in microseconds.")
  in
  let sets =
    Arg.(value & opt_all string [] & info [ "set"; "s" ] ~docv:"NAME=VALUE"
           ~doc:"Decide a design issue (repeatable, applied in order).")
  in
  let report =
    Arg.(value & opt (some string) None & info [ "report" ] ~docv:"FILE"
           ~doc:"Write a markdown exploration report.")
  in
  let injects =
    Arg.(value & opt_all string [] & info [ "inject" ] ~docv:"CC=MODE"
           ~doc:"Fault-inject a constraint before exploring (MODE is raise, nan or diverge; \
                 repeatable) to exercise guarded evaluation.")
  in
  let run eol latency sets report injects =
    match Faultsim.parse_plan injects with
    | Error msg ->
      Printf.eprintf "bad --inject: %s\n" msg;
      1
    | Ok plan ->
    let known name = List.exists (fun cc -> String.equal cc.Consistency.name name) CL.constraints in
    (match List.find_opt (fun (name, _) -> not (known name)) plan with
    | Some (name, _) ->
      Printf.eprintf "bad --inject: no constraint named %S (see `dse constraints`)\n" name;
      exit 1
    | None -> ());
    let constraints =
      if plan = [] then CL.constraints else Faultsim.wrap_plan ~plan CL.constraints
    in
    let registry = Ds_domains.Populate.standard_registry ~eol () in
    let session =
      Session.create ~hierarchy:CL.hierarchy ~constraints
        ~cores:(Ds_reuse.Registry.all_cores registry) ()
    in
    let show label session =
      printf "%-50s candidates %3d" label (Session.candidate_count session);
      (match Session.merit_range session ~merit:N.m_latency_ns with
      | Some (lo, hi) -> printf "  latency %9.0f..%9.0f ns" lo hi
      | None -> ());
      printf "\n"
    in
    let reqs =
      List.map
        (fun (name, v) ->
          if String.equal name N.effective_operand_length then (name, Value.int eol)
          else if String.equal name N.latency_single_operation then (name, Value.real latency)
          else (name, v))
        CL.coprocessor_requirements
    in
    let parse_set spec =
      match String.index_opt spec '=' with
      | None -> Error (Printf.sprintf "expected NAME=VALUE, got %S" spec)
      | Some i ->
        let name = String.sub spec 0 i in
        let raw = String.sub spec (i + 1) (String.length spec - i - 1) in
        let v =
          match int_of_string_opt raw with
          | Some n -> Value.int n
          | None -> (
            match float_of_string_opt raw with
            | Some f -> Value.real f
            | None -> Value.str raw)
        in
        Ok (name, v)
    in
    let ( >>= ) r f = Result.bind r f in
    let result =
      CL.navigate_to_omm session
      >>= fun s ->
      show "focused on OMM" s;
      CL.apply_requirements s reqs
      >>= fun s ->
      show "requirements entered" s;
      List.fold_left
        (fun acc spec ->
          acc
          >>= fun s ->
          parse_set spec
          >>= fun (name, v) ->
          Session.set s name v
          >>= fun s ->
          show (Printf.sprintf "%s := %s" name (Value.to_string v)) s;
          Ok s)
        (Ok s) sets
    in
    match result with
    | Error msg ->
      Printf.eprintf "exploration stopped: %s\n" msg;
      1
    | Ok s -> (
      printf "\nremaining candidates:\n";
      List.iter (fun (qid, _) -> printf "  %s\n" qid) (Session.candidates s);
      print_health s;
      printf "\ntrace:\n";
      Format.printf "%a@." Session.pp_trace s;
      match report with
      | None -> 0
      | Some path -> (
        match
          Report.save s ~path
            ~title:"Modular multiplier exploration"
            ~merits:[ N.m_latency_ns; N.m_area_um2 ]
            ~pareto:(N.m_latency_ns, N.m_area_um2)
        with
        | Ok () ->
          printf "report written to %s\n" path;
          0
        | Error msg ->
          Printf.eprintf "report failed: %s\n" msg;
          1))
  in
  Cmd.v
    (Cmd.info "explore" ~doc:"Run a scripted exploration of the cryptography layer.")
    Term.(const run $ eol_arg $ latency $ sets $ report $ injects)

(* ----- preview ----------------------------------------------------------- *)

let preview_cmd =
  let issue =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"ISSUE"
           ~doc:"Design issue to preview (e.g. \"Algorithm\").")
  in
  let sets =
    Arg.(value & opt_all string [] & info [ "set"; "s" ] ~docv:"NAME=VALUE"
           ~doc:"Decisions to apply before previewing (repeatable).")
  in
  let merit =
    Arg.(value & opt string Ds_domains.Names.m_latency_ns & info [ "merit" ] ~docv:"MERIT"
           ~doc:"Figure of merit for the per-option ranges.")
  in
  let run eol issue sets merit =
    let registry = Ds_domains.Populate.standard_registry ~eol () in
    let session = CL.session ~cores:(Ds_reuse.Registry.all_cores registry) in
    let ( >>= ) r f = Result.bind r f in
    let apply_one s spec =
      match String.index_opt spec '=' with
      | None -> Error (Printf.sprintf "expected NAME=VALUE, got %S" spec)
      | Some i ->
        let name = String.sub spec 0 i in
        let raw = String.sub spec (i + 1) (String.length spec - i - 1) in
        let v =
          match int_of_string_opt raw with
          | Some n -> Value.int n
          | None -> (
            match float_of_string_opt raw with
            | Some f -> Value.real f
            | None -> Value.str raw)
        in
        Session.set s name v
    in
    let result =
      CL.navigate_to_omm session
      >>= fun s ->
      CL.apply_requirements s CL.coprocessor_requirements
      >>= fun s ->
      List.fold_left (fun acc spec -> acc >>= fun s -> apply_one s spec) (Ok s) sets
      >>= fun s -> Session.preview_options s ~issue ~merit
    in
    match result with
    | Error msg ->
      Printf.eprintf "preview failed: %s\n" msg;
      1
    | Ok previews ->
      printf "what each option of %S would leave (%s):\n" issue merit;
      List.iter
        (fun pv ->
          match pv.Session.outcome with
          | `Explored (n, Some (lo, hi)) ->
            printf "  %-16s %3d candidates, %s %.0f..%.0f\n" pv.Session.option_value n merit lo hi
          | `Explored (n, None) -> printf "  %-16s %3d candidates (no %s data)\n" pv.Session.option_value n merit
          | `Rejected reason -> printf "  %-16s rejected: %s\n" pv.Session.option_value reason)
        previews;
      0
  in
  Cmd.v
    (Cmd.info "preview" ~doc:"Show what each option of a design issue would leave (what-if).")
    Term.(const run $ eol_arg $ issue $ sets $ merit)

(* ----- export / check --------------------------------------------------- *)

let export_cmd =
  let dir = Arg.(required & pos 0 (some string) None & info [] ~docv:"DIR") in
  let run eol dir =
    let registry = Ds_domains.Populate.standard_registry ~eol () in
    if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
    List.fold_left
      (fun status lib ->
        let path = Filename.concat dir (lib.Ds_reuse.Library.name ^ ".reuselib") in
        match Ds_reuse.Library.save lib ~path with
        | Ok () ->
          printf "wrote %s (%d cores)\n" path (Ds_reuse.Library.size lib);
          status
        | Error msg ->
          Printf.eprintf "failed to write %s: %s\n" path msg;
          1)
      0
      (Ds_reuse.Registry.libraries registry)
  in
  Cmd.v (Cmd.info "export" ~doc:"Write the generated reuse libraries to text files.")
    Term.(const run $ eol_arg $ dir)

let check_cmd =
  let file = Arg.(required & pos 0 (some string) None & info [] ~docv:"FILE") in
  let run file =
    match Ds_reuse.Library.load ~path:file with
    | Ok lib ->
      printf "%s: OK (%s, %d cores)\n" file lib.Ds_reuse.Library.name (Ds_reuse.Library.size lib);
      0
    | Error msg ->
      Printf.eprintf "%s: INVALID (%s)\n" file msg;
      1
  in
  Cmd.v (Cmd.info "check" ~doc:"Validate a reuse-library text file.")
    Term.(const run $ file)

(* ----- document ---------------------------------------------------------- *)

let document_cmd =
  let out =
    Arg.(value & opt (some string) None & info [ "out"; "o" ] ~docv:"FILE"
           ~doc:"Write to a file instead of stdout.")
  in
  let run layer out =
    let hierarchy = hierarchy_of layer in
    let constraints =
      match layer with
      | `Crypto -> CL.constraints
      | `Video -> Ds_domains.Video_layer.constraints
      | `Idct | `Idct_abs -> []
    in
    let title =
      match layer with
      | `Crypto -> "Design Space Layer for Cryptography Applications"
      | `Idct -> "IDCT Design Space Layer (generalization-first)"
      | `Idct_abs -> "IDCT Design Space Layer (abstraction-first)"
      | `Video -> "Design Space Layer for the MPEG IDCT Subsystem"
    in
    match out with
    | None ->
      print_string (Document.render ~title ~constraints hierarchy);
      0
    | Some path -> (
      match Document.save ~title ~constraints hierarchy ~path with
      | Ok () ->
        printf "wrote %s\n" path;
        0
      | Error msg ->
        Printf.eprintf "failed: %s\n" msg;
        1)
  in
  Cmd.v
    (Cmd.info "document" ~doc:"Emit the layer's self-documentation as markdown.")
    Term.(const run $ layer_arg $ out)

(* ----- netlist ----------------------------------------------------------- *)

let netlist_cmd =
  let label =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"LABEL"
           ~doc:"Design label from Table 1, e.g. \"#2_64\".")
  in
  let out =
    Arg.(value & opt (some string) None & info [ "out"; "o" ] ~docv:"FILE"
           ~doc:"Write to a file instead of stdout.")
  in
  let run eol label out =
    match Ds_rtl.Modmul_design.parse_label label with
    | None ->
      Printf.eprintf "bad design label %S (expected e.g. \"#2_64\")\n" label;
      1
    | Some (design_no, slice_width) -> (
      let cfg = Ds_rtl.Modmul_design.design design_no ~slice_width in
      match out with
      | None -> (
        match Ds_rtl.Netlist.to_structure cfg ~eol with
        | Ok text ->
          print_string text;
          0
        | Error msg ->
          Printf.eprintf "%s\n" msg;
          1)
      | Some path -> (
        match Ds_rtl.Netlist.save cfg ~eol ~path with
        | Ok () ->
          printf "wrote %s\n" path;
          0
        | Error msg ->
          Printf.eprintf "%s\n" msg;
          1))
  in
  Cmd.v
    (Cmd.info "netlist" ~doc:"Emit the structural view of a Table 1 design.")
    Term.(const run $ eol_arg $ label $ out)

(* ----- coproc ------------------------------------------------------------ *)

let coproc_cmd =
  let ops =
    Arg.(value & opt float 100.0 & info [ "ops" ] ~docv:"N"
           ~doc:"Target exponentiations per second.")
  in
  let recoding =
    Arg.(value & opt string "binary" & info [ "recoding" ] ~docv:"R"
           ~doc:"Exponent recoding: binary, window-2 or window-4.")
  in
  let run eol ops recoding =
    let registry = Ds_domains.Populate.standard_registry ~eol () in
    let cores = Ds_reuse.Registry.all_cores registry in
    let ( >>= ) r f = Result.bind r f in
    let result =
      CL.navigate_to_exponentiator (CL.session ~cores)
      >>= fun s ->
      Session.set s N.effective_operand_length (Value.int eol)
      >>= fun s ->
      Session.set s N.exponent_length (Value.int eol)
      >>= fun s ->
      Session.set s N.operations_per_second (Value.real ops)
      >>= fun s ->
      Session.set s N.exponent_recoding (Value.str recoding)
      >>= fun s ->
      (match
         ( Session.value_of s N.multiplications_per_operation,
           Session.value_of s N.multiplication_budget )
       with
      | Some m, Some b ->
        printf "CC7: %s multiplications per exponentiation\n" (Value.to_string m);
        printf "CC8: %s us latency budget per multiplication\n" (Value.to_string b)
      | _ -> ());
      CL.multiplier_requirements_from_exponentiator s
      >>= fun reqs ->
      CL.navigate_to_omm (CL.session ~cores)
      >>= fun m ->
      CL.apply_requirements m reqs
      >>= fun m ->
      Session.set m N.implementation_style (Value.str N.hardware)
      >>= fun m -> Session.set m N.algorithm (Value.str N.montgomery)
    in
    match result with
    | Error msg ->
      Printf.eprintf "failed: %s\n" msg;
      1
    | Ok m ->
      printf "multiplier candidates under the derived budget:\n";
      List.iter
        (fun (qid, core) ->
          printf "  %-18s %8.1f ns\n" qid
            (Option.value ~default:nan (Ds_reuse.Core.merit core N.m_latency_ns)))
        (Session.candidates m);
      0
  in
  Cmd.v
    (Cmd.info "coproc" ~doc:"Explore the exponentiation coprocessor and derive the multiplier budget.")
    Term.(const run $ eol_arg $ ops $ recoding)

(* ----- lint -------------------------------------------------------------- *)

let lint_cmd =
  let run layer =
    let hierarchy = hierarchy_of layer in
    let constraints =
      match layer with
      | `Crypto -> CL.constraints
      | `Video -> Ds_domains.Video_layer.constraints
      | `Idct | `Idct_abs -> []
    in
    let findings = Lint.check ~constraints hierarchy in
    if findings = [] then begin
      printf "no findings\n";
      0
    end
    else begin
      List.iter (fun f -> Format.printf "%a@." Lint.pp_finding f) findings;
      if Lint.is_clean ~constraints hierarchy then 0 else 1
    end
  in
  Cmd.v
    (Cmd.info "lint" ~doc:"Check the layer definition for dangling references and smells.")
    Term.(const run $ layer_arg)

(* ----- shell ------------------------------------------------------------- *)

(* The shell is a thin text veneer over the same protocol handler the
   socket server runs: every command becomes a Protocol.request, every
   display is rendered from the reply payload.  A behaviour seen here
   is the wire behaviour, verbatim. *)
let shell_cmd =
  let layer_name = function
    | `Crypto -> "crypto"
    | `Idct -> "idct"
    | `Idct_abs -> "idct-abs"
    | `Video -> "video"
  in
  let run eol layer =
    let svc = SV.create (service_config ~eol ()) in
    let sid = "shell" in
    let call req = SV.handle svc req in
    let str k payload =
      Option.value ~default:"" (Option.bind (List.assoc_opt k payload) SJ.to_str)
    in
    let int k payload =
      Option.value ~default:0 (Option.bind (List.assoc_opt k payload) SJ.to_int)
    in
    let items k payload =
      Option.value ~default:[] (Option.bind (List.assoc_opt k payload) SJ.to_list)
    in
    let query req k =
      match call req with
      | SP.Failed (_, msg) -> printf "error: %s\n" msg
      | SP.Reply payload -> k payload
    in
    let apply label response =
      match response with
      | SP.Reply payload ->
        printf "%s -> focus %s, %d candidates\n" label (str "focus" payload)
          (int "candidates" payload)
      | SP.Failed (_, msg) -> printf "error: %s\n" msg
    in
    let parse_value raw =
      match int_of_string_opt raw with
      | Some n -> Value.int n
      | None -> (
        match float_of_string_opt raw with Some f -> Value.real f | None -> Value.str raw)
    in
    let help () =
      print_string
        "commands (each is one protocol request -- see DESIGN.md section 11):\n\
        \  set NAME=VALUE    bind a requirement or decide an issue\n\
        \  default NAME      bind a property to its declared default\n\
        \  retract NAME      undo a decision (dependents re-assessed)\n\
        \  annotate TEXT     append a note to the decision trail\n\
        \  preview ISSUE     what each option would leave\n\
        \  issues            unbound design issues at the focus\n\
        \  candidates        surviving cores\n\
        \  ranges            figure-of-merit ranges\n\
        \  signature         digest of the visible exploration state\n\
        \  trace             the session log\n\
        \  health            per-constraint health and guard diagnostics\n\
        \  script            the replayable decision script\n\
        \  report FILE       write a markdown exploration report\n\
        \  quit              leave\n"
    in
    match
      call
        (SP.Open
           { session = Some sid; layer = layer_name layer; eol = Some eol; resume = false })
    with
    | SP.Failed (_, msg) ->
      Printf.eprintf "cannot start shell: %s\n" msg;
      1
    | SP.Reply opened ->
      printf "design space layer shell (eol %d, %d cores); 'help' lists commands\n" eol
        (int "candidates" opened);
      let running = ref true in
      let quit_requested = ref false in
      (* Unknown commands go to stderr and make an EOF-terminated run
         exit non-zero, so a scripted `dse shell < script` cannot
         silently misspell its way to success; an explicit quit still
         exits 0 (the designer saw the message). *)
      let had_error = ref false in
      let unknown what =
        had_error := true;
        Printf.eprintf "unknown command %S; try 'help'\n" what
      in
      while !running do
        printf "dse> %!";
        match In_channel.input_line stdin with
        | None -> running := false
        | Some line -> (
          let line = String.trim line in
          match String.index_opt line ' ' with
          | _ when String.equal line "" -> ()
          | _ when String.equal line "quit" || String.equal line "exit" ->
            quit_requested := true;
            running := false
          | _ when String.equal line "help" -> help ()
          | _ when String.equal line "issues" ->
            query (SP.Issues { session = sid }) (fun payload ->
                List.iter
                  (fun item ->
                    let eligible =
                      Option.value ~default:true
                        (Option.bind (SJ.member "eligible" item) SJ.to_bool)
                    in
                    printf "  %-28s %s%s\n"
                      (Option.value ~default:"?" (SJ.str_member "name" item))
                      (Option.value ~default:"" (SJ.str_member "domain" item))
                      (if eligible then "" else "  [blocked by constraint ordering]"))
                  (items "issues" payload))
          | _ when String.equal line "candidates" ->
            query (SP.Candidates { session = sid; max = None }) (fun payload ->
                List.iter
                  (fun qid -> Option.iter (printf "  %s\n") (SJ.to_str qid))
                  (items "candidates" payload))
          | _ when String.equal line "ranges" ->
            query (SP.Ranges { session = sid; merits = None }) (fun payload ->
                match List.assoc_opt "ranges" payload with
                | Some (SJ.Obj fields) ->
                  List.iter
                    (fun (merit, v) ->
                      match v with
                      | SJ.List [ lo; hi ] -> (
                        match (SJ.to_float lo, SJ.to_float hi) with
                        | Some lo, Some hi -> printf "  %-12s %10.1f .. %10.1f\n" merit lo hi
                        | _ -> ())
                      | _ -> ())
                    fields
                | _ -> ())
          | _ when String.equal line "signature" ->
            query (SP.Signature { session = sid }) (fun payload ->
                printf "  %s\n" (str "signature" payload))
          | _ when String.equal line "trace" ->
            query
              (SP.Trace { session = sid; spans = false; since = None; max_spans = None })
              (fun payload ->
                let trace = str "trace" payload in
                print_string trace;
                if String.length trace = 0 || trace.[String.length trace - 1] <> '\n' then
                  print_newline ())
          | _ when String.equal line "health" ->
            query (SP.Health { session = sid }) (fun payload ->
                List.iter
                  (fun item ->
                    printf "  %-6s %s%s\n"
                      (Option.value ~default:"?" (SJ.str_member "constraint" item))
                      (Option.value ~default:"?" (SJ.str_member "status" item))
                      (match SJ.str_member "reason" item with
                      | Some reason -> ": " ^ reason
                      | None -> ""))
                  (items "health" payload);
                List.iter
                  (fun d -> Option.iter (printf "  # %s\n") (SJ.to_str d))
                  (items "diagnostics" payload))
          | _ when String.equal line "script" ->
            query (SP.Script { session = sid }) (fun payload ->
                List.iter
                  (fun item ->
                    match
                      ( SJ.str_member "name" item,
                        Option.map SP.value_of_json (SJ.member "value" item) )
                    with
                    | Some name, Some (Ok v) -> printf "  set %s=%s\n" name (Value.to_string v)
                    | _ -> ())
                  (items "script" payload))
          | None -> unknown line
          | Some i -> (
            let cmd = String.sub line 0 i in
            let arg = String.trim (String.sub line (i + 1) (String.length line - i - 1)) in
            match cmd with
            | "set" | "decide" -> (
              match String.index_opt arg '=' with
              | None -> printf "usage: %s NAME=VALUE\n" cmd
              | Some j ->
                let name = String.sub arg 0 j in
                let raw = String.sub arg (j + 1) (String.length arg - j - 1) in
                apply ("set " ^ name)
                  (call
                     (SP.Set
                        {
                          session = sid;
                          name;
                          value = parse_value raw;
                          decide = String.equal cmd "decide";
                        })))
            | "default" ->
              apply ("default " ^ arg) (call (SP.Default { session = sid; name = arg }))
            | "retract" ->
              apply ("retract " ^ arg) (call (SP.Retract { session = sid; name = arg }))
            | "annotate" -> apply "annotate" (call (SP.Annotate { session = sid; text = arg }))
            | "preview" ->
              query (SP.Preview { session = sid; issue = arg; merit = None }) (fun payload ->
                  List.iter
                    (fun item ->
                      let value = Option.value ~default:"?" (SJ.str_member "value" item) in
                      match SJ.str_member "outcome" item with
                      | Some "explored" -> (
                        let n =
                          Option.value ~default:0
                            (Option.bind (SJ.member "candidates" item) SJ.to_int)
                        in
                        match SJ.member "range" item with
                        | Some (SJ.List [ lo; hi ]) -> (
                          match (SJ.to_float lo, SJ.to_float hi) with
                          | Some lo, Some hi ->
                            printf "  %-16s %3d candidates, latency %.0f..%.0f ns\n" value n
                              lo hi
                          | _ -> printf "  %-16s %3d candidates\n" value n)
                        | _ -> printf "  %-16s %3d candidates\n" value n)
                      | _ ->
                        printf "  %-16s rejected: %s\n" value
                          (Option.value ~default:"?" (SJ.str_member "reason" item)))
                    (items "options" payload))
            | "report" ->
              query (SP.Report { session = sid; title = None }) (fun payload ->
                  match
                    Out_channel.with_open_text arg (fun oc ->
                        output_string oc (str "markdown" payload))
                  with
                  | () -> printf "wrote %s\n" arg
                  | exception Sys_error msg -> printf "error: %s\n" msg)
            | _ -> unknown cmd))
      done;
      if !quit_requested || not !had_error then 0 else 1
  in
  Cmd.v
    (Cmd.info "shell"
       ~doc:
         "Interactive exploration (reads commands from stdin; drives the same protocol \
          handler as the socket server).")
    Term.(const run $ eol_arg $ layer_arg)

(* ----- serve / client ---------------------------------------------------- *)

let socket_arg =
  Arg.(
    value
    & opt string "/tmp/dse.sock"
    & info [ "socket" ] ~docv:"PATH" ~doc:"Unix-domain socket path.")

let serve_cmd =
  let journal_dir =
    Arg.(
      value
      & opt (some string) None
      & info [ "journal-dir" ] ~docv:"DIR"
          ~doc:
            "Journal every accepted mutation under \\$(docv) (one file per session) and \
             allow clients to resume sessions with {\"op\":\"open\",\"resume\":true}.")
  in
  let sync =
    Arg.(
      value & flag
      & info [ "sync" ]
          ~doc:"fsync every journal append (survives power loss, not just process death).")
  in
  let pool =
    Arg.(
      value & opt int 8
      & info [ "pool" ] ~docv:"N" ~doc:"Worker domains serving connections (requests execute in parallel).")
  in
  let capacity =
    Arg.(
      value & opt int 64
      & info [ "capacity" ] ~docv:"N"
          ~doc:
            "Most sessions held in memory at once (least-recently-used sessions are \
             evicted; with a journal they stay resumable).")
  in
  let compact_after =
    Arg.(
      value
      & opt (some int) None
      & info [ "compact-after" ] ~docv:"N"
          ~doc:
            "Auto-compact a session's journal to a checkpoint once its tail exceeds \\$(docv) \
             entries (resume then replays the short checkpoint script plus the tail, not the \
             whole history).  Without it, compaction happens only on eviction or via the \
             explicit {\"op\":\"compact\"} request.")
  in
  let run eol socket journal_dir sync pool capacity compact_after =
    (match Ds_serve.Iofault.arm_from_env () with
    | exception Invalid_argument msg ->
      Printf.eprintf "%s\n" msg;
      exit 1
    | false -> ()
    | true ->
      printf "I/O FAULT INJECTION ARMED from DSE_IO_FAULTS — chaos testing only\n%!");
    let svc =
      SV.create (service_config ?journal_dir ~journal_sync:sync ~capacity ?compact_after ~eol ())
    in
    match Ds_serve.Server.create ~socket ~pool svc with
    | exception Unix.Unix_error (err, _, arg) ->
      Printf.eprintf "cannot listen on %s: %s %s\n" socket (Unix.error_message err) arg;
      1
    | server ->
      Ds_serve.Server.install_signal_handlers server;
      (* the HTTP observability plane (DSE_METRICS_ADDR; DESIGN.md 18) *)
      let http =
        Ds_serve.Httpd.start_from_env
          ~routes:(fun path ->
            match path with
            | "/metrics" ->
              Some
                (Ds_serve.Httpd.ok ~content_type:"text/plain; version=0.0.4; charset=utf-8"
                   (Obs.prometheus [ ("service", SV.registry svc); ("engine", Obs.default) ]
                   ^ "\n"))
            | "/healthz" ->
              Some
                (Ds_serve.Httpd.ok ~content_type:"application/json"
                   (SP.print_response (SV.handle svc SP.Healthz) ^ "\n"))
            | "/tracez" ->
              Some
                (Ds_serve.Httpd.ok ~content_type:"application/json"
                   ("[" ^ String.concat "," (Obs.trace_json_lines ()) ^ "]\n"))
            | _ -> None)
          ()
      in
      printf "dse service listening on %s (layers: %s)%s\n%!" socket
        (String.concat ", " Ds_domains.Catalog.names)
        (match journal_dir with
        | Some dir -> Printf.sprintf ", journaling to %s" dir
        | None -> ", journaling disabled");
      (match http with
      | Some h -> printf "observability plane on http port %d\n%!" (Ds_serve.Httpd.port h)
      | None -> ());
      Ds_serve.Server.serve server;
      Option.iter Ds_serve.Httpd.stop http;
      printf "dse service stopped after %d connections\n"
        (Ds_serve.Server.connections_served server);
      0
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the exploration service on a Unix-domain socket (line-delimited JSON; see \
          DESIGN.md section 11).")
    Term.(
      const run $ eol_arg $ socket_arg $ journal_dir $ sync $ pool $ capacity $ compact_after)

let client_cmd =
  let requests =
    Arg.(
      value & pos_all string []
      & info [] ~docv:"REQUEST"
          ~doc:"JSON request lines; when omitted, lines are read from stdin until EOF.")
  in
  let deadline =
    Arg.(
      value
      & opt (some float) None
      & info [ "deadline" ] ~docv:"SECONDS"
          ~doc:
            "Total wall-clock budget for connecting (retries with backoff while the server \
             is starting, then fails fast with a distinct deadline_exceeded error).  \
             Without it, a single connection attempt is made.")
  in
  let batch =
    Arg.(
      value & flag
      & info [ "batch" ]
          ~doc:
            "Assemble every request line into one batch op against their common session \
             and send it as a single request: the server executes the array under one \
             session-lock hold and one journal group-commit, and the reply carries the \
             ordered per-request results.  All lines must be session-scoped ops against \
             the same session.")
  in
  let run socket deadline batch requests =
    (* a server dying mid-request should report an error, not kill the
       client with an unhandled SIGPIPE *)
    Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
    let connection =
      match deadline with
      | None -> Ds_serve.Client.connect ~socket ()
      | Some d -> Ds_serve.Client.connect_retry ~deadline:d ~socket ()
    in
    match connection with
    | Error msg ->
      Printf.eprintf "%s\n" msg;
      1
    | Ok client ->
      let send ok line =
        match Ds_serve.Client.request_line client line with
        | Ok reply ->
          printf "%s\n%!" reply;
          ok
        | Error msg ->
          Printf.eprintf "error: %s\n" msg;
          false
      in
      let lines =
        if requests <> [] then requests
        else
          let rec go acc =
            match In_channel.input_line stdin with
            | None -> List.rev acc
            | Some line when String.equal (String.trim line) "" -> go acc
            | Some line -> go (line :: acc)
          in
          go []
      in
      let ok =
        if batch then begin
          let parsed =
            List.fold_left
              (fun acc line ->
                match acc with
                | Error _ as e -> e
                | Ok reqs -> (
                  match Ds_serve.Protocol.parse_request line with
                  | Ok req -> Ok (req :: reqs)
                  | Error (code, msg) ->
                    Error
                      (Printf.sprintf "%s: %s"
                         (Ds_serve.Protocol.error_code_label code)
                         msg)))
              (Ok []) lines
          in
          match
            Result.bind parsed (fun reqs ->
                Ds_serve.Protocol.batch_of_requests (List.rev reqs))
          with
          | Error msg ->
            Printf.eprintf "error: %s\n" msg;
            false
          | Ok batch_req ->
            send true
              (Ds_serve.Jsonx.to_string (Ds_serve.Protocol.json_of_request batch_req))
        end
        else List.fold_left send true lines
      in
      Ds_serve.Client.close client;
      if ok then 0 else 1
  in
  Cmd.v
    (Cmd.info "client"
       ~doc:
         "Send protocol request lines to a running dse service and print the replies.  \
          With $(b,--batch), the lines are sent as one atomic batch op (one \
          session-lock hold, one journal group-commit on the server).")
    Term.(const run $ socket_arg $ deadline $ batch $ requests)

(* ----- top: live service telemetry --------------------------------------- *)

(* One polled [metrics] snapshot, flattened: registry tags are dropped
   because the catalog keeps service and engine names disjoint. *)
type metrics_sample = {
  ms_uptime : float;
  ms_sessions : int;
  ms_counters : (string * int) list;
  ms_gauges : (string * float) list;
  ms_hists : (string * Obs.hsnapshot) list;
  ms_slow : string list;  (* slow-request log lines (JSON span trees) *)
}

let parse_metrics payload =
  (* a registry that does not decode is left out of the screen *)
  let views =
    match List.assoc_opt "registries" payload with
    | Some (SJ.Obj regs) ->
      List.filter_map (fun (_, reg) -> Result.to_option (SP.registry_of_json reg)) regs
    | _ -> []
  in
  {
    ms_uptime =
      Option.value ~default:0.0
        (Option.bind (List.assoc_opt "uptime_s" payload) SJ.to_float);
    ms_sessions =
      Option.value ~default:0 (Option.bind (List.assoc_opt "sessions" payload) SJ.to_int);
    ms_counters = List.concat_map (fun v -> v.SP.counters) views;
    ms_gauges = List.concat_map (fun v -> v.SP.gauges) views;
    ms_hists = List.concat_map (fun v -> v.SP.histograms) views;
    ms_slow =
      (match List.assoc_opt "slow" payload with
      | Some (SJ.List l) -> List.filter_map SJ.to_str l
      | _ -> []);
  }

(* Window a histogram between two cumulative snapshots by differencing
   the bucket counts, then reuse the registry's own quantile estimator
   over the delta.  The max is cumulative (the wire format carries no
   windowed max); quantiles are windowed.  Deltas clamp at zero
   ({!Obs.window_delta}): a worker restarted in place resets its
   cumulative counters, and a reset must read as "no traffic this
   window", never as a negative rate. *)
let windowed_hist ?prev (h : Obs.hsnapshot) =
  let pcount, pbuckets =
    match prev with Some (p : Obs.hsnapshot) -> (p.h_count, p.h_counts) | None -> (0, [||])
  in
  let counts = Obs.window_counts ~prev:pbuckets ~cur:h.h_counts in
  let n = Obs.window_delta ~prev:pcount ~cur:h.h_count in
  (n, fun p -> Obs.quantile_of ~counts ~count:n ~max:h.h_max p)

let print_metrics_screen ~elapsed ~sample:s ~prev =
  let window_label =
    match prev with
    | None -> "cumulative since server start"
    | Some _ -> Printf.sprintf "last %.1fs window" elapsed
  in
  printf "dse top  uptime %.1fs  sessions %d  (%s)\n" s.ms_uptime s.ms_sessions window_label;
  let prev_counters = match prev with Some p -> p.ms_counters | None -> [] in
  let prev_hists = match prev with Some p -> p.ms_hists | None -> [] in
  let dt = if elapsed > 0.0 then elapsed else 1.0 in
  printf "  %-34s %9s %9s %9s %9s %9s\n" "latency (us)" "n" "p50" "p90" "p99" "max";
  List.iter
    (fun (name, h) ->
      let n, q = windowed_hist ?prev:(List.assoc_opt name prev_hists) h in
      if n > 0 then
        printf "  %-34s %9d %9.0f %9.0f %9.0f %9.0f\n" name n (q 0.5) (q 0.9) (q 0.99)
          h.Obs.h_max)
    s.ms_hists;
  printf "  %-34s %11s\n" "counters" "rate/s";
  List.iter
    (fun (name, v) ->
      match prev with
      | None -> printf "  %-34s %11s  (total %d)\n" name "-" v
      | Some _ ->
        let prev_v = Option.value ~default:0 (List.assoc_opt name prev_counters) in
        (* clamped: a restart-in-place counter reset shows as silence,
           not a negative rate *)
        if Obs.window_delta ~prev:prev_v ~cur:v > 0 then
          printf "  %-34s %11.1f  (total %d)\n" name
            (Obs.window_rate ~prev:prev_v ~cur:v ~dt)
            v)
    s.ms_counters;
  List.iter (fun (name, v) -> printf "  %-34s %11.1f\n" name v) s.ms_gauges;
  if s.ms_slow <> [] then begin
    printf "  slow requests (over DSE_SLOW_MS; span trees as JSON):\n";
    List.iter (fun line -> printf "    %s\n" line) s.ms_slow
  end;
  print_newline ();
  flush stdout

(* Per-shard payloads riding under ["shards"] in a fleet router's
   merged [metrics] reply — each one a full single-worker metrics
   payload (or an error marker for a shard that did not answer). *)
let parse_shards payload =
  match List.assoc_opt "shards" payload with
  | Some (SJ.Obj shards) ->
    List.map
      (fun (name, v) ->
        match v with
        | SJ.Obj fields -> (
          match List.assoc_opt "error" fields with
          | Some (SJ.Str e) -> (name, Error e)
          | _ -> (name, Ok (parse_metrics fields)))
        | _ -> (name, Error "malformed shard payload"))
      shards
  | _ -> []

(* One line per shard: sessions, windowed request throughput and
   latency quantiles over the shard's [dse_request_us{...}] histograms
   merged bucket-wise (exact: one shared bound table). *)
let print_shard_lines ~elapsed ~shards ~prev_shards =
  if shards <> [] then begin
    printf "  %-10s %9s %9s %9s %9s %9s\n" "shard" "sessions" "req/s" "p50" "p99" "max";
    List.iter
      (fun (name, r) ->
        match r with
        | Error msg -> printf "  %-10s %s\n" name msg
        | Ok (s : metrics_sample) ->
          let request_hists =
            List.filter
              (fun (n, _) -> String.length n >= 14 && String.equal (String.sub n 0 14) "dse_request_us")
              s.ms_hists
          in
          let prev_hists =
            match Option.bind prev_shards (List.assoc_opt name) with
            | Some (Ok (p : metrics_sample)) -> p.ms_hists
            | _ -> []
          in
          let total hists =
            List.fold_left
              (fun acc (_, h) ->
                match acc with None -> Some h | Some a -> Some (Obs.merge_hsnapshots a h))
              None hists
          in
          let merged = total request_hists in
          let prev_merged =
            total
              (List.filter (fun (n, _) -> List.mem_assoc n request_hists) prev_hists)
          in
          (match merged with
          | None -> printf "  %-10s %9d %9s\n" name s.ms_sessions "-"
          | Some h ->
            let n, q = windowed_hist ?prev:prev_merged h in
            (* a shard that never served a request shows 0, as on the
               wire, not the empty snapshot's neg_infinity *)
            let max_us = if h.Obs.h_count > 0 then h.Obs.h_max else 0.0 in
            let dt = if elapsed > 0.0 then elapsed else 1.0 in
            printf "  %-10s %9d %9.1f %9.0f %9.0f %9.0f\n" name s.ms_sessions
              (float_of_int n /. dt) (q 0.5) (q 0.99) max_us))
      shards;
    print_newline ()
  end

let top_cmd =
  let interval =
    Arg.(
      value & opt float 2.0
      & info [ "interval"; "i" ] ~docv:"SECS" ~doc:"Seconds between samples.")
  in
  let iterations =
    Arg.(
      value & opt int 0
      & info [ "samples"; "n" ] ~docv:"N"
          ~doc:"Stop after $(docv) samples (0 = run until interrupted).")
  in
  let fleet =
    Arg.(
      value & flag
      & info [ "fleet" ]
          ~doc:
            "The socket is a fleet router: besides the merged aggregate view, show one \
             line per shard (sessions, windowed req/s, p50/p99).")
  in
  let run socket interval iterations fleet =
    let fetch () =
      match
        Ds_serve.Client.with_client ~socket (fun c ->
            Ds_serve.Client.request c (SP.Metrics { format = None }))
      with
      | Ok (Ok (SP.Reply payload)) ->
        Ok (parse_metrics payload, if fleet then parse_shards payload else [])
      | Ok (Ok (SP.Failed (_, msg))) | Ok (Error msg) | Error msg -> Error msg
    in
    let rec loop n prev prev_shards t_prev =
      match fetch () with
      | Error msg ->
        Printf.eprintf "dse top: %s\n" msg;
        1
      | Ok (sample, shards) ->
        let now = Unix.gettimeofday () in
        let elapsed = now -. t_prev in
        print_metrics_screen ~elapsed ~sample ~prev;
        if fleet then print_shard_lines ~elapsed ~shards ~prev_shards;
        if iterations > 0 && n + 1 >= iterations then 0
        else begin
          Unix.sleepf interval;
          loop (n + 1) (Some sample) (Some shards) now
        end
    in
    loop 0 None None (Unix.gettimeofday ())
  in
  Cmd.v
    (Cmd.info "top"
       ~doc:
         "Poll a running dse service's [metrics] op and show windowed request rates and \
          latency quantiles (quantiles are bucket estimates; see DESIGN.md section 13).  \
          With --fleet, also per-shard views from a fleet router's merged reply.")
    Term.(const run $ socket_arg $ interval $ iterations $ fleet)

(* ----- trace: exploration story from exported spans ----------------------- *)

(* A recorded span as shipped by the [trace] op's spans mode.  A fleet
   router's merged stream tags each span with its shard of origin at
   the top level; that tag folds into [ws_attrs] so one parser serves
   both the single-process and the fleet views. *)
type wire_span = {
  ws_seq : int;
  ws_id : int;
  ws_parent : int;
  ws_name : string;
  ws_t0 : float;
  ws_dur_us : float;
  ws_attrs : (string * string) list;
}

let wire_span_of_json json =
  match (SJ.member "seq" json, SJ.member "id" json, SJ.str_member "name" json) with
  | Some seq, Some id, Some name ->
    Option.bind (SJ.to_int seq) (fun ws_seq ->
        Option.map
          (fun ws_id ->
            {
              ws_seq;
              ws_id;
              ws_parent =
                Option.value ~default:(-1)
                  (Option.bind (SJ.member "parent" json) SJ.to_int);
              ws_name = name;
              ws_t0 =
                Option.value ~default:0.0 (Option.bind (SJ.member "t0" json) SJ.to_float);
              ws_dur_us =
                Option.value ~default:0.0
                  (Option.bind (SJ.member "dur_us" json) SJ.to_float);
              ws_attrs =
                (match SJ.str_member "shard" json with
                | Some shard -> [ ("shard", shard) ]
                | None -> [])
                @ (match SJ.member "attrs" json with
                  | Some (SJ.Obj fields) ->
                    List.filter_map
                      (fun (k, v) -> Option.map (fun v -> (k, v)) (SJ.to_str v))
                      fields
                  | _ -> []);
            })
          (SJ.to_int id))
  | _ -> None

(* Drain the span ring through the since-cursor, one page at a time.
   Stops on the first partial page: a full page means more may be
   buffered, while a partial one is the current tail — polling again on
   an idle ring would never drain, because each [trace] request records
   its own [op.trace] span. *)
let fetch_all_spans client =
  let page_size = 512 in
  let rec go since acc dropped raw =
    match
      Ds_serve.Client.request client
        (SP.Trace { session = ""; spans = true; since; max_spans = Some page_size })
    with
    | Error msg | Ok (SP.Failed (_, msg)) -> Error msg
    | Ok (SP.Reply payload) ->
      let page =
        Option.value ~default:[] (Option.bind (List.assoc_opt "spans" payload) SJ.to_list)
      in
      let d =
        Option.value ~default:0 (Option.bind (List.assoc_opt "dropped" payload) SJ.to_int)
      in
      let parsed = List.filter_map wire_span_of_json page in
      let acc = List.rev_append parsed acc
      and raw = List.rev_append page raw
      and dropped = dropped + d in
      if List.length page < page_size then Ok (List.rev acc, dropped, List.rev raw)
      else
        let next =
          Option.value ~default:0 (Option.bind (List.assoc_opt "next" payload) SJ.to_int)
        in
        go (Some next) acc dropped raw
  in
  go None [] 0 []

(* Retell a session's exploration from span data alone: the [op.*]
   roots carry the request, the nested [session.set] / [engine.sweep] /
   [cc.eliminate] / [cc.derive] / [guard.fault] spans carry what the
   engine did with it.  This is the [pp_trace] pruning story, but
   reconstructed client-side from the wire format — no pretty-printer
   involved. *)
let print_trace_story session spans =
  let attr k sp = List.assoc_opt k sp.ws_attrs in
  let children = Hashtbl.create 256 in
  List.iter
    (fun sp ->
      if sp.ws_parent >= 0 then
        Hashtbl.replace children sp.ws_parent
          (sp :: Option.value ~default:[] (Hashtbl.find_opt children sp.ws_parent)))
    spans;
  let rec descendants sp =
    let kids =
      List.sort
        (fun a b -> compare a.ws_seq b.ws_seq)
        (Option.value ~default:[] (Hashtbl.find_opt children sp.ws_id))
    in
    List.concat_map (fun k -> k :: descendants k) kids
  in
  let roots =
    List.filter
      (fun sp ->
        String.length sp.ws_name > 3
        && String.equal (String.sub sp.ws_name 0 3) "op."
        && attr "session" sp = Some session)
      spans
    |> List.sort (fun a b -> compare a.ws_seq b.ws_seq)
  in
  let a ?(def = "?") k sp = Option.value ~default:def (attr k sp) in
  let candidates sp =
    match attr "candidates" sp with Some c -> Printf.sprintf "  candidates %s" c | None -> ""
  in
  List.iter
    (fun root ->
      let deep = descendants root in
      let by_name n = List.filter (fun sp -> String.equal sp.ws_name n) deep in
      (match a "op" root with
      | "open" -> printf "open layer=%s%s\n" (a "layer" root) (candidates root)
      | "set" | "decide" | "default" ->
        let verb = if a "op" root = "decide" then "decision" else "requirement" in
        List.iter
          (fun s ->
            match attr "source" s with
            | Some "default" -> printf "default %s := %s\n" (a "name" s) (a "value" s)
            | _ -> printf "%s %s := %s\n" verb (a "name" s) (a "value" s))
          (List.filter (fun s -> attr "source" s <> None) (by_name "session.set"));
        List.iter
          (fun sweep ->
            printf "  sweep: pool %s -> %s survivors%s\n" (a "pool" sweep)
              (a ~def:"?" "survivors" sweep)
              (if attr "fallback" sweep = Some "true" then "  (serial fallback)" else ""))
          (by_name "engine.sweep");
        List.iter
          (fun e -> printf "    pruned by %s  (-%s)\n" (a "cc" e) (a "eliminated" e))
          (by_name "cc.eliminate");
        List.iter
          (fun d -> printf "  derived %s := %s (by %s)\n" (a "name" d) (a "value" d) (a "cc" d))
          (by_name "cc.derive");
        List.iter
          (fun f ->
            printf "  constraint %s faulted during %s: %s\n" (a "cc" f) (a "op" f)
              (a "fault" f))
          (by_name "guard.fault")
      | "retract" ->
        List.iter
          (fun s -> printf "retracted %s%s\n" (a "name" s) (candidates root))
          (by_name "session.retract")
      | "annotate" -> printf "note (annotate)%s\n" (candidates root)
      | "branch" -> printf "branch -> %s%s\n" (a ~def:"?" "as" root) (candidates root)
      | op -> printf "%s%s\n" op (candidates root));
      if attr "ok" root = Some "false" then
        printf "  !! rejected (%s)\n" (a ~def:"?" "code" root))
    roots;
  if roots = [] then
    printf "no spans recorded for session %S (is telemetry enabled on the server?)\n" session

(* One unpaginated fetch of the whole merged fleet span stream: the
   router fans a [trace spans] request to every worker and appends its
   own ring, so pagination cursors are per-shard and a single full
   fetch is the simple correct read. *)
let fetch_fleet_spans client =
  match
    Ds_serve.Client.request client
      (SP.Trace { session = ""; spans = true; since = None; max_spans = None })
  with
  | Error msg | Ok (SP.Failed (_, msg)) -> Error msg
  | Ok (SP.Reply payload) ->
    let page =
      Option.value ~default:[] (Option.bind (List.assoc_opt "spans" payload) SJ.to_list)
    in
    Ok (List.filter_map wire_span_of_json page, page)

(* Reassemble one distributed request tree from span data alone
   (DESIGN.md 18).  Every process that saw the trace recorded a
   remote-parented local root carrying ["trace"]/["span"]/
   ["parent_span"] attrs; local children hang off integer parent ids
   within their own (shard, process) ring.  The client-minted root span
   id was recorded by no process, so the tree's apex is virtual: roots
   whose [parent_span] names no recorded span sit directly under it,
   while any root whose [parent_span] is another recorded root's
   ["span"] nests beneath that root. *)
let print_fleet_trace tid spans =
  let attr k sp = List.assoc_opt k sp.ws_attrs in
  let shard_of sp = Option.value ~default:"?" (attr "shard" sp) in
  let children : (string * int, wire_span list) Hashtbl.t = Hashtbl.create 256 in
  List.iter
    (fun sp ->
      if sp.ws_parent >= 0 then begin
        let key = (shard_of sp, sp.ws_parent) in
        Hashtbl.replace children key
          (sp :: Option.value ~default:[] (Hashtbl.find_opt children key))
      end)
    spans;
  let roots =
    List.filter (fun sp -> attr "trace" sp = Some tid) spans
    |> List.sort (fun a b -> Float.compare a.ws_t0 b.ws_t0)
  in
  let hex_of sp = attr "span" sp in
  let known_hex = List.filter_map hex_of roots in
  let under root =
    List.filter
      (fun sp -> hex_of root <> None && attr "parent_span" sp = hex_of root)
      roots
  in
  let hidden = [ "trace"; "span"; "parent_span"; "shard" ] in
  let attr_line sp =
    String.concat ""
      (List.filter_map
         (fun (k, v) ->
           if List.mem k hidden then None else Some (Printf.sprintf "  %s=%s" k v))
         sp.ws_attrs)
  in
  let rec print_local indent sp =
    printf "%s%s [%s]  %.1fus%s\n" indent sp.ws_name (shard_of sp) sp.ws_dur_us
      (attr_line sp);
    List.iter
      (print_local (indent ^ "  "))
      (List.sort
         (fun a b -> compare a.ws_seq b.ws_seq)
         (Option.value ~default:[] (Hashtbl.find_opt children (shard_of sp, sp.ws_id))))
  in
  let rec print_root indent root =
    print_local indent root;
    List.iter (fun sub -> print_root (indent ^ "  ") sub) (under root)
  in
  match roots with
  | [] ->
    printf
      "no spans for trace %s (is DSE_TELEMETRY=1 on the fleet, and the trace id sampled?)\n"
      tid
  | roots ->
    printf "trace %s  (%d process-local roots)\n" tid (List.length roots);
    List.iter
      (fun root ->
        match attr "parent_span" root with
        | Some p when List.mem p known_hex -> ()  (* printed beneath its parent *)
        | _ -> print_root "  " root)
      roots

let trace_cmd =
  let session_arg =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"SESSION"
          ~doc:"Session id to reconstruct (or, with $(b,--fleet), a 32-hex trace id).")
  in
  let raw =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:"Dump the raw span pages as JSON lines instead of the reconstructed story.")
  in
  let fleet =
    Arg.(
      value & flag
      & info [ "fleet" ]
          ~doc:
            "Treat the argument as a propagated trace id and reassemble the distributed \
             request tree (router hop, worker op, sweep/journal/fsync phases) from the \
             merged fleet span stream (DESIGN.md section 18).")
  in
  let run socket session raw fleet =
    if fleet then begin
      match Ds_serve.Client.with_client ~socket (fun c -> fetch_fleet_spans c) with
      | Error msg | Ok (Error msg) ->
        Printf.eprintf "dse trace: %s\n" msg;
        1
      | Ok (Ok (spans, raw_page)) ->
        if raw then List.iter (fun j -> printf "%s\n" (SJ.to_string j)) raw_page
        else print_fleet_trace session spans;
        0
    end
    else
      match
        Ds_serve.Client.with_client ~socket (fun c -> fetch_all_spans c)
      with
      | Error msg | Ok (Error msg) ->
        Printf.eprintf "dse trace: %s\n" msg;
        1
      | Ok (Ok (spans, dropped, raw_pages)) ->
        if raw then List.iter (fun j -> printf "%s\n" (SJ.to_string j)) raw_pages
        else begin
          if dropped > 0 then
            printf "(ring dropped %d spans before this read; story may be partial)\n" dropped;
          print_trace_story session spans
        end;
        0
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:
         "Reconstruct a session's exploration story (decisions, pruning, derivations, \
          faults) from the service's exported telemetry spans; with $(b,--fleet), \
          reassemble one distributed trace across router and worker processes.")
    Term.(const run $ socket_arg $ session_arg $ raw $ fleet)

(* ----- fleet: sharded multi-process service ------------------------------ *)

module Fleet = Ds_fleet

(* Worker processes are fresh execs of this binary ([dse fleet worker])
   — never forks: the parent runs a threaded OCaml runtime, and fork
   without exec in a threaded process is a deadlock lottery. *)

let fleet_worker_cmd =
  let socket =
    Arg.(
      required
      & opt (some string) None
      & info [ "socket" ] ~docv:"PATH" ~doc:"Unix socket this worker listens on.")
  in
  let journal_dir =
    Arg.(
      required
      & opt (some string) None
      & info [ "journal-dir" ] ~docv:"DIR"
          ~doc:
            "This worker's private journal directory (restart-in-place resumes sessions \
             from it; two workers must never share one).")
  in
  let pool =
    Arg.(value & opt int 4 & info [ "pool" ] ~docv:"N" ~doc:"Worker threads serving connections.")
  in
  let capacity =
    Arg.(
      value & opt int 8192
      & info [ "capacity" ] ~docv:"N" ~doc:"Resident-session bound of this shard's store.")
  in
  let compact_after =
    Arg.(
      value
      & opt (some int) None
      & info [ "compact-after" ] ~docv:"N" ~doc:"Auto-compact journals past this tail length.")
  in
  let sync =
    Arg.(value & flag & info [ "sync" ] ~doc:"fsync every journal append.")
  in
  let run eol socket journal_dir pool capacity compact_after sync =
    (try Unix.mkdir journal_dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
    let cfg =
      service_config ~journal_dir ~journal_sync:sync ~capacity ?compact_after ~eol ()
    in
    match Fleet.Worker.run ~socket ~pool cfg with
    | () -> 0
    | exception Unix.Unix_error (err, _, arg) ->
      Printf.eprintf "fleet worker: cannot serve on %s: %s %s\n" socket
        (Unix.error_message err) arg;
      1
  in
  Cmd.v
    (Cmd.info "worker"
       ~doc:
         "Run one fleet shard: the single-process service on a private socket and journal \
          directory (spawned by `dse fleet serve`, restartable in place by the supervisor).")
    Term.(const run $ eol_arg $ socket $ journal_dir $ pool $ capacity $ compact_after $ sync)

let fleet_serve_cmd =
  let nworkers =
    Arg.(
      value & opt int 4
      & info [ "n"; "workers" ] ~docv:"N" ~doc:"Worker processes (shards) to run.")
  in
  let dir =
    Arg.(
      value
      & opt string "/tmp/dse-fleet"
      & info [ "dir" ] ~docv:"DIR"
          ~doc:"Fleet state root: per-worker sockets, journal directories and logs.")
  in
  let pool =
    Arg.(
      value
      & opt (some int) None
      & info [ "pool" ] ~docv:"N"
          ~doc:
            "Threads per worker process.  Default: slots + 2 — a worker thread owns a \
             connection for its lifetime, so the pool must exceed the router's persistent \
             slots or routed connections starve in the accept queue; the two spares keep \
             health probes and direct admin clients answerable under full routed load.")
  in
  let capacity =
    Arg.(
      value & opt int 8192
      & info [ "capacity" ] ~docv:"N" ~doc:"Resident-session bound per shard.")
  in
  let slots =
    Arg.(
      value & opt int 8
      & info [ "slots" ] ~docv:"N"
          ~doc:"Router-side persistent connections per worker (bounds in-flight requests per shard).")
  in
  let sync =
    Arg.(value & flag & info [ "sync" ] ~doc:"Workers fsync every journal append.")
  in
  let run eol socket nworkers dir pool capacity slots sync =
    let n = Stdlib.max 1 nworkers in
    let pool = match pool with Some p -> p | None -> slots + 2 in
    (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
    let specs =
      List.init n (fun i ->
          let name = Printf.sprintf "w%d" i in
          let args =
            [
              Sys.executable_name; "fleet"; "worker";
              "--socket"; Filename.concat dir (name ^ ".sock");
              "--journal-dir"; Filename.concat dir (name ^ ".journal");
              "--pool"; string_of_int pool;
              "--capacity"; string_of_int capacity;
              "--eol"; string_of_int eol;
            ]
            @ (if sync then [ "--sync" ] else [])
          in
          {
            Fleet.Supervisor.w_name = name;
            w_socket = Filename.concat dir (name ^ ".sock");
            w_argv = Array.of_list args;
            w_log = Some (Filename.concat dir (name ^ ".log"));
          })
    in
    let sup =
      Fleet.Supervisor.start
        ~on_restart:(fun name -> Printf.eprintf "fleet: restarted worker %s\n%!" name)
        specs
    in
    match Fleet.Supervisor.await_ready sup with
    | Error msg ->
      Printf.eprintf "fleet: %s\n" msg;
      Fleet.Supervisor.stop sup;
      1
    | Ok () -> (
      match
        Fleet.Router.create ~socket ~workers:(Fleet.Supervisor.workers sup) ~slots ()
      with
      | exception Unix.Unix_error (err, _, arg) ->
        Printf.eprintf "fleet: cannot listen on %s: %s %s\n" socket (Unix.error_message err)
          arg;
        Fleet.Supervisor.stop sup;
        1
      | router ->
        Fleet.Router.install_signal_handlers router;
        (* only the router mounts the HTTP plane: workers inherit this
           environment, and N processes racing to bind DSE_METRICS_ADDR
           is exactly the failure mode to avoid *)
        let http =
          Ds_serve.Httpd.start_from_env ~routes:(Fleet.Router.http_routes router) ()
        in
        printf "dse fleet listening on %s (%d workers under %s)\n%!" socket n dir;
        (match http with
        | Some h -> printf "observability plane on http port %d\n%!" (Ds_serve.Httpd.port h)
        | None -> ());
        Fleet.Router.serve router;
        Option.iter Ds_serve.Httpd.stop http;
        Fleet.Supervisor.stop sup;
        printf "dse fleet stopped after %d connections; worker restarts:%s\n"
          (Fleet.Router.connections_served router)
          (String.concat ""
             (List.map
                (fun (w, r) -> Printf.sprintf " %s=%d" w r)
                (Fleet.Supervisor.restarts sup)));
        0)
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run a sharded fleet: N supervised worker processes behind a consistent-hash \
          router on one socket (DESIGN.md section 16).")
    Term.(
      const run $ eol_arg $ socket_arg $ nworkers $ dir $ pool $ capacity $ slots $ sync)

let fleet_cmd =
  Cmd.group
    (Cmd.info "fleet"
       ~doc:"Sharded multi-process service: router, supervised workers, merged telemetry.")
    [ fleet_serve_cmd; fleet_worker_cmd ]

(* ----- main ------------------------------------------------------------- *)

let () =
  let doc = "early design space exploration for core-based designs (DATE 1999 reproduction)" in
  let info = Cmd.info "dse" ~version:Version.version ~doc in
  (* stamp the Prometheus [dse_build_info] gauge before any exporter
     can run *)
  Obs.set_build_info ~version:Version.version;
  (* [~catch:false] so an escaped exception (malformed input, a layer
     that fails to construct) becomes one error line and a non-zero exit
     instead of cmdliner's backtrace dump. *)
  match
    Cmd.eval'~catch:false
      (Cmd.group info
         [
           tree_cmd; properties_cmd; constraints_cmd; cores_cmd; explore_cmd; preview_cmd;
           coproc_cmd; document_cmd; netlist_cmd; lint_cmd; shell_cmd; export_cmd; check_cmd;
           serve_cmd; client_cmd; top_cmd; trace_cmd; fleet_cmd;
         ])
  with
  | code -> exit code
  | exception e ->
    (* fatal trap: keep the event trail — whatever the telemetry ring
       buffered (sweeps, eliminations, derivations) goes to stderr as
       JSON lines before the process dies *)
    Printf.eprintf "dse: fatal error: %s\n" (Printexc.to_string e);
    Obs.dump_ring_to stderr;
    exit 125
