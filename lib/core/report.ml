let render ?(title = "Exploration report") ?(merits = []) ?pareto session =
  let buf = Buffer.create 4096 in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  add "# %s\n\n" title;
  add "Focus: `%s`\n\n" (String.concat " . " (Session.focus session));

  add "## Bindings\n\n";
  add "| property | value | source |\n|---|---|---|\n";
  List.iter
    (fun b ->
      add "| %s | %s | %s |\n" b.Session.prop.Property.name
        (Value.to_string b.Session.value)
        (match b.Session.source with
        | Session.Designer -> "designer"
        | Session.Default_value -> "default"
        | Session.Derived cc -> Printf.sprintf "derived by %s" cc))
    (List.rev (Session.bindings session));

  add "\n## Exploration trail\n\n";
  List.iter
    (fun event ->
      match event with
      | Session.Requirement_entered { name; value } ->
        add "1. requirement **%s** := %s\n" name (Value.to_string value)
      | Session.Decision_made { name; value } ->
        add "1. decision **%s** := %s\n" name (Value.to_string value)
      | Session.Focus_descended { path; candidates_before; candidates_after } ->
        add "1. specialized to `%s` (candidates %d -> %d)\n" (String.concat "." path)
          candidates_before candidates_after
      | Session.Binding_derived { name; value; by } ->
        add "1. derived **%s** := %s (%s)\n" name (Value.to_string value) by
      | Session.Binding_retracted { name; invalidated } ->
        add "1. retracted **%s**%s\n" name
          (if invalidated = [] then ""
           else Printf.sprintf " (invalidated: %s)" (String.concat ", " invalidated))
      | Session.Note s -> add "1. note: %s\n" s
      | Session.Constraint_faulted { name; op; detail } ->
        add "1. constraint **%s** faulted during %s: %s\n" name op detail
      | Session.Constraint_quarantined { name; op; reason } ->
        add "1. constraint **%s** quarantined during %s: %s\n" name op reason)
    (Session.events session);

  let candidates = Session.candidates session in
  add "\n## Surviving candidates (%d)\n\n" (List.length candidates);
  (match merits with
  | [] -> List.iter (fun (qid, _) -> add "- %s\n" qid) candidates
  | merits ->
    add "| core |%s\n" (String.concat "" (List.map (fun m -> " " ^ m ^ " |") merits));
    add "|---|%s\n" (String.concat "" (List.map (fun _ -> "---|") merits));
    List.iter
      (fun (qid, core) ->
        add "| %s |%s\n" qid
          (String.concat ""
             (List.map
                (fun m ->
                  match Ds_reuse.Core.merit core m with
                  | Some v -> Printf.sprintf " %.4g |" v
                  | None -> " - |")
                merits)))
      candidates;
    add "\n### Ranges\n\n";
    List.iter2
      (fun m summary ->
        let skipped =
          if summary.Evaluation.skipped_non_finite = 0 then ""
          else
            Printf.sprintf " (%d core%s with non-finite values skipped)"
              summary.Evaluation.skipped_non_finite
              (if summary.Evaluation.skipped_non_finite = 1 then "" else "s")
        in
        match summary.Evaluation.merit_range with
        | Some (lo, hi) -> add "- %s: %.4g .. %.4g%s\n" m lo hi skipped
        | None -> if skipped <> "" then add "- %s: no finite values%s\n" m skipped)
      merits
      (Session.merit_summaries session ~merits));

  (match pareto with
  | None -> ()
  | Some (x, y) ->
    let front = Evaluation.pareto_front (Evaluation.of_cores ~x ~y candidates) in
    add "\n## Pareto front (%s vs %s)\n\n" x y;
    List.iter
      (fun p -> add "- %s (%.4g, %.4g)\n" p.Evaluation.label p.Evaluation.x p.Evaluation.y)
      front);

  (match Session.estimates session with
  | [] -> ()
  | estimates ->
    add "\n## Active estimator contexts\n\n";
    List.iter
      (fun (tool, metrics) ->
        List.iter (fun (m, v) -> add "- %s: %s = %.4g\n" tool m v) metrics)
      estimates);

  (* absent from fault-free reports, so those stay byte-identical *)
  (match List.filter (fun (_, s) -> s <> Guard.Healthy) (Session.health session) with
  | [] -> ()
  | faulty ->
    add "\n## Constraint health\n\n";
    add "Faulty constraints are excluded conservatively: the candidate set may be\n";
    add "wider than a fully consistent layer would allow.\n\n";
    List.iter
      (fun (name, status) ->
        match status with
        | Guard.Quarantined { reason; at_event } ->
          add "- **%s**: quarantined (%s; diagnostic #%d)\n" name reason at_event
        | Guard.Degraded -> add "- **%s**: degraded (still evaluated)\n" name
        | Guard.Healthy -> ())
      faulty;
    match Session.diagnostics session with
    | [] -> ()
    | diags ->
      add "\n%d fault%s recorded; first: %s\n" (List.length diags)
        (if List.length diags = 1 then "" else "s")
        (Guard.describe_diag (List.hd diags)));
  Buffer.contents buf

let save ?title ?merits ?pareto session ~path =
  try
    let oc = open_out path in
    Fun.protect
      ~finally:(fun () -> close_out oc)
      (fun () -> output_string oc (render ?title ?merits ?pareto session));
    Ok ()
  with Sys_error msg -> Error msg
