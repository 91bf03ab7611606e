type env = {
  value : Propref.t -> Value.t option;
  value_of : string -> Value.t option;
  focus : string list;
}

type eliminate_kernel = env -> Columnar.t -> (int -> int -> int) option

type relation =
  | Inconsistent of { violated : env -> bool }
  | Derive of { compute : env -> (string * Value.t) list }
  | Estimator_context of { tool : string; estimate : env -> (string * float) list }
  | Eliminate of {
      inferior : env -> Ds_reuse.Core.t -> bool;
      vectorized : eliminate_kernel option;
    }

let eliminate ?vectorized inferior = Eliminate { inferior; vectorized }

type t = {
  name : string;
  doc : string;
  indep : Propref.t list;
  dep : Propref.t list;
  relation : relation;
}

let make ~name ?(doc = "") ~indep ~dep relation =
  if String.equal name "" then Error "constraint name must not be empty"
  else if indep = [] then Error "constraint needs a non-empty independent set"
  else Ok { name; doc; indep; dep; relation }

let make_exn ~name ?doc ~indep ~dep relation =
  match make ~name ?doc ~indep ~dep relation with
  | Ok cc -> cc
  | Error msg -> invalid_arg ("Consistency.make_exn: " ^ msg)

let ready cc ~bound = List.for_all bound cc.indep

let dep_properties cc =
  List.sort_uniq String.compare (List.map (fun r -> r.Propref.property) cc.dep)

let empty_env = { value = (fun _ -> None); value_of = (fun _ -> None); focus = [] }

let governs cc ~property =
  List.exists (fun r -> String.equal r.Propref.property property) cc.dep

let relation_kind cc =
  match cc.relation with
  | Inconsistent _ -> "inconsistent-options"
  | Derive _ -> "derive"
  | Estimator_context _ -> "estimator"
  | Eliminate _ -> "eliminate"

type violation = { constraint_ : t; message : string }

let check cc env =
  match cc.relation with
  | Inconsistent { violated } ->
    if violated env then
      Some
        {
          constraint_ = cc;
          message = Printf.sprintf "%s: %s" cc.name (if cc.doc = "" then "inconsistent options" else cc.doc);
        }
    else None
  | Derive _ | Estimator_context _ | Eliminate _ -> None

let pp fmt cc =
  if not (String.equal cc.doc "") then Format.fprintf fmt "//%s@." cc.doc;
  Format.fprintf fmt "%s  Indep_Set={%s}@." cc.name
    (String.concat ", " (List.map Propref.to_string cc.indep));
  Format.fprintf fmt "     Dep_Set={%s}@."
    (String.concat ", " (List.map Propref.to_string cc.dep));
  Format.fprintf fmt "     Relation: %s@." (relation_kind cc)
