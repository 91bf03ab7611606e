module Value = Ds_layer.Value

type request =
  | Open of { session : string option; layer : string; eol : int option; resume : bool }
  | Set of { session : string; name : string; value : Value.t; decide : bool }
  | Default of { session : string; name : string }
  | Retract of { session : string; name : string }
  | Annotate of { session : string; text : string }
  | Candidates of { session : string; max : int option }
  | Ranges of { session : string; merits : string list option }
  | Issues of { session : string }
  | Preview of { session : string; issue : string; merit : string option }
  | Script of { session : string }
  | Trace of { session : string; spans : bool; since : int option; max_spans : int option }
  | Health of { session : string }
  | Signature of { session : string }
  | Report of { session : string; title : string option }
  | Branch of { session : string; as_id : string option }
  | Compact of { session : string }
  | Close of { session : string }
  | Stats
  | Metrics of { format : string option }
  | Healthz
  | Batch of { session : string; reqs : request list }

type error_code =
  | Parse_error
  | Bad_request
  | Unknown_op
  | Unknown_layer
  | Unknown_session
  | Session_exists
  | Rejected
  | Journal_error
  | Request_too_large
  | Response_too_large
  | Shutting_down
  | Session_unavailable
  | Server_error

type response = Reply of (string * Jsonx.t) list | Failed of error_code * string

let error_code_label = function
  | Parse_error -> "parse_error"
  | Bad_request -> "bad_request"
  | Unknown_op -> "unknown_op"
  | Unknown_layer -> "unknown_layer"
  | Unknown_session -> "unknown_session"
  | Session_exists -> "session_exists"
  | Rejected -> "rejected"
  | Journal_error -> "journal_error"
  | Request_too_large -> "request_too_large"
  | Response_too_large -> "response_too_large"
  | Shutting_down -> "shutting_down"
  | Session_unavailable -> "session_unavailable"
  | Server_error -> "server_error"

let error_code_of_label = function
  | "parse_error" -> Some Parse_error
  | "bad_request" -> Some Bad_request
  | "unknown_op" -> Some Unknown_op
  | "unknown_layer" -> Some Unknown_layer
  | "unknown_session" -> Some Unknown_session
  | "session_exists" -> Some Session_exists
  | "rejected" -> Some Rejected
  | "journal_error" -> Some Journal_error
  | "request_too_large" -> Some Request_too_large
  | "response_too_large" -> Some Response_too_large
  | "shutting_down" -> Some Shutting_down
  | "session_unavailable" -> Some Session_unavailable
  | "server_error" -> Some Server_error
  | _ -> None

(* A retryable failure is one where the request may not have been
   applied and re-sending it (possibly after a backoff) is the right
   client move: the server is draining, or the fleet router lost the
   worker owning the session mid-flight and a restarted worker will
   resume it from its journal. *)
let retryable = function
  | Shutting_down | Session_unavailable -> true
  | Parse_error | Bad_request | Unknown_op | Unknown_layer | Unknown_session
  | Session_exists | Rejected | Journal_error | Request_too_large | Response_too_large
  | Server_error ->
    false

(* ------------------------------------------------------------------ *)
(* Values                                                              *)

let json_of_value = function
  | Value.Str s -> Jsonx.Str s
  | Value.Int i -> Jsonx.Int i
  | Value.Real f -> Jsonx.Float f
  | Value.Flag b -> Jsonx.Bool b

let value_of_json = function
  | Jsonx.Str s -> Ok (Value.Str s)
  | Jsonx.Int i -> Ok (Value.Int i)
  | Jsonx.Float f when Float.is_finite f -> Ok (Value.Real f)
  | Jsonx.Float _ ->
    (* non-finite reals have no JSON form, so journaling one would
       break the encode/decode inverse that replay relies on *)
    Error "value must be a finite number"
  | Jsonx.Bool b -> Ok (Value.Flag b)
  | Jsonx.Null | Jsonx.List _ | Jsonx.Obj _ ->
    Error "value must be a string, number or boolean"

(* ------------------------------------------------------------------ *)
(* Request decoding                                                    *)

let field name json = Jsonx.member name json

let str_field name json =
  match Jsonx.str_member name json with
  | Some s -> Ok s
  | None -> Error (Printf.sprintf "missing or non-string field %S" name)

let session_field json = str_field "session" json

let ( let* ) = Result.bind

(* Which ops may ride inside a batch: the session-scoped mutations and
   reads.  Lifecycle ops (open/branch/compact/close), server-global ops
   (stats/metrics/healthz/trace) and nested batches are excluded — a
   batch is "one session, one slot-lock hold, one group-commit", and
   those ops all acquire something else. *)
let batchable = function
  | Set _ | Default _ | Retract _ | Annotate _ | Candidates _ | Ranges _ | Issues _
  | Preview _ | Script _ | Health _ | Signature _ | Report _ ->
    true
  | Open _ | Trace _ | Branch _ | Compact _ | Close _ | Stats | Metrics _ | Healthz
  | Batch _ ->
    false

let request_session = function
  | Set { session; _ }
  | Default { session; _ }
  | Retract { session; _ }
  | Annotate { session; _ }
  | Candidates { session; _ }
  | Ranges { session; _ }
  | Issues { session }
  | Preview { session; _ }
  | Script { session }
  | Health { session }
  | Signature { session }
  | Report { session; _ }
  | Branch { session; _ }
  | Compact { session }
  | Close { session }
  | Batch { session; _ } ->
    Some session
  | Trace { session; spans; _ } -> if spans && String.equal session "" then None else Some session
  | Open { session; _ } -> session
  | Stats | Metrics _ | Healthz -> None

let batch_of_requests reqs =
  match reqs with
  | [] -> Error "batch requires a non-empty \"reqs\" array"
  | first :: _ -> (
    match request_session first with
    | None -> Error "batch sub-requests must be session-scoped"
    | Some session ->
      let rec check = function
        | [] -> Ok (Batch { session; reqs })
        | r :: rest ->
          if not (batchable r) then
            Error "batch sub-requests must be session-scoped mutations or reads"
          else if not (Option.equal String.equal (request_session r) (Some session)) then
            Error "batch sub-requests must all target the batch session"
          else check rest
      in
      check reqs)

let rec request_of_json json =
  let* op = str_field "op" json in
  match op with
  | "open" ->
    let resume =
      match Option.bind (field "resume" json) Jsonx.to_bool with
      | Some b -> b
      | None -> false
    in
    (* on resume the journal header is authoritative, so the layer may
       be omitted (encoded as "") *)
    let* layer =
      match Jsonx.str_member "layer" json with
      | Some l -> Ok l
      | None when resume -> Ok ""
      | None -> Error "missing or non-string field \"layer\""
    in
    let eol = Option.bind (field "eol" json) Jsonx.to_int in
    Ok (Open { session = Jsonx.str_member "session" json; layer; eol; resume })
  | "set" | "decide" ->
    let* session = session_field json in
    let* name = str_field "name" json in
    let* value =
      match field "value" json with
      | None -> Error "missing field \"value\""
      | Some v -> value_of_json v
    in
    Ok (Set { session; name; value; decide = String.equal op "decide" })
  | "default" ->
    let* session = session_field json in
    let* name = str_field "name" json in
    Ok (Default { session; name })
  | "retract" ->
    let* session = session_field json in
    let* name = str_field "name" json in
    Ok (Retract { session; name })
  | "annotate" ->
    let* session = session_field json in
    let* text = str_field "text" json in
    Ok (Annotate { session; text })
  | "candidates" ->
    let* session = session_field json in
    let max = Option.bind (field "max" json) Jsonx.to_int in
    Ok (Candidates { session; max })
  | "ranges" ->
    let* session = session_field json in
    let merits =
      match Option.bind (field "merits" json) Jsonx.to_list with
      | Some items -> Some (List.filter_map Jsonx.to_str items)
      | None -> None
    in
    Ok (Ranges { session; merits })
  | "issues" ->
    let* session = session_field json in
    Ok (Issues { session })
  | "preview" ->
    let* session = session_field json in
    let* issue = str_field "issue" json in
    Ok (Preview { session; issue; merit = Jsonx.str_member "merit" json })
  | "script" ->
    let* session = session_field json in
    Ok (Script { session })
  | "trace" ->
    let spans =
      match Option.bind (field "spans" json) Jsonx.to_bool with
      | Some b -> b
      | None -> false
    in
    (* the span page is a view of the server-global ring, so a spans
       query needs no session; the text trace renders one session *)
    let* session =
      match Jsonx.str_member "session" json with
      | Some s -> Ok s
      | None when spans -> Ok ""
      | None -> Error "missing or non-string field \"session\""
    in
    let since = Option.bind (field "since" json) Jsonx.to_int in
    let max_spans = Option.bind (field "max" json) Jsonx.to_int in
    Ok (Trace { session; spans; since; max_spans })
  | "health" ->
    let* session = session_field json in
    Ok (Health { session })
  | "signature" ->
    let* session = session_field json in
    Ok (Signature { session })
  | "report" ->
    let* session = session_field json in
    Ok (Report { session; title = Jsonx.str_member "title" json })
  | "branch" ->
    let* session = session_field json in
    Ok (Branch { session; as_id = Jsonx.str_member "as" json })
  | "compact" ->
    let* session = session_field json in
    Ok (Compact { session })
  | "close" ->
    let* session = session_field json in
    Ok (Close { session })
  | "stats" -> Ok Stats
  | "metrics" -> Ok (Metrics { format = Jsonx.str_member "format" json })
  | "healthz" -> Ok Healthz
  | "batch" ->
    let* session = session_field json in
    let* items =
      match Option.bind (field "reqs" json) Jsonx.to_list with
      | Some [] | None -> Error "batch requires a non-empty \"reqs\" array"
      | Some items -> Ok items
    in
    let rec decode acc i = function
      | [] -> Ok (List.rev acc)
      | item :: rest ->
        (* a sub-request may omit its session (inherited from the batch
           envelope); an explicit one must match *)
        let item =
          match item with
          | Jsonx.Obj fields when not (List.mem_assoc "session" fields) ->
            Jsonx.Obj (fields @ [ ("session", Jsonx.Str session) ])
          | other -> other
        in
        let* r =
          match request_of_json item with
          | Ok r -> Ok r
          | Error msg -> Error (Printf.sprintf "batch req %d: %s" i msg)
        in
        if not (batchable r) then
          Error
            (Printf.sprintf "batch req %d: op is not batchable (session-scoped mutations and reads only)" i)
        else if not (Option.equal String.equal (request_session r) (Some session)) then
          Error (Printf.sprintf "batch req %d: session does not match the batch session" i)
        else decode (r :: acc) (i + 1) rest
    in
    let* reqs = decode [] 0 items in
    Ok (Batch { session; reqs })
  | op -> Error (Printf.sprintf "unknown op %S" op)

(* ------------------------------------------------------------------ *)
(* Request encoding (the journal's storage form)                       *)

let rec json_of_request r =
  let obj fields = Jsonx.Obj (List.filter_map Fun.id fields) in
  let some k v = Some (k, v) in
  let opt k = Option.map (fun s -> (k, Jsonx.Str s)) in
  match r with
  | Open { session; layer; eol; resume } ->
    obj
      [
        some "op" (Jsonx.Str "open");
        opt "session" session;
        (if String.equal layer "" then None else some "layer" (Jsonx.Str layer));
        Option.map (fun e -> ("eol", Jsonx.Int e)) eol;
        (if resume then some "resume" (Jsonx.Bool true) else None);
      ]
  | Set { session; name; value; decide } ->
    obj
      [
        some "op" (Jsonx.Str (if decide then "decide" else "set"));
        some "session" (Jsonx.Str session);
        some "name" (Jsonx.Str name);
        some "value" (json_of_value value);
      ]
  | Default { session; name } ->
    obj
      [
        some "op" (Jsonx.Str "default");
        some "session" (Jsonx.Str session);
        some "name" (Jsonx.Str name);
      ]
  | Retract { session; name } ->
    obj
      [
        some "op" (Jsonx.Str "retract");
        some "session" (Jsonx.Str session);
        some "name" (Jsonx.Str name);
      ]
  | Annotate { session; text } ->
    obj
      [
        some "op" (Jsonx.Str "annotate");
        some "session" (Jsonx.Str session);
        some "text" (Jsonx.Str text);
      ]
  | Candidates { session; max } ->
    obj
      [
        some "op" (Jsonx.Str "candidates");
        some "session" (Jsonx.Str session);
        Option.map (fun m -> ("max", Jsonx.Int m)) max;
      ]
  | Ranges { session; merits } ->
    obj
      [
        some "op" (Jsonx.Str "ranges");
        some "session" (Jsonx.Str session);
        Option.map
          (fun ms -> ("merits", Jsonx.List (List.map (fun m -> Jsonx.Str m) ms)))
          merits;
      ]
  | Issues { session } ->
    obj [ some "op" (Jsonx.Str "issues"); some "session" (Jsonx.Str session) ]
  | Preview { session; issue; merit } ->
    obj
      [
        some "op" (Jsonx.Str "preview");
        some "session" (Jsonx.Str session);
        some "issue" (Jsonx.Str issue);
        opt "merit" merit;
      ]
  | Script { session } ->
    obj [ some "op" (Jsonx.Str "script"); some "session" (Jsonx.Str session) ]
  | Trace { session; spans; since; max_spans } ->
    obj
      [
        some "op" (Jsonx.Str "trace");
        (if String.equal session "" && spans then None else some "session" (Jsonx.Str session));
        (if spans then some "spans" (Jsonx.Bool true) else None);
        Option.map (fun s -> ("since", Jsonx.Int s)) since;
        Option.map (fun m -> ("max", Jsonx.Int m)) max_spans;
      ]
  | Health { session } ->
    obj [ some "op" (Jsonx.Str "health"); some "session" (Jsonx.Str session) ]
  | Signature { session } ->
    obj [ some "op" (Jsonx.Str "signature"); some "session" (Jsonx.Str session) ]
  | Report { session; title } ->
    obj
      [
        some "op" (Jsonx.Str "report");
        some "session" (Jsonx.Str session);
        opt "title" title;
      ]
  | Branch { session; as_id } ->
    obj
      [
        some "op" (Jsonx.Str "branch");
        some "session" (Jsonx.Str session);
        opt "as" as_id;
      ]
  | Compact { session } ->
    obj [ some "op" (Jsonx.Str "compact"); some "session" (Jsonx.Str session) ]
  | Close { session } ->
    obj [ some "op" (Jsonx.Str "close"); some "session" (Jsonx.Str session) ]
  | Stats -> obj [ some "op" (Jsonx.Str "stats") ]
  | Metrics { format } -> obj [ some "op" (Jsonx.Str "metrics"); opt "format" format ]
  | Healthz -> obj [ some "op" (Jsonx.Str "healthz") ]
  | Batch { session; reqs } ->
    obj
      [
        some "op" (Jsonx.Str "batch");
        some "session" (Jsonx.Str session);
        some "reqs" (Jsonx.List (List.map json_of_request reqs));
      ]

(* ------------------------------------------------------------------ *)
(* Trace-context side channel (DESIGN.md 18)

   The propagated context rides as an optional top-level ["trace"]
   member of the request object — deliberately NOT a field of the
   request variant: [json_of_request] is the journal's storage form
   and must stay byte-stable, and [request_of_json] already ignores
   unknown members, so old servers interoperate for free.  A malformed
   context is dropped (never an error): tracing must not be able to
   fail a request. *)

let trace_member json =
  Option.bind (Jsonx.str_member "trace" json) Ds_obs.Obs.parse_trace

let attach_trace ~trace json =
  match json with
  | Jsonx.Obj fields when not (List.mem_assoc "trace" fields) ->
    Jsonx.Obj (fields @ [ ("trace", Jsonx.Str trace) ])
  | other -> other

let parse_request_traced line =
  match Jsonx.of_string line with
  | Error msg -> Error (Parse_error, msg)
  | Ok json -> (
    match request_of_json json with
    | Ok r -> Ok (r, trace_member json)
    | Error msg ->
      let code =
        if String.length msg >= 10 && String.equal (String.sub msg 0 10) "unknown op" then
          Unknown_op
        else Bad_request
      in
      Error (code, msg))

let parse_request line = Result.map fst (parse_request_traced line)

(* ------------------------------------------------------------------ *)
(* Responses                                                           *)

(* Interned response fragments: the ["ok"] header cell and error-code
   strings are shared across every response instead of re-consed per
   reply — the response hot path allocates only the payload. *)
let ok_true = ("ok", Jsonx.Bool true)
let ok_false = ("ok", Jsonx.Bool false)

let json_of_response = function
  | Reply payload -> Jsonx.Obj (ok_true :: payload)
  | Failed (code, message) ->
    Jsonx.Obj
      [
        ok_false;
        ( "error",
          Jsonx.Obj
            [ ("code", Jsonx.Str (error_code_label code)); ("message", Jsonx.Str message) ] );
      ]

let print_response_into buf r = Jsonx.add buf (json_of_response r)
let print_response r = Jsonx.to_string (json_of_response r)

let response_of_json json =
  match Option.bind (Jsonx.member "ok" json) Jsonx.to_bool with
  | Some true -> (
    match json with
    | Jsonx.Obj fields ->
      Ok (Reply (List.filter (fun (k, _) -> not (String.equal k "ok")) fields))
    | _ -> Error "reply is not an object")
  | Some false -> (
    match Jsonx.member "error" json with
    | None -> Error "error reply without \"error\" field"
    | Some err ->
      let code =
        match Option.bind (Jsonx.str_member "code" err) error_code_of_label with
        | Some c -> c
        | None -> Bad_request
      in
      let message = Option.value ~default:"" (Jsonx.str_member "message" err) in
      Ok (Failed (code, message)))
  | None -> Error "reply has no boolean \"ok\" field"

let response_of_string line =
  let* json = Jsonx.of_string line in
  response_of_json json

let ok_payload = function
  | Reply payload -> Ok payload
  | Failed (code, message) -> Error (Printf.sprintf "%s: %s" (error_code_label code) message)

(* ------------------------------------------------------------------ *)
(* Metrics registries                                                  *)

module Obs = Ds_obs.Obs

type registry_view = {
  counters : (string * int) list;
  gauges : (string * float) list;
  histograms : (string * Obs.hsnapshot) list;
}

(* JSON has no infinities: an empty histogram's min/max (and any
   non-finite gauge) travel as 0.0; the decoder restores the empty
   histogram's extremes from its zero count. *)
let finite f = Jsonx.Float (if Float.is_finite f then f else 0.0)

let registry_view_to_json v =
  let hist (s : Obs.hsnapshot) =
    Jsonx.Obj
      [
        ("count", Jsonx.Int s.Obs.h_count);
        ("sum", finite s.Obs.h_sum);
        ("min", finite s.Obs.h_min);
        ("max", finite s.Obs.h_max);
        ("buckets", Jsonx.List (Array.to_list (Array.map (fun c -> Jsonx.Int c) s.Obs.h_counts)));
      ]
  in
  let section f kvs = Jsonx.Obj (List.map (fun (k, v) -> (k, f v)) kvs) in
  Jsonx.Obj
    [
      ("counters", section (fun v -> Jsonx.Int v) v.counters);
      ("gauges", section finite v.gauges);
      ("histograms", section hist v.histograms);
    ]

let registry_to_json r =
  registry_view_to_json
    { counters = Obs.counters r; gauges = Obs.gauges r; histograms = Obs.histograms r }

let hsnapshot_of_json json =
  let num k = Option.bind (Jsonx.member k json) Jsonx.to_float in
  match
    ( Option.bind (Jsonx.member "count" json) Jsonx.to_int,
      num "sum",
      num "min",
      num "max",
      Option.bind (Jsonx.member "buckets" json) Jsonx.to_list )
  with
  | Some count, Some sum, Some mn, Some mx, Some buckets ->
    let expected = Array.length Obs.bucket_bounds + 1 in
    let counts = Array.of_list (List.filter_map Jsonx.to_int buckets) in
    if List.length buckets <> expected || Array.length counts <> expected then
      Error (Printf.sprintf "%d buckets, expected %d integers" (List.length buckets) expected)
    else
      let empty = count = 0 in
      Ok
        {
          Obs.h_count = count;
          h_sum = sum;
          h_min = (if empty then infinity else mn);
          h_max = (if empty then neg_infinity else mx);
          h_counts = counts;
        }
  | _ -> Error "needs integer count, numeric sum/min/max and a buckets array"

let registry_of_json json =
  let section key decode =
    match Jsonx.member key json with
    | Some (Jsonx.Obj fields) ->
      List.fold_right
        (fun (name, v) acc ->
          let* acc = acc in
          match decode v with
          | Ok x -> Ok ((name, x) :: acc)
          | Error msg -> Error (Printf.sprintf "%s %S: %s" key name msg))
        fields (Ok [])
    | _ -> Error (Printf.sprintf "registry without a %S object" key)
  in
  let need what = function Some x -> Ok x | None -> Error ("not " ^ what) in
  let* counters = section "counters" (fun v -> need "an integer" (Jsonx.to_int v)) in
  let* gauges = section "gauges" (fun v -> need "a number" (Jsonx.to_float v)) in
  let* histograms = section "histograms" hsnapshot_of_json in
  Ok { counters; gauges; histograms }
