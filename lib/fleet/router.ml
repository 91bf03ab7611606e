module Obs = Ds_obs.Obs
module P = Ds_serve.Protocol
module Jsonx = Ds_serve.Jsonx

type t = {
  conn : Ds_serve.Lineserver.t;
  ring : Ring.t;
  backends : (string * Backend.t) list;  (* ring name -> its slot pool *)
  registry : Obs.registry;
  thin_parse : bool;
  counter : int Atomic.t;  (* minted-session-id sequence *)
  pid : int;
  started : float;
  upstream_wait : Obs.histogram;
  request_hist : Obs.histogram;
  c_requests : Obs.counter;
  c_unavailable : Obs.counter;
  c_fanouts : Obs.counter;
  c_minted : Obs.counter;
  c_passthrough : Obs.counter;
}

let create ~socket ~workers ?(slots = 8) ?(max_request = 1024 * 1024) ?pipeline_depth
    ?(thin_parse = true) ?idle_timeout () =
  let registry = Obs.create_registry () in
  {
    conn =
      Ds_serve.Lineserver.create ~socket ~backlog:128 ~name:"router" ~registry ~max_request
        ~pipeline_depth ~idle_timeout;
    ring = Ring.create (List.map fst workers);
    backends =
      List.map (fun (name, sock) -> (name, Backend.create ~slots ~name ~socket:sock ())) workers;
    registry;
    thin_parse;
    counter = Atomic.make 0;
    pid = Unix.getpid ();
    started = Unix.gettimeofday ();
    upstream_wait = Obs.histogram registry "dse_router_upstream_wait_us";
    request_hist = Obs.histogram registry "dse_request_us{op=\"route\"}";
    c_requests = Obs.counter registry "dse_router_requests_total";
    c_unavailable = Obs.counter registry "dse_router_unavailable_total";
    c_fanouts = Obs.counter registry "dse_router_fanouts_total";
    c_minted = Obs.counter registry "dse_router_sessions_minted_total";
    c_passthrough = Obs.counter registry "dse_router_passthrough_total";
  }

let registry t = t.registry

let shutdown t = Ds_serve.Lineserver.stop t.conn
let install_signal_handlers t = Ds_serve.Lineserver.install_signal_handlers t.conn
let connections_served t = Ds_serve.Lineserver.served t.conn

(* ------------------------------------------------------------------ *)
(* Forwarding                                                          *)

let fail code msg = P.print_response (P.Failed (code, msg))

let no_workers_reply = "fleet has no workers"

(* one formatter for both the full-parse and pass-through paths, so a
   thin-routed request fails with byte-identical structure *)
let unavailable t name why =
  Obs.incr t.c_unavailable;
  fail P.Session_unavailable
    (Printf.sprintf
       "worker %s is unavailable (%s); the supervisor is restarting it — retry" name why)

let forward t key line =
  match Ring.route t.ring key with
  | None -> fail P.Server_error no_workers_reply
  | Some name -> (
    let backend = List.assoc name t.backends in
    match Backend.round_trip ~wait_hist:t.upstream_wait backend line with
    | Backend.Reply reply -> reply
    | Backend.Down why -> unavailable t name why)

(* ------------------------------------------------------------------ *)
(* Thin parse: the pass-through hot path.

   Most routed traffic is a session-scoped op whose handling is
   "forward the bytes verbatim to the session's shard" — building a
   full JSON tree just to read two string fields is the router's
   single biggest per-request cost.  [thin_route] scans the raw line
   for the top-level ["op"] and ["session"] string members (depth-1
   brace/bracket tracking, escape-free strings only) and answers
   [Fast session] when the op is one the full dispatch would forward
   verbatim anyway.  Anything unusual — escapes, duplicate keys,
   non-string op/session, trailing garbage, ops with router-side
   semantics (open-mint, branch, trace, fan-outs) — answers [Slow],
   and the full parse takes over.  [Slow] is always correct: the fast
   path is an optimization, never a semantic fork. *)

(* [Fast (session, trace)] carries the parsed trace context (if the
   line had a well-formed ["trace"] member) so the pass-through path
   can open its [router.route] span under the propagated parent while
   still forwarding the raw bytes untouched. *)
type thin = Fast of string * (string * string) option | Slow

(* ops whose full-dispatch handling is exactly [forward t session line] *)
let fast_op = function
  | "set" | "decide" | "default" | "retract" | "annotate" | "candidates" | "ranges"
  | "issues" | "preview" | "script" | "health" | "signature" | "report" | "compact"
  | "close" | "batch" | "open" ->
    (* "open" with an explicit session forwards verbatim too; without
       one it never reaches Fast (no session field -> Slow -> mint) *)
    true
  | _ -> false

exception Bail

let thin_route line =
  let n = String.length line in
  let op = ref None and session = ref None and trace = ref None in
  (* contents + index past the closing quote; Bail on any escape *)
  let read_string i =
    let j = ref (i + 1) in
    let continue = ref true in
    while !continue do
      if !j >= n then raise Bail;
      (match String.unsafe_get line !j with
      | '"' -> continue := false
      | '\\' -> raise Bail
      | _ -> incr j)
    done;
    (String.sub line (i + 1) (!j - i - 1), !j + 1)
  in
  let rec skip_ws i =
    if i < n && (match String.unsafe_get line i with ' ' | '\t' | '\r' -> true | _ -> false)
    then skip_ws (i + 1)
    else i
  in
  try
    let start = skip_ws 0 in
    if start >= n || line.[start] <> '{' then Slow
    else begin
      let depth = ref 1 in
      let i = ref (start + 1) in
      while !depth > 0 do
        if !i >= n then raise Bail;
        match String.unsafe_get line !i with
        | '{' | '[' ->
          incr depth;
          incr i
        | '}' | ']' ->
          decr depth;
          incr i
        | '"' ->
          let s, j = read_string !i in
          let j' = skip_ws j in
          if !depth = 1 && j' < n && line.[j'] = ':' then begin
            let k = skip_ws (j' + 1) in
            if k < n && line.[k] = '"' then begin
              let v, m = read_string k in
              (match s with
              | "op" -> if !op = None then op := Some v else raise Bail
              | "session" -> if !session = None then session := Some v else raise Bail
              | "trace" ->
                (* a duplicate (or, via [read_string], escaped) trace
                   member bails to the full parse — the differential
                   test pins this *)
                if !trace = None then trace := Some v else raise Bail
              | _ -> ());
              i := m
            end
            else begin
              (* non-string value; op/session/trace must be strings *)
              if String.equal s "op" || String.equal s "session" || String.equal s "trace"
              then raise Bail;
              i := k
            end
          end
          else i := j
        | _ -> incr i
      done;
      if skip_ws !i <> n then Slow
      else
        match (!op, !session) with
        | Some op, Some s when fast_op op ->
          (* an ill-formed trace value is ignored, matching the full
             parse ({!Ds_serve.Protocol.trace_member}) exactly *)
          Fast (s, Option.bind !trace Obs.parse_trace)
        | _ -> Slow
    end
  with Bail -> Slow

(* Which single worker must see this request; [None] = not session-
   addressed (fan-out or router-answered). *)
let session_key = function
  | P.Open { session = Some s; _ } -> Some s
  | P.Set { session; _ }
  | P.Default { session; _ }
  | P.Retract { session; _ }
  | P.Annotate { session; _ }
  | P.Candidates { session; _ }
  | P.Ranges { session; _ }
  | P.Issues { session; _ }
  | P.Preview { session; _ }
  | P.Script { session; _ }
  | P.Trace { session; spans = false; _ }
  | P.Health { session }
  | P.Signature { session }
  | P.Report { session; _ }
  | P.Branch { session; _ }
  | P.Compact { session }
  | P.Close { session }
  | P.Batch { session; _ } ->
    Some session
  | P.Open { session = None; _ } | P.Trace { spans = true; _ } | P.Stats | P.Metrics _
  | P.Healthz ->
    None

let mint_id t =
  Obs.incr t.c_minted;
  Printf.sprintf "g%d-%d" t.pid (Atomic.fetch_and_add t.counter 1)

(* A branch journal is created in its parent's journal directory
   ({!Ds_serve.Journal.branch}), so the branched id must hash to the
   parent's worker or no one would ever find it.  Mint candidate ids
   until the ring agrees — expected N tries for N workers. *)
let mint_colocated t ~session =
  match Ring.route t.ring session with
  | None -> None
  | Some target ->
    let base = if String.length session > 48 then String.sub session 0 48 else session in
    let rec go k =
      if k > 4096 then None
      else
        let id =
          Printf.sprintf "%s.b%d-%d" base (Atomic.fetch_and_add t.counter 1) k
        in
        match Ring.route t.ring id with
        | Some w when String.equal w target -> Some id
        | _ -> go (k + 1)
    in
    go 0

(* ------------------------------------------------------------------ *)
(* Fan-out merges                                                      *)

let geti k j = match Option.bind (Jsonx.member k j) Jsonx.to_int with Some v -> v | None -> 0

let getf k j =
  match Jsonx.member k j with
  | Some (Jsonx.Float f) -> f
  | Some (Jsonx.Int i) -> float_of_int i
  | _ -> 0.0

(* Key-wise union of two assoc lists: shared keys merge with [leaf];
   the left side's keys keep their order and the right side's new keys
   follow in theirs. *)
let union leaf a b =
  List.map
    (fun (k, va) -> match List.assoc_opt k b with Some vb -> (k, leaf va vb) | None -> (k, va))
    a
  @ List.filter (fun (k, _) -> not (List.mem_assoc k a)) b

(* Field-wise union of two JSON objects. *)
let merge_obj leaf a b =
  match (a, b) with Jsonx.Obj fa, Jsonx.Obj fb -> Jsonx.Obj (union leaf fa fb) | _ -> a

(* Counters and gauges add; histograms merge bucket-wise (exact: every
   histogram shares the one bound table). *)
let merge_views (a : P.registry_view) (b : P.registry_view) =
  {
    P.counters = union ( + ) a.P.counters b.P.counters;
    gauges = union ( +. ) a.P.gauges b.P.gauges;
    histograms = union Obs.merge_hsnapshots a.P.histograms b.P.histograms;
  }

(* A shard's ["registries"] object, decoded tag by tag. *)
let decode_registries payload =
  match List.assoc_opt "registries" payload with
  | Some (Jsonx.Obj tags) ->
    List.fold_right
      (fun (tag, json) acc ->
        Result.bind acc (fun acc ->
            match P.registry_of_json json with
            | Ok view -> Ok ((tag, view) :: acc)
            | Error msg -> Error (Printf.sprintf "undecodable registry %S: %s" tag msg)))
      tags (Ok [])
  | _ -> Error "metrics reply without a \"registries\" object"

(* {count,mean_us,max_us} — the legacy stats shape; the mean re-weights
   by count so the merge is the figure one big server would report. *)
let merge_stat a b =
  let ca = geti "count" a and cb = geti "count" b in
  let mean =
    if ca + cb = 0 then 0.0
    else
      ((float_of_int ca *. getf "mean_us" a) +. (float_of_int cb *. getf "mean_us" b))
      /. float_of_int (ca + cb)
  in
  Jsonx.Obj
    [
      ("count", Jsonx.Int (ca + cb));
      ("mean_us", Jsonx.Float mean);
      ("max_us", Jsonx.Float (Float.max (getf "max_us" a) (getf "max_us" b)));
    ]

(* Ask every worker, decode, split successes from failures. *)
let fan_out t line =
  Obs.incr t.c_fanouts;
  List.map
    (fun (name, backend) ->
      let r =
        match Backend.round_trip ~wait_hist:t.upstream_wait backend line with
        | Backend.Reply reply -> (
          match P.response_of_string reply with
          | Ok (P.Reply payload) -> Ok payload
          | Ok (P.Failed (code, msg)) ->
            Error (Printf.sprintf "%s: %s" (P.error_code_label code) msg)
          | Error msg -> Error msg)
        | Backend.Down why -> Error (Printf.sprintf "unavailable: %s" why)
      in
      (name, r))
    t.backends

let shards_field results =
  ( "shards",
    Jsonx.Obj
      (List.map
         (fun (name, r) ->
           ( name,
             match r with
             | Ok payload -> Jsonx.Obj payload
             | Error msg -> Jsonx.Obj [ ("error", Jsonx.Str msg) ] ))
         results) )

let merge_metrics ~router results =
  (* a shard whose registries do not decode is reported like one that
     did not answer — never zero-filled into the merge *)
  let decoded =
    List.map
      (fun (name, r) ->
        (name, Result.bind r (fun p -> Result.map (fun regs -> (p, regs)) (decode_registries p))))
      results
  in
  match List.filter_map (fun (_, r) -> Result.to_option r) decoded with
  | [] -> Error "no worker answered metrics"
  | (first, first_regs) :: rest as oks ->
    let get k payload = Jsonx.member k (Jsonx.Obj payload) in
    let uptime =
      List.fold_left (fun acc (p, _) -> Float.max acc (getf "uptime_s" (Jsonx.Obj p))) 0.0 oks
    in
    let sessions = List.fold_left (fun acc (p, _) -> acc + geti "sessions" (Jsonx.Obj p)) 0 oks in
    let registries =
      List.fold_left (fun acc (_, regs) -> union merge_views acc regs) first_regs rest
      |> List.map (fun (tag, view) -> (tag, P.registry_view_to_json view))
    in
    (* The slow log rides the same payload: router-local lines first,
       then each shard's, re-bounded to one ring's worth so a fleet
       answer can't grow with worker count.  Truncated lines count as
       dropped — the reader sees the loss, not a silently shorter log. *)
    let slow_lines_of (p, _) =
      match get "slow" p with
      | Some (Jsonx.List l) ->
        List.filter_map (function Jsonx.Str s -> Some s | _ -> None) l
      | _ -> []
    in
    let router_slow, router_dropped = Obs.slow_read () in
    let slow = router_slow @ List.concat_map slow_lines_of oks in
    let dropped =
      List.fold_left
        (fun acc (p, _) -> acc + geti "slow_dropped" (Jsonx.Obj p))
        router_dropped oks
    in
    let cap = 64 in
    let kept = List.filteri (fun i _ -> i < cap) slow in
    let dropped = dropped + (List.length slow - List.length kept) in
    Ok
      [
        ("uptime_s", Jsonx.Float uptime);
        ("sessions", Jsonx.Int sessions);
        ( "bounds",
          Option.value
            ~default:
              (Jsonx.List (Array.to_list (Array.map (fun b -> Jsonx.Float b) Obs.bucket_bounds)))
            (get "bounds" first) );
        ("workers", Jsonx.Int (List.length results));
        ("registries", Jsonx.Obj (registries @ [ ("router", P.registry_to_json router) ]));
        ("slow", Jsonx.List (List.map (fun l -> Jsonx.Str l) kept));
        ("slow_dropped", Jsonx.Int dropped);
        shards_field (List.map (fun (name, r) -> (name, Result.map fst r)) decoded);
      ]

let merged_metrics t results =
  match merge_metrics ~router:t.registry results with
  | Ok fields -> P.print_response (P.Reply fields)
  | Error msg -> P.print_response (P.Failed (P.Session_unavailable, msg))

let merged_stats results =
  let oks = List.filter_map (fun (_, r) -> Result.to_option r) results in
  match oks with
  | [] -> P.print_response (P.Failed (P.Session_unavailable, "no worker answered stats"))
  | oks ->
    let payloads = List.map (fun p -> Jsonx.Obj p) oks in
    let sum k = List.fold_left (fun acc p -> acc + geti k p) 0 payloads in
    let fmax k = List.fold_left (fun acc p -> Float.max acc (getf k p)) 0.0 payloads in
    let merge_field k leaf =
      List.fold_left
        (fun acc p ->
          match (acc, Jsonx.member k p) with
          | None, v -> v
          | Some a, Some b -> Some (leaf a b)
          | acc, None -> acc)
        None payloads
      |> Option.value ~default:(Jsonx.Obj [])
    in
    P.print_response
      (P.Reply
         [
           ("uptime_s", Jsonx.Float (fmax "uptime_s"));
           ("sessions", Jsonx.Int (sum "sessions"));
           ("capacity", Jsonx.Int (sum "capacity"));
           ("evictions", Jsonx.Int (sum "evictions"));
           ("queue_wait", merge_field "queue_wait" merge_stat);
           ("requests", merge_field "requests" (merge_obj merge_stat));
           ("workers", Jsonx.Int (List.length results));
           shards_field results;
         ])

(* The router's own ring spans ([router.route], backend waits), tagged
   like a shard so the fleet assembler ([dse trace --fleet]) sees the
   router hop in the same stream as worker spans. *)
let own_trace_spans () =
  List.filter_map
    (fun line ->
      match Jsonx.of_string line with
      | Ok (Jsonx.Obj fields) -> Some (Jsonx.Obj (("shard", Jsonx.Str "router") :: fields))
      | _ -> None)
    (Obs.trace_json_lines ())

(* Per-shard span rings do not share a sequence space, so the merged
   [next] cursor is per-shard (under ["shards"]) and the top-level view
   is the union — workers plus the router's own ring — sorted by
   wall-clock start: good enough to retell a cross-shard story, and
   exact within each shard.  Cross-process trees hang together by the
   ["trace"]/["span"]/["parent_span"] attrs, not by local ids. *)
let merged_trace_fields results =
  let oks = List.filter_map (fun (name, r) -> Option.map (fun p -> (name, p)) (Result.to_option r)) results in
  match oks with
  | [] -> Error "no worker answered trace"
  | oks ->
    let spans =
      List.concat_map
        (fun (name, p) ->
          match Option.bind (Jsonx.member "spans" (Jsonx.Obj p)) Jsonx.to_list with
          | Some l ->
            List.map
              (fun s ->
                match s with
                | Jsonx.Obj fields -> Jsonx.Obj (("shard", Jsonx.Str name) :: fields)
                | other -> other)
              l
          | None -> [])
        oks
      @ own_trace_spans ()
    in
    let spans =
      List.sort
        (fun a b -> Float.compare (getf "t0" a) (getf "t0" b))
        spans
    in
    let dropped = List.fold_left (fun acc (_, p) -> acc + geti "dropped" (Jsonx.Obj p)) 0 oks in
    let shards =
      ( "shards",
        Jsonx.Obj
          (List.map
             (fun (name, r) ->
               ( name,
                 match r with
                 | Ok p ->
                   Jsonx.Obj
                     [
                       ("next", Jsonx.Int (geti "next" (Jsonx.Obj p)));
                       ("dropped", Jsonx.Int (geti "dropped" (Jsonx.Obj p)));
                     ]
                 | Error msg -> Jsonx.Obj [ ("error", Jsonx.Str msg) ] ))
             results) )
    in
    Ok
      [
        ("spans", Jsonx.List spans);
        ("dropped", Jsonx.Int dropped);
        ("workers", Jsonx.Int (List.length results));
        shards;
      ]

let merged_trace results =
  match merged_trace_fields results with
  | Error msg -> P.print_response (P.Failed (P.Session_unavailable, msg))
  | Ok fields -> P.print_response (P.Reply fields)

let healthz_fields t =
  let statuses =
    List.map
      (fun (name, backend) ->
        match Backend.probe ~timeout:1.0 backend with
        | Ok _ -> (name, Jsonx.Str "ok")
        | Error msg -> (name, Jsonx.Str (Printf.sprintf "down: %s" msg)))
      t.backends
  in
  let all_ok = List.for_all (fun (_, s) -> match s with Jsonx.Str "ok" -> true | _ -> false) statuses in
  [
    ("status", Jsonx.Str (if all_ok then "ok" else "degraded"));
    ("uptime_s", Jsonx.Float (Unix.gettimeofday () -. t.started));
    ("workers", Jsonx.Obj statuses);
  ]

let healthz_reply t = P.print_response (P.Reply (healthz_fields t))

(* ------------------------------------------------------------------ *)
(* Dispatch                                                            *)

let encode req = Jsonx.to_string (P.json_of_request req)

(* concatenate per-shard expositions under per-shard prefix comments;
   quantiles over merged buckets live in the json form *)
let prometheus_text t line =
  let results = fan_out t line in
  let texts =
    List.filter_map
      (fun (name, r) ->
        match r with
        | Ok payload ->
          Option.map
            (fun text -> Printf.sprintf "# shard %s\n%s" name text)
            (Jsonx.str_member "text" (Jsonx.Obj payload))
        | Error _ -> None)
      results
  in
  let own = Obs.prometheus [ ("router", t.registry) ] in
  String.concat "\n" (texts @ [ "# router"; own ])

let handle_line t line =
  Obs.incr t.c_requests;
  let t0 = Obs.now_us () in
  let parsed = P.parse_request_traced line in
  (* the router hop of the fleet trace: remote-parented under the
     client's propagated context when present, an explicit local root
     otherwise (the router has no enclosing request span) *)
  let sp =
    match parsed with
    | Ok (_, Some (tid, parent_span)) ->
      Obs.span_begin_remote ~trace:tid ~parent_span ~attrs:[ ("path", "full") ] "router.route"
    | _ -> Obs.span_begin ~parent:(-1) ~attrs:[ ("path", "full") ] "router.route"
  in
  let reply =
    Fun.protect
      ~finally:(fun () -> Obs.span_end sp)
      (fun () ->
        match Result.map fst parsed with
        | Error (code, msg) -> fail code msg
        | Ok req -> (
      match session_key req with
      | Some session -> (
        match req with
        | P.Branch { session; as_id = Some id } -> (
          (* an explicit branch target that hashes elsewhere would
             strand the new journal on a worker that will never be
             asked for it — refuse, structured *)
          match (Ring.route t.ring session, Ring.route t.ring id) with
          | Some a, Some b when not (String.equal a b) ->
            fail P.Bad_request
              (Printf.sprintf
                 "branch target %S would live on worker %s while %S lives on %s; omit \
                  \"as\" to let the router pick a colocated id"
                 id b session a)
          | _ -> forward t session line)
        | P.Branch { session; as_id = None } -> (
          match mint_colocated t ~session with
          | None -> fail P.Server_error "cannot mint a colocated branch id"
          | Some id -> forward t session (encode (P.Branch { session; as_id = Some id })))
        | _ -> forward t session line)
      | None -> (
        match req with
        | P.Open { session = None; layer; eol; resume } ->
          let id = mint_id t in
          forward t id (encode (P.Open { session = Some id; layer; eol; resume }))
        | P.Healthz -> healthz_reply t
        | P.Stats -> merged_stats (fan_out t line)
        | P.Metrics { format = Some "prometheus" } ->
          P.print_response
            (P.Reply
               [
                 ("format", Jsonx.Str "prometheus");
                 ("text", Jsonx.Str (prometheus_text t line));
               ])
        | P.Metrics _ -> merged_metrics t (fan_out t line)
        | P.Trace { spans = true; _ } -> merged_trace (fan_out t line)
        | _ -> fail P.Server_error "unroutable request")))
  in
  Obs.observe t.request_hist (Obs.now_us () -. t0);
  reply

(* ------------------------------------------------------------------ *)
(* The HTTP observability plane (DESIGN.md 18): the same three views
   the line protocol serves, shaped for curl and scrapers.  Mounted by
   [dse fleet serve] via {!Ds_serve.Httpd.start_from_env}. *)

let http_routes t path =
  match path with
  | "/metrics" ->
    Some
      (Ds_serve.Httpd.ok
         ~content_type:"text/plain; version=0.0.4; charset=utf-8"
         (prometheus_text t (encode (P.Metrics { format = Some "prometheus" })) ^ "\n"))
  | "/healthz" ->
    (* orchestration probes key on the status code, not the body: a
       degraded fleet (any worker down/wedged) answers 503 *)
    let fields = healthz_fields t in
    let all_ok =
      match List.assoc_opt "status" fields with Some (Jsonx.Str "ok") -> true | _ -> false
    in
    Some
      {
        Ds_serve.Httpd.status = (if all_ok then 200 else 503);
        content_type = "application/json";
        body = Jsonx.to_string (Jsonx.Obj fields) ^ "\n";
      }
  | "/tracez" ->
    let line = encode (P.Trace { session = ""; spans = true; since = None; max_spans = None }) in
    let body =
      match merged_trace_fields (fan_out t line) with
      | Ok fields -> Jsonx.to_string (Jsonx.Obj fields)
      | Error msg -> Jsonx.to_string (Jsonx.Obj [ ("error", Jsonx.Str msg) ])
    in
    Some (Ds_serve.Httpd.ok ~content_type:"application/json" (body ^ "\n"))
  | _ -> None

(* ------------------------------------------------------------------ *)
(* The connection handler                                              *)

(* One drained group, in arrival order.  Thin-routed lines bound for
   the same shard ride a single [Backend.round_trip_many] — one slot,
   one upstream flush — so a deep client pipeline costs one syscall
   round per shard per drain instead of one per request. *)
let handle_group t out lines =
  let lines = Array.of_list lines in
  let n = Array.length lines in
  let replies = Array.make n "" in
  (* per-line [router.route] spans for trace-carrying thin-routed
     lines: remote roots, so several may be open on this thread at
     once (the stack tolerates out-of-LIFO closes) *)
  let spans = Array.make n None in
  (* [handle_line] times the full-parse path itself; thin-routed lines
     are timed here, over the whole drained group *)
  let thin_timed = Array.make n false in
  let t0 = Obs.now_us () in
  (* per-shard coalescing buckets, each kept in arrival order *)
  let buckets : (string, (int * string) list ref) Hashtbl.t = Hashtbl.create 4 in
  let bucket_order = ref [] in
  Array.iteri
    (fun idx line ->
      match if t.thin_parse then thin_route line else Slow with
      | Slow -> replies.(idx) <- handle_line t line
      | Fast (session, ctx) -> (
        Obs.incr t.c_requests;
        Obs.incr t.c_passthrough;
        thin_timed.(idx) <- true;
        match Ring.route t.ring session with
        | None -> replies.(idx) <- fail P.Server_error no_workers_reply
        | Some name ->
          (match ctx with
          | Some (tid, parent_span) ->
            (* detached: the hop span only brackets the forward —
               nothing ever nests under it on this thread *)
            spans.(idx) <-
              Some
                (Obs.span_begin_remote ~trace:tid ~parent_span ~detached:true
                   ~attrs:[ ("path", "thin"); ("shard", name) ] "router.route")
            (* obs-lint: closed unconditionally in the reply loop
               below; a detached span sits on no stack, so even an
               abandoned one cannot corrupt parentage *)
          | None -> ());
          (match Hashtbl.find_opt buckets name with
          | Some cell -> cell := (idx, line) :: !cell
          | None ->
            Hashtbl.add buckets name (ref [ (idx, line) ]);
            bucket_order := name :: !bucket_order)))
    lines;
  List.iter
    (fun name ->
      let entries = List.rev !(Hashtbl.find buckets name) in
      let backend = List.assoc name t.backends in
      let outcomes =
        Backend.round_trip_many ~wait_hist:t.upstream_wait backend (List.map snd entries)
      in
      List.iter2
        (fun (idx, _) outcome ->
          replies.(idx) <-
            (match outcome with
            | Backend.Reply reply -> reply
            | Backend.Down why -> unavailable t name why))
        entries outcomes)
    (List.rev !bucket_order);
  let dt = Obs.now_us () -. t0 in
  Array.iteri
    (fun idx reply ->
      (match spans.(idx) with Some sp -> Obs.span_end sp | None -> ());
      if thin_timed.(idx) then Obs.observe t.request_hist dt;
      Buffer.add_string out reply;
      Buffer.add_char out '\n')
    replies

let serve t =
  (* a worker SIGKILLed mid-forward must surface as EPIPE on the
     upstream write (-> Down -> session_unavailable), not kill the
     router process *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  (* thread per connection: the router's work per request is a parse
     and two line copies, so connections are I/O-bound and hundreds of
     systhreads overlap fine.  Nothing keeps the thread handle: the
     engine drains on its connection table instead *)
  Ds_serve.Lineserver.run t.conn ~spawn:(fun fd ->
      ignore (Thread.create (Ds_serve.Lineserver.serve_connection t.conn (handle_group t)) fd));
  List.iter (fun (_, b) -> Backend.close b) t.backends
