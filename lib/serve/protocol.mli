(** The exploration-service wire protocol.

    Line-delimited JSON: every request is one JSON object on one line,
    every reply one JSON object on one line, strictly one reply per
    request, in order.  The same requests drive the networked server,
    the local [dse shell], and the session journal — there is exactly
    one grammar for "things a designer can ask the design space layer".

    {2 Request grammar}

    Every request object carries an ["op"] field; session-scoped ops
    carry ["session"].  See DESIGN.md section 11 for the full field
    tables.  The ops:

    - [open]: instantiate a layer (["layer"], optional ["eol"],
      optional ["session"] to pick the id, ["resume":true] to rebuild
      the session from its journal);
    - [set] / [decide]: bind a requirement or decide an issue
      (["name"], ["value"]) — [decide] is an alias kept so transcripts
      read like the paper's dialogue;
    - [default]: bind a property to its declared default (["name"]);
    - [retract]: undo a designer binding (["name"]);
    - [annotate]: append a note to the trail (["text"]);
    - [candidates], [ranges] (optional ["merits"] array), [issues],
      [script], [trace], [health], [signature]: read-only queries;
    - [preview]: per-option what-if (["issue"], optional ["merit"]);
    - [report]: render the markdown exploration report (optional
      ["title"]);
    - [branch]: fork the session into a new id (optional ["as"]) —
      O(1), sessions are immutable values;
    - [compact]: snapshot the session and truncate its journal tail,
      so the next resume replays checkpoint + tail instead of full
      history; the reply carries ["entries"] (total journalled
      mutations) and ["base"] (how many of them the snapshot subsumes);
    - [close]: drop the session from the resident store (its journal —
      and snapshot, if compacted — stay on disk, so a later touch
      rehydrates it);
    - [stats]: server-wide request counters and latency figures
      (legacy shape, kept for existing tooling — the registry-backed
      [metrics] op is the superset);
    - [metrics]: the telemetry registries (optional ["format"]:
      ["json"] (default) or ["prometheus"]) — every counter, gauge and
      latency histogram with raw bucket counts, so clients compute
      windowed rates and quantiles by differencing snapshots;
    - [trace] with ["spans":true]: one page of the server's span ring
      buffer (optional ["since"] cursor and ["max"] page size); the
      reply carries ["next"] — the cursor for the following page — and
      ["dropped"], how many spans of the requested range the bounded
      ring had already evicted.  Without ["spans"] it remains the
      rendered per-session text trace;
    - [batch]: an ordered array of sub-requests (["reqs"]) against one
      session (["session"]) — session-scoped mutations and reads only.
      A sub-request may omit its own ["session"] (inherited from the
      envelope); an explicit one must match.  The worker executes the
      array under a single session-slot acquisition and a single
      journal group-commit; the reply carries ["results"], an ordered
      array of full per-sub-request response objects.  The first
      {e mutation} failure aborts the remaining sub-requests and the
      reply adds ["batch_aborted_at"], the index of the failed
      sub-request (entries after it are not executed and not present in
      ["results"]).  Failing {e reads} never abort the batch.
      Journalled batch entries are the individual mutation records —
      replay is byte-identical to the equivalent sequential op
      sequence.

    {2 Reply grammar}

    [{"ok":true, ...payload}] or
    [{"ok":false,"error":{"code":C,"message":M}}] with [C] one of
    [parse_error], [bad_request], [unknown_op], [unknown_layer],
    [unknown_session], [session_exists], [rejected] (the layer refused
    a binding: constraint violation, unknown property, ...),
    [journal_error], [request_too_large] (the request line exceeded
    the server's bound; the connection stays open),
    [response_too_large] (client-side: a reply line exceeded the
    client's symmetric read bound), [shutting_down], [server_error]. *)

type request =
  | Open of { session : string option; layer : string; eol : int option; resume : bool }
  | Set of { session : string; name : string; value : Ds_layer.Value.t; decide : bool }
      (** [decide] records which verb the client used; semantics are
          identical ({!Ds_layer.Session.set} handles both). *)
  | Default of { session : string; name : string }
  | Retract of { session : string; name : string }
  | Annotate of { session : string; text : string }
  | Candidates of { session : string; max : int option }
      (** [max] caps how many survivor ids the reply ships (the exact
          ["count"] is always included) — at fleet scale a poll wants
          "how many are left, show me a few", not a 100KB id dump. *)
  | Ranges of { session : string; merits : string list option }
  | Issues of { session : string }
  | Preview of { session : string; issue : string; merit : string option }
  | Script of { session : string }
  | Trace of { session : string; spans : bool; since : int option; max_spans : int option }
      (** [spans = false]: the rendered text trace of [session].
          [spans = true]: a page of the global span ring ([session]
          may be [""] — spans are filtered client-side by their
          [session] attribute). *)
  | Health of { session : string }
  | Signature of { session : string }
  | Report of { session : string; title : string option }
  | Branch of { session : string; as_id : string option }
  | Compact of { session : string }
  | Close of { session : string }
  | Stats
  | Metrics of { format : string option }
  | Healthz
      (** Liveness ping — no session, no store access: the fleet
          supervisor uses it to health-check workers, and the router
          answers it itself with per-worker status. *)
  | Batch of { session : string; reqs : request list }
      (** Ordered sub-requests against one session, executed under a
          single slot-lock hold with one journal group-commit.  Every
          [reqs] element satisfies {!batchable} and targets [session]
          (the decoder enforces both). *)

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
      (** Minted by the {e client} when a reply line exceeds its read
          bound (the symmetric twin of [request_too_large]); the
          oversized line is drained, so the connection stays ordered
          and usable.  Deterministic — never retried. *)
  | Shutting_down
  | Session_unavailable
      (** The worker owning this session is down or restarting; the
          request was not applied (or its reply was lost).  Retry after
          a backoff — the supervisor restarts the worker and journal
          resume rebuilds the session. *)
  | Server_error

type response = Reply of (string * Jsonx.t) list | Failed of error_code * string

val error_code_label : error_code -> string

val error_code_of_label : string -> error_code option

val retryable : error_code -> bool
(** [true] for the codes a client should re-send after ([Shutting_down],
    [Session_unavailable]): the failure is about server availability,
    not about the request, and the request is safe to repeat. *)

val batchable : request -> bool
(** Whether a request may appear inside a {!Batch}: the session-scoped
    mutations and reads.  Lifecycle, server-global and nested-batch ops
    are refused. *)

val request_session : request -> string option
(** The session a request targets, when it is session-scoped.  [Open]
    yields its optional explicit id; [Trace {spans = true}] with the
    empty session, [Stats], [Metrics] and [Healthz] yield [None]. *)

val batch_of_requests : request list -> (request, string) result
(** Assemble already-parsed requests into a {!Batch} against their
    common session, with the same validation the wire decoder applies
    — the [dse client --batch] path. *)

val request_of_json : Jsonx.t -> (request, string) result
val json_of_request : request -> Jsonx.t
(** Total inverses: [request_of_json (json_of_request r) = Ok r] up to
    field order — the journal depends on this round-trip. *)

val parse_request : string -> (request, error_code * string) result
(** One wire line -> request ([Parse_error] or [Bad_request]/
    [Unknown_op] on failure). *)

val parse_request_traced :
  string -> (request * (string * string) option, error_code * string) result
(** {!parse_request} plus the request's propagated trace context, when
    the line carries a well-formed top-level ["trace"] member
    ([(trace_id, parent_span_id)] as split by
    {!Ds_obs.Obs.parse_trace}).  A malformed context is silently
    [None]: tracing can never fail a request. *)

val trace_member : Jsonx.t -> (string * string) option
(** The validated ["trace"] member of a request object, if any.  The
    context is a side channel, not a request field: {!json_of_request}
    (the journal's storage form) never emits it, and
    {!request_of_json} ignores it — journals stay byte-stable and
    trace-free. *)

val attach_trace : trace:string -> Jsonx.t -> Jsonx.t
(** Append a ["trace"] member to an encoded request object (no-op if
    one is already present, or on non-objects) — the client-side mint
    hook. *)

val print_response : response -> string
(** One reply -> one wire line (no trailing newline). *)

val print_response_into : Buffer.t -> response -> unit
(** {!print_response} into a caller-owned (reusable) buffer — the
    pipelined server's coalescing write path. *)

val json_of_response : response -> Jsonx.t
(** The reply object itself (including the ["ok"] header) — batch
    replies embed one per sub-request under ["results"]. *)

val response_of_string : string -> (response, string) result
(** Client-side decoding of a reply line. *)

val response_of_json : Jsonx.t -> (response, string) result
(** {!response_of_string} after the JSON parse — decodes the embedded
    per-sub-request objects of a batch reply. *)

val ok_payload : response -> ((string * Jsonx.t) list, string) result
(** Collapse a reply into its payload, or a ["code: message"] error —
    the shape client code almost always wants. *)

val json_of_value : Ds_layer.Value.t -> Jsonx.t

val value_of_json : Jsonx.t -> (Ds_layer.Value.t, string) result
(** JSON integral numbers become [Value.Int], other numbers
    [Value.Real], strings [Str], booleans [Flag] — the same coercions
    the CLI applies to NAME=VALUE text (and {!Ds_layer.Domain.contains}
    widens [Int] where a real is expected). *)

(** {2 Metrics registries}

    The one JSON codec for a telemetry registry, as the [metrics] op
    ships it under ["registries"]: [{"counters":{..},"gauges":{..},
    "histograms":{name:{"count","sum","min","max","buckets"}}}]. *)

(** A registry's contents as plain values — what the decoder returns
    and what the fleet router merges. *)
type registry_view = {
  counters : (string * int) list;
  gauges : (string * float) list;
  histograms : (string * Ds_obs.Obs.hsnapshot) list;
}

val registry_to_json : Ds_obs.Obs.registry -> Jsonx.t
(** Non-finite values (an empty histogram's min/max, a non-finite
    gauge) are written as [0.0]: JSON has no infinities. *)

val registry_view_to_json : registry_view -> Jsonx.t
(** {!registry_to_json} of an already-snapshotted view. *)

val registry_of_json : Jsonx.t -> (registry_view, string) result
(** The inverse of {!registry_to_json}, fields in wire order.  A
    zero-count histogram gets back [min = infinity] and
    [max = neg_infinity] (the {!Ds_obs.Obs.empty_hsnapshot} extremes the
    encoder flattened).  Fails on a missing section, a non-integer
    counter or bucket, or a bucket array whose length is not
    [Array.length Ds_obs.Obs.bucket_bounds + 1]. *)
