(** The fleet's front door: one socket, N shards behind it.

    The router accepts client connections (thread per connection — it
    only shuffles lines, so hundreds of mostly-idle connections cost
    file descriptors, not CPU), reads each request line, extracts the
    session id, and forwards the line verbatim to the worker the
    {!Ring} assigns that id — over the worker's {!Backend} slot pool.
    Replies stream back on the same connection, one line per line.

    What the router owns (vs. what workers own):

    - {b placement}: session id -> worker is pure ring arithmetic; the
      router never stores a session and has no state to lose — restart
      it freely;
    - {b id generation}: an [open] without a session id gets one minted
      here (workers can't mint — they don't know the ring); a [branch]
      without ["as"] gets a {e colocated} id, one that hashes to the
      same worker as its parent, because a branch journal lives in the
      parent's journal directory.  An explicit cross-shard ["as"] is
      refused with [bad_request] rather than stranding a journal where
      its worker would never look;
    - {b fan-out}: [stats], [metrics] and [trace spans] go to every
      worker and merge — counters and session counts sum, histograms
      merge bucket-wise ({!Ds_obs.Obs.merge_hsnapshots}' invariant:
      every histogram shares one bound table), uptime is the oldest
      worker's, and the unmerged per-shard payloads ride along under
      ["shards"].  [healthz] is answered by the router itself with a
      live probe of every worker;
    - {b failure translation}: a dead backend (crashed worker, mid-
      flight connection loss) answers [session_unavailable] — a
      structured, retryable error — while the supervisor restarts the
      shard.  Workers own everything else: stores, journals, layers,
      per-request semantics.

    The hot path is {e pass-through}: a thin parse scans the raw line
    for the top-level ["op"]/["session"] string fields and, when the op
    is one the full dispatch would forward verbatim anyway, skips the
    JSON tree entirely — the bytes go to the shard untouched.  Anything
    unusual (escapes, missing fields, ops with router-side semantics)
    falls back to the full parse, so the fast path is an optimization,
    never a semantic fork ([dse_router_passthrough_total] counts the
    hits).  Each connection runs the server's pipelined loop
    ({!Ds_serve.Lineserver.serve_connection}): after blocking for the
    first request line the router takes whatever else has arrived (up
    to the pipeline depth), coalesces same-shard forwards into one
    upstream flush ({!Backend.round_trip_many}), and writes every reply
    — in arrival order — through a single downstream flush.  The
    accept loop is the server's too: no [select], so connections on
    fds past 1023 are served, and fd exhaustion is counted
    ([dse_accept_errors_total]) and backed off rather than fatal.

    The router records its own registry (request latency, upstream
    slot wait, unavailable counts) and injects it into merged [metrics]
    replies as the ["router"] registry. *)

type t

val create :
  socket:string ->
  workers:(string * string) list ->
  ?slots:int ->
  ?max_request:int ->
  ?pipeline_depth:int ->
  ?thin_parse:bool ->
  ?idle_timeout:float ->
  unit ->
  t
(** [workers]: (ring name, socket path) per shard.  [slots] (default
    8) bounds in-flight requests per worker.  [max_request] and
    [idle_timeout] mirror {!Ds_serve.Server.create} (the idle default
    also honours [DSE_IDLE_TIMEOUT]).  [pipeline_depth] (default 16,
    clamped to 1..1024, env [DSE_PIPELINE_DEPTH]) bounds how many
    already-arrived request lines one drain answers together;
    [thin_parse] (default [true]) enables the pass-through fast path —
    the differential test turns it off to compare both paths.
    @raise Unix.Unix_error when [socket] cannot be bound (the
    listening socket is closed first). *)

val handle_line : t -> string -> string
(** Route one request line to one reply line — the testable core (and
    the full-parse slow path); [serve] wraps it in the pipelined
    per-connection loop.

    Trace propagation (DESIGN.md 18): a top-level ["trace"] member
    rides the forwarded bytes verbatim on both paths; the router opens
    a [router.route] span under the propagated context (remote-parented
    via {!Ds_obs.Obs.span_begin_remote}, head-sampled) so the fleet
    trace shows the router hop.  The thin parse bails to the full parse
    on an escaped or duplicated ["trace"] member — never a semantic
    fork. *)

val merge_metrics :
  router:Ds_obs.Obs.registry ->
  (string * ((string * Ds_serve.Jsonx.t) list, string) result) list ->
  ((string * Ds_serve.Jsonx.t) list, string) result
(** The fleet [metrics] reply payload from per-shard results (ring name,
    the shard's reply payload or why it did not answer).  Each shard's
    ["registries"] decode through {!Ds_serve.Protocol.registry_of_json}
    and merge per tag: counters and gauges add, histograms merge with
    {!Ds_obs.Obs.merge_hsnapshots}; [router] is appended as the
    ["router"] registry.  A shard whose registries do not decode is
    listed under ["shards"] with an ["error"], exactly like a shard
    that did not answer, and contributes nothing else.  [Error] when no
    shard contributed. *)

val http_routes : t -> string -> Ds_serve.Httpd.reply option
(** The router's HTTP observability plane: [/metrics] (concatenated
    per-shard Prometheus expositions plus the router's own),
    [/healthz] (the live worker probe roll-up, JSON), [/tracez] (the
    merged fleet span stream, JSON).  Mount with
    {!Ds_serve.Httpd.start_from_env}. *)

val registry : t -> Ds_obs.Obs.registry

val serve : t -> unit
(** Accept until {!shutdown}; then stops reading on every open
    connection, waits until each has written its in-flight replies and
    closed, closes backends and unlinks the socket. *)

val shutdown : t -> unit
(** Idempotent, signal-handler safe. *)

val install_signal_handlers : t -> unit

val connections_served : t -> int
