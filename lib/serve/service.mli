(** The protocol handler: one value that turns {!Protocol.request}s
    into {!Protocol.response}s over a {!Store} of sessions.

    This is the single code path behind every front end — the
    Unix-socket {!Server}, the interactive [dse shell], and the bench
    harness all drive the same [handle] function, so a behaviour
    observed over the wire is the behaviour of the local shell and vice
    versa.

    {2 Concurrency}

    [handle] is safe to call from any number of domains at once; there
    is no global lock.  Read-only requests ([candidates], [ranges],
    [issues], [preview], [script], [trace], [health], [signature],
    [report], [stats]) take no exclusive lock at all — sessions are
    immutable values and the lineage caches ({!Ds_layer.Compliance},
    {!Ds_layer.Guard}) are internally synchronized.  Mutations ([set],
    [decide], [default], [retract], [annotate]) serialize {e per
    session id} via the store's slot locks; session creation ([open],
    [branch]) serializes on a single admission lock (creation is rare
    and must be atomic against duplicate ids).  Parsed layers are
    cached per (layer, eol): after the first open, opening a session
    costs a {!Ds_layer.Session.pristine} copy, not a re-parse.
    Per-op latency lives in a per-instance {!Ds_obs.Obs} registry
    (domain-striped histograms, [dse_request_us{op="..."}]); every
    [handle] also opens an [op.<name>] telemetry span.  See DESIGN.md
    sections 12 (locks) and 13 (observability).

    {2 Journaling}

    With a [journal_dir], every accepted mutating request ([open],
    [set]/[decide], [default], [retract], [annotate], [branch]) is
    appended to the session's {!Journal} before the reply is produced.
    [open] with ["resume":true] rebuilds the session by replaying its
    journal into a fresh instance of the layer, verifying the candidate
    signature recorded with every entry — the crash-recovery path.

    With [journal_sync], the fsync that makes an acknowledged mutation
    durable is group-committed ({!Journal.sync_to}) and taken after the
    session's slot lock is released: the reply still waits for
    durability, but concurrent mutations share disk flushes.

    A failed journal {e append} fails the request with the session
    unchanged.  A failed {e fsync} cannot: the mutation is already
    committed and visible, so the service evicts the session and the
    [journal_error] reply directs the client to re-open with resume —
    replay of what actually reached disk — rather than acknowledge
    state of unknown durability or invite a double-applying retry. *)

type config = {
  layers : (string * (eol:int -> Ds_layer.Session.t)) list;
      (** layer name -> session factory (see {!Ds_domains.Catalog}) *)
  journal_dir : string option;  (** [None] disables journaling *)
  journal_sync : bool;  (** fsync every append (default false) *)
  default_eol : int;  (** when [open] gives no ["eol"] *)
  default_merits : string list;  (** for [ranges]/[preview]/[report] without merits *)
  report_pareto : (string * string) option;  (** Pareto axes of [report] *)
  capacity : int;  (** LRU bound of the session table *)
  compact_after : int option;
      (** auto-compact a session's journal once its tail exceeds this
          many entries ([None] = only the explicit [compact] op and
          eviction compact) *)
}

val config :
  ?journal_dir:string ->
  ?journal_sync:bool ->
  ?default_eol:int ->
  ?default_merits:string list ->
  ?report_pareto:string * string ->
  ?capacity:int ->
  ?compact_after:int ->
  layers:(string * (eol:int -> Ds_layer.Session.t)) list ->
  unit ->
  config
(** Defaults: no journaling, no fsync, eol 768, no merits, no Pareto,
    capacity 64, no auto-compaction threshold. *)

type t

val create : config -> t

val handle :
  ?trace:string * string -> ?queue_us:float -> t -> Protocol.request -> Protocol.response
(** Dispatch one request.  Never raises: layer rejections come back as
    [rejected] replies, unexpected exceptions as [server_error].
    Safe to call concurrently from multiple domains.

    [trace] is the request's propagated [(trace_id, parent_span_id)]
    context (DESIGN.md 18): the [op.<name>] span becomes a
    remote-parented root ({!Ds_obs.Obs.span_begin_remote}), subject to
    head sampling.  [queue_us] is the accept-to-dispatch wait the
    transport measured; both it and the per-phase latency breakdown
    (slot lock, layer sweep, journal append, group-commit fsync, reply
    flush) are recorded as span attrs, and a request slower than
    [DSE_SLOW_MS] logs its span tree to the bounded slow log. *)

val registry : t -> Ds_obs.Obs.registry
(** The service's metrics registry ([dse_request_us{op="..."}]
    histograms and [dse_queue_wait_us]); the [metrics] protocol op
    exports it together with the engine's {!Ds_obs.Obs.default}. *)

val record_queue_wait : t -> float -> unit
(** Record one request's accept-to-dispatch wait (µs) in the
    [dse_queue_wait_us] histogram (surfaced by [stats] as [queue_wait]
    — the deprecation shim keeps the old spelling) — called by
    {!Server} when a worker dequeues a connection. *)

val handle_line : t -> string -> string
(** Wire-format convenience: parse one request line, dispatch, print
    the reply line (without trailing newline).  Never raises. *)

val handle_line_into : ?queue_us:float -> t -> Buffer.t -> string -> unit
(** {!handle_line} printed into a caller-owned buffer — the pipelined
    server appends each reply to its per-connection coalescing buffer
    without an intermediate string.  Extracts the line's ["trace"]
    member (if any) and times the reply print as the request's flush
    phase; [queue_us] is the line's wait behind the earlier lines of
    the group the server drained with it (see {!Server}). *)

val session_count : t -> int

(** What a resume did: the reconstructed session, where it came from
    ([r_from_snapshot] — the checkpoint fast path; [r_fallback] — a
    snapshot existed but full history was replayed instead), and how
    much work it was ([r_replayed] total entries applied, of which
    [r_tail_replayed] came from the journal tail — the figure the
    compaction acceptance bound is asserted against). *)
type resume_info = {
  r_session : Ds_layer.Session.t;
  r_layer : string;
  r_eol : int;
  r_replayed : int;
  r_tail_replayed : int;
  r_from_snapshot : bool;
  r_fallback : bool;
}

val resume :
  ?prefer_snapshot:bool ->
  layers:(string * (eol:int -> Ds_layer.Session.t)) list ->
  dir:string ->
  id:string ->
  unit ->
  (resume_info, string) result
(** The bare replay engine behind [open --resume], usable without a
    service: load journal (and snapshot), instantiate the layer,
    re-apply and verify each recorded candidate signature.

    Recovery matrix: with a usable snapshot, replay is checkpoint
    script + tail; a snapshot that fails its checksum or replay falls
    back to full history while the journal still holds it (header base
    0), and is a hard error once the history has been truncated — a
    lineage that cannot be reconstructed fails loudly, never silently
    differently.  [prefer_snapshot:false] (the soak oracle) ignores the
    snapshot whenever full history is available. *)
