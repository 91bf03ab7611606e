(** The Unix-domain-socket front end of the exploration service.

    Connection model: the {!Lineserver} accept loop enqueues
    connections; a bounded pool of {e worker domains} serves them, one
    connection per worker at a time (connection-per-worker over a
    bounded pool).  A connection is a sequence of request lines, each
    answered with exactly one reply line.  {!Service.handle} is safe
    for concurrent domains and serializes only per session id, so
    workers execute requests — including the compute-heavy candidate
    sweeps — in parallel, and a slow or stalled client only occupies
    its worker.  The wait from accept to worker pickup is recorded as
    the server-side queueing delay ([queue_wait] under [stats]).

    Each connection is {e pipelined} by {!Lineserver.serve_connection}:
    the worker blocks for one request line, takes up to the pipeline
    depth of lines that have already arrived, dispatches them in order
    and answers the whole group with one coalesced write — a client
    keeping N requests in flight gets its burst answered together,
    while a strict request/reply client keeps the historical
    one-write-per-reply behaviour.  Replies always leave in request
    order (FIFO).  No connection gets a thread of its own.

    Shutdown is graceful: {!shutdown} (typically called from a SIGTERM
    handler — see {!install_signal_handlers}) stops accepting, wakes
    the workers, lets in-flight requests finish, closes the
    connections, joins the pool and unlinks the socket file.  Journals
    are flushed per request, so even a SIGKILL loses at most the reply
    in flight — never an acknowledged mutation. *)

type t

val create :
  socket:string ->
  ?pool:int ->
  ?max_request:int ->
  ?pipeline_depth:int ->
  ?idle_timeout:float ->
  Service.t ->
  t
(** Bind and listen on [socket] (an existing stale socket file is
    replaced).  [pool] (default 8, minimum 1) is the worker domain
    count.  [max_request] (default 1 MiB, minimum 1 KiB) bounds the
    request line a connection may send: past it the rest of the line is
    drained and answered with a structured [request_too_large] error,
    the connection staying alive — a malformed client cannot grow an
    unbounded server-side buffer.  [pipeline_depth] (default 16,
    clamped to 1..1024; env [DSE_PIPELINE_DEPTH]) bounds how many
    already-arrived requests one connection answers together — depth
    1 restores strict request/reply lockstep.  [idle_timeout]
    (seconds; default:
    the [DSE_IDLE_TIMEOUT] environment variable, else off) closes
    connections that send nothing for that long, counting each under
    [dse_serve_idle_reaped_total] in the service registry — leaked
    clients cannot pin worker fds.  Failed accepts (fd exhaustion)
    count under [dse_accept_errors_total] in the same registry and
    never stop the server.
    @raise Unix.Unix_error when the socket cannot be bound (the
    listening socket is closed first). *)

val serve : t -> unit
(** Run until {!shutdown}; joins all workers before returning. *)

val shutdown : t -> unit
(** Idempotent, callable from any thread or from a signal handler. *)

val install_signal_handlers : t -> unit
(** SIGTERM and SIGINT -> {!shutdown}; SIGPIPE -> ignored (a client
    hanging up mid-reply must not kill the server). *)

val connections_served : t -> int
