(** The connection engine behind [dse serve] and the fleet router: the
    one place that sets up a listening socket, accepts, tracks live
    connections, drains them at shutdown and runs the pipelined
    per-connection loop.  The HTTP plane reuses {!listen} and
    {!accept_loop}.

    Nothing here calls [select]: the accept loop blocks in [accept]
    under a kernel receive timeout ([SO_RCVTIMEO], 0.2 s) so a stop
    request is still noticed promptly, and the pipelined loop probes
    for already-arrived lines with a non-blocking read.  Descriptors
    above [FD_SETSIZE] (1024) are therefore served like any other.

    Running out of descriptors is survivable: a failed [accept]
    ([EMFILE], [ENFILE], ...) is counted under
    [dse_accept_errors_total] and retried after a fixed 50 ms backoff;
    the pending connection waits in the listen backlog meanwhile. *)

val env_idle_timeout : unit -> float option
(** [DSE_IDLE_TIMEOUT] as a positive number of seconds; [None] when it
    is unset, unparseable or not positive. *)

val pipeline_depth : int option -> int
(** The per-connection pipeline depth: the explicit value, else
    [DSE_PIPELINE_DEPTH], else 16 — clamped to 1..1024 (unparseable
    environment values fall back to 16). *)

val listen : backlog:int -> Unix.sockaddr -> Unix.file_descr
(** A close-on-exec listening stream socket bound to the address.  A
    stale Unix socket file is unlinked first; a TCP listener gets
    [SO_REUSEADDR].  If [bind] or [listen] fails the socket is closed
    before the exception propagates.
    @raise Unix.Unix_error when the address cannot be bound. *)

val accept_loop :
  stop:bool Atomic.t ->
  errors:Ds_obs.Obs.counter ->
  Unix.file_descr ->
  (Unix.file_descr -> unit) ->
  unit
(** Accept on the listener until [stop] is set (seen within 0.2 s),
    handing each close-on-exec connection to the callback, which owns
    it from then on.  Accept failures other than a timeout or a
    signal count in [errors] and back off; a callback that raises has
    its connection closed and counts the same way.  A listener that
    is closed underneath the loop sets [stop]. *)

type t
(** A listening Unix socket, its stop flag and its table of live
    connections. *)

val create :
  socket:string ->
  backlog:int ->
  name:string ->
  registry:Ds_obs.Obs.registry ->
  max_request:int ->
  pipeline_depth:int option ->
  idle_timeout:float option ->
  t
(** {!listen} on [socket].  [name] ("server", "router") is spelled in
    the [shutting_down] error.  [max_request] (at least 1 KiB) bounds a
    request line; [pipeline_depth] and [idle_timeout] resolve through
    {!pipeline_depth} and {!env_idle_timeout}.  [dse_accept_errors_total]
    and [dse_serve_idle_reaped_total] are counted in [registry].
    @raise Unix.Unix_error when the socket cannot be bound. *)

val run : t -> spawn:(Unix.file_descr -> unit) -> unit
(** The accept loop: each accepted connection is entered in the live
    table and handed to [spawn], which must eventually run
    {!serve_connection} on it (on a thread, a pool worker...).  After
    {!stop}: closes the listener, half-closes every live connection
    ([SHUTDOWN_RECEIVE], so each answers what it has read and then
    sees EOF), waits until the table is empty and unlinks the socket
    file. *)

val serve_connection : t -> (Buffer.t -> string list -> unit) -> Unix.file_descr -> unit
(** The pipelined per-connection loop.  Block for one request line,
    then take up to the pipeline depth of lines that have already
    arrived, and pass them, oldest first, to the handler, which
    appends exactly one newline-terminated reply per line to the
    buffer; the buffer then goes out in one write.  Blank lines get no
    reply.  An overlong line is answered [request_too_large] and a
    line read after {!stop} is answered [shutting_down], in place, so
    replies always leave in request order.  Ends at EOF, at the idle
    timeout (counted under [dse_serve_idle_reaped_total]), on a
    transport error or after {!stop}; then the connection leaves the
    table, counts as served and is closed. *)

val stop : t -> unit
(** Idempotent, callable from any thread or from a signal handler. *)

val install_signal_handlers : t -> unit
(** SIGTERM and SIGINT -> {!stop}; SIGPIPE -> ignored (a client
    hanging up mid-reply must not kill the process). *)

val served : t -> int
(** Connections closed so far. *)
