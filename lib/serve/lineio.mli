(** Bounded line reading over a raw [Unix] descriptor.

    The server's original reader was built on [In_channel], which can
    only block forever: a leaked client pins a worker and an fd until
    the process dies.  This reader works on the descriptor directly so
    an idle timeout can be pushed down to the kernel ([SO_RCVTIMEO]) —
    a read that times out surfaces as {!Idle} instead of wedging the
    worker.  Both the single-process server and the fleet router read
    requests through it, inside {!Lineserver.serve_connection}.  It
    never calls [select], so descriptors above [FD_SETSIZE] work. *)

type t

val create : ?idle_timeout:float -> Unix.file_descr -> t
(** Wrap [fd].  With [idle_timeout] (seconds, > 0) the descriptor's
    receive timeout is set once, so every subsequent blocking read
    gives up after that long with {!Idle}.  Without it reads block
    indefinitely, as before. *)

type result =
  | Line of string  (** one request line, newline stripped *)
  | Overflow  (** the line exceeded [limit]; its bytes were drained *)
  | Eof  (** peer closed (a final unterminated line is returned as {!Line} first) *)
  | Idle  (** no byte arrived within [idle_timeout] *)

val read_line : limit:int -> t -> result
(** Next line from the stream.  A line longer than [limit] bytes is
    discarded through its terminating newline and reported as
    {!Overflow} — the connection stays usable, matching the server's
    historical [request_too_large] behaviour. *)

val read_line_ready : limit:int -> t -> result option
(** Like {!read_line} but never waits: consumes only bytes already
    buffered or returned by a non-blocking read (the descriptor is put
    in non-blocking mode around that one [read]), answering [None] the
    moment more would require blocking.  The pipelined connection loop
    drains a client's burst with this — one blocking read for the
    first line, ready-reads for the rest of the flush. *)

val flush_buffer : Unix.file_descr -> Buffer.t -> unit
(** Write the buffer's whole contents to [fd] (looping over short
    writes) and clear it — the coalesced "one flush per drain" write
    every pipelined peer uses.  Raises [Unix.Unix_error] on a dead
    peer. *)
