(** The HTTP observability plane (DESIGN.md 18): a dependency-free
    HTTP/1.1 GET listener that serves the telemetry the line protocol
    already exports — [/metrics] (Prometheus text), [/healthz]
    (service/fleet roll-up JSON), [/tracez] (recent sampled traces,
    JSON) — to curl, scrapers, and browsers.

    Deliberately minimal: GET only, one response per connection
    ([Connection: close]), no TLS, no keep-alive.  It is a loopback
    diagnostics port, off by default; [dse serve] and the fleet router
    mount it when [DSE_METRICS_ADDR] is set.  Workers never mount it —
    they inherit the router's environment, and N workers racing to bind
    one port is exactly the failure this avoids. *)

type reply = { status : int; content_type : string; body : string }

val ok : ?content_type:string -> string -> reply
(** A 200 reply; [content_type] defaults to
    [text/plain; charset=utf-8]. *)

type t

val parse_addr : string -> (string * int) option
(** ["host:port"], [":port"], or bare ["port"] — a missing host means
    loopback.  [None] on an unparseable port. *)

val addr_of_env : unit -> (string * int) option
(** The [DSE_METRICS_ADDR] endpoint, if set and parseable. *)

val start :
  addr:string * int ->
  routes:(string -> reply option) ->
  unit ->
  (t, string) result
(** Bind and start the accept loop ({!Lineserver.accept_loop}; failed
    accepts count in the global registry's [dse_accept_errors_total])
    on a daemon thread.  [routes] maps a
    request path (query string stripped) to a reply; [None] is a 404.
    Port 0 binds an ephemeral port — read it back with {!port} (how the
    tests avoid fixed-port collisions).  [Error] describes a failed
    bind; the caller decides whether that is fatal. *)

val start_from_env : routes:(string -> reply option) -> unit -> t option
(** {!start} at the [DSE_METRICS_ADDR] endpoint; [None] when the
    variable is unset.  A bind failure is reported on stderr and
    returns [None] — a diagnostics port must never take the service
    down with it. *)

val port : t -> int
(** The bound TCP port (the actual one, after ephemeral resolution). *)

val stop : t -> unit
(** Stop accepting, join the accept thread, close the listener.
    In-flight responses on handler threads finish on their own. *)
