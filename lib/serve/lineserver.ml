module Obs = Ds_obs.Obs

(* DSE_IDLE_TIMEOUT: seconds of client silence before a connection is
   closed (default off) — leaked clients must not pin fleet router or
   worker fds forever. *)
let env_idle_timeout () =
  match Sys.getenv_opt "DSE_IDLE_TIMEOUT" with
  | Some s -> (
    match float_of_string_opt (String.trim s) with
    | Some f when f > 0.0 -> Some f
    | _ -> None)
  | None -> None

(* DSE_PIPELINE_DEPTH: how many already-arrived request lines one
   connection answers together.  An explicit depth wins over the
   environment; either is clamped to 1..1024, and the default is 16.
   Depth 1 is the historical strict request/reply lockstep. *)
let pipeline_depth explicit =
  let depth =
    match explicit with
    | Some _ -> explicit
    | None ->
      Option.bind (Sys.getenv_opt "DSE_PIPELINE_DEPTH") (fun s -> int_of_string_opt (String.trim s))
  in
  Stdlib.min 1024 (Stdlib.max 1 (Option.value depth ~default:16))

let try_close fd = try Unix.close fd with Unix.Unix_error _ -> ()

let listen ~backlog addr =
  (* replace a stale socket file from a previous (crashed) process *)
  (match addr with
  | Unix.ADDR_UNIX path -> ( try Unix.unlink path with Unix.Unix_error _ -> ())
  | Unix.ADDR_INET _ -> ());
  let fd = Unix.socket ~cloexec:true (Unix.domain_of_sockaddr addr) Unix.SOCK_STREAM 0 in
  try
    (match addr with
    | Unix.ADDR_INET _ -> Unix.setsockopt fd Unix.SO_REUSEADDR true
    | Unix.ADDR_UNIX _ -> ());
    Unix.bind fd addr;
    Unix.listen fd backlog;
    fd
  with e ->
    try_close fd;
    raise e

(* How long one blocked [accept] waits before the stop flag is looked
   at again, and how long the loop sleeps after a failed accept (fd
   exhaustion) before trying again. *)
let accept_timeout = 0.2
let accept_backoff = 0.05

let accept_loop ~stop ~errors fd spawn =
  (* kernel-side accept timeout: no select, so no FD_SETSIZE ceiling.
     TCP children inherit the listener's receive timeout; clear it so
     only the caller decides how long a connection may stay silent. *)
  Unix.setsockopt_float fd Unix.SO_RCVTIMEO accept_timeout;
  let inherits = match Unix.getsockname fd with Unix.ADDR_UNIX _ -> false | _ -> true in
  let failed () =
    Obs.incr errors;
    Unix.sleepf accept_backoff
  in
  while not (Atomic.get stop) do
    match Unix.accept ~cloexec:true fd with
    | cfd, _ -> (
      try
        if inherits then Unix.setsockopt_float cfd Unix.SO_RCVTIMEO 0.0;
        spawn cfd
      with _ ->
        try_close cfd;
        failed ())
    | exception
        Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR | Unix.ECONNABORTED), _, _) ->
      ()
    | exception Unix.Unix_error ((Unix.EBADF | Unix.EINVAL | Unix.ENOTSOCK), _, _) ->
      (* the listener itself is gone *)
      Atomic.set stop true
    | exception Unix.Unix_error _ ->
      (* EMFILE, ENFILE, ENOBUFS, ENOMEM: the pending connection stays
         in the backlog until an fd frees up *)
      failed ()
  done

type t = {
  socket : string;
  listen_fd : Unix.file_descr;
  name : string;
  max_request : int;
  depth : int;
  idle_timeout : float option;
  stop : bool Atomic.t;
  lock : Mutex.t;
  active : (Unix.file_descr, unit) Hashtbl.t;  (* connections accepted, not yet closed *)
  drained : Condition.t;  (* signalled whenever a connection leaves [active] *)
  mutable served : int;
  accept_errors : Obs.counter;
  idle_reaped : Obs.counter;
}

let create ~socket ~backlog ~name ~registry ~max_request ~pipeline_depth:depth ~idle_timeout =
  let listen_fd = listen ~backlog (Unix.ADDR_UNIX socket) in
  {
    socket;
    listen_fd;
    name;
    max_request = Stdlib.max 1024 max_request;
    depth = pipeline_depth depth;
    idle_timeout = (match idle_timeout with Some _ -> idle_timeout | None -> env_idle_timeout ());
    stop = Atomic.make false;
    lock = Mutex.create ();
    active = Hashtbl.create 64;
    drained = Condition.create ();
    served = 0;
    accept_errors = Obs.counter registry "dse_accept_errors_total";
    idle_reaped = Obs.counter registry "dse_serve_idle_reaped_total";
  }

(* Callable from a signal handler: must not take locks (the signalled
   thread may already hold them).  The accept loop polls the flag and
   performs the actual teardown. *)
let stop t = Atomic.set t.stop true
let stopping t = Atomic.get t.stop

let install_signal_handlers t =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let stop_on _ = stop t in
  Sys.set_signal Sys.sigterm (Sys.Signal_handle stop_on);
  Sys.set_signal Sys.sigint (Sys.Signal_handle stop_on)

let with_lock t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let served t = with_lock t (fun () -> t.served)

(* close while holding the lock: the drain shuts down in-flight fds
   under the same lock, so it can never race this close and hit a
   descriptor number the kernel has already recycled *)
let retire t fd =
  with_lock t (fun () ->
      Hashtbl.remove t.active fd;
      t.served <- t.served + 1;
      try_close fd;
      Condition.broadcast t.drained)

let run t ~spawn =
  accept_loop ~stop:t.stop ~errors:t.accept_errors t.listen_fd (fun fd ->
      with_lock t (fun () -> Hashtbl.replace t.active fd ());
      try spawn fd
      with e ->
        (* [accept_loop] closes the fd; only the table entry is ours *)
        with_lock t (fun () -> Hashtbl.remove t.active fd);
        raise e);
  try_close t.listen_fd;
  with_lock t (fun () ->
      Hashtbl.iter
        (fun fd () -> try Unix.shutdown fd Unix.SHUTDOWN_RECEIVE with Unix.Unix_error _ -> ())
        t.active;
      while Hashtbl.length t.active > 0 do
        Condition.wait t.drained t.lock
      done);
  try Unix.unlink t.socket with Unix.Unix_error _ -> ()

(* Answer one drained group, oldest first.  Blank lines get no reply;
   an overlong line and every line read after the stop flag get a
   structured error in place; each run of ordinary lines between them
   goes to [handler] in one call. *)
let answer t handler out group =
  let stopping = stopping t in
  let dispatch run = if run <> [] then handler out (List.rev run) in
  let fail code msg =
    Protocol.print_response_into out (Protocol.Failed (code, msg));
    Buffer.add_char out '\n'
  in
  dispatch
    (List.fold_left
       (fun run item ->
         match item with
         | Lineio.Line raw ->
           let line = String.trim raw in
           if String.equal line "" then run
           else if stopping then begin
             fail Protocol.Shutting_down (t.name ^ " is shutting down");
             run
           end
           else line :: run
         | _ (* Overflow: a group holds nothing else *) ->
           dispatch run;
           fail Protocol.Request_too_large
             (Printf.sprintf "request line exceeds %d bytes" t.max_request);
           [])
       [] group)

let serve_connection t handler fd =
  Fun.protect ~finally:(fun () -> retire t fd) @@ fun () ->
  let reader = Lineio.create ?idle_timeout:t.idle_timeout fd in
  let out = Buffer.create 4096 in
  (* after the first line, take only what has already arrived, up to
     the depth; [eof] = the peer closed behind the group *)
  let rec drain acc n =
    if n >= t.depth then (acc, false)
    else
      match Lineio.read_line_ready ~limit:t.max_request reader with
      | None | Some Lineio.Idle -> (acc, false)
      | Some Lineio.Eof -> (acc, true)
      | Some item -> drain (item :: acc) (n + 1)
  in
  let rec loop () =
    match Lineio.read_line ~limit:t.max_request reader with
    | Lineio.Eof -> ()
    | Lineio.Idle ->
      (* the client has been silent past the idle timeout; dropping the
         connection frees the fd (a live client reconnects) *)
      Obs.incr t.idle_reaped
    | first ->
      let group, eof = drain [ first ] 1 in
      answer t handler out (List.rev group);
      Lineio.flush_buffer fd out;
      if not (eof || stopping t) then loop ()
  in
  try loop () with End_of_file | Sys_error _ | Unix.Unix_error _ -> ()
