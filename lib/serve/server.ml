module Obs = Ds_obs.Obs

type t = {
  service : Service.t;
  socket : string;
  listen_fd : Unix.file_descr;
  pool : int;
  max_request : int;
  queue : (Unix.file_descr * float) option Queue.t;
      (* (connection, accept timestamp) — the wait from accept to a
         worker picking it up is the server-side queueing delay
         reported under [stats].  None = worker stop sentinel. *)
  lock : Mutex.t;
  nonempty : Condition.t;
  stop : bool Atomic.t;
  active : (Unix.file_descr, unit) Hashtbl.t;  (* connections being served *)
  mutable served : int;
  idle_timeout : float option;
      (* close connections idle longer than this (seconds); None = keep
         the historical block-forever behaviour *)
  pipeline_depth : int;
      (* per-connection decode-ahead bound: how many requests the
         reader thread may hold undispatched *)
  idle_reaped : Obs.counter;
}

(* DSE_IDLE_TIMEOUT: seconds of client silence before the server closes
   the connection (default off) — leaked clients must not pin fleet
   router/worker fds forever. *)
let env_idle_timeout () =
  match Sys.getenv_opt "DSE_IDLE_TIMEOUT" with
  | Some s -> (
    match float_of_string_opt (String.trim s) with
    | Some f when f > 0.0 -> Some f
    | _ -> None)
  | None -> None

(* DSE_PIPELINE_DEPTH: how many requests one connection may have in
   flight (decoded ahead of dispatch) before the reader stops reading.
   An explicit depth wins over the environment; either is clamped to
   1..1024, and the default is 16.  Depth 1 is the historical strict
   request/reply lockstep. *)
let pipeline_depth explicit =
  let depth =
    match explicit with
    | Some _ -> explicit
    | None ->
      Option.bind (Sys.getenv_opt "DSE_PIPELINE_DEPTH") (fun s -> int_of_string_opt (String.trim s))
  in
  Stdlib.min 1024 (Stdlib.max 1 (Option.value depth ~default:16))

let create ~socket ?(pool = 8) ?(max_request = 1024 * 1024) ?pipeline_depth:depth
    ?idle_timeout service =
  (* replace a stale socket file from a previous (crashed) server *)
  (try Unix.unlink socket with Unix.Unix_error _ -> ());
  let listen_fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind listen_fd (Unix.ADDR_UNIX socket);
  Unix.listen listen_fd 64;
  let idle_timeout =
    match idle_timeout with Some _ as t -> t | None -> env_idle_timeout ()
  in
  {
    service;
    socket;
    listen_fd;
    pool = Stdlib.max 1 pool;
    max_request = Stdlib.max 1024 max_request;
    queue = Queue.create ();
    lock = Mutex.create ();
    nonempty = Condition.create ();
    stop = Atomic.make false;
    active = Hashtbl.create 16;
    served = 0;
    idle_timeout;
    pipeline_depth = pipeline_depth depth;
    idle_reaped = Obs.counter (Service.registry service) "dse_serve_idle_reaped_total";
  }

(* Callable from a signal handler: must not take locks (the signalled
   thread may already hold them).  [serve]'s accept loop polls the flag
   and performs the actual teardown. *)
let shutdown t = Atomic.set t.stop true

let install_signal_handlers t =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let stop_on _ = shutdown t in
  Sys.set_signal Sys.sigterm (Sys.Signal_handle stop_on);
  Sys.set_signal Sys.sigint (Sys.Signal_handle stop_on)

let connections_served t =
  Mutex.lock t.lock;
  let n = t.served in
  Mutex.unlock t.lock;
  n

let try_close fd = try Unix.close fd with Unix.Unix_error _ -> ()

(* One connection, pipelined: a reader systhread decodes request lines
   ahead of dispatch into a bounded queue (at most [pipeline_depth]
   undispatched), while the owning worker pops, handles, and appends
   each reply to a per-connection coalescing buffer.  The buffer is
   flushed exactly when the queue runs momentarily dry — so a client
   sending one request at a time gets one write per reply (the
   historical behaviour), while a pipelining client gets its whole
   burst answered in a single flush.  Replies are appended in pop
   order, which is read order: FIFO holds by construction.

   The whole accept→dispatch→reply life of the connection is one
   [server.connection] span; the per-request [op.*] spans
   {!Service.handle} opens nest under it (same worker domain/thread). *)
let serve_connection t ~queue_wait_us fd =
  let sp =
    Obs.span_begin "server.connection"
      ~attrs:[ ("queue_wait_us", Printf.sprintf "%.1f" queue_wait_us) ]
  in
  let requests = ref 0 in
  Fun.protect
    ~finally:(fun () -> Obs.span_end sp ~attrs:[ ("requests", string_of_int !requests) ])
    (fun () ->
      let reader = Lineio.create ?idle_timeout:t.idle_timeout fd in
      let out = Buffer.create 4096 in
      let qlock = Mutex.create () in
      let qcond = Condition.create () in
      (* each queued line carries its decode timestamp: the time from
         here to the worker's pop is the request's pipelined queue
         wait, attributed as the op span's [queue_us] phase *)
      let q : (Lineio.result * float) Queue.t = Queue.create () in
      let reader_done = ref false in
      let closing = ref false in
      let push item =
        Mutex.lock qlock;
        while Queue.length q >= t.pipeline_depth && not !closing do
          Condition.wait qcond qlock
        done;
        if not !closing then Queue.push (item, Unix.gettimeofday ()) q;
        Condition.broadcast qcond;
        Mutex.unlock qlock
      in
      let reader_thread =
        Thread.create
          (fun () ->
            let continue = ref true in
            while !continue do
              let item =
                try Lineio.read_line ~limit:t.max_request reader
                with End_of_file | Sys_error _ | Unix.Unix_error _ -> Lineio.Eof
              in
              (match item with Lineio.Eof | Lineio.Idle -> continue := false | _ -> ());
              push item;
              if !closing then continue := false
            done;
            Mutex.lock qlock;
            reader_done := true;
            Condition.broadcast qcond;
            Mutex.unlock qlock)
          ()
      in
      let flush_out () = if Buffer.length out > 0 then Lineio.flush_buffer fd out in
      let pop () =
        Mutex.lock qlock;
        if Queue.is_empty q && not !reader_done then begin
          (* the queue ran dry: everything answered so far must reach
             the client before we block for more input *)
          Mutex.unlock qlock;
          flush_out ();
          Mutex.lock qlock
        end;
        while Queue.is_empty q && not !reader_done do
          Condition.wait qcond qlock
        done;
        let item = if Queue.is_empty q then None else Some (Queue.pop q) in
        Condition.broadcast qcond;
        Mutex.unlock qlock;
        item
      in
      (try
         let rec loop () =
           match pop () with
           | None | Some (Lineio.Eof, _) -> ()
           | Some (Lineio.Idle, _) ->
             (* reap: the client has been silent past DSE_IDLE_TIMEOUT;
                dropping the connection frees the fd and the worker (a
                live client reconnects transparently) *)
             Obs.incr t.idle_reaped
           | Some (Lineio.Overflow, _) ->
             incr requests;
             Protocol.print_response_into out
               (Protocol.Failed
                  ( Protocol.Request_too_large,
                    Printf.sprintf "request line exceeds %d bytes" t.max_request ));
             Buffer.add_char out '\n';
             if not (Atomic.get t.stop) then loop ()
           | Some (Lineio.Line line, pushed_at) ->
             let line = String.trim line in
             if not (String.equal line "") then begin
               incr requests;
               if Atomic.get t.stop then
                 Protocol.print_response_into out
                   (Protocol.Failed (Protocol.Shutting_down, "server is shutting down"))
               else begin
                 let queue_us = (Unix.gettimeofday () -. pushed_at) *. 1.0e6 in
                 Service.handle_line_into ~queue_us t.service out line
               end;
               Buffer.add_char out '\n'
             end;
             if not (Atomic.get t.stop) then loop ()
         in
         loop ();
         flush_out ()
       with End_of_file | Sys_error _ | Unix.Unix_error _ -> ());
      (* retire the reader before closing the fd: wake it whether it is
         blocked on the socket (SHUTDOWN_RECEIVE -> Eof) or on a full
         queue ([closing] broadcast) *)
      Mutex.lock qlock;
      closing := true;
      Condition.broadcast qcond;
      Mutex.unlock qlock;
      (try Unix.shutdown fd Unix.SHUTDOWN_RECEIVE with Unix.Unix_error _ -> ());
      (try Thread.join reader_thread with _ -> ());
      Mutex.lock t.lock;
      Hashtbl.remove t.active fd;
      t.served <- t.served + 1;
      (* close while holding the lock: teardown shuts down in-flight fds
         under the same lock, so it can never race this close and hit a
         descriptor number the kernel has already recycled *)
      try_close fd;
      Mutex.unlock t.lock)

let worker t () =
  let rec loop () =
    Mutex.lock t.lock;
    while Queue.is_empty t.queue do
      Condition.wait t.nonempty t.lock
    done;
    let job = Queue.pop t.queue in
    Mutex.unlock t.lock;
    match job with
    | None -> ()
    | Some (fd, accepted) ->
      let queue_wait_us = (Unix.gettimeofday () -. accepted) *. 1.0e6 in
      Service.record_queue_wait t.service queue_wait_us;
      serve_connection t ~queue_wait_us fd;
      loop ()
  in
  loop ()

let push t job =
  Mutex.lock t.lock;
  Queue.push job t.queue;
  (match job with
  | Some (fd, _) -> Hashtbl.replace t.active fd ()
  | None -> ());
  Condition.signal t.nonempty;
  Mutex.unlock t.lock

type worker_handle = W_domain of unit Stdlib.Domain.t | W_thread of Thread.t

let join_worker = function
  | W_domain d -> Stdlib.Domain.join d
  | W_thread th -> Thread.join th

let serve t =
  (* Workers up to the core count are domains: request handling
     (candidate sweeps, report rendering) is compute, {!Service.handle}
     no longer serializes requests, and separate domains execute them
     in parallel.  Workers beyond the core count are systhreads of the
     main domain: they still overlap blocking I/O (the runtime lock
     drops during reads) but add no domains — every domain beyond the
     core count joins each GC's stop-the-world handshake from a
     timeshared CPU, which costs more than the parallelism it could
     ever add.  (On a single-core host this makes all workers
     systhreads, which is optimal there.) *)
  let max_domains = Stdlib.Domain.recommended_domain_count () - 1 in
  let workers =
    List.init t.pool (fun i ->
        if i < max_domains then W_domain (Stdlib.Domain.spawn (worker t))
        else W_thread (Thread.create (worker t) ()))
  in
  (* accept loop: select with a timeout so the stop flag (set by
     [shutdown] or a signal handler) is noticed promptly *)
  let rec accept_loop () =
    if Atomic.get t.stop then ()
    else begin
      (match Unix.select [ t.listen_fd ] [] [] 0.2 with
      | [ _ ], _, _ -> (
        match Unix.accept ~cloexec:true t.listen_fd with
        | fd, _ -> push t (Some (fd, Unix.gettimeofday ()))
        | exception Unix.Unix_error ((Unix.EINTR | Unix.EAGAIN), _, _) -> ())
      | _ -> ()
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
      accept_loop ()
    end
  in
  accept_loop ();
  (* graceful teardown: stop accepting, wake every worker, unblock the
     ones parked on an idle connection's read, join, clean up the file *)
  try_close t.listen_fd;
  List.iter (fun _ -> push t None) workers;
  Mutex.lock t.lock;
  Hashtbl.iter
    (fun fd () -> try Unix.shutdown fd Unix.SHUTDOWN_RECEIVE with Unix.Unix_error _ -> ())
    t.active;
  Mutex.unlock t.lock;
  List.iter join_worker workers;
  try Unix.unlink t.socket with Unix.Unix_error _ -> ()
