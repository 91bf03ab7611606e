module Obs = Ds_obs.Obs

type t = {
  service : Service.t;
  conn : Lineserver.t;
  pool : int;
  queue : (Unix.file_descr * float) option Queue.t;
      (* (connection, accept timestamp) — the wait from accept to a
         worker picking it up is the server-side queueing delay
         reported under [stats].  None = worker stop sentinel. *)
  lock : Mutex.t;
  nonempty : Condition.t;
}

let create ~socket ?(pool = 8) ?(max_request = 1024 * 1024) ?pipeline_depth ?idle_timeout service =
  {
    service;
    conn =
      Lineserver.create ~socket ~backlog:64 ~name:"server" ~registry:(Service.registry service)
        ~max_request ~pipeline_depth ~idle_timeout;
    pool = Stdlib.max 1 pool;
    queue = Queue.create ();
    lock = Mutex.create ();
    nonempty = Condition.create ();
  }

let shutdown t = Lineserver.stop t.conn
let install_signal_handlers t = Lineserver.install_signal_handlers t.conn
let connections_served t = Lineserver.served t.conn

(* One connection, on the worker that popped it.  Each drained group
   is dispatched in read order, each reply appended to the group's
   buffer: FIFO holds by construction.  A request's [queue_us] phase
   is its wait behind the earlier requests of its group.

   The whole accept→dispatch→reply life of the connection is one
   [server.connection] span; the per-request [op.*] spans
   {!Service.handle} opens nest under it (same worker domain/thread). *)
let serve_connection t ~queue_wait_us fd =
  let requests = ref 0 in
  let handle out lines =
    let t0 = Unix.gettimeofday () in
    List.iter
      (fun line ->
        incr requests;
        let queue_us = (Unix.gettimeofday () -. t0) *. 1.0e6 in
        Service.handle_line_into ~queue_us t.service out line;
        Buffer.add_char out '\n')
      lines
  in
  let sp =
    Obs.span_begin "server.connection"
      ~attrs:[ ("queue_wait_us", Printf.sprintf "%.1f" queue_wait_us) ]
  in
  Fun.protect
    ~finally:(fun () -> Obs.span_end sp ~attrs:[ ("requests", string_of_int !requests) ])
    (fun () -> Lineserver.serve_connection t.conn handle fd)

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
  (* returns once every accepted connection, queued ones included, has
     been served to EOF and closed; then the idle workers can go *)
  Lineserver.run t.conn ~spawn:(fun fd -> push t (Some (fd, Unix.gettimeofday ())));
  List.iter (fun _ -> push t None) workers;
  List.iter join_worker workers
