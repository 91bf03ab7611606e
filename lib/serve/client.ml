(* One connection: a bounded line reader over the raw fd (the
   symmetric twin of the server's [max_request] bound — a misbehaving
   peer cannot feed the client an unbounded reply line) and a reusable
   output buffer so pipelined sends coalesce into one write. *)
type t = { fd : Unix.file_descr; reader : Lineio.t; out : Buffer.t; max_response : int }

(* Replies are legitimately bigger than requests (candidate pages,
   rendered reports, merged fleet metrics), so the symmetric bound
   defaults wider than the server's 1 MiB request bound. *)
let default_max_response = 8 * 1024 * 1024

let connect ?(max_response = default_max_response) ~socket () =
  match
    let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    try
      Unix.connect fd (Unix.ADDR_UNIX socket);
      Ok fd
    with e ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      raise e
  with
  | Ok fd ->
    Ok
      {
        fd;
        reader = Lineio.create fd;
        out = Buffer.create 256;
        max_response = Stdlib.max 1024 max_response;
      }
  | Error _ as e -> e
  | exception Unix.Unix_error (err, _, _) ->
    Error (Printf.sprintf "cannot connect to %s: %s" socket (Unix.error_message err))

(* Deterministic jitter: the fractional part of (i+1) * the golden
   ratio is a low-discrepancy sequence in [0, 1) — successive attempts
   get well-spread factors without any random state, so the schedule is
   reproducible (unit-testable) yet two clients started together do not
   re-collide on every attempt the way a bare exponential would. *)
let fd t = t.fd

let jitter i =
  let x = float_of_int (i + 1) *. 0.6180339887498949 in
  x -. floor x

let backoff_schedule ?(base = 0.02) ?(cap = 0.5) ~attempts () =
  List.init (Stdlib.max 0 attempts) (fun i ->
      let d = base *. (2.0 ** float_of_int i) *. (0.75 +. (0.5 *. jitter i)) in
      Float.min cap d)

let deadline_prefix = "deadline_exceeded: "

let deadline_exceeded msg =
  let n = String.length deadline_prefix in
  String.length msg >= n && String.equal (String.sub msg 0 n) deadline_prefix

let too_large_prefix = "response_too_large: "

let response_too_large msg =
  let n = String.length too_large_prefix in
  String.length msg >= n && String.equal (String.sub msg 0 n) too_large_prefix

let connect_retry ?(attempts = 50) ?(base = 0.02) ?(cap = 0.5) ?deadline ?max_response
    ~socket () =
  let t0 = Unix.gettimeofday () in
  let budget_left () =
    match deadline with
    | None -> infinity
    | Some d -> d -. (Unix.gettimeofday () -. t0)
  in
  let give_up last_err =
    Error
      (Printf.sprintf "%stotal retry budget of %.3fs exhausted (%s)" deadline_prefix
         (Option.value ~default:0.0 deadline) last_err)
  in
  let rec go = function
    | [] -> (
      match connect ?max_response ~socket () with
      | Ok _ as ok -> ok
      | Error msg when budget_left () < 0.0 -> give_up msg
      | Error _ as e -> e)
    | delay :: rest -> (
      match connect ?max_response ~socket () with
      | Ok _ as ok -> ok
      | Error msg ->
        (* the deadline is a total wall budget: never sleep past it,
           and fail with a distinct, recognizable error — a dead server
           should fail fast, not burn the whole exponential schedule *)
        let left = budget_left () in
        if left <= 0.0 then give_up msg
        else begin
          Thread.delay (Float.min delay left);
          go rest
        end)
  in
  (* the schedule has attempts-1 gaps: no sleep after the last probe *)
  go (backoff_schedule ~base ~cap ~attempts:(Stdlib.max 1 attempts - 1) ())

(* One bounded reply line.  An oversized line is drained through its
   newline by the reader, so the connection stays ordered and usable —
   the error is deterministic and final, never a reason to resend. *)
let read_reply t =
  match Lineio.read_line ~limit:t.max_response t.reader with
  | Lineio.Line reply -> Ok reply
  | Lineio.Overflow ->
    Error (Printf.sprintf "%sreply line exceeds %d bytes" too_large_prefix t.max_response)
  | Lineio.Eof -> Error "connection closed by server"
  | Lineio.Idle -> Error "timed out waiting for a reply"

let send_lines t lines =
  Buffer.clear t.out;
  List.iter
    (fun line ->
      Buffer.add_string t.out line;
      Buffer.add_char t.out '\n')
    lines;
  Lineio.flush_buffer t.fd t.out

let send_request_line t line =
  try
    send_lines t [ line ];
    read_reply t
  with
  | Sys_error msg -> Error msg
  | Unix.Unix_error (err, _, _) -> Error (Unix.error_message err)

(* Splice a minted trace context into a raw request line that lacks
   one (telemetry on only).  Textual splice, not re-encode: the
   caller's bytes survive verbatim as a prefix, so raw-line callers
   ([dse client], the differential tests) stay byte-stable modulo the
   appended member.  Lines that are not single JSON objects pass
   through untouched — the server will reject them itself. *)
let trace_line line =
  if not (Ds_obs.Obs.enabled ()) then line
  else
    match Ds_obs.Obs.mint_trace_sampled () with
    | None -> line
    | Some trace -> (
      let s = String.trim line in
      let n = String.length s in
      if n >= 2 && s.[0] = '{' && s.[n - 1] = '}' then
        match Jsonx.of_string s with
        | Ok (Jsonx.Obj fields) when not (List.mem_assoc "trace" fields) ->
          Printf.sprintf "%s%s\"trace\":\"%s\"}"
            (String.sub s 0 (n - 1))
            (if fields = [] then "" else ",")
            trace
        | _ -> line
      else line)

let request_line t line = send_request_line t (trace_line line)

(* N requests in flight on one connection: one coalesced write (a
   single flush carries every line), then the N replies in request
   order — the FIFO guarantee the server's pipelined reader preserves.
   A [response_too_large] entry is {e answered} (its bytes were
   drained), so reading continues; a transport failure at reply [k]
   marks [k..] failed and stops. *)
let pipeline t lines =
  let n = List.length lines in
  match
    try
      send_lines t lines;
      Ok ()
    with
    | Sys_error msg -> Error msg
    | Unix.Unix_error (err, _, _) -> Error (Unix.error_message err)
  with
  | Error msg -> List.init n (fun _ -> Error msg)
  | Ok () ->
    let rec read acc k =
      if k >= n then List.rev acc
      else
        match try read_reply t with
          | Sys_error msg -> Error msg
          | Unix.Unix_error (err, _, _) -> Error (Unix.error_message err)
        with
        | Ok _ as ok -> read (ok :: acc) (k + 1)
        | Error msg when response_too_large msg -> read (Error msg :: acc) (k + 1)
        | Error msg ->
          (* transport loss: every later reply is gone too *)
          List.rev_append acc (List.init (n - k) (fun _ -> Error msg))
    in
    read [] 0

(* Every sampled request leaves the client with a trace context
   (minted here when the caller did not supply a line of its own): the
   id seeds the fleet-wide span tree, and downstream hops re-derive
   the same head-sampling decision from it.  The decision itself is
   taken at mint time ({!Ds_obs.Obs.mint_trace_sampled}) — telemetry
   off or an unsampled id sends exactly the pre-trace encoding, so
   below-rate requests cost the fleet nothing. *)
let encode_traced req =
  let json = Protocol.json_of_request req in
  match Ds_obs.Obs.mint_trace_sampled () with
  | Some trace -> Jsonx.to_string (Protocol.attach_trace ~trace json)
  | None -> Jsonx.to_string json

let request t req =
  match send_request_line t (encode_traced req) with
  | Ok reply -> Protocol.response_of_string reply
  | Error msg when response_too_large msg -> Ok (Protocol.Failed (Protocol.Response_too_large, msg))
  | Error _ as e -> e

let close t = try Unix.close t.fd with Unix.Unix_error _ -> ()

let with_client ~socket f =
  match connect ~socket () with
  | Error _ as e -> e
  | Ok t ->
    let result = try Ok (f t) with e -> Error (Printexc.to_string e) in
    close t;
    result

(* ------------------------------------------------------------------ *)
(* Durable client                                                      *)

module Durable = struct
  type stats = { mutable requests : int; mutable reconnects : int; mutable retried : int }

  type nonrec t = {
    socket : string;
    attempts : int;
    base : float;
    cap : float;
    deadline : float option;
    max_response : int option;
    mutable conn : t option;
    mutable ever_connected : bool;
    st : stats;
  }

  let create ?(attempts = 50) ?(base = 0.02) ?(cap = 0.5) ?deadline ?max_response ~socket () =
    {
      socket;
      attempts;
      base;
      cap;
      deadline;
      max_response;
      conn = None;
      ever_connected = false;
      st = { requests = 0; reconnects = 0; retried = 0 };
    }

  let drop d =
    match d.conn with
    | Some c ->
      close c;
      d.conn <- None
    | None -> ()

  let ensure_conn ?deadline d =
    match d.conn with
    | Some c -> Ok c
    | None -> (
      match
        connect_retry ~attempts:d.attempts ~base:d.base ~cap:d.cap ?deadline
          ?max_response:d.max_response ~socket:d.socket ()
      with
      | Ok c ->
        if d.ever_connected then d.st.reconnects <- d.st.reconnects + 1;
        d.ever_connected <- true;
        d.conn <- Some c;
        Ok c
      | Error _ as e -> e)

  let exhausted = deadline_prefix ^ "request retry budget exhausted"

  (* One request over the persistent connection.  A transport failure
     (EPIPE, ECONNRESET, reply stream closed — the shapes a worker
     restart produces) drops the connection and re-sends the line on a
     fresh one, sleeping the jittered exponential schedule between
     tries, all under the one [deadline] wall budget.  The protocol
     guarantees one reply per request, so a re-send after a lost reply
     re-executes the request — callers retrying mutations get the
     layer's idempotent semantics (set to the same value is a no-op).
     A [response_too_large] reply is deterministic — never resent. *)
  let request_line d line =
    let t0 = Unix.gettimeofday () in
    let budget_left () =
      match d.deadline with
      | None -> infinity
      | Some dl -> dl -. (Unix.gettimeofday () -. t0)
    in
    d.st.requests <- d.st.requests + 1;
    let rec go delays =
      let remaining = budget_left () in
      let deadline =
        match d.deadline with None -> None | Some _ -> Some (Float.max 0.0 remaining)
      in
      match ensure_conn ?deadline d with
      | Error _ as e -> e
      | Ok c -> (
        match request_line c line with
        | Ok _ as ok -> ok
        | Error msg when response_too_large msg -> Error msg
        | Error msg -> (
          drop d;
          match delays with
          | [] -> Error msg
          | delay :: rest ->
            let left = budget_left () in
            if left <= 0.0 then Error exhausted
            else begin
              Thread.delay (Float.min delay left);
              d.st.retried <- d.st.retried + 1;
              go rest
            end))
    in
    go (backoff_schedule ~base:d.base ~cap:d.cap ~attempts:d.attempts ())

  (* [retry_failures] additionally re-sends on a structured retryable
     failure ([session_unavailable], [shutting_down]): the fleet's
     worker-crash window, where the supervisor needs a moment to
     restart the shard before the session answers again. *)
  let request ?(retry_failures = false) d req =
    (* minted once: a re-send after a lost reply is the same logical
       request, so it keeps its trace id *)
    let line = encode_traced req in
    let t0 = Unix.gettimeofday () in
    let budget_left () =
      match d.deadline with
      | None -> infinity
      | Some dl -> dl -. (Unix.gettimeofday () -. t0)
    in
    let rec go delays =
      match request_line d line with
      | Error msg when response_too_large msg ->
        Ok (Protocol.Failed (Protocol.Response_too_large, msg))
      | Error _ as e -> e
      | Ok reply -> (
        match Protocol.response_of_string reply with
        | Ok (Protocol.Failed (code, _)) as r when retry_failures && Protocol.retryable code
          -> (
          match delays with
          | [] -> r
          | delay :: rest ->
            let left = budget_left () in
            if left <= 0.0 then r
            else begin
              Thread.delay (Float.min delay left);
              d.st.retried <- d.st.retried + 1;
              go rest
            end)
        | r -> r)
    in
    go (backoff_schedule ~base:d.base ~cap:d.cap ~attempts:d.attempts ())

  (* Pipelined group send with suffix-only resend.  FIFO ordering means
     a transport failure after [k] replies proves requests [0..k-1]
     executed and answered — only the unanswered suffix is re-sent on
     the fresh connection, so a mid-group worker restart costs one
     reconnect, not a full-group replay.  (The first unanswered request
     itself may have executed before the crash — the same at-least-once
     caveat as single-request resend.) *)
  let pipeline_lines d lines =
    let lines = Array.of_list lines in
    let n = Array.length lines in
    let results = Array.make n (Error "never sent") in
    let answered = ref 0 in
    d.st.requests <- d.st.requests + n;
    let t0 = Unix.gettimeofday () in
    let budget_left () =
      match d.deadline with
      | None -> infinity
      | Some dl -> dl -. (Unix.gettimeofday () -. t0)
    in
    let rec go delays =
      if !answered >= n then ()
      else begin
        let remaining = budget_left () in
        let deadline =
          match d.deadline with None -> None | Some _ -> Some (Float.max 0.0 remaining)
        in
        match ensure_conn ?deadline d with
        | Error msg ->
          for i = !answered to n - 1 do
            results.(i) <- Error msg
          done;
          answered := n
        | Ok c ->
          let suffix = Array.to_list (Array.sub lines !answered (n - !answered)) in
          let rs = pipeline c suffix in
          let lost = ref false in
          List.iter
            (fun r ->
              if not !lost then
                match r with
                | Ok _ ->
                  results.(!answered) <- r;
                  incr answered
                | Error msg when response_too_large msg ->
                  (* answered: the oversized reply was drained in order *)
                  results.(!answered) <- r;
                  incr answered
                | Error _ -> lost := true)
            rs;
          if !answered < n then begin
            drop d;
            match delays with
            | [] ->
              let msg =
                match List.find_opt Result.is_error rs with
                | Some (Error m) -> m
                | _ -> "connection lost"
              in
              for i = !answered to n - 1 do
                results.(i) <- Error msg
              done;
              answered := n
            | delay :: rest ->
              let left = budget_left () in
              if left <= 0.0 then begin
                for i = !answered to n - 1 do
                  results.(i) <- Error exhausted
                done;
                answered := n
              end
              else begin
                Thread.delay (Float.min delay left);
                d.st.retried <- d.st.retried + 1;
                go rest
              end
          end
      end
    in
    go (backoff_schedule ~base:d.base ~cap:d.cap ~attempts:d.attempts ());
    Array.to_list results

  let request_many ?(retry_failures = false) d reqs =
    let lines = List.map encode_traced reqs in
    let raw = pipeline_lines d lines in
    List.map2
      (fun req r ->
        match r with
        | Error msg when response_too_large msg ->
          Ok (Protocol.Failed (Protocol.Response_too_large, msg))
        | Error _ as e -> e
        | Ok reply -> (
          match Protocol.response_of_string reply with
          | Ok (Protocol.Failed (code, _)) when retry_failures && Protocol.retryable code ->
            (* a retryable failure inside a pipelined group: settle it
               individually (the group's FIFO slot is already consumed,
               so a lone re-send preserves every other result) *)
            request ~retry_failures d req
          | r -> r))
      reqs raw

  let requests d = d.st.requests
  let reconnects d = d.st.reconnects
  let retried d = d.st.retried

  let stats_json d =
    Jsonx.Obj
      [
        ("requests", Jsonx.Int d.st.requests);
        ("reconnects", Jsonx.Int d.st.reconnects);
        ("retried", Jsonx.Int d.st.retried);
      ]

  let close = drop
end
