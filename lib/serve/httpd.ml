(* The HTTP observability plane (DESIGN.md 18): a minimal HTTP/1.1
   listener so standard tooling (curl, a Prometheus scraper, a browser)
   can reach the telemetry the line protocol already exports.  GET
   only, one response per connection, no keep-alive, no TLS: this is a
   loopback diagnostics port, not an ingress.  Off unless
   DSE_METRICS_ADDR (or an explicit [addr]) names a TCP endpoint. *)

type reply = { status : int; content_type : string; body : string }

let ok ?(content_type = "text/plain; charset=utf-8") body =
  { status = 200; content_type; body }

type t = {
  fd : Unix.file_descr;
  port : int;
  stop : bool Atomic.t;
  mutable thread : Thread.t option;
}

let parse_addr s =
  let port_of p = match int_of_string_opt (String.trim p) with
    | Some n when n >= 0 && n < 65536 -> Some n
    | _ -> None
  in
  match String.rindex_opt s ':' with
  | Some i ->
    let host = String.sub s 0 i in
    let host = if String.equal host "" then "127.0.0.1" else host in
    Option.map (fun p -> (host, p)) (port_of (String.sub s (i + 1) (String.length s - i - 1)))
  | None -> Option.map (fun p -> ("127.0.0.1", p)) (port_of s)

let addr_of_env () =
  match Sys.getenv_opt "DSE_METRICS_ADDR" with
  | None | Some "" -> None
  | Some s -> parse_addr s

let resolve host =
  match Unix.inet_addr_of_string host with
  | addr -> addr
  | exception _ -> (
    match Unix.gethostbyname host with
    | { Unix.h_addr_list = [||]; _ } -> Unix.inet_addr_loopback
    | h -> h.Unix.h_addr_list.(0)
    | exception Not_found -> Unix.inet_addr_loopback)

let status_text = function
  | 200 -> "OK"
  | 400 -> "Bad Request"
  | 404 -> "Not Found"
  | 405 -> "Method Not Allowed"
  | 503 -> "Service Unavailable"
  | _ -> "Error"

let write_all fd s =
  let b = Bytes.unsafe_of_string s in
  let n = Bytes.length b in
  let off = ref 0 in
  try
    while !off < n do
      off := !off + Unix.write fd b !off (n - !off)
    done
  with Unix.Unix_error _ | Sys_error _ -> ()

let respond fd { status; content_type; body } =
  write_all fd
    (Printf.sprintf
       "HTTP/1.1 %d %s\r\nContent-Type: %s\r\nContent-Length: %d\r\nConnection: close\r\n\r\n%s"
       status (status_text status) content_type (String.length body) body)

(* the request head, bounded: GETs have no body we care about, so read
   until the blank line (or give up at 8 KiB / a read error) *)
let read_head fd =
  let buf = Buffer.create 256 in
  let chunk = Bytes.create 1024 in
  let rec go () =
    if Buffer.length buf > 8192 then None
    else
      let k = try Unix.read fd chunk 0 (Bytes.length chunk) with Unix.Unix_error _ -> 0 in
      if k = 0 then if Buffer.length buf > 0 then Some (Buffer.contents buf) else None
      else begin
        Buffer.add_subbytes buf chunk 0 k;
        let s = Buffer.contents buf in
        let rec has_sep i =
          i + 3 < String.length s
          && ((s.[i] = '\r' && s.[i + 1] = '\n' && s.[i + 2] = '\r' && s.[i + 3] = '\n')
             || has_sep (i + 1))
        in
        let has_lf_sep =
          match String.index_opt s '\n' with
          | Some _ ->
            (* tolerate bare-LF clients: a blank line either way *)
            let rec lf i =
              i + 1 < String.length s && ((s.[i] = '\n' && s.[i + 1] = '\n') || lf (i + 1))
            in
            has_sep 0 || lf 0
          | None -> false
        in
        if has_lf_sep then Some s else go ()
      end
  in
  go ()

let handle_connection routes fd =
  (match read_head fd with
  | None -> ()
  | Some head ->
    let line = match String.index_opt head '\n' with
      | Some i -> String.trim (String.sub head 0 i)
      | None -> String.trim head
    in
    (match String.split_on_char ' ' line with
    | meth :: target :: _ ->
      if not (String.equal (String.uppercase_ascii meth) "GET") then
        respond fd { status = 405; content_type = "text/plain"; body = "GET only\n" }
      else begin
        let path = match String.index_opt target '?' with
          | Some i -> String.sub target 0 i
          | None -> target
        in
        match routes path with
        | Some r -> respond fd r
        | None -> respond fd { status = 404; content_type = "text/plain"; body = "not found\n" }
      end
    | _ -> respond fd { status = 400; content_type = "text/plain"; body = "bad request\n" }));
  try Unix.close fd with Unix.Unix_error _ -> ()

let start ~addr:(host, port) ~routes () =
  match Lineserver.listen ~backlog:16 (Unix.ADDR_INET (resolve host, port)) with
  | exception Unix.Unix_error (err, _, _) ->
    Error (Printf.sprintf "cannot bind http plane to %s:%d: %s" host port (Unix.error_message err))
  | fd ->
    let port =
      match Unix.getsockname fd with Unix.ADDR_INET (_, p) -> p | _ -> port
    in
    let t = { fd; port; stop = Atomic.make false; thread = None } in
    let errors = Ds_obs.Obs.counter Ds_obs.Obs.default "dse_accept_errors_total" in
    (* a thread per request: requests are tiny, but a stalled scraper
       must not block the accept loop *)
    let spawn cfd = ignore (Thread.create (handle_connection routes) cfd) in
    t.thread <-
      Some (Thread.create (fun () -> Lineserver.accept_loop ~stop:t.stop ~errors fd spawn) ());
    Ok t

let start_from_env ~routes () =
  match addr_of_env () with
  | None -> None
  | Some addr -> (
    match start ~addr ~routes () with
    | Ok t -> Some t
    | Error msg ->
      prerr_endline msg;
      None)

let port t = t.port

let stop t =
  Atomic.set t.stop true;
  (match t.thread with Some th -> (try Thread.join th with _ -> ()) | None -> ());
  try Unix.close t.fd with Unix.Unix_error _ -> ()
