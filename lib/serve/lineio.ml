type t = {
  fd : Unix.file_descr;
  chunk : Bytes.t;
  mutable start : int;  (* unconsumed region of [chunk] *)
  mutable stop : int;
  line : Buffer.t;  (* partial line carried across reads *)
  mutable dropping : bool;  (* current line already exceeded the limit *)
  mutable seen_eof : bool;
}

let create ?idle_timeout fd =
  (match idle_timeout with
  | Some s when s > 0.0 -> (
    (* kernel-side receive timeout: a blocked read returns EAGAIN after
       [s] seconds, which read_line reports as Idle.  Unix sockets
       support it everywhere we run; if a platform refuses, the reader
       degrades to the old block-forever behaviour. *)
    try Unix.setsockopt_float fd Unix.SO_RCVTIMEO s with Unix.Unix_error _ -> ())
  | _ -> ());
  {
    fd;
    chunk = Bytes.create 8192;
    start = 0;
    stop = 0;
    line = Buffer.create 256;
    dropping = false;
    seen_eof = false;
  }

type result = Line of string | Overflow | Eof | Idle

let rec find_nl b i stop =
  if i >= stop then None
  else if Char.equal (Bytes.get b i) '\n' then Some i
  else find_nl b (i + 1) stop

(* [block:false] turns the reader into a drain probe: it consumes
   whatever is already buffered plus whatever a non-blocking read finds
   in the kernel, and answers [None] the moment another byte would
   require waiting (EAGAIN).  The pipelined connection loop uses it to
   coalesce the burst a client wrote in one flush without stalling on
   the next.  No [select]: descriptors above FD_SETSIZE work too. *)
let read_line_gen ~block ~limit t =
  let take_line () =
    let s = Buffer.contents t.line in
    Buffer.clear t.line;
    Some (Line s)
  in
  let read_chunk () =
    if block then Unix.read t.fd t.chunk 0 (Bytes.length t.chunk)
    else begin
      Unix.set_nonblock t.fd;
      Fun.protect
        ~finally:(fun () -> try Unix.clear_nonblock t.fd with Unix.Unix_error _ -> ())
        (fun () -> Unix.read t.fd t.chunk 0 (Bytes.length t.chunk))
    end
  in
  let rec go () =
    if t.start < t.stop then begin
      match find_nl t.chunk t.start t.stop with
      | Some i ->
        if not t.dropping then Buffer.add_subbytes t.line t.chunk t.start (i - t.start);
        t.start <- i + 1;
        if t.dropping || Buffer.length t.line > limit then begin
          t.dropping <- false;
          Buffer.clear t.line;
          Some Overflow
        end
        else take_line ()
      | None ->
        if not t.dropping then Buffer.add_subbytes t.line t.chunk t.start (t.stop - t.start);
        t.start <- t.stop;
        if Buffer.length t.line > limit then begin
          t.dropping <- true;
          Buffer.clear t.line
        end;
        go ()
    end
    else if t.seen_eof then
      (* peer closed mid-line: hand the final unterminated line over
         once, then report Eof — same contract as the channel reader *)
      if Buffer.length t.line > 0 && not t.dropping then take_line () else Some Eof
    else begin
      match read_chunk () with
      | 0 ->
        t.seen_eof <- true;
        go ()
      | n ->
        t.start <- 0;
        t.stop <- n;
        go ()
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
        if block then Some Idle else None
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
      | exception (Unix.Unix_error _ | Sys_error _ | End_of_file) ->
        t.seen_eof <- true;
        go ()
    end
  in
  go ()

let read_line ~limit t =
  match read_line_gen ~block:true ~limit t with
  | Some r -> r
  | None -> assert false (* blocking mode never answers None *)

let read_line_ready ~limit t = read_line_gen ~block:false ~limit t

(* Shared by every pipelined writer: one [Unix.write] loop over the
   coalesced response buffer, then clear it for reuse.  Raises on a
   dead peer (EPIPE and friends) like any write would. *)
let rec write_all fd b pos len =
  if len > 0 then begin
    match Unix.write fd b pos len with
    | n -> write_all fd b (pos + n) (len - n)
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> write_all fd b pos len
  end

let flush_buffer fd buf =
  let len = Buffer.length buf in
  if len > 0 then begin
    let s = Buffer.contents buf in
    Buffer.clear buf;
    write_all fd (Bytes.unsafe_of_string s) 0 len
  end
