(* The closed-loop client: each connection keeps [depth] requests in
   flight, sending the next one only when a reply comes back, until its
   stream ends or the deadline passes.  Every reply is checked for
   ["ok":true]. *)

open Util
module P = Ds_serve.Protocol

type result = {
  all : Buf.t;  (** per-request latency, µs, send to reply *)
  done_at : Buf.t;  (** when each of [all] was answered *)
  is_write : Buf.t;  (** 1. for each of [all] that is a write *)
  span_t0 : Buf.t;  (** traced drive: one client span per request *)
  span_t1 : Buf.t;
  mutable sent : int;
  mutable ok : int;
  mutable failed : int;
  mutable acked_writes : int;
  mutable first_error : string option;
  history : (int, P.request list) Hashtbl.t;
      (** acknowledged mutations of the sampled sessions, newest first *)
  mutable t_end : float;
}

let ok_prefix = {|{"ok":true|}

let run ?(traced = false) ?(sampled = fun _ -> false) ~depth ~deadline (c : Deploy.conn)
    (next : unit -> Workload.op option) =
  let r =
    {
      all = Buf.create ();
      done_at = Buf.create ();
      is_write = Buf.create ();
      span_t0 = Buf.create ();
      span_t1 = Buf.create ();
      sent = 0;
      ok = 0;
      failed = 0;
      acked_writes = 0;
      first_error = None;
      history = Hashtbl.create 16;
      t_end = 0.0;
    }
  in
  let inflight = Queue.create () in
  let exhausted = ref false in
  let stopping () = !exhausted || now () >= deadline in
  let fill () =
    while (not (stopping ())) && Queue.length inflight < depth do
      match next () with
      | None -> exhausted := true
      | Some (op : Workload.op) ->
        Deploy.send c op.line;
        r.sent <- r.sent + 1;
        Queue.push (op, now ()) inflight
    done;
    flush c.oc
  in
  fill ();
  (try
     while not (Queue.is_empty inflight) do
       let line = Deploy.recv c in
       let t1 = now () in
       let op, t0 = Queue.pop inflight in
       let us = (t1 -. t0) *. 1e6 in
       Buf.add r.all us;
       Buf.add r.done_at t1;
       Buf.add r.is_write (if op.write then 1.0 else 0.0);
       if traced then begin
         Buf.add r.span_t0 t0;
         Buf.add r.span_t1 t1
       end;
       if String.starts_with ~prefix:ok_prefix line then begin
         r.ok <- r.ok + 1;
         if op.write then begin
           r.acked_writes <- r.acked_writes + 1;
           if sampled op.sid then
             Hashtbl.replace r.history op.sid
               (op.req :: Option.value ~default:[] (Hashtbl.find_opt r.history op.sid))
         end
       end
       else begin
         r.failed <- r.failed + 1;
         if r.first_error = None then r.first_error <- Some (op.line ^ " -> " ^ line)
       end;
       fill ()
     done
   with End_of_file | Sys_error _ ->
     let lost = Queue.length inflight in
     r.failed <- r.failed + lost;
     if r.first_error = None then
       r.first_error <- Some (Printf.sprintf "connection lost with %d requests in flight" lost));
  r.t_end <- now ();
  r

(* One stream per connection, each on its own domain. *)
let parallel conns f =
  List.mapi (fun i c -> Domain.spawn (fun () -> f i c)) conns |> List.map Domain.join

let of_list l =
  let rest = ref l in
  fun () ->
    match !rest with
    | [] -> None
    | x :: tl ->
      rest := tl;
      Some x

let of_stream next () = Some (next ())
