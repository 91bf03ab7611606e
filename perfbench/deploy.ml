(* Server processes deployed the way the [dse] CLI deploys them, the
   /proc resource samples taken of them, and the raw line connections
   the benchmark drives them through. *)

open Util

type kind =
  | Serve of { sync : bool; capacity : int }
      (** [dse serve]: one process, journal under [dir/journal] *)
  | Fleet of { workers : int }
      (** [dse fleet serve -n N]: a router plus N supervised workers *)

type t = {
  kind : kind;
  dir : string;
  socket : string;
  top : int;  (** the process the benchmark spawned *)
  mutable procs : int list;  (** [top] and, for a fleet, its workers *)
}

(* Settings passed to every deployment, recorded in the output. *)
let serve_pool = 4
let fleet_slots = 8
let fleet_pool = fleet_slots + 2
let fleet_capacity = 8192

let args_of ~dir = function
  | Serve { sync; capacity } ->
    [
      "serve"; "--socket"; Filename.concat dir "s.sock";
      "--journal-dir"; Filename.concat dir "journal";
      "--pool"; string_of_int serve_pool;
      "--capacity"; string_of_int capacity;
    ]
    @ if sync then [ "--sync" ] else []
  | Fleet { workers } ->
    [
      "fleet"; "serve"; "-n"; string_of_int workers;
      "--socket"; Filename.concat dir "r.sock";
      "--dir"; Filename.concat dir "fleet";
      "--slots"; string_of_int fleet_slots;
      "--pool"; string_of_int fleet_pool;
      "--capacity"; string_of_int fleet_capacity;
    ]

let describe kind = String.concat " " ("dse" :: args_of ~dir:"DIR" kind)

let journal_dirs t =
  match t.kind with
  | Serve _ -> [ Filename.concat t.dir "journal" ]
  | Fleet { workers } ->
    List.init workers (fun i -> Filename.concat t.dir (Printf.sprintf "fleet/w%d.journal" i))

(* ----- /proc ----- *)

(* The fields of /proc/<pid>/stat after "(comm)", which may itself hold
   spaces and parens. *)
let stat_fields pid =
  match read_file (Printf.sprintf "/proc/%d/stat" pid) with
  | exception Sys_error _ -> []
  | s -> (
    match String.rindex_opt s ')' with
    | Some i when i + 2 < String.length s ->
      String.split_on_char ' ' (String.sub s (i + 2) (String.length s - i - 2))
    | _ -> [])

let ppid_of pid = match stat_fields pid with _state :: ppid :: _ -> int_of_string_opt ppid | _ -> None

let children pid =
  Sys.readdir "/proc" |> Array.to_list
  |> List.filter_map int_of_string_opt
  |> List.filter (fun p -> ppid_of p = Some pid)
  |> List.sort compare

let alive pid = match stat_fields pid with state :: _ -> state <> "Z" | [] -> false

let status_field pid field =
  match read_file (Printf.sprintf "/proc/%d/status" pid) with
  | exception Sys_error _ -> 0
  | s ->
    String.split_on_char '\n' s
    |> List.find_map (fun line ->
           match String.index_opt line ':' with
           | Some i when String.sub line 0 i = field ->
             String.sub line (i + 1) (String.length line - i - 1)
             |> String.trim |> String.split_on_char ' ' |> List.hd |> int_of_string_opt
           | _ -> None)
    |> Option.value ~default:0

let fd_count pid =
  try Array.length (Sys.readdir (Printf.sprintf "/proc/%d/fd" pid)) with Sys_error _ -> 0

type sample = { rss_kb : int; threads : int; fds : int }

(* Summed over every server process of the deployment; VmHWM is each
   process's peak resident set, so the sum read last is the run's peak. *)
let sample t =
  List.fold_left
    (fun acc pid ->
      {
        rss_kb = acc.rss_kb + status_field pid "VmHWM";
        threads = acc.threads + status_field pid "Threads";
        fds = acc.fds + fd_count pid;
      })
    { rss_kb = 0; threads = 0; fds = 0 }
    t.procs

(* The fd count once connection teardown has settled: two equal reads
   50 ms apart, or whatever is left after [timeout] seconds of waiting
   for it to drop to [at_most]. *)
let settled_fds ?(at_most = max_int) ?(timeout = 3.0) t =
  let deadline = now () +. timeout in
  let rec go prev =
    Unix.sleepf 0.05;
    let n = (sample t).fds in
    if (n = prev && n <= at_most) || now () > deadline then n else go n
  in
  go (sample t).fds

(* ----- connections ----- *)

type conn = {
  fd : Unix.file_descr;
  ic : in_channel;
  oc : out_channel;
  mutable bytes : int;  (** request plus reply bytes moved *)
}

let connect socket =
  let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match Unix.connect fd (Unix.ADDR_UNIX socket) with
  | () -> { fd; ic = Unix.in_channel_of_descr fd; oc = Unix.out_channel_of_descr fd; bytes = 0 }
  | exception e ->
    Unix.close fd;
    raise e

let connect_retry ?(timeout = 60.0) socket =
  let deadline = now () +. timeout in
  let rec go () =
    match connect socket with
    | c -> c
    | exception Unix.Unix_error _ when now () < deadline ->
      Unix.sleepf 0.005;
      go ()
  in
  go ()

let send c line =
  output_string c.oc line;
  output_char c.oc '\n';
  c.bytes <- c.bytes + String.length line + 1

let recv c =
  let line = input_line c.ic in
  c.bytes <- c.bytes + String.length line + 1;
  line

let call c line =
  send c line;
  flush c.oc;
  recv c

let close c = close_out_noerr c.oc

(* ----- lifecycle ----- *)

let live : t list ref = ref []

let wait_gone ~timeout pids =
  let deadline = now () +. timeout in
  while List.exists alive pids && now () < deadline do
    Unix.sleepf 0.02
  done

(* SIGTERM, a grace period, then SIGKILL; returns once the spawned
   process is reaped and every worker it ran has exited. *)
let stop t =
  live := List.filter (fun d -> d != t) !live;
  let workers = List.filter (fun p -> p <> t.top) t.procs in
  (try Unix.kill t.top Sys.sigterm with Unix.Unix_error _ -> ());
  let deadline = now () +. 10.0 in
  let rec reap () =
    match Unix.waitpid [ Unix.WNOHANG ] t.top with
    | 0, _ when now () < deadline ->
      Unix.sleepf 0.01;
      reap ()
    | 0, _ ->
      (try Unix.kill t.top Sys.sigkill with Unix.Unix_error _ -> ());
      ignore (Unix.waitpid [] t.top)
    | _ -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> reap ()
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
  in
  reap ();
  wait_gone ~timeout:5.0 workers;
  List.iter (fun p -> try Unix.kill p Sys.sigkill with Unix.Unix_error _ -> ()) workers;
  wait_gone ~timeout:5.0 workers

let stop_all () = List.iter stop !live

(* Spawn the deployment and block until its socket accepts. *)
let start ~dse ~dir kind =
  rm_rf dir;
  mkdir_p dir;
  let log = Unix.openfile (Filename.concat dir "server.log") [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  let argv = Array.of_list (dse :: args_of ~dir kind) in
  let top = Unix.create_process dse argv null log log in
  Unix.close log;
  Unix.close null;
  let socket = Filename.concat dir (match kind with Serve _ -> "s.sock" | Fleet _ -> "r.sock") in
  let t = { kind; dir; socket; top; procs = [ top ] } in
  live := t :: !live;
  (match kind with
  | Serve _ -> ()
  | Fleet { workers } ->
    let deadline = now () +. 60.0 in
    while List.length (children top) < workers && now () < deadline do
      Unix.sleepf 0.01
    done);
  close (connect_retry socket);
  t.procs <- top :: children top;
  if List.length t.procs <> (match kind with Serve _ -> 1 | Fleet { workers } -> workers + 1)
  then fail "deployment %s: expected server processes missing" (describe kind);
  t
