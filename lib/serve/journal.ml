type header = { session : string; layer : string; eol : int; base : int }

type entry = { req : Jsonx.t; signature : string }

type loaded = { header : header; sig_version : int; entries : entry list }

(* the format of every journal this module creates unless told otherwise *)
let latest_sig_version = 2

(* Appends are serialized by [lock]; in sync mode the fsync itself is
   group-committed: an appender needing durability calls [sync_to] with
   its entry's sequence number, and whichever caller finds no fsync in
   flight becomes the leader, fsyncing once for every entry appended so
   far — concurrent mutations ride one disk flush instead of queueing
   one each.  The lock is never held across the fsync, so appends keep
   flowing while the disk works.

   All disk traffic goes through the {!Iofault} shim points, so the
   chaos harness can break any primitive under us; [off] tracks the
   byte offset of the last complete line, which is what a failed append
   truncates back to (a short write must not leave torn garbage that a
   later successful append would glue onto). *)
type t = {
  fd : Unix.file_descr;
  sync : bool;
  lock : Mutex.t;
  synced_cond : Condition.t;
  mutable off : int; (* bytes up to the end of the last good line *)
  mutable entries : int; (* entry lines in the file (the tail length) *)
  mutable seq : int; (* lines appended through this handle *)
  mutable synced : int; (* entries covered by a completed fsync *)
  mutable syncing : bool; (* a leader's fsync is in flight *)
  mutable syncs : int;
  mutable batched : int; (* sync_to calls satisfied by another's fsync *)
  mutable broken : bool; (* a failed append could not be repaired *)
  mutable closed : bool;
}

let make_t ~fd ~sync =
  {
    fd;
    sync;
    lock = Mutex.create ();
    synced_cond = Condition.create ();
    off = 0;
    entries = 0;
    seq = 0;
    synced = 0;
    syncing = false;
    syncs = 0;
    batched = 0;
    broken = false;
    closed = false;
  }

let path ~dir ~id = Filename.concat dir (id ^ ".journal")
let exists ~dir ~id = Sys.file_exists (path ~dir ~id)
let snapshot_path ~dir ~id = Filename.concat dir (id ^ ".snapshot")
let snapshot_exists ~dir ~id = Sys.file_exists (snapshot_path ~dir ~id)

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let header_json ~sig_version h =
  Jsonx.Obj
    [
      ("journal", Jsonx.Str "dse-session");
      ("format", Jsonx.Int 1);
      ("session", Jsonx.Str h.session);
      ("layer", Jsonx.Str h.layer);
      ("eol", Jsonx.Int h.eol);
      ("base", Jsonx.Int h.base);
      ("sig_version", Jsonx.Int sig_version);
    ]

(* The signature format of a journal or snapshot header: files written
   before v2 carry no field and are v1.  An unknown version fails the
   load rather than verify against the wrong function. *)
let sig_version_of_json json =
  match Jsonx.member "sig_version" json with
  | None -> Ok 1
  | Some v -> (
    match Jsonx.to_int v with
    | Some (1 | 2 as n) -> Ok n
    | Some _ | None ->
      Error (Printf.sprintf "journal: unsupported signature version %s" (Jsonx.to_string v)))

let header_of_json json =
  match
    ( Jsonx.str_member "journal" json,
      Jsonx.str_member "session" json,
      Jsonx.str_member "layer" json,
      Option.bind (Jsonx.member "eol" json) Jsonx.to_int )
  with
  | Some "dse-session", Some session, Some layer, Some eol ->
    (* [base] arrived with the snapshot format; journals written before
       it have never been compacted *)
    let base =
      match Option.bind (Jsonx.member "base" json) Jsonx.to_int with
      | Some b when b >= 0 -> b
      | Some _ | None -> 0
    in
    Ok { session; layer; eol; base }
  | Some other, _, _, _ when other <> "dse-session" ->
    Error (Printf.sprintf "not a session journal (kind %S)" other)
  | _ -> Error "malformed journal header"

let guard_io f =
  try Ok (f ()) with
  | Unix.Unix_error (err, _, arg) ->
    Error (Printf.sprintf "journal: %s: %s" arg (Unix.error_message err))
  | Sys_error msg -> Error ("journal: " ^ msg)

(* Journal traffic aggregates into the global telemetry registry under
   the unified catalog (DESIGN.md 13): [dse_journal_fsync_batched_total]
   is what the per-journal {!sync_stats} shim spells [batched]. *)
module Obs = Ds_obs.Obs

let m_appends = Obs.counter Obs.default "dse_journal_appends_total"
let m_fsyncs = Obs.counter Obs.default "dse_journal_fsyncs_total"
let m_batched = Obs.counter Obs.default "dse_journal_fsync_batched_total"
let m_fsync_us = Obs.histogram Obs.default "dse_journal_fsync_us"
let m_snapshots = Obs.counter Obs.default "dse_journal_snapshots_total"

let rec write_all fd buf pos len =
  if len > 0 then begin
    let n = Iofault.write fd buf pos len in
    write_all fd buf (pos + n) (len - n)
  end

(* A descriptor opened by this module is always O_APPEND, so after a
   repair-truncate the next write lands exactly at [off] — no lseek
   bookkeeping, no holes.  It is also close-on-exec: a service that
   spawns a child process must not hand it one journal descriptor per
   resident session. *)
let openfile_append ?(trunc = false) file =
  let flags = [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND; Unix.O_CLOEXEC ] in
  Unix.openfile file (if trunc then Unix.O_TRUNC :: flags else flags) 0o644

(* Write one line + newline, under the journal lock.  Durability
   (fsync) is [sync_to]'s job, taken outside any session lock.  A
   failed write truncates the file back to the last good line; if even
   that fails the handle is marked broken (every later append errors
   fast) rather than risking a glued-on fragment. *)
let write_line ?(entry = true) t line =
  Mutex.lock t.lock;
  let r =
    if t.closed || t.broken then Error "journal: handle is broken"
    else
      guard_io (fun () ->
          let buf = Bytes.of_string (line ^ "\n") in
          (try write_all t.fd buf 0 (Bytes.length buf)
           with e ->
             (try Unix.ftruncate t.fd t.off with _ -> t.broken <- true);
             raise e);
          t.off <- t.off + Bytes.length buf;
          if entry then t.entries <- t.entries + 1;
          t.seq <- t.seq + 1;
          t.seq)
  in
  Mutex.unlock t.lock;
  r

let create ?(sync = false) ?(sig_version = latest_sig_version) ~dir header =
  match
    guard_io (fun () ->
        mkdir_p dir;
        openfile_append ~trunc:true (path ~dir ~id:header.session))
  with
  | Error _ as e -> e
  | Ok fd -> (
    let t = make_t ~fd ~sync in
    match write_line ~entry:false t (Jsonx.to_string (header_json ~sig_version header)) with
    | Ok _ -> (
      if not sync then Ok t
      else
        match guard_io (fun () -> Iofault.fsync fd) with
        | Ok () ->
          t.synced <- t.seq;
          Ok t
        | Error _ as e ->
          (try Unix.close fd with _ -> ());
          e)
    | Error _ as e ->
      (try Unix.close fd with _ -> ());
      e)

let append t ~req ~signature =
  let r =
    write_line t
      (Jsonx.to_string (Jsonx.Obj [ ("req", req); ("sig", Jsonx.Str signature) ]))
  in
  if Result.is_ok r then Obs.incr m_appends;
  r

let entry_count t =
  Mutex.lock t.lock;
  let n = t.entries in
  Mutex.unlock t.lock;
  n

let rec sync_to t seq =
  if not t.sync then Ok ()
  else begin
    Mutex.lock t.lock;
    if t.synced >= seq then begin
      (* a leader's fsync already covered this entry *)
      t.batched <- t.batched + 1;
      Obs.incr m_batched;
      Mutex.unlock t.lock;
      Ok ()
    end
    else if t.syncing then begin
      (* an fsync is in flight; it may not cover this entry (it could
         have started before our append) — wait and re-check *)
      Condition.wait t.synced_cond t.lock;
      Mutex.unlock t.lock;
      sync_to t seq
    end
    else begin
      (* become the leader: fsync once for everything appended so far *)
      t.syncing <- true;
      let target = t.seq in
      Mutex.unlock t.lock;
      let sp = Obs.span_begin "journal.fsync" in
      let t0 = Obs.now_us () in
      let r = guard_io (fun () -> Iofault.fsync t.fd) in
      Obs.observe m_fsync_us (Obs.now_us () -. t0);
      Obs.span_end sp
        ~attrs:
          [ ("ok", match r with Ok () -> "true" | Error _ -> "false") ]
        (* obs-lint: guard_io never raises, the span always closes *);
      Mutex.lock t.lock;
      t.syncing <- false;
      (match r with
      | Ok () ->
        t.synced <- Stdlib.max t.synced target;
        t.syncs <- t.syncs + 1;
        Obs.incr m_fsyncs
      | Error _ -> ());
      Condition.broadcast t.synced_cond;
      Mutex.unlock t.lock;
      match r with
      | Error _ as e -> e
      | Ok () -> if target >= seq then Ok () else sync_to t seq
    end
  end

let sync_all t =
  Mutex.lock t.lock;
  let seq = t.seq in
  Mutex.unlock t.lock;
  sync_to t seq

type sync_stats = { syncs : int; batched : int }

let sync_stats t =
  Mutex.lock t.lock;
  let s = { syncs = t.syncs; batched = t.batched } in
  Mutex.unlock t.lock;
  s

(* Close fsyncs first (in sync mode), so a [sync_to] racing the close
   — the store evicting a session between a mutation's reply path
   releasing the slot lock and its durability step — finds its entries
   already covered instead of erroring on a dead descriptor. *)
let close t =
  Mutex.lock t.lock;
  if not t.closed then begin
    if t.sync then (try Unix.fsync t.fd with _ -> ());
    t.closed <- true;
    t.synced <- t.seq;
    Condition.broadcast t.synced_cond;
    Mutex.unlock t.lock;
    try Unix.close t.fd with _ -> ()
  end
  else Mutex.unlock t.lock

let open_append ?(sync = false) ~dir ~id () =
  if not (exists ~dir ~id) then Error (Printf.sprintf "journal: no journal for %S" id)
  else
    let file = path ~dir ~id in
    match
      guard_io (fun () ->
          (* a crash can leave a torn (unterminated) final line, which
             [load] drops; appending as-is would glue the next entry
             onto that fragment and corrupt the file mid-line, so cut
             back to the end of the last complete line first *)
          let content = In_channel.with_open_bin file In_channel.input_all in
          let len = String.length content in
          let keep =
            if len = 0 || content.[len - 1] = '\n' then len
            else match String.rindex_opt content '\n' with Some i -> i + 1 | None -> 0
          in
          let entries =
            let n = ref 0 in
            String.iteri (fun i c -> if c = '\n' && i < keep then incr n) content;
            Stdlib.max 0 (!n - 1)
          in
          let fd = openfile_append file in
          if (Unix.fstat fd).Unix.st_size <> keep then begin
            try Iofault.ftruncate fd keep
            with e ->
              (try Unix.close fd with _ -> ());
              raise e
          end;
          (fd, keep, entries))
    with
    | Error _ as e -> e
    | Ok (fd, keep, entries) ->
      let t = make_t ~fd ~sync in
      t.off <- keep;
      t.entries <- entries;
      Ok t

(* Complete lines only: a crash can leave a final unterminated
   fragment, which is by construction an entry no client was ever told
   about — drop it.  Anything malformed before that is corruption and
   errors out. *)
let complete_lines content =
  let lines = String.split_on_char '\n' content in
  match List.rev lines with
  | last :: rest when not (String.equal last "") ->
    (* no trailing newline: [last] is the partial fragment *)
    List.rev rest
  | _ :: rest -> List.rev rest
  | [] -> []

let entry_line e =
  Jsonx.to_string (Jsonx.Obj [ ("req", e.req); ("sig", Jsonx.Str e.signature) ])

let parse_entries ~first_line entry_lines =
  let rec go n acc = function
    | [] -> Ok (List.rev acc)
    | "" :: rest -> go (n + 1) acc rest
    | line :: rest -> (
      match Jsonx.of_string line with
      | Error msg -> Error (Printf.sprintf "journal: line %d: %s" n msg)
      | Ok json -> (
        match (Jsonx.member "req" json, Jsonx.str_member "sig" json) with
        | Some req, Some signature -> go (n + 1) ({ req; signature } :: acc) rest
        | _ -> Error (Printf.sprintf "journal: line %d: not an entry" n)))
  in
  go first_line [] entry_lines

let load ~dir ~id =
  let file = path ~dir ~id in
  if not (Sys.file_exists file) then Error (Printf.sprintf "journal: no journal for %S" id)
  else
    match guard_io (fun () -> In_channel.with_open_bin file In_channel.input_all) with
    | Error _ as e -> e
    | Ok content -> (
      match complete_lines content with
      | [] -> Error "journal: empty journal (missing header)"
      | header_line :: entry_lines -> (
        let ( let* ) = Result.bind in
        let* json =
          Result.map_error (fun msg -> "journal: header: " ^ msg) (Jsonx.of_string header_line)
        in
        let* header = header_of_json json in
        let* sig_version = sig_version_of_json json in
        let* entries = parse_entries ~first_line:2 entry_lines in
        Ok { header; sig_version; entries }))

(* ------------------------------------------------------------------ *)
(* Snapshots                                                           *)

type snapshot = {
  snap_session : string;
  snap_layer : string;
  snap_eol : int;
  snap_base : int; (* journal entries this checkpoint subsumes *)
  snap_signature : string; (* candidate signature at the checkpoint *)
  snap_sig_version : int; (* the format of every signature it records *)
  snap_entries : entry list; (* compacted script reproducing that state *)
}

(* FNV-1a 64 over the entry lines (newlines included): cheap, stable
   across runs, and — unlike a per-line sanity check — catches a
   snapshot truncated between lines, where every surviving line still
   parses. *)
let fnv1a64 init s =
  let p = 0x100000001B3L in
  let h = ref init in
  String.iter (fun c -> h := Int64.mul (Int64.logxor !h (Int64.of_int (Char.code c))) p) s;
  !h

let checksum_lines lines =
  let h =
    List.fold_left (fun h line -> fnv1a64 (fnv1a64 h line) "\n") 0xCBF29CE484222325L lines
  in
  Printf.sprintf "%016Lx" h

let snapshot_header_json s ~checksum =
  Jsonx.Obj
    [
      ("snapshot", Jsonx.Str "dse-session");
      ("format", Jsonx.Int 1);
      ("session", Jsonx.Str s.snap_session);
      ("layer", Jsonx.Str s.snap_layer);
      ("eol", Jsonx.Int s.snap_eol);
      ("base", Jsonx.Int s.snap_base);
      ("sig", Jsonx.Str s.snap_signature);
      ("sig_version", Jsonx.Int s.snap_sig_version);
      ("checksum", Jsonx.Str checksum);
    ]

(* fsync the directory so the rename that published a snapshot (or a
   rewritten journal) is itself durable — without it a power cut can
   roll the directory back to a state that never coexisted with the
   file contents. *)
let fsync_dir dir =
  let dfd = Unix.openfile dir [ Unix.O_RDONLY; Unix.O_CLOEXEC ] 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close dfd with _ -> ())
    (fun () -> try Iofault.fsync dfd with Unix.Unix_error (Unix.EINVAL, _, _) -> ())

let write_snapshot ~dir (s : snapshot) =
  let final = snapshot_path ~dir ~id:s.snap_session in
  let tmp = final ^ ".tmp" in
  let entry_lines = List.map entry_line s.snap_entries in
  let checksum = checksum_lines entry_lines in
  let header = Jsonx.to_string (snapshot_header_json s ~checksum) in
  let r =
    guard_io (fun () ->
        mkdir_p dir;
        let fd = openfile_append ~trunc:true tmp in
        Fun.protect
          ~finally:(fun () -> try Unix.close fd with _ -> ())
          (fun () ->
            List.iter
              (fun line ->
                let buf = Bytes.of_string (line ^ "\n") in
                write_all fd buf 0 (Bytes.length buf))
              (header :: entry_lines);
            Iofault.fsync fd);
        (* publish: atomic rename, then make the rename itself durable.
           A crash (or injected fault) before the rename leaves the old
           state intact; after it, the new snapshot is the state — at
           every instant exactly one valid lineage exists. *)
        Iofault.rename tmp final;
        fsync_dir dir)
  in
  if Result.is_ok r then Obs.incr m_snapshots;
  r

let load_snapshot ~dir ~id =
  let file = snapshot_path ~dir ~id in
  if not (Sys.file_exists file) then
    Error (Printf.sprintf "journal: no snapshot for %S" id)
  else
    match guard_io (fun () -> In_channel.with_open_bin file In_channel.input_all) with
    | Error _ as e -> e
    | Ok content -> (
      match complete_lines content with
      | [] -> Error "journal: empty snapshot (missing header)"
      | header_line :: entry_lines -> (
        let ( let* ) = Result.bind in
        let* json =
          match Jsonx.of_string header_line with
          | Error msg -> Error ("journal: snapshot header: " ^ msg)
          | Ok json -> Ok json
        in
        let* () =
          match Jsonx.str_member "snapshot" json with
          | Some "dse-session" -> Ok ()
          | Some other -> Error (Printf.sprintf "journal: not a session snapshot (kind %S)" other)
          | None -> Error "journal: malformed snapshot header"
        in
        let* snap_session, snap_layer, snap_eol, snap_base, snap_signature, checksum =
          match
            ( Jsonx.str_member "session" json,
              Jsonx.str_member "layer" json,
              Option.bind (Jsonx.member "eol" json) Jsonx.to_int,
              Option.bind (Jsonx.member "base" json) Jsonx.to_int,
              Jsonx.str_member "sig" json,
              Jsonx.str_member "checksum" json )
          with
          | Some s, Some l, Some e, Some b, Some g, Some c when b >= 0 -> Ok (s, l, e, b, g, c)
          | _ -> Error "journal: malformed snapshot header"
        in
        let* snap_sig_version = sig_version_of_json json in
        let entry_lines = List.filter (fun l -> not (String.equal l "")) entry_lines in
        let* () =
          let actual = checksum_lines entry_lines in
          if String.equal actual checksum then Ok ()
          else
            Error
              (Printf.sprintf "journal: snapshot checksum mismatch (stored %s, computed %s)"
                 checksum actual)
        in
        let* snap_entries = parse_entries ~first_line:2 entry_lines in
        Ok
          {
            snap_session;
            snap_layer;
            snap_eol;
            snap_base;
            snap_signature;
            snap_sig_version;
            snap_entries;
          }))

let remove_snapshot ~dir ~id =
  try Sys.remove (snapshot_path ~dir ~id) with Sys_error _ -> ()

let rewrite ?(sync = false) ?(sig_version = latest_sig_version) ~dir header entries =
  let final = path ~dir ~id:header.session in
  let tmp = final ^ ".tmp" in
  let lines = Jsonx.to_string (header_json ~sig_version header) :: List.map entry_line entries in
  match
    guard_io (fun () ->
        mkdir_p dir;
        let fd = openfile_append ~trunc:true tmp in
        (try
           List.iter
             (fun line ->
               let buf = Bytes.of_string (line ^ "\n") in
               write_all fd buf 0 (Bytes.length buf))
             lines;
           Iofault.fsync fd;
           (* same publish discipline as snapshots: the old journal
              stays the journal until the rename lands *)
           Iofault.rename tmp final;
           fsync_dir dir
         with e ->
           (try Unix.close fd with _ -> ());
           raise e);
        fd)
  with
  | Error _ as e -> e
  | Ok fd ->
    (* the descriptor already points at the renamed inode, so the same
       handle keeps appending to the new journal *)
    let t = make_t ~fd ~sync in
    t.off <- List.fold_left (fun n l -> n + String.length l + 1) 0 lines;
    t.entries <- List.length entries;
    t.seq <- List.length lines;
    t.synced <- t.seq;
    Ok t

(* The full effective history of a session: its snapshot's compacted
   script (if the journal has been truncated past entry 0) followed by
   the tail entries the snapshot does not subsume.  Replaying this from
   a pristine session reproduces the live state — the snapshot writer
   verified exactly that before any truncation happened. *)
let load_effective ~dir ~id =
  let ( let* ) = Result.bind in
  let* ({ header; sig_version; entries = tail } as loaded) = load ~dir ~id in
  if header.base = 0 then Ok loaded
  else
    let* snap = load_snapshot ~dir ~id in
    let total = header.base + List.length tail in
    if snap.snap_base < header.base || snap.snap_base > total then
      Error
        (Printf.sprintf
           "journal: snapshot base %d outside journal window [%d, %d] for %S"
           snap.snap_base header.base total id)
    else if not (String.equal snap.snap_layer header.layer) || snap.snap_eol <> header.eol then
      Error (Printf.sprintf "journal: snapshot layer mismatch for %S" id)
    else if snap.snap_sig_version <> sig_version then
      Error (Printf.sprintf "journal: snapshot signature version mismatch for %S" id)
    else begin
      let rec drop n l = if n <= 0 then l else match l with [] -> [] | _ :: t -> drop (n - 1) t in
      Ok
        {
          header = { header with base = 0 };
          sig_version;
          entries = snap.snap_entries @ drop (snap.snap_base - header.base) tail;
        }
    end

let branch ?(sync = false) ~dir ~from_id ~to_id () =
  let ( let* ) = Result.bind in
  let* { header; sig_version; entries } = load_effective ~dir ~id:from_id in
  let* t = create ~sync ~sig_version ~dir { header with session = to_id } in
  let result =
    List.fold_left
      (fun acc e ->
        Result.bind acc (fun _ ->
            Result.map ignore (append t ~req:e.req ~signature:e.signature)))
      (Ok ()) entries
  in
  close t;
  result

let remove ~dir ~id =
  (try Sys.remove (path ~dir ~id) with Sys_error _ -> ());
  remove_snapshot ~dir ~id
