module Session = Ds_layer.Session
module Value = Ds_layer.Value
module P = Protocol
module Obs = Ds_obs.Obs

type config = {
  layers : (string * (eol:int -> Session.t)) list;
  journal_dir : string option;
  journal_sync : bool;
  default_eol : int;
  default_merits : string list;
  report_pareto : (string * string) option;
  capacity : int;
  compact_after : int option;
}

let config ?journal_dir ?(journal_sync = false) ?(default_eol = 768) ?(default_merits = [])
    ?report_pareto ?(capacity = 64) ?compact_after ~layers () =
  {
    layers;
    journal_dir;
    journal_sync;
    default_eol;
    default_merits;
    report_pareto;
    capacity;
    compact_after;
  }

(* Per-op request latency lives in the service's own telemetry
   registry ({!Ds_obs.Obs}) as one histogram per op — striped per
   domain inside Obs, so two domains recording the same op rarely
   contend and different ops never do.  The registry is per service
   instance (not {!Obs.default}): tests assert exact per-instance
   counts, and several services can coexist in one process.  The
   legacy [stats] reply shape survives as a shim over histogram
   snapshots — count, mean and max are tracked exactly by the
   histogram, so the old figures are bit-compatible. *)

let op_names =
  [
    "open"; "set"; "decide"; "default"; "retract"; "annotate"; "candidates"; "ranges";
    "issues"; "preview"; "script"; "trace"; "health"; "signature"; "report"; "branch";
    "compact"; "close"; "stats"; "metrics"; "healthz"; "batch";
  ]

(* the unified metric-name catalog (DESIGN.md 13): request latency is
   [dse_request_us{op="..."}], accept-to-dispatch wait is
   [dse_queue_wait_us] — the [stats] shim still spells the latter
   [queue_wait] for old clients *)
let op_metric op = Printf.sprintf "dse_request_us{op=%S}" op

type t = {
  cfg : config;
  store : Store.t;
  admission : Mutex.t;
      (* serializes session creation (open/branch/resume): the
         check-then-create of a new id must be atomic against another
         request creating the same id *)
  registry : Obs.registry;
  op_hists : (string, Obs.histogram) Hashtbl.t;
      (* op name -> its latency histogram; pre-populated with every op
         name at [create] and never resized after, so concurrent
         [Hashtbl.find_opt]s are safe without a table lock *)
  queue_hist : Obs.histogram;
  (* the durability story in numbers: how often sessions come back from
     disk, how (snapshot fast path vs full-history fallback), how long
     it takes, and how often compaction runs or fails *)
  resume_hist : Obs.histogram;
  c_resumes : Obs.counter;
  c_resume_snapshot : Obs.counter;
  c_resume_fallback : Obs.counter;
  c_compactions : Obs.counter;
  c_compaction_failures : Obs.counter;
  c_rehydrations : Obs.counter;
  started : float;
}

(* Parsing and indexing a layer is the dominant cost of [open] (~150ms
   for the shipped catalogues); sessions of one layer share the
   immutable structure, so build each (layer, eol) once and hand every
   session a [Session.pristine] copy — a fresh lineage (own guard
   registry, own compliance cache) over the shared hierarchy and
   index.  The lock is held across a build: two racing first-opens of
   one layer wait rather than both building. *)
let wrap_layers registry layers =
  let cache : (string * int, Session.t) Hashtbl.t = Hashtbl.create 8 in
  let lock = Mutex.create () in
  let c_hits = Obs.counter registry "dse_serve_layer_cache_hits_total" in
  let c_misses = Obs.counter registry "dse_serve_layer_cache_misses_total" in
  List.map
    (fun (name, make) ->
      ( name,
        fun ~eol ->
          Mutex.lock lock;
          match Hashtbl.find_opt cache (name, eol) with
          | Some master ->
            Obs.incr c_hits;
            Mutex.unlock lock;
            Session.pristine master
          | None -> (
            match make ~eol with
            | master ->
              Hashtbl.add cache (name, eol) master;
              Obs.incr c_misses;
              Mutex.unlock lock;
              Session.pristine master
            | exception e ->
              Obs.incr c_misses;
              Mutex.unlock lock;
              raise e) ))
    layers

let create cfg =
  let registry = Obs.create_registry () in
  let op_hists = Hashtbl.create 32 in
  List.iter (fun op -> Hashtbl.add op_hists op (Obs.histogram registry (op_metric op))) op_names;
  {
    cfg = { cfg with layers = wrap_layers registry cfg.layers };
    store = Store.create ~capacity:cfg.capacity ();
    admission = Mutex.create ();
    registry;
    op_hists;
    queue_hist = Obs.histogram registry "dse_queue_wait_us";
    resume_hist = Obs.histogram registry "dse_resume_us";
    c_resumes = Obs.counter registry "dse_resume_total";
    c_resume_snapshot = Obs.counter registry "dse_resume_from_snapshot_total";
    c_resume_fallback = Obs.counter registry "dse_resume_fallback_total";
    c_compactions = Obs.counter registry "dse_compactions_total";
    c_compaction_failures = Obs.counter registry "dse_compaction_failures_total";
    c_rehydrations = Obs.counter registry "dse_rehydrations_total";
    started = Unix.gettimeofday ();
  }

let registry t = t.registry

let session_count t = Store.count t.store

(* ------------------------------------------------------------------ *)
(* Small helpers                                                       *)

let valid_id id =
  let n = String.length id in
  n >= 1 && n <= 64
  && id.[0] <> '.'
  && String.for_all
       (fun c ->
         match c with 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '.' | '_' | '-' -> true | _ -> false)
       id

let journal_exists t id =
  match t.cfg.journal_dir with None -> false | Some dir -> Journal.exists ~dir ~id

(* Never hand out an auto id whose journal a previous server life still
   owns: [Journal.create] truncates, so colliding with one would destroy
   resumable history. *)
let fresh_id t = Store.fresh_id ~skip:(journal_exists t) t.store

let focus_str s = String.concat "." (Session.focus s)

let session_summary id s =
  [
    ("session", Jsonx.Str id);
    ("focus", Jsonx.Str (focus_str s));
    ("candidates", Jsonx.Int (Session.candidate_count s));
  ]

let range_json = function
  | Some (lo, hi) -> Jsonx.List [ Jsonx.Float lo; Jsonx.Float hi ]
  | None -> Jsonx.Null

(* The replay engine: load, instantiate, re-apply, verify.  Pure with
   respect to the service (used by [open --resume] and directly by
   tests and recovery tooling). *)

let apply_mutation s = function
  | P.Set { name; value; _ } -> Some (Session.set s name value)
  | P.Default { name; _ } -> Some (Session.set_default s name)
  | P.Retract { name; _ } -> Some (Session.retract s name)
  | P.Annotate { text; _ } -> Some (Ok (Session.annotate s text))
  | P.Open _ | P.Candidates _ | P.Ranges _ | P.Issues _ | P.Preview _ | P.Script _
  | P.Trace _ | P.Health _ | P.Signature _ | P.Report _ | P.Branch _ | P.Compact _
  | P.Close _ | P.Stats | P.Metrics _ | P.Healthz | P.Batch _ ->
    None

let ( let* ) = Result.bind

(* The one replay fold, behind resume and compaction: decode each item
   to a request, apply it, sign the result.  The callers differ only in
   what [signed] does with the signature — check it against the one the
   journal recorded, or record it — and in how [refused] words a request
   that no longer applies ([Some msg]) or is not a mutation ([None]). *)
let replay_fold ~decode ~refused ~signed fresh init items =
  List.fold_left
    (fun acc item ->
      let* s, n, st = acc in
      let at = n + 1 in
      let* req = decode at item in
      let* s' =
        match apply_mutation s req with
        | Some (Ok s') -> Ok s'
        | Some (Error msg) -> Error (refused at (Some msg))
        | None -> Error (refused at None)
      in
      let* st = signed at item req (Session.candidate_signature s') st in
      Ok (s', at, st))
    (Ok (fresh, 0, init)) items

(* Re-apply journal/snapshot entries to [fresh], verifying the recorded
   candidate signature after every one. *)
let replay_entries fresh entries =
  let* s, n, () =
    replay_fold fresh () entries
      ~decode:(fun at (entry : Journal.entry) ->
        Result.map_error
          (Printf.sprintf "journal entry %d: %s" at)
          (P.request_of_json entry.Journal.req))
      ~refused:(fun at -> function
        | Some msg -> Printf.sprintf "journal entry %d no longer applies: %s" at msg
        | None -> Printf.sprintf "journal entry %d is not a mutation" at)
      ~signed:(fun at (entry : Journal.entry) _ got () ->
        if String.equal got entry.Journal.signature then Ok ()
        else
          Error
            (Printf.sprintf
               "replay diverged at entry %d: candidate signature %s, journal recorded %s \
                (layer definition changed since the journal was written?)"
               at got entry.Journal.signature))
  in
  Ok (s, n)

let rec drop_entries n l =
  if n <= 0 then l else match l with [] -> [] | _ :: rest -> drop_entries (n - 1) rest

type resume_info = {
  r_session : Session.t;
  r_layer : string;
  r_eol : int;
  r_replayed : int; (* total entries applied (snapshot script + tail) *)
  r_tail_replayed : int; (* of which, journal tail entries *)
  r_from_snapshot : bool;
  r_fallback : bool; (* a snapshot existed but full history was used *)
}

let layer_factory ~layers ~id header =
  match List.assoc_opt header.Journal.layer layers with
  | Some make -> (
    fun () ->
      match make ~eol:header.Journal.eol with
      | s -> Ok s
      | exception e -> Error ("layer factory failed: " ^ Printexc.to_string e))
  | None ->
    fun () ->
      Error
        (Printf.sprintf "journal %S was recorded against unknown layer %S" id
           header.Journal.layer)

let resume ?(prefer_snapshot = true) ~layers ~dir ~id () =
  let* header, tail = Journal.load ~dir ~id in
  let make_fresh = layer_factory ~layers ~id header in
  let tail_len = List.length tail in
  let total = header.Journal.base + tail_len in
  let finish ~from_snapshot ~fallback ~snap_applied (s, n) =
    Ok
      {
        r_session = s;
        r_layer = header.Journal.layer;
        r_eol = header.Journal.eol;
        r_replayed = snap_applied + n;
        r_tail_replayed = n;
        r_from_snapshot = from_snapshot;
        r_fallback = fallback;
      }
  in
  let full_history ~fallback =
    let* fresh = make_fresh () in
    let* sn = replay_entries fresh tail in
    finish ~from_snapshot:false ~fallback ~snap_applied:0 sn
  in
  (* [prefer_snapshot:false] is the oracle mode of the soak harness: it
     ignores the snapshot whenever the full history is still on disk
     (base 0).  Once the journal is compacted the snapshot IS part of
     the lineage and is used regardless. *)
  let snap_result =
    if Journal.snapshot_exists ~dir ~id then Some (Journal.load_snapshot ~dir ~id) else None
  in
  let usable =
    match snap_result with
    | Some (Ok snap)
      when snap.Journal.snap_base >= header.Journal.base
           && snap.Journal.snap_base <= total
           && String.equal snap.Journal.snap_layer header.Journal.layer
           && snap.Journal.snap_eol = header.Journal.eol
           && (prefer_snapshot || header.Journal.base > 0) ->
      Some snap
    | _ -> None
  in
  match usable with
  | Some snap -> (
    let from_snapshot () =
      let* fresh = make_fresh () in
      let* s, applied = replay_entries fresh snap.Journal.snap_entries in
      let got = Session.candidate_signature s in
      if not (String.equal got snap.Journal.snap_signature) then
        Error
          (Printf.sprintf
             "snapshot replay diverged: candidate signature %s, snapshot recorded %s" got
             snap.Journal.snap_signature)
      else
        let after = drop_entries (snap.Journal.snap_base - header.Journal.base) tail in
        let* sn = replay_entries s after in
        finish ~from_snapshot:true ~fallback:false ~snap_applied:applied sn
    in
    match from_snapshot () with
    | Ok _ as ok -> ok
    | Error msg ->
      (* a snapshot that fails mid-replay gets the same treatment as
         one that fails its checksum: full-history fallback while the
         history is whole, a loud error once it is truncated *)
      if header.Journal.base = 0 then full_history ~fallback:true else Error msg)
  | None ->
    if header.Journal.base = 0 then
      full_history ~fallback:(prefer_snapshot && snap_result <> None)
    else
      Error
        (match snap_result with
        | Some (Error msg) ->
          Printf.sprintf
            "session %S: journal is compacted (%d entries truncated) and its snapshot is \
             unusable: %s"
            id header.Journal.base msg
        | Some (Ok _) ->
          Printf.sprintf
            "session %S: journal is compacted (%d entries truncated) and its snapshot does \
             not cover it"
            id header.Journal.base
        | None ->
          Printf.sprintf "session %S: journal is compacted (%d entries truncated) but has no \
                          snapshot"
            id header.Journal.base)

(* The service-side resume: same engine, plus telemetry. *)
let resume_recorded t ~dir ~id =
  let t0 = Obs.now_us () in
  let r = resume ~layers:t.cfg.layers ~dir ~id () in
  Obs.observe t.resume_hist (Obs.now_us () -. t0);
  Obs.incr t.c_resumes;
  (match r with
  | Ok info ->
    if info.r_from_snapshot then Obs.incr t.c_resume_snapshot;
    if info.r_fallback then Obs.incr t.c_resume_fallback
  | Error _ -> ());
  r

(* ------------------------------------------------------------------ *)
(* Compaction                                                          *)

(* The compacted script: the session's current designer bindings (in
   the order they were entered, defaults replayed as defaults so the
   binding source — part of the signature — survives) prefixed by the
   history's annotations, so the exploration trail's notes are not
   lost.  Retracted and re-entered decisions collapse; this is why the
   checkpoint is short where the raw history is long. *)
let compacted_script ~id live ~history =
  let annotations =
    List.filter_map
      (fun (e : Journal.entry) ->
        match P.request_of_json e.Journal.req with Ok (P.Annotate _ as r) -> Some r | _ -> None)
      history
  in
  let sources =
    List.map
      (fun (b : Session.binding) ->
        (b.Session.prop.Ds_layer.Property.name, b.Session.source))
      (Session.bindings live)
  in
  let scripted = Session.script live in
  let sets =
    List.map
      (fun (name, value) ->
        match List.assoc_opt name sources with
        | Some Session.Default_value -> P.Default { session = id; name }
        | _ -> P.Set { session = id; name; value; decide = false })
      scripted
  in
  (* defaults the script may not carry (no derived bindings: they
     re-derive on replay) *)
  let extra_defaults =
    List.filter_map
      (fun (name, source) ->
        match source with
        | Session.Default_value when not (List.mem_assoc name scripted) ->
          Some (P.Default { session = id; name })
        | _ -> None)
      sources
  in
  annotations @ sets @ extra_defaults

(* Build a verified checkpoint for [live]: replay the compacted script
   against a pristine session, recording per-entry signatures, and
   require the final signature to equal the live one.  A compacted
   script can legitimately diverge from history replay (guard
   quarantine state may depend on retracted bindings that faulted a
   constraint), and this verification — not the writer's good
   intentions — is what makes truncating the history safe: on any
   mismatch compaction is refused and the full journal stays. *)
let build_snapshot t ~id ~layer ~eol ~base ~live ~history =
  let make_fresh =
    layer_factory ~layers:t.cfg.layers ~id { Journal.session = id; layer; eol; base = 0 }
  in
  let* fresh = make_fresh () in
  let* final, _, entries_rev =
    replay_fold fresh [] (compacted_script ~id live ~history)
      ~decode:(fun _ req -> Ok req)
      ~refused:(fun _ -> function
        | Some msg -> Printf.sprintf "compacted script does not replay: %s" msg
        | None -> "compacted script contains a non-mutation")
      ~signed:(fun _ _ req signature entries ->
        Ok ({ Journal.req = P.json_of_request req; signature } :: entries))
  in
  let live_sig = Session.candidate_signature live in
  let final_sig = Session.candidate_signature final in
  if not (String.equal final_sig live_sig) then
    Error
      (Printf.sprintf
         "compaction verification failed: compacted script signs %s, live session signs %s \
          — keeping the full journal"
         final_sig live_sig)
  else
    Ok
      {
        Journal.snap_session = id;
        snap_layer = layer;
        snap_eol = eol;
        snap_base = base;
        snap_signature = live_sig;
        snap_entries = List.rev entries_rev;
      }

(* The one checkpoint step, behind live and evicted compaction: load
   the journal, skip an empty tail ([skipped]), build the verified
   snapshot from the effective history and publish it — and only once
   the snapshot is durable let [swap] truncate the journal to the new
   base.  A crash or injected fault between the two leaves a valid
   snapshot AND the full journal: both lineages replay to the same
   state. *)
let checkpoint t ~dir ~id ~live ~skipped ~swap =
  let* header, tail = Journal.load ~dir ~id in
  let total = header.Journal.base + List.length tail in
  match tail with
  | [] -> Ok (skipped total) (* tail already empty: nothing to gain *)
  | _ :: _ ->
    let* _, history = Journal.load_effective ~dir ~id in
    let* snap =
      build_snapshot t ~id ~layer:header.Journal.layer ~eol:header.Journal.eol ~base:total
        ~live ~history
    in
    let* () = Journal.write_snapshot ~dir snap in
    swap total { header with Journal.base = total }

(* Compact a session whose journal handle is closed (evicted, or never
   resident): the truncated journal is written and closed again. *)
let compact_files t ~dir ~id ~live =
  checkpoint t ~dir ~id ~live ~skipped:Fun.id ~swap:(fun total header ->
      let* j = Journal.rewrite ~sync:t.cfg.journal_sync ~dir header [] in
      Journal.close j;
      Ok total)

(* Compact a resident session under its held mutation: swap the live
   journal handle for the rewritten one.  On rewrite failure the old
   file is intact — reopen it; if even the reopen fails, evict the
   session (degrade to resume: the files on disk are complete). *)
let compact_live t ~dir m (entry : Store.entry) ~id j =
  let* () = Journal.sync_all j in
  checkpoint t ~dir ~id ~live:entry.Store.session
    ~skipped:(fun total -> (total, entry))
    ~swap:(fun total header ->
      Journal.close j;
      match Journal.rewrite ~sync:t.cfg.journal_sync ~dir header [] with
      | Ok j' ->
        let entry' = { entry with Store.journal = Some j' } in
        Store.commit_mutation m entry';
        Ok (total, entry')
      | Error msg -> (
        match Journal.open_append ~sync:t.cfg.journal_sync ~dir ~id () with
        | Ok j'' ->
          Store.commit_mutation m { entry with Store.journal = Some j'' };
          Error msg
        | Error msg2 ->
          Store.remove_locked m;
          Error
            (Printf.sprintf "%s; %s; session %S closed, re-open with resume" msg msg2 id)))

(* Admission: put a session in the store.  Whatever the LRU pushes out
   to make room leaves resident memory but not the service: its journal
   (handle already closed by the store) is compacted to a checkpoint so
   the inevitable rehydration replays a short script, not the whole
   history.  Failure is harmless — the journal is untouched and
   rehydration falls back to replaying it. *)
let admit t id entry =
  let evicted = Store.put t.store id entry in
  match t.cfg.journal_dir with
  | None -> ()
  | Some dir ->
    List.iter
      (fun (out_id, (e : Store.entry)) ->
        match e.Store.journal with
        | None -> ()
        | Some _ -> (
          match compact_files t ~dir ~id:out_id ~live:e.Store.session with
          | Ok _ -> Obs.incr t.c_compactions
          | Error _ -> Obs.incr t.c_compaction_failures))
      evicted

(* ------------------------------------------------------------------ *)
(* Dispatch                                                            *)

let unknown_session sid =
  P.Failed (P.Unknown_session, Printf.sprintf "no session %S (open one first)" sid)

(* Session creation (open / resume / branch targets / rehydration) runs
   under the admission lock: the existence checks and the insert must
   be atomic against a concurrent request creating the same id.
   Mutations and reads of existing sessions never take it. *)
let admitted t f =
  Mutex.lock t.admission;
  match f () with
  | v ->
    Mutex.unlock t.admission;
    v
  | exception e ->
    Mutex.unlock t.admission;
    raise e

(* Transparent rehydration: a session that is not resident but has a
   journal on disk (evicted, or left over from a previous server life)
   is resumed and re-admitted on first touch — the store is a cache
   over the durable session universe, and eviction is invisible to
   clients.  Must NOT be called with the admission lock held. *)
let rehydrate t sid =
  match t.cfg.journal_dir with
  | None -> `Absent
  | Some dir ->
    if not (Journal.exists ~dir ~id:sid) then `Absent
    else
      admitted t (fun () ->
          if Store.mem t.store sid then `Ok (* someone else rehydrated while we waited *)
          else
            match resume_recorded t ~dir ~id:sid with
            | Error msg -> `Failed msg
            | Ok info -> (
              match Journal.open_append ~sync:t.cfg.journal_sync ~dir ~id:sid () with
              | Error msg -> `Failed msg
              | Ok j ->
                admit t sid
                  {
                    Store.session = info.r_session;
                    layer = info.r_layer;
                    eol = info.r_eol;
                    journal = Some j;
                  };
                Obs.incr t.c_rehydrations;
                `Ok))

(* Read-only ops: a plain lookup, no lock held while the reply is
   computed — the session value is immutable, so a concurrent mutation
   of the same id swaps the slot's pointer without disturbing us.
   [with_resident] is the store-only variant for callers already under
   the admission lock (rehydration would self-deadlock there). *)
let with_resident t sid k =
  match Store.find t.store sid with None -> unknown_session sid | Some entry -> k entry

let with_session t sid k =
  match Store.find t.store sid with
  | Some entry -> k entry
  | None -> (
    match rehydrate t sid with
    | `Absent -> unknown_session sid
    | `Failed msg -> P.Failed (P.Journal_error, msg)
    | `Ok -> (
      match Store.find t.store sid with
      | Some entry -> k entry
      | None -> unknown_session sid (* evicted again before we could look *)))

let begin_mutation_rehydrating t sid =
  match Store.begin_mutation t.store sid with
  | Some me -> `Begun me
  | None -> (
    match rehydrate t sid with
    | `Absent -> `Missing
    | `Failed msg -> `Error msg
    | `Ok -> (
      match Store.begin_mutation t.store sid with Some me -> `Begun me | None -> `Missing))

(* Per-request latency attribution (DESIGN.md 18): the op span's phase
   attrs answer "where did this request's time go" — slot-lock acquire
   (including any rehydration behind it), layer work, journal append,
   group-commit fsync wait.  Queue wait and reply flush are measured
   by the callers that own those phases ([Server] / [handle_line_into])
   and merged into the same attr set at span close. *)
type phases = {
  mutable ph_lock : float;
  mutable ph_sweep : float;
  mutable ph_journal : float;
  mutable ph_fsync : float;
}

let no_phases () = { ph_lock = 0.0; ph_sweep = 0.0; ph_journal = 0.0; ph_fsync = 0.0 }

let timed add f =
  let t0 = Obs.now_us () in
  let r = f () in
  add (Obs.now_us () -. t0);
  r

let handle_compact t sid =
  match t.cfg.journal_dir with
  | None -> P.Failed (P.Journal_error, "cannot compact: journaling is disabled")
  | Some dir -> (
    match begin_mutation_rehydrating t sid with
    | `Missing -> unknown_session sid
    | `Error msg -> P.Failed (P.Journal_error, msg)
    | `Begun (m, entry) ->
      let response =
        match entry.Store.journal with
        | None -> P.Failed (P.Journal_error, "session has no journal")
        | Some j -> (
          match compact_live t ~dir m entry ~id:sid j with
          | Ok (total, entry') ->
            Obs.incr t.c_compactions;
            let tail =
              match entry'.Store.journal with Some j' -> Journal.entry_count j' | None -> 0
            in
            P.Reply
              [
                ("session", Jsonx.Str sid);
                ("entries", Jsonx.Int total);
                ("base", Jsonx.Int total);
                ("tail", Jsonx.Int tail);
              ]
          | Error msg ->
            Obs.incr t.c_compaction_failures;
            P.Failed (P.Journal_error, msg))
      in
      Store.end_mutation m;
      response)

let handle_open t ~session ~layer ~eol ~resume:resume_flag =
  admitted t @@ fun () ->
  let id_result =
    match session with
    | Some id when not (valid_id id) ->
      Error
        (P.Bad_request,
         Printf.sprintf "bad session id %S (want [A-Za-z0-9._-]{1,64}, no leading dot)" id)
    | Some id -> Ok id
    | None -> Ok (fresh_id t)
  in
  match id_result with
  | Error (code, msg) -> P.Failed (code, msg)
  | Ok id when Store.mem t.store id ->
    P.Failed (P.Session_exists, Printf.sprintf "session %S is already open" id)
  | Ok id when resume_flag -> (
    match t.cfg.journal_dir with
    | None -> P.Failed (P.Journal_error, "cannot resume: journaling is disabled")
    | Some dir -> (
      match resume_recorded t ~dir ~id with
      | Error msg -> P.Failed (P.Journal_error, msg)
      | Ok info ->
        if (not (String.equal layer "")) && not (String.equal layer info.r_layer) then
          P.Failed
            (P.Bad_request,
             Printf.sprintf "journal %S belongs to layer %S, not %S" id info.r_layer layer)
        else (
          match Journal.open_append ~sync:t.cfg.journal_sync ~dir ~id () with
          | Error msg -> P.Failed (P.Journal_error, msg)
          | Ok j ->
            admit t id
              {
                Store.session = info.r_session;
                layer = info.r_layer;
                eol = info.r_eol;
                journal = Some j;
              };
            P.Reply
              (session_summary id info.r_session
              @ [
                  ("layer", Jsonx.Str info.r_layer);
                  ("eol", Jsonx.Int info.r_eol);
                  ("resumed", Jsonx.Bool true);
                  ("replayed", Jsonx.Int info.r_replayed);
                  ("tail_replayed", Jsonx.Int info.r_tail_replayed);
                  ("snapshot", Jsonx.Bool info.r_from_snapshot);
                  ("signature", Jsonx.Str (Session.candidate_signature info.r_session));
                ]))))
  | Ok id when journal_exists t id ->
    (* a plain open would truncate the resumable history on disk *)
    P.Failed
      (P.Session_exists,
       Printf.sprintf
         "session %S has a journal on disk; resume it with open --resume or pick another id"
         id)
  | Ok id -> (
    match List.assoc_opt layer t.cfg.layers with
    | None ->
      P.Failed
        (P.Unknown_layer,
         Printf.sprintf "unknown layer %S (known: %s)" layer
           (String.concat ", " (List.map fst t.cfg.layers)))
    | Some make -> (
      let eol = Option.value ~default:t.cfg.default_eol eol in
      let s = make ~eol in
      let journal =
        match t.cfg.journal_dir with
        | None -> Ok None
        | Some dir ->
          Result.map Option.some
            (Journal.create ~sync:t.cfg.journal_sync ~dir
               { Journal.session = id; layer; eol; base = 0 })
      in
      match journal with
      | Error msg -> P.Failed (P.Journal_error, msg)
      | Ok journal ->
        admit t id { Store.session = s; layer; eol; journal };
        P.Reply
          (session_summary id s @ [ ("layer", Jsonx.Str layer); ("eol", Jsonx.Int eol) ])))

let handle_branch t sid as_id =
  (* rehydrate the source before taking the admission lock (rehydration
     takes it itself); a source evicted in the window between this and
     the lookup below simply reports unknown_session *)
  (match Store.find t.store sid with
  | Some _ -> ()
  | None -> ignore (rehydrate t sid));
  admitted t @@ fun () ->
  with_resident t sid (fun entry ->
      let id_result =
        match as_id with
        | Some id when not (valid_id id) ->
          Error (P.Bad_request, Printf.sprintf "bad session id %S" id)
        | Some id -> Ok id
        | None -> Ok (fresh_id t)
      in
      match id_result with
      | Error (code, msg) -> P.Failed (code, msg)
      | Ok nid when Store.mem t.store nid ->
        P.Failed (P.Session_exists, Printf.sprintf "session %S is already open" nid)
      | Ok nid when journal_exists t nid ->
        P.Failed
          (P.Session_exists,
           Printf.sprintf
             "session %S has a journal on disk; resume it or pick another branch id" nid)
      | Ok nid -> (
        let journal =
          match t.cfg.journal_dir with
          | None -> Ok None
          | Some dir -> (
            match Journal.branch ~sync:t.cfg.journal_sync ~dir ~from_id:sid ~to_id:nid () with
            | Error msg -> Error msg
            | Ok () ->
              Result.map Option.some (Journal.open_append ~sync:t.cfg.journal_sync ~dir ~id:nid ()))
        in
        match journal with
        | Error msg -> P.Failed (P.Journal_error, msg)
        | Ok journal ->
          (* sessions are immutable: the branch shares the value, O(1) *)
          admit t nid { entry with Store.journal = journal };
          P.Reply (session_summary nid entry.Store.session @ [ ("from", Jsonx.Str sid) ])))

let merits_or_default t = function
  | Some (_ :: _ as ms) -> ms
  | Some [] | None -> t.cfg.default_merits

let op_name = function
  | P.Open _ -> "open"
  | P.Set { decide = true; _ } -> "decide"
  | P.Set _ -> "set"
  | P.Default _ -> "default"
  | P.Retract _ -> "retract"
  | P.Annotate _ -> "annotate"
  | P.Candidates _ -> "candidates"
  | P.Ranges _ -> "ranges"
  | P.Issues _ -> "issues"
  | P.Preview _ -> "preview"
  | P.Script _ -> "script"
  | P.Trace _ -> "trace"
  | P.Health _ -> "health"
  | P.Signature _ -> "signature"
  | P.Report _ -> "report"
  | P.Branch _ -> "branch"
  | P.Compact _ -> "compact"
  | P.Close _ -> "close"
  | P.Stats -> "stats"
  | P.Metrics _ -> "metrics"
  | P.Healthz -> "healthz"
  | P.Batch _ -> "batch"

(* [t.op_hists] is read-only after [create] (every op pre-populated),
   so the lookup itself needs no lock; observations go through the
   histogram's per-domain stripes. *)
let record t op us =
  match Hashtbl.find_opt t.op_hists op with Some h -> Obs.observe h us | None -> ()

(* attributes that let a span page retell the exploration: which
   session, and for mutations which property went to which value *)
let req_attrs req =
  let op = op_name req in
  let base = [ ("op", op) ] in
  match req with
  | P.Open { session; layer; _ } ->
    base
    @ (match session with Some s -> [ ("session", s) ] | None -> [])
    @ [ ("layer", layer) ]
  | P.Set { session; name; value; _ } ->
    base @ [ ("session", session); ("name", name); ("value", Value.to_string value) ]
  | P.Default { session; name } | P.Retract { session; name } ->
    base @ [ ("session", session); ("name", name) ]
  | P.Annotate { session; _ }
  | P.Candidates { session; _ }
  | P.Ranges { session; _ }
  | P.Issues { session }
  | P.Script { session }
  | P.Trace { session; _ }
  | P.Health { session }
  | P.Signature { session }
  | P.Report { session; _ } ->
    base @ [ ("session", session) ]
  | P.Preview { session; issue; _ } -> base @ [ ("session", session); ("issue", issue) ]
  | P.Branch { session; as_id } ->
    base
    @ [ ("session", session) ]
    @ (match as_id with Some id -> [ ("as", id) ] | None -> [])
  | P.Compact { session } | P.Close { session } -> base @ [ ("session", session) ]
  | P.Batch { session; reqs } ->
    base @ [ ("session", session); ("reqs", string_of_int (List.length reqs)) ]
  | P.Stats | P.Metrics _ | P.Healthz -> base

let response_attrs = function
  | P.Reply payload ->
    ("ok", "true")
    :: List.filter_map
         (fun (k, v) ->
           match (k, v) with
           | "candidates", Jsonx.Int n | "count", Jsonx.Int n ->
             Some ("candidates", string_of_int n)
           | "session", Jsonx.Str s -> Some ("session", s)
           | _ -> None)
         payload
  | P.Failed (code, _) -> [ ("ok", "false"); ("code", P.error_code_label code) ]

(* The session-scoped read-only queries, factored over an explicit
   session value: [dispatch] evaluates them against the store entry,
   [run_steps] against the in-progress value mid-batch (so a read
   between two batched mutations observes the first one applied). *)
let read_reply t sid s (req : P.request) =
  match req with
  | P.Candidates { max; _ } ->
    (* [max] bounds the id page, never the count: a fleet-scale
       poll asks "how many survive?" thousands of times a second,
       and shipping (or even listing) every id would make the reply
       O(survivors) *)
    let count, page = Session.candidate_page s ~max in
    P.Reply
      [
        ("session", Jsonx.Str sid);
        ("count", Jsonx.Int count);
        ("candidates", Jsonx.List (List.map (fun qid -> Jsonx.Str qid) page));
      ]
  | P.Ranges { merits; _ } ->
    let merits = merits_or_default t merits in
    P.Reply
      [
        ("session", Jsonx.Str sid);
        ( "ranges",
          Jsonx.Obj
            (List.map2
               (fun merit summary -> (merit, range_json summary.Ds_layer.Evaluation.merit_range))
               merits (Session.merit_summaries s ~merits)) );
      ]
  | P.Issues _ ->
    P.Reply
      [
        ("session", Jsonx.Str sid);
        ( "issues",
          Jsonx.List
            (List.map
               (fun (prop, eligible) ->
                 Jsonx.Obj
                   [
                     ("name", Jsonx.Str prop.Ds_layer.Property.name);
                     ( "domain",
                       Jsonx.Str (Ds_layer.Domain.describe prop.Ds_layer.Property.domain) );
                     ("eligible", Jsonx.Bool eligible);
                   ])
               (Session.open_issues s)) );
      ]
  | P.Preview { issue; merit; _ } -> (
    let merit =
      match merit with
      | Some m -> m
      | None -> ( match t.cfg.default_merits with m :: _ -> m | [] -> "")
    in
    match Session.preview_options s ~issue ~merit with
    | Error msg -> P.Failed (P.Rejected, msg)
    | Ok previews ->
      P.Reply
        [
          ("session", Jsonx.Str sid);
          ("issue", Jsonx.Str issue);
          ("merit", Jsonx.Str merit);
          ( "options",
            Jsonx.List
              (List.map
                 (fun pv ->
                   match pv.Session.outcome with
                   | `Explored (n, range) ->
                     Jsonx.Obj
                       [
                         ("value", Jsonx.Str pv.Session.option_value);
                         ("outcome", Jsonx.Str "explored");
                         ("candidates", Jsonx.Int n);
                         ("range", range_json range);
                       ]
                   | `Rejected reason ->
                     Jsonx.Obj
                       [
                         ("value", Jsonx.Str pv.Session.option_value);
                         ("outcome", Jsonx.Str "rejected");
                         ("reason", Jsonx.Str reason);
                       ])
                 previews) );
        ])
  | P.Script _ ->
    P.Reply
      [
        ("session", Jsonx.Str sid);
        ( "script",
          Jsonx.List
            (List.map
               (fun (name, value) ->
                 Jsonx.Obj [ ("name", Jsonx.Str name); ("value", P.json_of_value value) ])
               (Session.script s)) );
      ]
  | P.Trace { spans = false; _ } ->
    P.Reply
      [
        ("session", Jsonx.Str sid);
        ("trace", Jsonx.Str (Format.asprintf "%a" Session.pp_trace s));
      ]
  | P.Health _ ->
    P.Reply
      [
        ("session", Jsonx.Str sid);
        ( "health",
          Jsonx.List
            (List.map
               (fun (name, status) ->
                 Jsonx.Obj
                   (( "constraint", Jsonx.Str name )
                   :: ("status", Jsonx.Str (Ds_layer.Guard.status_label status))
                   ::
                   (match status with
                   | Ds_layer.Guard.Quarantined { reason; _ } ->
                     [ ("reason", Jsonx.Str reason) ]
                   | Ds_layer.Guard.Healthy | Ds_layer.Guard.Degraded -> [])))
               (Session.health s)) );
        ( "diagnostics",
          Jsonx.List
            (List.map (fun d -> Jsonx.Str (Ds_layer.Guard.describe_diag d)) (Session.diagnostics s))
        );
      ]
  | P.Signature _ ->
    P.Reply
      [
        ("session", Jsonx.Str sid);
        ("signature", Jsonx.Str (Session.candidate_signature s));
      ]
  | P.Report { title; _ } ->
    let markdown =
      Ds_layer.Report.render ?title ~merits:t.cfg.default_merits ?pareto:t.cfg.report_pareto s
    in
    P.Reply [ ("session", Jsonx.Str sid); ("markdown", Jsonx.Str markdown) ]
  | P.Open _ | P.Set _ | P.Default _ | P.Retract _ | P.Annotate _
  | P.Trace { spans = true; _ }
  | P.Branch _ | P.Compact _ | P.Close _ | P.Stats | P.Metrics _ | P.Healthz | P.Batch _ ->
    P.Failed (P.Server_error, "not a session read")

(* A set of a non-finite real would journal as null and poison every
   later resume.  Requests off the wire are screened by the decoder;
   the shell and library callers build requests directly. *)
let non_finite = function
  | P.Set { name; value = Value.Real f; _ } when not (Float.is_finite f) ->
    Some (P.Failed (P.Bad_request, Printf.sprintf "non-finite value for %S is not accepted" name))
  | _ -> None

(* The mutation engine.  A single set/decide/default/retract/annotate
   is a one-step run; a batch is a run of its sub-requests.  A run holds
   the session's slot lock once (mutations serialize per session id,
   not globally), applies each step against the in-progress value (so a
   read between two mutations observes the first), and journals every
   successful mutation as its own ordinary entry — a batch's journal is
   byte-identical to the equivalent sequential op sequence.

   Write-ahead order: a step's journal line is appended (and flushed to
   the kernel) before the new state is committed and before any reply
   leaves; a failed append fails the step with the state unchanged.
   The first {e mutation} failure (screen, layer rejection, journal
   append) aborts the run: its reply is the last result and its index
   the abort index.  Read failures never abort.

   When [compact_after] is configured and the journal tail has grown
   past it, the run also compacts while the slot is still held (after
   [sync_all], so acknowledged durability is never weakened by the
   handle swap).  Compaction failure never fails the run — the replies
   report the applied state; the journal simply stays long.

   In sync mode the fsync happens {e after} the slot lock is released,
   once per run (a group commit to the last appended seq): the reply
   still waits for durability, but the next run on the same session
   (and every other session) overlaps the disk flush.  A
   {e failed} fsync is the one case where "failed request, state
   unchanged" cannot hold: the run is already committed and visible.
   Rather than acknowledge in-memory state whose durability is unknown
   (a retry would double-apply), the session is evicted and the error
   ([retry_hint] names what not to retry) sends the client to re-open —
   or simply touch the session again: rehydration replays exactly what
   reached disk.

   [around] wraps each step: identity for a single mutation (whose
   span and latency record belong to [handle]), a per-step span and
   latency record for a batch. *)
let run_steps t ph sid ~around ~retry_hint reqs =
  match
    timed (fun d -> ph.ph_lock <- ph.ph_lock +. d) (fun () -> begin_mutation_rehydrating t sid)
  with
  | `Missing -> Error (unknown_session sid)
  | `Error msg -> Error (P.Failed (P.Journal_error, msg))
  | `Begun (m, entry0) -> (
    let cur = ref entry0 in
    let mutated = ref false in
    let sync_after = ref None in
    let sweep f = timed (fun d -> ph.ph_sweep <- ph.ph_sweep +. d) f in
    let step req =
      match non_finite req with
      | Some refused -> `Abort refused
      | None -> (
        match sweep (fun () -> apply_mutation !cur.Store.session req) with
        | Some (Error msg) -> `Abort (P.Failed (P.Rejected, msg))
        | Some (Ok s') -> (
          let signature = Session.candidate_signature s' in
          let journaled =
            match !cur.Store.journal with
            | None -> Ok None
            | Some j ->
              timed
                (fun d -> ph.ph_journal <- ph.ph_journal +. d)
                (fun () ->
                  Result.map
                    (fun seq -> Some (j, seq))
                    (Journal.append j ~req:(P.json_of_request req) ~signature))
          in
          match journaled with
          | Error msg -> `Abort (P.Failed (P.Journal_error, msg))
          | Ok jseq ->
            cur := { !cur with Store.session = s' };
            mutated := true;
            if Option.is_some jseq then sync_after := jseq;
            `Ok (P.Reply (session_summary sid s' @ [ ("signature", Jsonx.Str signature) ])))
        | None -> (
          try `Ok (sweep (fun () -> read_reply t sid !cur.Store.session req))
          with e -> `Ok (P.Failed (P.Server_error, Printexc.to_string e))))
    in
    let rec run i acc = function
      | [] -> (List.rev acc, None)
      | req :: rest -> (
        match around req (fun () -> step req) with
        | `Ok r -> run (i + 1) (r :: acc) rest
        | `Abort r -> (List.rev (r :: acc), Some i))
    in
    let outcome =
      match
        let outcome = run 0 [] reqs in
        if !mutated then Store.commit_mutation m !cur;
        (match (t.cfg.journal_dir, t.cfg.compact_after, !sync_after) with
        | Some dir, Some threshold, Some (j, _) when Journal.entry_count j >= threshold -> (
          match compact_live t ~dir m !cur ~id:sid j with
          | Ok _ ->
            Obs.incr t.c_compactions;
            (* the handle [sync_to] would target is gone; the snapshot +
               rewritten journal are already durable *)
            sync_after := None
          | Error _ -> Obs.incr t.c_compaction_failures)
        | _ -> ());
        outcome
      with
      | outcome -> outcome
      | exception e ->
        Store.end_mutation m;
        raise e
    in
    Store.end_mutation m;
    match !sync_after with
    | None -> Ok outcome
    | Some (j, seq) -> (
      match
        timed (fun d -> ph.ph_fsync <- ph.ph_fsync +. d) (fun () -> Journal.sync_to j seq)
      with
      | Ok () -> Ok outcome
      | Error msg ->
        Store.remove t.store sid;
        Error
          (P.Failed
             (P.Journal_error,
              Printf.sprintf
                "%s; durability unknown — session %S closed, re-open with resume (%s)" msg sid
                retry_hint))))

(* A lone mutation is screened before its slot is taken (a non-finite
   value is a bad request whether or not the session exists), then runs
   as one step; its reply is that step's, unwrapped. *)
let handle_mutation t ph sid req =
  match non_finite req with
  | Some refused -> refused
  | None -> (
    match
      run_steps t ph sid [ req ]
        ~around:(fun _ step -> step ())
        ~retry_hint:"do not retry the mutation blindly: it may already be journaled"
    with
    | Ok ([ r ], _) | Error r -> r
    | Ok _ -> assert false (* one step, one result *))

(* A batch is the same run with each step its own span — an implicit
   child of the batch's op span, which carries the propagated trace
   context, so batched mutations show up individually in a
   fleet-assembled tree — and its own per-op latency record.  The reply
   lists every executed step's reply, plus the abort index if a
   mutation failed. *)
let handle_batch t ph sid reqs =
  let around req step =
    let t0 = Obs.now_us () in
    let sub_sp = Obs.span_begin ("op." ^ op_name req) ~attrs:(req_attrs req) in
    let sub =
      Fun.protect
        ~finally:(fun () -> Obs.span_end sub_sp)
        (fun () ->
          let sub = step () in
          (match sub with `Ok r | `Abort r -> Obs.span_add sub_sp (response_attrs r));
          sub)
    in
    record t (op_name req) (Obs.now_us () -. t0);
    sub
  in
  match
    run_steps t ph sid reqs ~around
      ~retry_hint:"do not retry the batch blindly: its mutations may already be journaled"
  with
  | Error r -> r
  | Ok (results, aborted) ->
    P.Reply
      (( "session", Jsonx.Str sid )
      :: ("results", Jsonx.List (List.map P.json_of_response results))
      ::
      (match aborted with Some i -> [ ("batch_aborted_at", Jsonx.Int i) ] | None -> []))

let dispatch t ph req =
  let timed_read session entry =
    timed
      (fun d -> ph.ph_sweep <- ph.ph_sweep +. d)
      (fun () -> read_reply t session entry.Store.session req)
  in
  match req with
  | P.Open { session; layer; eol; resume } -> handle_open t ~session ~layer ~eol ~resume
  | P.Set { session; _ }
  | P.Default { session; _ }
  | P.Retract { session; _ }
  | P.Annotate { session; _ } ->
    handle_mutation t ph session req
  | P.Candidates { session; _ }
  | P.Ranges { session; _ }
  | P.Issues { session }
  | P.Preview { session; _ }
  | P.Script { session }
  | P.Trace { session; spans = false; _ } ->
    with_session t session (fun entry -> timed_read session entry)
  | P.Trace { spans = true; since; max_spans; _ } ->
    (* one page of the global span ring; [next] is the cursor of the
       following page, [dropped] what the bounded ring already evicted
       from the requested range *)
    let spans, next, dropped = Obs.trace_read ?since ?max_spans () in
    let span_json (sp : Obs.rec_span) =
      Jsonx.Obj
        (("seq", Jsonx.Int sp.Obs.sr_seq)
        :: ("id", Jsonx.Int sp.Obs.sr_id)
        :: (if sp.Obs.sr_parent >= 0 then [ ("parent", Jsonx.Int sp.Obs.sr_parent) ] else [])
        @ [
            ("name", Jsonx.Str sp.Obs.sr_name);
            ("t0", Jsonx.Float sp.Obs.sr_t0);
            ("dur_us", Jsonx.Float sp.Obs.sr_dur_us);
            ( "attrs",
              Jsonx.Obj (List.map (fun (k, v) -> (k, Jsonx.Str v)) sp.Obs.sr_attrs) );
          ])
    in
    P.Reply
      [
        ("spans", Jsonx.List (List.map span_json spans));
        ("next", Jsonx.Int next);
        ("dropped", Jsonx.Int dropped);
        ("enabled", Jsonx.Bool (Obs.enabled ()));
      ]
  | P.Health { session } | P.Signature { session } | P.Report { session; _ } ->
    with_session t session (fun entry -> timed_read session entry)
  | P.Branch { session; as_id } -> handle_branch t session as_id
  | P.Compact { session } -> handle_compact t session
  | P.Close { session } -> (
    (* through the mutation protocol, so a close waits for an in-flight
       mutation of the session instead of closing its journal under it *)
    match Store.begin_mutation t.store session with
    | None -> unknown_session session
    | Some (m, _) ->
      Store.remove_locked m;
      Store.end_mutation m;
      P.Reply [ ("closed", Jsonx.Str session) ])
  | P.Stats ->
    (* deprecation shim: the pre-registry reply shape, reconstructed
       from histogram snapshots (count/sum/max are exact, so the
       figures match the old striped counters bit for bit).  New
       clients should prefer [metrics]. *)
    let stat_json h =
      let s = Obs.h_snapshot h in
      let count = s.Obs.h_count in
      Jsonx.Obj
        [
          ("count", Jsonx.Int count);
          ( "mean_us",
            Jsonx.Float (if count = 0 then 0.0 else s.Obs.h_sum /. float_of_int count) );
          ("max_us", Jsonx.Float (if count = 0 then 0.0 else s.Obs.h_max));
        ]
    in
    let ops =
      Hashtbl.fold (fun op h acc -> (op, stat_json h) :: acc) t.op_hists []
      |> List.sort (fun (a, _) (b, _) -> String.compare a b)
    in
    P.Reply
      [
        ("uptime_s", Jsonx.Float (Unix.gettimeofday () -. t.started));
        ("sessions", Jsonx.Int (Store.count t.store));
        ("capacity", Jsonx.Int (Store.capacity t.store));
        ("evictions", Jsonx.Int (Store.evictions t.store));
        ("queue_wait", stat_json t.queue_hist);
        ("requests", Jsonx.Obj ops);
      ]
  | P.Metrics { format } -> (
    let regs = [ ("service", t.registry); ("engine", Obs.default) ] in
    match format with
    | Some "prometheus" ->
      P.Reply [ ("format", Jsonx.Str "prometheus"); ("text", Jsonx.Str (Obs.prometheus regs)) ]
    | None | Some "json" ->
      let slow_lines, slow_dropped = Obs.slow_read () in
      P.Reply
        [
          ("uptime_s", Jsonx.Float (Unix.gettimeofday () -. t.started));
          ("sessions", Jsonx.Int (Store.count t.store));
          ( "bounds",
            Jsonx.List (Array.to_list (Array.map (fun b -> Jsonx.Float b) Obs.bucket_bounds)) );
          ("registries", Jsonx.Obj (List.map (fun (tag, r) -> (tag, P.registry_to_json r)) regs));
          ("slow", Jsonx.List (List.map (fun l -> Jsonx.Str l) slow_lines));
          ("slow_dropped", Jsonx.Int slow_dropped);
        ]
    | Some other ->
      P.Failed (P.Bad_request, Printf.sprintf "unknown metrics format %S (json|prometheus)" other))
  | P.Healthz ->
    (* liveness only — no store access, so it answers even when every
       session slot is wedged behind a slow mutation *)
    P.Reply
      [
        ("status", Jsonx.Str "ok");
        ("uptime_s", Jsonx.Float (Unix.gettimeofday () -. t.started));
        ("sessions", Jsonx.Int (Store.count t.store));
      ]
  | P.Batch { session; reqs } -> handle_batch t ph session reqs

let record_queue_wait t us = Obs.observe t.queue_hist us

(* one-decimal microseconds without the Printf machinery: six of
   these run on every sampled request (the phase attrs), and a format
   interpreter per phase is measurable at fleet throughput *)
let fmt_us v =
  if Float.is_finite v && v >= 0.0 && v < 1e15 then begin
    let t = int_of_float ((v *. 10.0) +. 0.5) in
    string_of_int (t / 10) ^ "." ^ string_of_int (t mod 10)
  end
  else Printf.sprintf "%.1f" v

(* The request root.  With a propagated trace context the op span is a
   remote-parented local root (so the fleet assembler can hang it under
   the client's requesting span); without one it parents as before.
   [render] runs {e inside} the span — the reply-flush phase — so the
   phase attrs cover the request end to end, and a request over
   [DSE_SLOW_MS] logs its whole tree to the slow log. *)
let handle_gen ?trace ?(queue_us = 0.0) ?render t req =
  let name = "op." ^ op_name req in
  let sp =
    match trace with
    | Some (tid, parent_span) ->
      Obs.span_begin_remote ~trace:tid ~parent_span ~attrs:(req_attrs req) name
    | None ->
      (* attrs only when the root sampled: the common below-rate case
         should not even build the list *)
      let sp = Obs.span_begin_root name in
      if Obs.span_live sp then Obs.span_add sp (req_attrs req);
      sp
  in
  (* obs-lint: every branch of [sp] reaches [Obs.span_end] in the
     [Fun.protect ~finally] below *)
  let live = Obs.span_live sp in
  let since = if live then Obs.trace_cursor () else 0 in
  let ph = no_phases () in
  let flush_us = ref 0.0 in
  let t0 = Obs.now_us () in
  let response = ref None in
  Fun.protect
    ~finally:(fun () ->
      let dur_us = Obs.now_us () -. t0 in
      record t (op_name req) dur_us;
      (* a dead span (telemetry off, or not head-sampled) records
         nothing — skip assembling the attrs it would discard *)
      if live then begin
        let attrs =
          (match !response with
          | Some r -> response_attrs r
          | None -> [ ("ok", "false"); ("code", "server_error") ])
          @ [
              ("queue_us", fmt_us queue_us);
              ("lock_us", fmt_us ph.ph_lock);
              ("sweep_us", fmt_us ph.ph_sweep);
              ("journal_us", fmt_us ph.ph_journal);
              ("fsync_us", fmt_us ph.ph_fsync);
              ("flush_us", fmt_us !flush_us);
            ]
        in
        Obs.span_end sp ~attrs;
        Obs.slow_check ~since ~dur_us sp
      end
      else
        (* a dead root may still hold the suppression marker: closing
           it is what releases the thread's stack *)
        Obs.span_end sp)
    (fun () ->
      let r =
        try dispatch t ph req
        with e -> P.Failed (P.Server_error, Printexc.to_string e)
      in
      response := Some r;
      (match render with
      | None -> ()
      | Some f ->
        let tf = Obs.now_us () in
        f r;
        flush_us := Obs.now_us () -. tf);
      r)

let handle ?trace ?queue_us t req = handle_gen ?trace ?queue_us t req

let handle_line_into ?queue_us t buf line =
  match P.parse_request_traced line with
  | Error (code, msg) -> P.print_response_into buf (P.Failed (code, msg))
  | Ok (req, trace) ->
    ignore (handle_gen ?trace ?queue_us ~render:(fun r -> P.print_response_into buf r) t req)

let handle_line t line =
  let buf = Buffer.create 256 in
  handle_line_into t buf line;
  Buffer.contents buf
