(** Per-session write-ahead journal, with checkpoints.

    Every mutating protocol request a session accepts is appended, as
    its wire-format JSON, to an append-only file named after the
    session id.  Re-applying the journaled requests, in order, to a
    fresh session of the same layer deterministically reconstructs the
    session — that is how [open --resume] works, and how a crashed or
    SIGKILLed server recovers its sessions: each append is flushed to
    the operating system (and optionally fsynced) {e before} the reply
    leaves the server, so the journal of a dead server is never behind
    what its clients were told.

    {2 File format}

    Line 1 — the header:
    [{"journal":"dse-session","format":1,"session":ID,"layer":L,"eol":N,"base":B,"sig_version":V}]

    [base] is the number of journal entries subsumed by the session's
    snapshot (0 until the journal is first compacted; absent in
    pre-snapshot journals, read as 0).

    Each further line — one applied mutation and the candidate
    signature the session had {e after} applying it:
    [{"req":{...request...},"sig":"<hex digest>"}]

    The signature ({!Ds_layer.Session.candidate_signature}) lets replay
    verify, entry by entry, that it reproduced the visible state the
    live session actually had; a mismatch (e.g. the layer definition
    changed since the journal was written) fails the resume instead of
    silently handing the designer a different design space.

    [sig_version] names the signature format of every [sig] in the file
    (and in its snapshot): 2 — the MD5 of the observable state, the
    layer's fingerprint and the survivor bitset
    ({!Ds_layer.Columnar.digest_bits}) — for every journal created
    today; 1 — the MD5 of the observable state and every survivor's
    qid ({!Ds_layer.Columnar.digest_ids}) — for a header without the
    field, i.e. a journal written before v2.  A lineage keeps its
    version for life: a resumed v1 lineage appends v1 signatures, and
    its compactions and branches write v1 headers.  Any other version
    fails the load.

    {2 Snapshots and compaction}

    A snapshot ([<id>.snapshot]) is a checksummed checkpoint: the
    {e compacted script} (current designer bindings + annotations, far
    shorter than the raw history), the candidate signature it must
    reproduce, its [sig_version] (the journal's), and [base] — how many
    journal entries it subsumes.  The
    writer is expected to have {e verification-replayed} the compacted
    script before calling {!write_snapshot} (the service does; a
    compacted script can in principle diverge from history replay when
    guard-quarantine state depends on retracted bindings, and the
    verify step is what makes truncation safe).  Compaction then calls
    {!rewrite} to publish a journal whose header carries the new [base]
    and whose tail is empty.  Both publishes are write-temp / fsync /
    rename / fsync-directory, so a crash at {e any} point leaves
    exactly one valid lineage: before the rename the old state is
    intact, after it the new state is the state.

    {2 Fault injection}

    Every disk primitive this module touches goes through {!Iofault} —
    short writes, fsync [EIO], torn renames and [ENOSPC] can be
    injected deterministically under any of these paths.  A failed
    append truncates the file back to the last complete line (torn
    garbage never survives to be glued onto); if even the repair fails
    the handle reports itself broken on every later append.

    {2 Concurrency and group commit}

    A journal may be appended to by several worker domains at once (the
    service serializes mutations {e per session}, but the same journal
    is also the target of concurrent appends during [branch] copies,
    and nothing above guarantees exclusivity).  {!append} is atomic
    under an internal lock and returns the entry's sequence number.  In
    [sync] mode, durability is a separate step: {!sync_to} fsyncs up to
    a sequence number with a leader/follower group commit — the first
    caller to need an fsync performs one covering {e every} entry
    appended so far, and concurrent callers whose entries it covered
    return without touching the disk.  The service calls [sync_to]
    outside its session locks, so mutations on other sessions (and
    later mutations on the same one) overlap the disk flush. *)

type header = { session : string; layer : string; eol : int; base : int }

type entry = { req : Jsonx.t; signature : string }

type loaded = { header : header; sig_version : int; entries : entry list }
(** A journal as read back: its header, the signature format of its
    entries ([sig_version], 1 or 2) and its entries. *)

type t
(** An open journal, positioned for appending. *)

val path : dir:string -> id:string -> string
(** [dir/<id>.journal]. *)

val exists : dir:string -> id:string -> bool

val create : ?sync:bool -> ?sig_version:int -> dir:string -> header -> (t, string) result
(** Truncate/create the file and write the header, recording
    [sig_version] (default 2) as the format of its signatures.  [sync] (default
    [false]) makes acknowledged entries fsync-durable (via {!sync_to})
    — full crash-safety against power loss, at a per-request cost; the
    default survives process death (the flush reaches the kernel) which
    is the failure mode the service defends against.  Creates [dir] if
    missing.  In sync mode the header itself is fsynced before
    returning. *)

val append : t -> req:Jsonx.t -> signature:string -> (int, string) result
(** One entry line, written before returning; returns the entry's
    sequence number (the header counts as entry 1).  In sync mode,
    follow with {!sync_to} before acknowledging the mutation to a
    client. *)

val entry_count : t -> int
(** Entry lines currently in the file — the tail a resume would
    replay after the snapshot.  The service's auto-compaction
    threshold watches this. *)

val sync_to : t -> int -> (unit, string) result
(** Make every entry up to the given sequence number fsync-durable.
    No-op unless the journal was opened with [sync].  Group-committed:
    see the module docs.  Safe (and intended) to call without holding
    any session lock. *)

val sync_all : t -> (unit, string) result
(** {!sync_to} up to everything appended so far — what compaction calls
    before swapping handles, so no acknowledged entry's durability ever
    rides on a descriptor about to be closed. *)

(** Group-commit effectiveness: [syncs] fsyncs actually issued,
    [batched] {!sync_to} calls satisfied by another caller's fsync.

    Deprecation shim: this per-journal record predates the telemetry
    registry; the process-wide equivalents live in
    {!Ds_obs.Obs.default} under the unified names
    [dse_journal_fsyncs_total] / [dse_journal_fsync_batched_total]
    (plus [dse_journal_appends_total] and the [dse_journal_fsync_us]
    histogram).  Kept so existing assertions about one journal's
    batching stay meaningful. *)
type sync_stats = { syncs : int; batched : int }

val sync_stats : t -> sync_stats

val close : t -> unit

val load : dir:string -> id:string -> (loaded, string) result
(** Parse the whole journal file — header (with its [base] and
    [sig_version]) and the
    {e tail} entries only; a compacted journal's history before [base]
    lives in the snapshot.  Errors on a missing file, a bad header, or
    a malformed entry line (the line number is reported); a trailing
    {e partial} line — the one a crash can leave behind — is ignored
    with the entries before it intact, because an entry is only
    acknowledged to clients after its flush. *)

val open_append : ?sync:bool -> dir:string -> id:string -> unit -> (t, string) result
(** Reopen an existing journal for appending (after {!load}).  If a
    crash left a torn final line, the file is first truncated back to
    the end of the last complete line — matching what {!load} replays —
    so subsequent appends never glue onto the fragment. *)

(** A checkpoint: the compacted script that reproduces the session
    state whose candidate signature is [snap_signature], subsuming the
    first [snap_base] journal entries. *)
type snapshot = {
  snap_session : string;
  snap_layer : string;
  snap_eol : int;
  snap_base : int;
  snap_signature : string;
  snap_sig_version : int;  (** format of every signature recorded, as in the journal header *)
  snap_entries : entry list;
}

val snapshot_path : dir:string -> id:string -> string
(** [dir/<id>.snapshot]. *)

val snapshot_exists : dir:string -> id:string -> bool

val write_snapshot : dir:string -> snapshot -> (unit, string) result
(** Publish a checkpoint atomically (write temp, fsync, rename, fsync
    directory).  On any failure — including injected faults — the
    previous snapshot (or its absence) is intact.  The caller must
    already have verified that replaying [snap_entries] reproduces
    [snap_signature]; {!write_snapshot} records, it does not check. *)

val load_snapshot : dir:string -> id:string -> (snapshot, string) result
(** Read and validate a checkpoint: header sanity, FNV-1a 64 checksum
    over the entry lines (catching truncation between lines, which
    per-line parsing alone would miss), then entry parse.  Any failure
    is an [Error] — the caller decides whether full-history replay is
    still possible (journal [base] 0) or the lineage is lost. *)

val remove_snapshot : dir:string -> id:string -> unit
(** Best-effort delete (idempotent). *)

val rewrite :
  ?sync:bool -> ?sig_version:int -> dir:string -> header -> entry list -> (t, string) result
(** Atomically replace the journal file with [header] (recording
    [sig_version], default 2) + the given tail,
    returning a handle already positioned for appending (the descriptor
    survives the rename).  Same publish discipline as
    {!write_snapshot}; on failure the old journal file is intact (the
    caller should reopen it with {!open_append}). *)

val load_effective : dir:string -> id:string -> (loaded, string) result
(** The session's full effective history: the snapshot's compacted
    script followed by the tail entries it does not subsume (or just
    the raw journal when never compacted).  Errors if the journal is
    compacted and the snapshot is unusable (including a snapshot whose
    signature version differs from the journal's) — that lineage cannot
    be reconstructed.  The returned header has [base] 0: the entry list
    is self-contained. *)

val branch :
  ?sync:bool -> dir:string -> from_id:string -> to_id:string -> unit -> (unit, string) result
(** Copy [from_id]'s {e effective} history — snapshot script + tail if
    compacted, the raw journal otherwise — as the starting history of
    [to_id] (header rewritten, [base] 0, same [sig_version]): a branched session resumes
    independently of its parent and never shares its snapshot file. *)

val remove : dir:string -> id:string -> unit
(** Best-effort delete of journal + snapshot (idempotent). *)
