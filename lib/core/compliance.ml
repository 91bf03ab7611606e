(* One verdict slot per constraint.  The stamp is the constraint's
   state key plus the focus the stored verdicts were computed under; a
   store with a different stamp clears the slot first, so each
   constraint holds at most one state's verdicts (latest wins —
   interactive queries revisit the current state, not past ones).

   Verdicts are packed two bits per core (0 = unknown, 1 = inferior,
   2 = kept), sixteen cores per [int array] word, indexed by dense core
   id.  The hot path of a warm query is one array read per (constraint,
   32-core word): {!Slot.peek_word} unpacks a whole word into
   known/inferior masks that combine with the sweep's keep bitset
   branchlessly.  The recording fallback reads one verdict at a time
   through {!Slot.peek}.

   Concurrency: one table serves a session lineage, and since the
   exploration service stopped serializing requests globally, several
   domains can query (and thus populate) the same lineage at once.  All
   table mutation happens under [lock].  The per-core sweep itself runs
   lockless against a {!Slot.view}: [slot] pre-grows the word array to
   cover the whole dense-id universe while holding the lock, so the buffer a query
   reads is never reallocated under it, and new verdicts are buffered
   by the sweep as id bitsets and written back in one
   {!Slot.merge_bits} — which re-checks the stamp, so a sweep that
   overlapped an invalidation discards its write-back instead of
   poisoning the new state.  A lockless reader sees each word
   atomically (OCaml array elements never tear), and every word a
   racing merge can publish holds only codes that sweep would itself
   compute (closures are deterministic), so racing merges at one stamp
   are idempotent.

   The memo tables (survivor sets, merit summaries, signature digests)
   are bounded by second-chance {!Clock_cache}s:
   past capacity each insert evicts one cold entry — observable through
   the [dse_engine_*_evictions_total] counters — instead of the
   whole-table reset the first version used.  Eviction is always safe:
   every entry is a memo whose key determines its value, so a lost
   entry costs a recompute, never a wrong answer. *)
module Obs = Ds_obs.Obs

(* Process-wide cache traffic, aggregated across every lineage's cache
   into the global telemetry registry (DESIGN.md 13).  The per-cache
   [stats] record below stays the per-lineage view. *)
let m_verdict_hits = Obs.counter Obs.default "dse_engine_verdict_cache_hits_total"
let m_verdict_misses = Obs.counter Obs.default "dse_engine_verdict_cache_misses_total"
let m_survivor_hits = Obs.counter Obs.default "dse_engine_survivor_cache_hits_total"
let m_survivor_misses = Obs.counter Obs.default "dse_engine_survivor_cache_misses_total"
let m_survivor_evictions = Obs.counter Obs.default "dse_engine_survivor_evictions_total"
let m_summary_evictions = Obs.counter Obs.default "dse_engine_summary_evictions_total"
let m_signature_evictions = Obs.counter Obs.default "dse_engine_signature_evictions_total"

type slot = {
  mutable stamp : string; (* constraint state key + focus *)
  mutable verdicts : int array; (* 16 two-bit codes per word, by core id *)
}

type survivors = {
  sv_bits : Bitset.t; (* over the index's dense-id universe *)
  mutable sv_count : int; (* memoized popcount; -1 until first asked *)
}

type t = {
  lock : Mutex.t;
  slots : (string, slot) Hashtbl.t; (* constraint name -> verdicts *)
  survivors : survivors Clock_cache.t;
      (* full state signature -> surviving candidates *)
  summaries : Evaluation.merit_summary Clock_cache.t;
      (* state signature + merit name -> that state's merit summary.
         Merit values are immutable per core and the candidate set is a
         function of the signature, so the summary is too; this spares
         a revisited state the full fold over the surviving pool. *)
  signatures : string Clock_cache.t;
      (* observable-state key -> candidate signature digest.  The
         digest folds every surviving core id into a hash; memoizing it
         spares a revisited state that whole-pool walk.  The stored
         value is exactly what the full computation produced, so
         journal signatures stay bit-identical. *)
  mutable verdict_hits : int;
  mutable verdict_misses : int;
  mutable survivor_hits : int;
  mutable survivor_misses : int;
}

(* The survivor table is keyed by full state signatures, which an
   unbounded exploration could mint without limit; past this many
   distinct states the clock hand starts evicting cold entries
   (verdict slots, the expensive part of a recompute, are
   unaffected). *)
let max_survivor_entries = 128

let create () =
  {
    lock = Mutex.create ();
    slots = Hashtbl.create 16;
    survivors =
      Clock_cache.create ~capacity:max_survivor_entries
        ~on_evict:(fun () -> Obs.incr m_survivor_evictions)
        ();
    summaries =
      Clock_cache.create ~capacity:max_survivor_entries
        ~on_evict:(fun () -> Obs.incr m_summary_evictions)
        ();
    signatures =
      Clock_cache.create ~capacity:max_survivor_entries
        ~on_evict:(fun () -> Obs.incr m_signature_evictions)
        ();
    verdict_hits = 0;
    verdict_misses = 0;
    survivor_hits = 0;
    survivor_misses = 0;
  }

let locked t f =
  Mutex.lock t.lock;
  match f () with
  | v ->
    Mutex.unlock t.lock;
    v
  | exception e ->
    Mutex.unlock t.lock;
    raise e

module Slot = struct
  type nonrec t = {
    cache : t;
    slot : slot;
    stamp : string; (* the stamp this handle was resolved at *)
  }

  let codes_per_word = 16
  let unknown = 0
  let inferior = 1

  let view s = s.slot.verdicts

  let peek view ~id =
    let w = id lsr 4 in
    if w >= Array.length view then None
    else begin
      let c = (Array.unsafe_get view w lsr ((id land 15) * 2)) land 3 in
      if c = unknown then None else Some (c = inferior)
    end

  (* The verdicts of the 32 cores [32w, 32w+32) as (known, inferior)
     masks, pure and lock-free like {!peek}.  A bitset keep-word spans
     exactly two verdict words; pairs fold to single bits through the
     even-position spread (code 1 = 0b01 carries inferior on the even
     bit, code 2 = 0b10 doesn't, code 0 sets neither). *)
  let peek_word view ~w =
    let nv = Array.length view in
    let v0 = if 2 * w < nv then Array.unsafe_get view (2 * w) else 0 in
    let v1 = if (2 * w) + 1 < nv then Array.unsafe_get view ((2 * w) + 1) else 0 in
    let known v = Bitset.unspread16 ((v lor (v lsr 1)) land 0x55555555) in
    let inf v = Bitset.unspread16 (v land 0x55555555) in
    (known v0 lor (known v1 lsl 16), inf v0 lor (inf v1 lsl 16))

  let record_counters s ~hits ~misses =
    if hits > 0 then Obs.add m_verdict_hits hits;
    if misses > 0 then Obs.add m_verdict_misses misses;
    s.cache.verdict_hits <- s.cache.verdict_hits + hits;
    s.cache.verdict_misses <- s.cache.verdict_misses + misses

  let stamp_live s = String.equal s.slot.stamp s.stamp

  (* The one write-back: [touched]/[inferior_bits] are bitsets over the
     dense-id universe, so each 32-id word updates its two verdict
     words with five logical ops — no per-core loop.  An invalidation
     (a restamp by a query in another state) between this sweep's
     [view] and now makes its verdicts stale: they are dropped, the
     counters still count. *)
  let merge_bits s ~touched ~inferior_bits ~hits ~misses =
    locked s.cache (fun () ->
        record_counters s ~hits ~misses;
        if stamp_live s then begin
          let v = s.slot.verdicts in
          let nv = Array.length v in
          let half vi t16 i16 =
            if t16 <> 0 && vi < nv then begin
              let tm = Bitset.spread16 t16 in
              let im = Bitset.spread16 i16 in
              let pairmask = tm lor (tm lsl 1) in
              (* inferior code (1) contributes the even bit, kept code
                 (2) the odd bit *)
              v.(vi) <- v.(vi) land lnot pairmask lor im lor ((tm land lnot im) lsl 1)
            end
          in
          for w = 0 to Bitset.word_count touched - 1 do
            let t32 = Bitset.word touched w in
            if t32 <> 0 then begin
              let i32 = Bitset.word inferior_bits w in
              half (2 * w) (t32 land 0xFFFF) (i32 land 0xFFFF);
              half ((2 * w) + 1) (t32 lsr 16) (i32 lsr 16)
            end
          done
        end)
end

let words_for n = (n + Slot.codes_per_word - 1) / Slot.codes_per_word

let slot ~universe t ~cc ~stamp =
  locked t (fun () ->
      let need = words_for universe in
      let s =
        match Hashtbl.find_opt t.slots cc with
        | Some s ->
          if not (String.equal s.stamp stamp) then begin
            (* the old stamp's verdicts are unreachable under
               latest-state-wins; drop them now.  A fresh buffer (not a
               fill) so a sweep still reading the old one keeps a
               consistent view of the stamp it resolved. *)
            s.verdicts <- Array.make (Stdlib.max 4 need) Slot.unknown;
            s.stamp <- stamp
          end;
          s
        | None ->
          let s = { stamp; verdicts = [||] } in
          Hashtbl.add t.slots cc s;
          s
      in
      (* grow to cover every core id the sweep can touch, so the sweep
         can read and the merge can write without the buffer moving
         mid-query *)
      if Array.length s.verdicts < need then begin
        let cap = Stdlib.max (2 * Array.length s.verdicts) (Stdlib.max 4 need) in
        let v' = Array.make cap Slot.unknown in
        Array.blit s.verdicts 0 v' 0 (Array.length s.verdicts);
        s.verdicts <- v'
      end;
      { Slot.cache = t; slot = s; stamp })

let find_survivor_set t ~key =
  locked t (fun () ->
      match Clock_cache.find t.survivors key with
      | Some _ as r ->
        t.survivor_hits <- t.survivor_hits + 1;
        Obs.incr m_survivor_hits;
        r
      | None ->
        t.survivor_misses <- t.survivor_misses + 1;
        Obs.incr m_survivor_misses;
        None)

let store_survivor_bits t ~key bits =
  let sv = { sv_bits = bits; sv_count = -1 } in
  locked t (fun () -> Clock_cache.store t.survivors key sv);
  sv

(* The memo write below is idempotent (deterministic value per
   immutable bitset), so the unsynchronized mutation is benign even
   when two domains race on one entry. *)
let survivor_count sv =
  if sv.sv_count >= 0 then sv.sv_count
  else begin
    let c = Bitset.count sv.sv_bits in
    sv.sv_count <- c;
    c
  end

let find_summary t ~key = locked t (fun () -> Clock_cache.find t.summaries key)
let store_summary t ~key summary = locked t (fun () -> Clock_cache.store t.summaries key summary)
let find_signature t ~key = locked t (fun () -> Clock_cache.find t.signatures key)
let store_signature t ~key digest = locked t (fun () -> Clock_cache.store t.signatures key digest)

type stats = {
  verdict_hits : int;
  verdict_misses : int;
  survivor_hits : int;
  survivor_misses : int;
  evictions : int;
}

let stats (t : t) =
  locked t (fun () ->
      {
        verdict_hits = t.verdict_hits;
        verdict_misses = t.verdict_misses;
        survivor_hits = t.survivor_hits;
        survivor_misses = t.survivor_misses;
        evictions =
          Clock_cache.evictions t.survivors
          + Clock_cache.evictions t.summaries
          + Clock_cache.evictions t.signatures;
      })

let hit_rate s =
  let lookups = s.verdict_hits + s.verdict_misses in
  if lookups = 0 then 0. else float_of_int s.verdict_hits /. float_of_int lookups
