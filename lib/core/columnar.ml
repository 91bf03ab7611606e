module Core = Ds_reuse.Core

(* The columnar view of an indexed core population: one flat array per
   merit and per property, indexed by the dense ids {!Index} assigns at
   build time (entry insertion order).  The row-oriented [Core.t]
   values stay authoritative — columns are a projection built once per
   layer and shared by every session lineage over it (the service's
   parsed-layer cache hands them out via [Session.pristine] for free).

   Merit columns are [float array] + a presence bitset: a merit value
   may legitimately be NaN, so absence cannot be encoded in the float
   itself.  Property columns intern each distinct value string into a
   small per-column lexicon and store one code per core (0 = the core
   does not declare the property), which turns the compliance filter
   into an integer compare per core. *)

type merit_column = { values : float array; present : Bitset.t }

type prop_column = {
  codes : int array; (* 0 = property absent, k+1 = lexicon entry k *)
  lexicon : (string, int) Hashtbl.t; (* value string -> code *)
}

type t = {
  entries : (string * Core.t) array; (* (qualified id, core) by dense id *)
  image : string; (* "#" ^ qid of every core, concatenated in id order *)
  offsets : int array; (* id -> start of its "#qid" in [image]; [n] -> end *)
  fingerprint : Digest.t; (* MD5 of [image]: names the layer's id space *)
  merits : (string, merit_column) Hashtbl.t;
  props : (string, prop_column) Hashtbl.t;
}

let length t = Array.length t.entries
let entry t i = t.entries.(i)
let qid t i = fst t.entries.(i)
let core t i = snd t.entries.(i)
let fingerprint t = t.fingerprint

let merit_column t name =
  match Hashtbl.find_opt t.merits name with
  | Some c -> Some (c.values, c.present)
  | None -> None

(* The compliance predicate of one (design issue, chosen value) pair,
   matching [Core.matches_property] exactly: a core that does not
   declare the property is not discriminated by it.  [None] when no
   indexed core declares the property at all — every core matches. *)
let property_matches t ~key ~value =
  match Hashtbl.find_opt t.props key with
  | None -> None
  | Some col ->
    let code = match Hashtbl.find_opt col.lexicon value with Some c -> c | None -> -1 in
    let codes = col.codes in
    Some (fun i ->
        let c = Array.unsafe_get codes i in
        c = 0 || c = code)

let build entries =
  let n = Array.length entries in
  let merits = Hashtbl.create 16 in
  let props = Hashtbl.create 16 in
  for i = 0 to n - 1 do
    let c = snd entries.(i) in
    List.iter
      (fun (name, v) ->
        let col =
          match Hashtbl.find_opt merits name with
          | Some col -> col
          | None ->
            let col = { values = Array.make n 0.0; present = Bitset.create n } in
            Hashtbl.add merits name col;
            col
        in
        col.values.(i) <- v;
        Bitset.set col.present i)
      c.Core.merits;
    List.iter
      (fun (name, v) ->
        let col =
          match Hashtbl.find_opt props name with
          | Some col -> col
          | None ->
            let col = { codes = Array.make n 0; lexicon = Hashtbl.create 8 } in
            Hashtbl.add props name col;
            col
        in
        let code =
          match Hashtbl.find_opt col.lexicon v with
          | Some code -> code
          | None ->
            let code = Hashtbl.length col.lexicon + 1 in
            Hashtbl.add col.lexicon v code;
            code
        in
        col.codes.(i) <- code)
      c.Core.properties
  done;
  let offsets = Array.make (n + 1) 0 in
  for i = 0 to n - 1 do
    offsets.(i + 1) <- offsets.(i) + 1 + String.length (fst entries.(i))
  done;
  let image = Bytes.create offsets.(n) in
  Array.iteri
    (fun i (qid, _) ->
      Bytes.set image offsets.(i) '#';
      Bytes.blit_string qid 0 image (offsets.(i) + 1) (String.length qid))
    entries;
  let image = Bytes.unsafe_to_string image in
  { entries; image; offsets; fingerprint = Digest.string image; merits; props }

(* The bytes a digest hashes are written into a scratch buffer owned by
   the calling domain ([Stdlib.Domain]: this library's own [Domain] is
   the design-issue domain module).  Systhreads of one domain share the
   key, so a caller swaps the buffer out of its slot while it fills it,
   and a second thread that finds the slot empty allocates its own. *)
let scratch = Stdlib.Domain.DLS.new_key (fun () -> Atomic.make Bytes.empty)

let with_scratch need f =
  let slot = Stdlib.Domain.DLS.get scratch in
  let buf = Atomic.exchange slot Bytes.empty in
  let buf = if Bytes.length buf >= need then buf else Bytes.create need in
  let d = f buf in
  Atomic.set slot buf;
  d

let digest_ids t ~prefix bits =
  if Bitset.length bits > length t then invalid_arg "Columnar.digest_ids: bitset too long";
  let plen = String.length prefix in
  with_scratch (plen + String.length t.image) (fun buf ->
      Bytes.blit_string prefix 0 buf 0 plen;
      let pos = ref plen in
      Bitset.iter_runs
        (fun lo hi ->
          let a = Array.unsafe_get t.offsets lo in
          let len = Array.unsafe_get t.offsets hi - a in
          Bytes.blit_string t.image a buf !pos len;
          pos := !pos + len)
        bits;
      Digest.subbytes buf 0 !pos)

let digest_bits t ~prefix bits =
  if Bitset.length bits <> length t then
    invalid_arg "Columnar.digest_bits: bitset length differs from the store";
  let plen = String.length prefix in
  let head = plen + String.length t.fingerprint in
  let nw = Bitset.word_count bits in
  with_scratch (head + (4 * nw)) (fun buf ->
      Bytes.blit_string prefix 0 buf 0 plen;
      Bytes.blit_string t.fingerprint 0 buf plen (String.length t.fingerprint);
      for w = 0 to nw - 1 do
        Bytes.set_int32_le buf (head + (4 * w)) (Int32.of_int (Bitset.word bits w))
      done;
      Digest.subbytes buf 0 (head + (4 * nw)))
