(* Telemetry: metrics registry + structured tracer.  See obs.mli for
   the contract; DESIGN.md section 13 for the taxonomy and overhead
   budget. *)

let now () = Unix.gettimeofday ()
let now_us () = now () *. 1e6

(* ------------------------------------------------------------------ *)
(* Striping.

   Counters and histograms keep one cell per stripe and pick the
   stripe from the calling domain's id, so concurrent recorders from
   different domains touch different cache lines (counters) or
   different locks (histograms).  Systhreads sharing a domain share a
   stripe, which is correct (atomics / a mutex) just not contention-
   free — the hot recorders (parallel sweep chunks) are domains. *)

let stripes = 16 (* power of two *)
let stripe_mask = stripes - 1
let stripe_id () = (Stdlib.Domain.self () :> int) land stripe_mask

(* ------------------------------------------------------------------ *)
(* Counters *)

type counter = int Atomic.t array

let make_counter () : counter = Array.init stripes (fun _ -> Atomic.make 0)

let add (c : counter) n =
  let cell = Array.unsafe_get c (stripe_id ()) in
  ignore (Atomic.fetch_and_add cell n)

let incr c = add c 1
let counter_value (c : counter) = Array.fold_left (fun acc a -> acc + Atomic.get a) 0 c

(* ------------------------------------------------------------------ *)
(* Gauges *)

type gauge = float Atomic.t

let make_gauge () : gauge = Atomic.make 0.0
let set_gauge (g : gauge) v = Atomic.set g v
let gauge_value (g : gauge) = Atomic.get g

(* ------------------------------------------------------------------ *)
(* Histograms *)

(* Geometric buckets, ratio 1.25, upper bounds 1µs .. ~4.4e7µs (~44s).
   One bucket of relative resolution bounds the quantile estimate:
   at worst the true value is anywhere inside the chosen bucket, so
   the estimate is within +25%/-20% of the truth; with the midpoint
   interpolation below the expected error is ~±12%. *)

let bucket_count = 80
let bucket_ratio = 1.25

let bucket_bounds =
  Array.init bucket_count (fun i -> bucket_ratio ** float_of_int i)

(* index of the bucket holding [v]: smallest i with v <= bounds.(i),
   or [bucket_count] (overflow) when v exceeds the last bound *)
let bucket_index v =
  if v <= bucket_bounds.(0) then 0
  else if v > bucket_bounds.(bucket_count - 1) then bucket_count
  else begin
    let lo = ref 0 and hi = ref (bucket_count - 1) in
    (* invariant: bounds.(lo) < v <= bounds.(hi) *)
    while !hi - !lo > 1 do
      let mid = (!lo + !hi) / 2 in
      if v <= bucket_bounds.(mid) then hi := mid else lo := mid
    done;
    !hi
  end

type hstripe = {
  hs_lock : Mutex.t;
  hs_counts : int array; (* bucket_count + 1, last = overflow *)
  mutable hs_count : int;
  mutable hs_sum : float;
  mutable hs_min : float;
  mutable hs_max : float;
}

type histogram = hstripe array

let make_histogram () : histogram =
  Array.init stripes (fun _ ->
      {
        hs_lock = Mutex.create ();
        hs_counts = Array.make (bucket_count + 1) 0;
        hs_count = 0;
        hs_sum = 0.0;
        hs_min = infinity;
        hs_max = neg_infinity;
      })

let observe (h : histogram) v =
  let v = if Float.is_nan v then 0.0 else Float.max v 0.0 in
  let s = Array.unsafe_get h (stripe_id ()) in
  let i = bucket_index v in
  Mutex.lock s.hs_lock;
  s.hs_counts.(i) <- s.hs_counts.(i) + 1;
  s.hs_count <- s.hs_count + 1;
  s.hs_sum <- s.hs_sum +. v;
  if v < s.hs_min then s.hs_min <- v;
  if v > s.hs_max then s.hs_max <- v;
  Mutex.unlock s.hs_lock

type hsnapshot = {
  h_count : int;
  h_sum : float;
  h_min : float;
  h_max : float;
  h_counts : int array;
}

let h_snapshot (h : histogram) =
  let counts = Array.make (bucket_count + 1) 0 in
  let count = ref 0 and sum = ref 0.0 in
  let mn = ref infinity and mx = ref neg_infinity in
  Array.iter
    (fun s ->
      Mutex.lock s.hs_lock;
      Array.iteri (fun i c -> counts.(i) <- counts.(i) + c) s.hs_counts;
      count := !count + s.hs_count;
      sum := !sum +. s.hs_sum;
      if s.hs_min < !mn then mn := s.hs_min;
      if s.hs_max > !mx then mx := s.hs_max;
      Mutex.unlock s.hs_lock)
    h;
  { h_count = !count; h_sum = !sum; h_min = !mn; h_max = !mx; h_counts = counts }

let quantile_of ~counts ~count ~max p =
  if count <= 0 then nan
  else begin
    let p = Float.min 1.0 (Float.max 0.0 p) in
    let rank = p *. float_of_int count in
    let i = ref 0 and cum = ref 0 in
    let n = Array.length counts in
    while !i < n - 1 && float_of_int (!cum + counts.(!i)) < rank do
      cum := !cum + counts.(!i);
      Stdlib.incr i
    done;
    let i = !i in
    let lower = if i = 0 then 0.0 else bucket_bounds.(i - 1) in
    let upper =
      if i >= bucket_count then (if Float.is_finite max then Float.max max lower else lower *. bucket_ratio)
      else bucket_bounds.(i)
    in
    let in_bucket = counts.(i) in
    let frac =
      if in_bucket <= 0 then 1.0
      else Float.min 1.0 ((rank -. float_of_int !cum) /. float_of_int in_bucket)
    in
    let est = lower +. (frac *. (upper -. lower)) in
    if Float.is_finite max && est > max then max else est
  end

let quantile (s : hsnapshot) p =
  if s.h_count = 0 then nan
  else begin
    let est = quantile_of ~counts:s.h_counts ~count:s.h_count ~max:s.h_max p in
    if Float.is_finite s.h_min && est < s.h_min then s.h_min else est
  end

let h_mean s = if s.h_count = 0 then nan else s.h_sum /. float_of_int s.h_count

(* Bucket-wise merge: because every histogram in the system shares the
   one global bound table, two snapshots merge exactly — counts add per
   bucket, count/sum add, min/max extremize.  This is what lets a fleet
   router combine per-shard registries into one aggregate view whose
   quantile estimates carry the same error bounds as a single shard's. *)
let merge_hsnapshots a b =
  let n = Stdlib.max (Array.length a.h_counts) (Array.length b.h_counts) in
  let counts = Array.make n 0 in
  let addc (arr : int array) =
    Array.iteri (fun i c -> counts.(i) <- counts.(i) + c) arr
  in
  addc a.h_counts;
  addc b.h_counts;
  {
    h_count = a.h_count + b.h_count;
    h_sum = a.h_sum +. b.h_sum;
    h_min = Float.min a.h_min b.h_min;
    h_max = Float.max a.h_max b.h_max;
    h_counts = counts;
  }

let empty_hsnapshot () =
  {
    h_count = 0;
    h_sum = 0.0;
    h_min = infinity;
    h_max = neg_infinity;
    h_counts = Array.make (bucket_count + 1) 0;
  }

(* ------------------------------------------------------------------ *)
(* Registry *)

type registry = {
  r_lock : Mutex.t;
  r_counters : (string, counter) Hashtbl.t;
  r_gauges : (string, gauge) Hashtbl.t;
  r_histograms : (string, histogram) Hashtbl.t;
}

let create_registry () =
  {
    r_lock = Mutex.create ();
    r_counters = Hashtbl.create 32;
    r_gauges = Hashtbl.create 8;
    r_histograms = Hashtbl.create 32;
  }

let default = create_registry ()

let find_or_create r tbl name make =
  Mutex.lock r.r_lock;
  let v =
    match Hashtbl.find_opt tbl name with
    | Some v -> v
    | None ->
      let v = make () in
      Hashtbl.add tbl name v;
      v
  in
  Mutex.unlock r.r_lock;
  v

let counter r name = find_or_create r r.r_counters name make_counter
let gauge r name = find_or_create r r.r_gauges name make_gauge
let histogram r name = find_or_create r r.r_histograms name make_histogram

let sorted_keys tbl =
  Hashtbl.fold (fun k _ acc -> k :: acc) tbl [] |> List.sort String.compare

let metric_names r =
  Mutex.lock r.r_lock;
  let names = sorted_keys r.r_counters @ sorted_keys r.r_gauges @ sorted_keys r.r_histograms in
  Mutex.unlock r.r_lock;
  List.sort String.compare names

let items_of r tbl =
  Mutex.lock r.r_lock;
  let items = sorted_keys tbl |> List.map (fun k -> (k, Hashtbl.find tbl k)) in
  Mutex.unlock r.r_lock;
  items

let counters r = items_of r r.r_counters |> List.map (fun (k, c) -> (k, counter_value c))
let gauges r = items_of r r.r_gauges |> List.map (fun (k, g) -> (k, gauge_value g))
let histograms r = items_of r r.r_histograms |> List.map (fun (k, h) -> (k, h_snapshot h))

(* ------------------------------------------------------------------ *)
(* Tracing: enable flag *)

let env_disabled =
  match Sys.getenv_opt "DSE_TELEMETRY" with
  | Some ("0" | "off" | "false" | "no") -> true
  | _ -> false

let enabled_flag = Atomic.make (not env_disabled)
let set_enabled b = Atomic.set enabled_flag b
let enabled () = Atomic.get enabled_flag

(* ------------------------------------------------------------------ *)
(* Tracing: spans *)

type rec_span = {
  sr_seq : int;
  sr_id : int;
  sr_parent : int;
  sr_name : string;
  sr_t0 : float;
  sr_dur_us : float;
  sr_attrs : (string * string) list;
}

let dummy_span =
  { sr_seq = -1; sr_id = -1; sr_parent = -1; sr_name = ""; sr_t0 = 0.0; sr_dur_us = 0.0; sr_attrs = [] }

(* the ring of completed spans *)
type ring = {
  rg_lock : Mutex.t;
  mutable rg_buf : rec_span array;
  mutable rg_stored : int; (* valid entries ending at rg_next - 1 *)
  mutable rg_next : int; (* next sequence number *)
}

let default_cap =
  match Option.bind (Sys.getenv_opt "DSE_TRACE_CAP") int_of_string_opt with
  | Some n when n > 0 -> n
  | _ -> 4096

let ring =
  { rg_lock = Mutex.create (); rg_buf = Array.make default_cap dummy_span; rg_stored = 0; rg_next = 0 }

let set_trace_cap n =
  let n = Stdlib.max 1 n in
  Mutex.lock ring.rg_lock;
  ring.rg_buf <- Array.make n dummy_span;
  ring.rg_stored <- 0;
  Mutex.unlock ring.rg_lock

let trace_clear () =
  Mutex.lock ring.rg_lock;
  ring.rg_stored <- 0;
  Mutex.unlock ring.rg_lock

(* begin- and end-attrs may repeat a key (e.g. [session] echoed back
   in a reply): keep the last occurrence.  Attr lists are a dozen
   entries at most, so a quadratic scan over small lists beats paying
   a Hashtbl allocation on every span close.  Dedup runs on the read
   path, not the write path: span close is per-request hot, while the
   ring is only read by renderers, the slow log and the fleet
   assembler. *)
let dedup_attrs attrs =
  match attrs with
  | [] | [ _ ] -> attrs
  | _ ->
    let rec go seen acc = function
      | [] -> acc
      | ((k, _) as kv) :: rest ->
        if List.exists (String.equal k) seen then go seen acc rest
        else go (k :: seen) (kv :: acc) rest
    in
    go [] [] (List.rev attrs)

let ring_record ~id ~parent ~name ~t0 ~dur_us ~attrs =
  Mutex.lock ring.rg_lock;
  let seq = ring.rg_next in
  let cap = Array.length ring.rg_buf in
  ring.rg_buf.(seq mod cap) <-
    { sr_seq = seq; sr_id = id; sr_parent = parent; sr_name = name; sr_t0 = t0; sr_dur_us = dur_us; sr_attrs = attrs };
  ring.rg_next <- seq + 1;
  if ring.rg_stored < cap then ring.rg_stored <- ring.rg_stored + 1;
  Mutex.unlock ring.rg_lock

let trace_read ?(since = 0) ?max_spans () =
  Mutex.lock ring.rg_lock;
  let cap = Array.length ring.rg_buf in
  let first_avail = ring.rg_next - ring.rg_stored in
  let since = Stdlib.max 0 since in
  let start = Stdlib.max since first_avail in
  let stop = ring.rg_next in
  let dropped = Stdlib.max 0 (Stdlib.min stop start - since) in
  let avail = Stdlib.max 0 (stop - start) in
  let take = match max_spans with Some m -> Stdlib.max 0 (Stdlib.min m avail) | None -> avail in
  let spans = List.init take (fun k -> ring.rg_buf.((start + k) mod cap)) in
  let next = if take < avail then start + take else stop in
  Mutex.unlock ring.rg_lock;
  let spans =
    List.map (fun sr -> { sr with sr_attrs = dedup_attrs sr.sr_attrs }) spans
  in
  (spans, next, dropped)

(* per-thread stacks of open span ids, for implicit parenting.

   [Thread.id] is a dense process-wide counter, so the stacks live in
   a two-level direct-indexed table instead of a locked hashtable: a
   thread only ever reads and writes its own slot, which makes slot
   access lock-free (the lock below only guards chunk creation, and
   chunks are never copied or replaced, so a concurrent slot write
   can never be lost to a resize).  A span closed on a thread other
   than its opener writes the opener's slot unsynchronized — the
   worst case is a leaked stack entry, an observability blemish, and
   every closer in this codebase is the opening thread. *)

let stack_chunk_bits = 10
let stack_chunk_size = 1 lsl stack_chunk_bits
let stack_chunk_count = 256

let stack_chunks : int list array Atomic.t array =
  Array.init stack_chunk_count (fun _ -> Atomic.make [||])

let stack_chunks_lock = Mutex.create ()
let stack_tid () = Thread.id (Thread.self ())

let stack_chunk tid =
  (* thread ids beyond count*size wrap: two live threads 2^18 ids
     apart sharing a slot is the accepted failure mode *)
  let cell =
    Array.unsafe_get stack_chunks ((tid lsr stack_chunk_bits) land (stack_chunk_count - 1))
  in
  let chunk = Atomic.get cell in
  if Array.length chunk > 0 then chunk
  else begin
    Mutex.lock stack_chunks_lock;
    let chunk =
      let c = Atomic.get cell in
      if Array.length c > 0 then c
      else begin
        let fresh = Array.make stack_chunk_size [] in
        Atomic.set cell fresh;
        fresh
      end
    in
    Mutex.unlock stack_chunks_lock;
    chunk
  end

let stack_get tid = (stack_chunk tid).(tid land (stack_chunk_size - 1))
let stack_set tid v = (stack_chunk tid).(tid land (stack_chunk_size - 1)) <- v
let stack_push tid id = stack_set tid (id :: stack_get tid)

let stack_remove tid id =
  match stack_get tid with
  (* usually the head; tolerate out-of-order closes *)
  | top :: rest when top = id -> stack_set tid rest
  | ids -> stack_set tid (List.filter (fun i -> i <> id) ids)

let stack_top () =
  match stack_get (stack_tid ()) with id :: _ -> Some id | [] -> None

let stack_depth () = List.length (stack_get (stack_tid ()))

let current_span_id () = stack_top ()

let next_id = Atomic.make 1

type span = {
  sp_live : bool;
  sp_id : int;
  sp_parent : int;
  sp_name : string;
  sp_t0 : float;
  sp_key : int; (* the thread stack the id was pushed on; -1 = none *)
  mutable sp_attrs : (string * string) list;
  mutable sp_closed : bool;
}

let dead_span =
  { sp_live = false; sp_id = -1; sp_parent = -1; sp_name = ""; sp_t0 = 0.0; sp_key = -1; sp_attrs = []; sp_closed = true }

(* the implicit-parent marker an unsampled root leaves on its stack:
   children looking up their parent find it and record nothing, so a
   suppressed root's whole subtree vanishes with it *)
let suppress_id = -2

(* Would a span or instant opened right here record anything?  The
   cheap pre-flight for instrumentation sites whose {e argument
   construction} is the expensive part (stringifying values, building
   attr lists): guard on [recording ()] instead of [enabled ()] so a
   suppressed (unsampled) subtree skips the work entirely rather than
   building attrs for a dead span to discard. *)
let recording () =
  enabled ()
  && (match stack_get (stack_tid ()) with id :: _ -> id <> suppress_id | [] -> true)

let span_begin ?parent ?(attrs = []) name =
  if not (enabled ()) then dead_span
  else begin
    let parent =
      match parent with
      | Some p -> p
      | None -> ( match stack_top () with Some p -> p | None -> -1)
    in
    if parent = suppress_id then dead_span
    else begin
      let id = Atomic.fetch_and_add next_id 1 in
      let key = stack_tid () in
      stack_push key id;
      { sp_live = true; sp_id = id; sp_parent = parent; sp_name = name; sp_t0 = now (); sp_key = key; sp_attrs = attrs; sp_closed = false }
    end
  end


let span_add sp attrs = if sp.sp_live && not sp.sp_closed then sp.sp_attrs <- sp.sp_attrs @ attrs
let span_live sp = sp.sp_live

let span_end ?(attrs = []) sp =
  if sp.sp_live && not sp.sp_closed then begin
    sp.sp_closed <- true;
    if sp.sp_key >= 0 then stack_remove sp.sp_key sp.sp_id;
    let dur_us = (now () -. sp.sp_t0) *. 1e6 in
    ring_record ~id:sp.sp_id ~parent:sp.sp_parent ~name:sp.sp_name ~t0:sp.sp_t0
      ~dur_us:(Float.max 0.0 dur_us)
      ~attrs:(sp.sp_attrs @ attrs)
  end
  else if sp.sp_id = suppress_id && not sp.sp_closed then begin
    (* an unsampled root: pop its suppression marker *)
    sp.sp_closed <- true;
    stack_remove sp.sp_key suppress_id
  end

let with_span ?(attrs = []) name f =
  if not (enabled ()) then f ()
  else begin
    let sp = span_begin ~attrs name in
    Fun.protect
      ~finally:(fun () -> span_end sp)
      (fun () ->
        try f ()
        with e ->
          let bt = Printexc.get_raw_backtrace () in
          span_add sp [ ("error", Printexc.to_string e) ];
          Printexc.raise_with_backtrace e bt)
  end

let instant ?(attrs = []) name =
  if enabled () then begin
    let parent = match stack_top () with Some p -> p | None -> -1 in
    if parent <> suppress_id then begin
      let id = Atomic.fetch_and_add next_id 1 in
      ring_record ~id ~parent ~name ~t0:(now ()) ~dur_us:0.0 ~attrs
    end
  end

(* ------------------------------------------------------------------ *)
(* Tracing: propagated trace context (DESIGN.md 18)

   A context is the string "<32 hex>-<16 hex>": a 128-bit trace id and
   the 64-bit id of the span that caused this request, W3C-traceparent
   shaped minus the version/flags fields (the sampling decision is
   re-derivable from the trace id, so flags carry no information).
   Local span ids stay small ints; when one has to leave the process it
   is widened by a random 32-bit per-process prefix, which is what
   makes ids from different fleet members collision-free in a merged
   trace. *)

let hex_digits = "0123456789abcdef"

(* The per-process random values ([process_hex], [mint_seed]) are drawn
   at module init, before any thread or domain can race to draw them. *)
let rand_state = Random.State.make_self_init ()

(* low [digits] nibbles of [v], most significant first *)
let hex_into b pos v digits =
  for i = 0 to digits - 1 do
    Bytes.unsafe_set b (pos + i)
      (String.unsafe_get hex_digits ((v lsr ((digits - 1 - i) * 4)) land 0xf))
  done

let process_hex = String.init 8 (fun _ -> hex_digits.[Random.State.int rand_state 16])

let span_hex id =
  let b = Bytes.create 16 in
  Bytes.blit_string process_hex 0 b 0 8;
  hex_into b 8 (id land 0xFFFFFFFF) 8;
  Bytes.unsafe_to_string b

(* Context minting is on the client's per-request hot path, so it must
   not draw 48 digits from a shared RNG state per context: ids are
   splitmix streams over a lock-free atomic counter, seeded once from
   the system RNG.  The mixer is splitmix64's finalizer truncated
   to OCaml's native 63-bit int — native int arithmetic stays unboxed,
   where Int64 would heap-allocate every intermediate on this path.
   Uniqueness needs a good bit mixer, not cryptographic randomness;
   each 63-bit word renders as 16 hex digits whose top nibble is 0-7,
   which downstream parsers treat as ordinary hex. *)
let sm_gamma = 0x1E3779B97F4A7C15

let sm x =
  let z = (x lxor (x lsr 30)) * 0x3F58476D1CE4E5B9 in
  let z = (z lxor (z lsr 27)) * 0x14D049BB133111EB in
  z lxor (z lsr 31)

let mint_seed = Int64.to_int (Random.State.bits64 rand_state)

let mint_ctr = Atomic.make 0
let mint_word seed n k = sm (seed + (((3 * n) + k) * sm_gamma))

let mint_trace_of seed n =
  let b = Bytes.create 49 in
  hex_into b 0 (mint_word seed n 0) 16;
  hex_into b 16 (mint_word seed n 1) 16;
  Bytes.unsafe_set b 32 '-';
  hex_into b 33 (mint_word seed n 2) 16;
  Bytes.unsafe_to_string b

let mint_trace () =
  mint_trace_of (mint_seed) (Atomic.fetch_and_add mint_ctr 1)

let is_hex = String.for_all (function '0' .. '9' | 'a' .. 'f' -> true | _ -> false)

let parse_trace s =
  if String.length s = 49 && s.[32] = '-' then begin
    let tid = String.sub s 0 32 and psid = String.sub s 33 16 in
    if is_hex tid && is_hex psid then Some (tid, psid) else None
  end
  else None

(* Head sampling: the keep/drop decision is a pure hash of the trace
   id, so the client, the router and every worker agree on it
   independently — no sampled-flag has to travel with the request. *)

let env_sample =
  match Option.bind (Sys.getenv_opt "DSE_TRACE_SAMPLE") float_of_string_opt with
  | Some r when Float.is_finite r -> Float.min 1.0 (Float.max 0.0 r)
  | _ -> 1.0

let sample_rate = Atomic.make env_sample
let set_trace_sample r = Atomic.set sample_rate (Float.min 1.0 (Float.max 0.0 r))
let trace_sample () = Atomic.get sample_rate

(* 32-bit FNV-1a of the first [len] chars of [s] (the trace id part),
   folded onto the unit interval *)
let trace_unit_prefix s len =
  let len = Stdlib.min len (String.length s) in
  let h = ref 0x811c9dc5 in
  for i = 0 to len - 1 do
    h := (!h lxor Char.code (String.unsafe_get s i)) * 0x01000193 land 0xFFFFFFFF
  done;
  float_of_int !h /. 4294967296.0

let trace_sampled tid =
  let r = trace_sample () in
  if r >= 1.0 then true
  else if r <= 0.0 then false
  else trace_unit_prefix tid 32 < r

(* FNV-1a folded over the 16 hex digits of one minted word, most
   significant nibble first — by construction this matches what
   [trace_unit_prefix] computes over the rendered hex string, so the
   sampling decision can be taken from the raw words without
   materializing the string at all. *)
let fnv_hex_word h w =
  let h = ref h in
  for i = 0 to 15 do
    let c = Char.code (String.unsafe_get hex_digits ((w lsr ((15 - i) * 4)) land 0xf)) in
    h := (!h lxor c) * 0x01000193 land 0xFFFFFFFF
  done;
  !h

let mint_trace_sampled () =
  if not (enabled ()) then None
  else begin
    let r = trace_sample () in
    if r <= 0.0 then None
    else begin
      (* the same FNV decision every downstream hop would make on the
         embedded trace id, taken once here at the root: an unsampled
         trace never even leaves the client, so requests below the
         sampling rate carry zero tracing cost through the fleet — not
         even the context string is built for them *)
      let seed = mint_seed in
      let n = Atomic.fetch_and_add mint_ctr 1 in
      let sampled =
        r >= 1.0
        || (let h =
              fnv_hex_word (fnv_hex_word 0x811c9dc5 (mint_word seed n 0)) (mint_word seed n 1)
            in
            float_of_int h /. 4294967296.0 < r)
      in
      if sampled then Some (mint_trace_of seed n) else None
    end
  end

(* an unbiased coin at the sampling rate for local roots, which have
   no trace id to hash: a splitmix stream over a lock-free counter *)
let coin_ctr = Atomic.make 0

let root_sampled () =
  let r = trace_sample () in
  if r >= 1.0 then true
  else if r <= 0.0 then false
  else begin
    let n = Atomic.fetch_and_add coin_ctr 1 in
    let z = sm (mint_seed + (n * 0x51342543DE82EF95)) in
    float_of_int ((z lsr 10) land 0x1F_FFFF_FFFF_FFFF) *. (1.0 /. 9007199254740992.0) < r
  end

let span_begin_root ?(attrs = []) name =
  if not (enabled ()) then dead_span
  else if root_sampled () then span_begin ~attrs name
  else begin
    (* leave the suppression marker in place of the span: children
       opened while it is open die at birth instead of reparenting
       onto whatever encloses this root (e.g. the connection span) *)
    let key = stack_tid () in
    stack_push key suppress_id;
    {
      sp_live = false;
      sp_id = suppress_id;
      sp_parent = -1;
      sp_name = name;
      sp_t0 = 0.0;
      sp_key = key;
      sp_attrs = [];
      sp_closed = false;
    }
  end

(* A remote-parented span: a local root (sp_parent = -1 — the real
   parent lives in another process) that records the propagated
   context as attrs.  [trace] keys the fleet-wide merge, [span] is
   this span's own fleet-unique hex id, [parent_span] the propagated
   one; children opened on this (domain, thread) nest under it through
   the ordinary implicit stack. *)
(* [detached] spans skip the implicit-parent stack entirely: for a
   span that provably never has same-thread children (the router's
   forward-only hop), the two stack-table updates are pure overhead
   on the per-request path. *)
let detached_key = -1

let span_begin_remote ~trace ~parent_span ?(detached = false) ?(attrs = []) name =
  if (not (enabled ())) || not (trace_sampled trace) then dead_span
  else begin
    let id = Atomic.fetch_and_add next_id 1 in
    let key = if detached then detached_key else stack_tid () in
    if not detached then stack_push key id;
    let attrs =
      ("trace", trace) :: ("span", span_hex id) :: ("parent_span", parent_span) :: attrs
    in
    {
      sp_live = true;
      sp_id = id;
      sp_parent = -1;
      sp_name = name;
      sp_t0 = now ();
      sp_key = key;
      sp_attrs = attrs;
      sp_closed = false;
    }
  end

(* a single mutable-int read: racy by design (the cursor is a lower
   bound, exactness buys nothing), so the per-request hot path skips
   the ring lock *)
let trace_cursor () = ring.rg_next

(* ------------------------------------------------------------------ *)
(* Exporters *)

let json_escape b s =
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s

let span_to_json sp =
  let b = Buffer.create 160 in
  Buffer.add_string b (Printf.sprintf "{\"seq\":%d,\"id\":%d" sp.sr_seq sp.sr_id);
  if sp.sr_parent >= 0 then Buffer.add_string b (Printf.sprintf ",\"parent\":%d" sp.sr_parent);
  Buffer.add_string b ",\"name\":\"";
  json_escape b sp.sr_name;
  Buffer.add_string b (Printf.sprintf "\",\"t0\":%.6f,\"dur_us\":%.3f" sp.sr_t0 sp.sr_dur_us);
  if sp.sr_attrs <> [] then begin
    Buffer.add_string b ",\"attrs\":{";
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_char b ',';
        Buffer.add_char b '"';
        json_escape b k;
        Buffer.add_string b "\":\"";
        json_escape b v;
        Buffer.add_char b '"')
      sp.sr_attrs;
    Buffer.add_char b '}'
  end;
  Buffer.add_char b '}';
  Buffer.contents b

let trace_json_lines ?since () =
  let spans, _, _ = trace_read ?since () in
  List.map span_to_json spans

let dump_ring_to oc =
  let spans, _, dropped = trace_read () in
  if dropped > 0 then Printf.fprintf oc "{\"dropped\":%d}\n" dropped;
  List.iter (fun sp -> output_string oc (span_to_json sp); output_char oc '\n') spans;
  flush oc

(* ------------------------------------------------------------------ *)
(* Slow-request log: requests whose root span exceeds DSE_SLOW_MS keep
   their whole span tree as one JSON line in a small bounded ring.
   Off by default — assembling a tree walks one ring page, which is
   too much work to spend on every fast request. *)

let env_slow_us =
  match Option.bind (Sys.getenv_opt "DSE_SLOW_MS") float_of_string_opt with
  | Some ms when Float.is_finite ms && ms >= 0.0 -> Some (ms *. 1000.0)
  | _ -> None

let slow_lock = Mutex.create ()
let slow_thr_us = ref env_slow_us
let slow_cap = 64
let slow_buf : string Queue.t = Queue.create ()
let slow_dropped = ref 0

let set_slow_ms ms =
  Mutex.lock slow_lock;
  slow_thr_us := Option.map (fun m -> Float.max 0.0 m *. 1000.0) ms;
  Mutex.unlock slow_lock

(* read without the lock: the ref holds an immutable option, so a racy
   read is safe, and this sits on every request's span-close path *)
let slow_threshold_us () = !slow_thr_us

let slow_read () =
  Mutex.lock slow_lock;
  let lines = List.of_seq (Queue.to_seq slow_buf) in
  let dropped = !slow_dropped in
  Mutex.unlock slow_lock;
  (lines, dropped)

let slow_clear () =
  Mutex.lock slow_lock;
  Queue.clear slow_buf;
  slow_dropped := 0;
  Mutex.unlock slow_lock

let slow_push line =
  Mutex.lock slow_lock;
  if Queue.length slow_buf >= slow_cap then begin
    ignore (Queue.pop slow_buf);
    Stdlib.incr slow_dropped
  end;
  Queue.push line slow_buf;
  Mutex.unlock slow_lock

(* [slow_check ~since ~dur_us sp]: called right after [span_end sp] by
   request roots that measured their own duration.  When over the
   threshold, the spans recorded since [since] (the caller's cursor
   from just before the request) are filtered to the tree under [sp]
   and logged.  Children recorded on other domains are included as
   long as they carry a parent chain into [sp] (parallel chunks pass
   explicit parents for exactly this reason). *)
let slow_check ~since ~dur_us sp =
  if sp.sp_live then
    match slow_threshold_us () with
    | Some thr when dur_us >= thr ->
      let spans, _, _ = trace_read ~since () in
      let parents = Hashtbl.create 32 in
      List.iter
        (fun r -> if not (Hashtbl.mem parents r.sr_id) then Hashtbl.add parents r.sr_id r.sr_parent)
        spans;
      let rec reaches id =
        id = sp.sp_id
        || (match Hashtbl.find_opt parents id with Some p when p >= 0 -> reaches p | _ -> false)
      in
      let tree = List.filter (fun r -> reaches r.sr_id) spans in
      let b = Buffer.create 512 in
      Buffer.add_string b "{\"name\":\"";
      json_escape b sp.sp_name;
      Buffer.add_string b (Printf.sprintf "\",\"dur_ms\":%.3f" (dur_us /. 1000.0));
      (match List.assoc_opt "trace" sp.sp_attrs with
      | Some t ->
        Buffer.add_string b ",\"trace\":\"";
        json_escape b t;
        Buffer.add_char b '"'
      | None -> ());
      Buffer.add_string b ",\"spans\":[";
      List.iteri
        (fun i r ->
          if i > 0 then Buffer.add_char b ',';
          Buffer.add_string b (span_to_json r))
        tree;
      Buffer.add_string b "]}";
      slow_push (Buffer.contents b)
    | _ -> ()

(* ------------------------------------------------------------------ *)
(* Counter windows: [dse top] rates are differences of successive
   snapshots.  A worker restarted in place resets its counters to
   zero, so a naive difference goes negative for one refresh; a reset
   window reads 0 instead (the next window is exact again). *)

let window_delta ~prev ~cur = if cur >= prev then cur - prev else 0

let window_rate ~prev ~cur ~dt =
  if dt <= 0.0 then 0.0 else float_of_int (window_delta ~prev ~cur) /. dt

let window_counts ~prev ~cur =
  Array.init (Array.length cur) (fun i ->
      let p = if i < Array.length prev then prev.(i) else 0 in
      window_delta ~prev:p ~cur:cur.(i))

(* ------------------------------------------------------------------ *)
(* Build identity, exported as dse_build_info{version="..."} 1 *)

let build_version = ref "dev"
let set_build_info ~version = build_version := version

(* a metric name may carry a {label="value",...} suffix; the
   Prometheus exporter splits it so histogram [le] labels merge in *)
let split_labels name =
  match String.index_opt name '{' with
  | None -> (name, "")
  | Some i when String.length name > 0 && name.[String.length name - 1] = '}' ->
    (String.sub name 0 i, String.sub name (i + 1) (String.length name - i - 2))
  | Some _ -> (name, "")

let with_labels base labels extra =
  let all = List.filter (fun s -> s <> "") [ labels; extra ] in
  match all with [] -> base | l -> Printf.sprintf "%s{%s}" base (String.concat "," l)

let fmt_float f =
  if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.0f" f
  else Printf.sprintf "%g" f

let prometheus regs =
  let b = Buffer.create 4096 in
  Buffer.add_string b (Printf.sprintf "dse_build_info{version=%S} 1\n" !build_version);
  List.iter
    (fun (tag, r) ->
      if tag <> "" then Buffer.add_string b (Printf.sprintf "# registry: %s\n" tag);
      Mutex.lock r.r_lock;
      let counters = sorted_keys r.r_counters |> List.map (fun k -> (k, Hashtbl.find r.r_counters k)) in
      let gauges = sorted_keys r.r_gauges |> List.map (fun k -> (k, Hashtbl.find r.r_gauges k)) in
      let hists = sorted_keys r.r_histograms |> List.map (fun k -> (k, Hashtbl.find r.r_histograms k)) in
      Mutex.unlock r.r_lock;
      List.iter
        (fun (name, c) ->
          let base, labels = split_labels name in
          Buffer.add_string b (Printf.sprintf "%s %d\n" (with_labels base labels "") (counter_value c)))
        counters;
      List.iter
        (fun (name, g) ->
          let base, labels = split_labels name in
          Buffer.add_string b (Printf.sprintf "%s %s\n" (with_labels base labels "") (fmt_float (gauge_value g))))
        gauges;
      List.iter
        (fun (name, h) ->
          let s = h_snapshot h in
          let base, labels = split_labels name in
          let cum = ref 0 in
          Array.iteri
            (fun i c ->
              cum := !cum + c;
              if i < bucket_count then
                Buffer.add_string b
                  (Printf.sprintf "%s %d\n"
                     (with_labels (base ^ "_bucket") labels (Printf.sprintf "le=\"%g\"" bucket_bounds.(i)))
                     !cum))
            s.h_counts;
          Buffer.add_string b
            (Printf.sprintf "%s %d\n" (with_labels (base ^ "_bucket") labels "le=\"+Inf\"") s.h_count);
          Buffer.add_string b (Printf.sprintf "%s %s\n" (with_labels (base ^ "_sum") labels "") (fmt_float s.h_sum));
          Buffer.add_string b (Printf.sprintf "%s %d\n" (with_labels (base ^ "_count") labels "") s.h_count))
        hists)
    regs;
  Buffer.contents b

let pp_summary fmt regs =
  List.iter
    (fun (tag, r) ->
      if tag <> "" then Format.fprintf fmt "[%s]@." tag;
      Mutex.lock r.r_lock;
      let counters = sorted_keys r.r_counters |> List.map (fun k -> (k, Hashtbl.find r.r_counters k)) in
      let gauges = sorted_keys r.r_gauges |> List.map (fun k -> (k, Hashtbl.find r.r_gauges k)) in
      let hists = sorted_keys r.r_histograms |> List.map (fun k -> (k, Hashtbl.find r.r_histograms k)) in
      Mutex.unlock r.r_lock;
      List.iter (fun (name, c) -> Format.fprintf fmt "  %s = %d@." name (counter_value c)) counters;
      List.iter (fun (name, g) -> Format.fprintf fmt "  %s = %s@." name (fmt_float (gauge_value g))) gauges;
      List.iter
        (fun (name, h) ->
          let s = h_snapshot h in
          if s.h_count = 0 then Format.fprintf fmt "  %s: empty@." name
          else
            Format.fprintf fmt "  %s: count=%d mean=%.1fus p50=%.1fus p90=%.1fus p99=%.1fus max=%.1fus@."
              name s.h_count (h_mean s) (quantile s 0.5) (quantile s 0.9) (quantile s 0.99) s.h_max)
        hists)
    regs
