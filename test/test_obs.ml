(* Tests for the telemetry subsystem (lib/obs): histogram quantile
   accuracy against an exact-sort oracle, trace-ring wraparound and
   since-cursor pagination, counter exactness under concurrent domains,
   and span-nesting well-formedness under fault injection. *)

module Obs = Ds_obs.Obs

(* ------------------------------------------------------------------ *)
(* First use from many threads                                         *)

(* Trace ids, span ids and head sampling draw on per-process random
   values.  Their first use may come from any number of threads and
   domains at once (client connections, sweep chunks), so that first
   use must not race: a lazy forced while another thread was forcing it
   raised [CamlinternalLazy.Undefined].  Eight threads over two domains
   start together; this runs first in the suite, before anything else
   has touched those values. *)
let test_first_use_race () =
  Obs.set_enabled true;
  let r0 = Obs.trace_sample () in
  Obs.set_trace_sample 0.5;
  Fun.protect ~finally:(fun () -> Obs.set_trace_sample r0) @@ fun () ->
  let ready = Atomic.make 0 and failures = Atomic.make 0 in
  let body () =
    Atomic.incr ready;
    while Atomic.get ready < 8 do
      Thread.yield ()
    done;
    try
      ignore (Obs.mint_trace ());
      ignore (Obs.span_hex 1);
      Obs.span_end (Obs.span_begin_root "first-use")
    with _ -> Atomic.incr failures
  in
  let threads () = List.iter Thread.join (List.init 4 (fun _ -> Thread.create body ())) in
  let other = Domain.spawn threads in
  threads ();
  Domain.join other;
  Alcotest.(check int) "no thread raised" 0 (Atomic.get failures)

(* ------------------------------------------------------------------ *)
(* Histogram vs exact-sort oracle                                      *)

(* The histogram's geometric buckets (ratio 1.25) bound the quantile
   estimate to one bucket: against the exact sorted-array quantile the
   estimate must be within +25%/-20% (DESIGN.md 13).  Count, sum, min
   and max are tracked exactly. *)
let test_histogram_oracle () =
  let rng = Random.State.make [| 42 |] in
  let distributions =
    [
      ("uniform", fun () -> Random.State.float rng 10_000.0);
      ("exponentialish", fun () -> -1_000.0 *. log (1.0 -. Random.State.float rng 0.999));
      ("bimodal",
       fun () ->
         if Random.State.bool rng then 50.0 +. Random.State.float rng 10.0
         else 50_000.0 +. Random.State.float rng 5_000.0);
    ]
  in
  List.iter
    (fun (name, draw) ->
      let n = 5_000 in
      let samples = Array.init n (fun _ -> draw ()) in
      let h = Obs.histogram (Obs.create_registry ()) "oracle_us" in
      Array.iter (Obs.observe h) samples;
      let s = Obs.h_snapshot h in
      Alcotest.(check int) (name ^ " count exact") n s.Obs.h_count;
      let sorted = Array.copy samples in
      Array.sort compare sorted;
      Alcotest.(check (float 1e-6)) (name ^ " min exact") sorted.(0) s.Obs.h_min;
      Alcotest.(check (float 1e-6)) (name ^ " max exact") sorted.(n - 1) s.Obs.h_max;
      let sum = Array.fold_left ( +. ) 0.0 samples in
      if abs_float (s.Obs.h_sum -. sum) > 1e-6 *. abs_float sum then
        Alcotest.failf "%s sum drift: %f vs %f" name s.Obs.h_sum sum;
      List.iter
        (fun p ->
          let exact = sorted.(Stdlib.min (n - 1) (int_of_float (p *. float_of_int n))) in
          let est = Obs.quantile s p in
          let rel = (est -. exact) /. exact in
          if rel > 0.25 +. 1e-9 || rel < -0.20 -. 1e-9 then
            Alcotest.failf "%s p%.0f: estimate %.1f vs exact %.1f (rel %.3f)" name
              (100.0 *. p) est exact rel)
        [ 0.5; 0.9; 0.95; 0.99 ])
    distributions

let test_histogram_edge_cases () =
  let reg = Obs.create_registry () in
  let h = Obs.histogram reg "edges_us" in
  (* empty: quantile is nan, mean is nan *)
  let s0 = Obs.h_snapshot h in
  Alcotest.(check bool) "empty quantile nan" true (Float.is_nan (Obs.quantile s0 0.5));
  Alcotest.(check bool) "empty mean nan" true (Float.is_nan (Obs.h_mean s0));
  (* negative clamps to zero, overflow reports the exact max *)
  Obs.observe h (-5.0);
  let huge = 1.0e9 in
  Obs.observe h huge;
  let s = Obs.h_snapshot h in
  Alcotest.(check int) "count" 2 s.Obs.h_count;
  Alcotest.(check (float 1e-6)) "clamped min" 0.0 s.Obs.h_min;
  Alcotest.(check (float 1e-6)) "overflow p100 = exact max" huge (Obs.quantile s 1.0);
  let p99 = Obs.quantile s 0.99 in
  Alcotest.(check bool) "overflow interpolates toward max" true
    (p99 > Obs.bucket_bounds.(Array.length Obs.bucket_bounds - 1) && p99 <= huge);
  (* the same estimator over raw wire-format bucket counts *)
  Alcotest.(check (float 1e-6)) "quantile_of matches"
    (Obs.quantile s 0.99)
    (Obs.quantile_of ~counts:s.Obs.h_counts ~count:s.Obs.h_count ~max:s.Obs.h_max 0.99);
  (* same-name lookup returns the same histogram *)
  Obs.observe (Obs.histogram reg "edges_us") 3.0;
  Alcotest.(check int) "find-or-create" 3 (Obs.h_snapshot h).Obs.h_count

(* ------------------------------------------------------------------ *)
(* Trace ring: wraparound + since-cursor pagination                    *)

let head_cursor () =
  let _, next, _ = Obs.trace_read ~since:max_int () in
  next

let test_ring_wraparound () =
  Obs.set_enabled true;
  Obs.set_trace_cap 64;
  let base = head_cursor () in
  for i = 0 to 199 do
    Obs.instant "wrap.test" ~attrs:[ ("i", string_of_int i) ]
  done;
  let spans, next, dropped = Obs.trace_read ~since:base () in
  Alcotest.(check int) "ring keeps cap spans" 64 (List.length spans);
  Alcotest.(check int) "dropped = overflow" (200 - 64) dropped;
  Alcotest.(check int) "next = head" (base + 200) next;
  (* the survivors are the newest, in order, with contiguous seqs *)
  List.iteri
    (fun k sp ->
      Alcotest.(check int) "seq contiguous" (base + 136 + k) sp.Obs.sr_seq;
      Alcotest.(check string) "payload matches seq"
        (string_of_int (136 + k))
        (List.assoc "i" sp.Obs.sr_attrs))
    spans;
  (* a cursor inside the retained window drops nothing *)
  let spans2, _, dropped2 = Obs.trace_read ~since:(base + 150) () in
  Alcotest.(check int) "tail read" 50 (List.length spans2);
  Alcotest.(check int) "tail read drops nothing" 0 dropped2

let test_ring_pagination () =
  Obs.set_enabled true;
  Obs.set_trace_cap 128;
  let base = head_cursor () in
  for i = 0 to 99 do
    Obs.instant "page.test" ~attrs:[ ("i", string_of_int i) ]
  done;
  (* page through with a small page size; no span seen twice or missed *)
  let rec drain since acc pages =
    let spans, next, dropped = Obs.trace_read ~since ~max_spans:17 () in
    Alcotest.(check int) "pagination never drops" 0 dropped;
    match spans with
    | [] -> (List.rev acc, pages)
    | _ ->
      Alcotest.(check bool) "page size respected" true (List.length spans <= 17);
      drain next (List.rev_append spans acc) (pages + 1)
  in
  let all, pages = drain base [] 0 in
  Alcotest.(check int) "all spans paged" 100 (List.length all);
  Alcotest.(check int) "page count" ((100 + 16) / 17) pages;
  List.iteri
    (fun k sp -> Alcotest.(check int) "in order" (base + k) sp.Obs.sr_seq)
    all;
  (* cap resize clears the buffer but sequence numbers keep counting *)
  Obs.set_trace_cap 4096;
  let spans, next, _ = Obs.trace_read ~since:base () in
  Alcotest.(check int) "resize clears" 0 (List.length spans);
  Alcotest.(check bool) "seq keeps counting" true (next >= base + 100)

(* ------------------------------------------------------------------ *)
(* Counter exactness across concurrent domains                         *)

let test_concurrent_counters () =
  let reg = Obs.create_registry () in
  let c = Obs.counter reg "race_total" in
  let h = Obs.histogram reg "race_us" in
  let domains = 4 and per_domain = 50_000 in
  let body () =
    for i = 1 to per_domain do
      Obs.incr c;
      if i mod 100 = 0 then Obs.observe h (float_of_int (i mod 1000))
    done
  in
  let spawned = List.init domains (fun _ -> Stdlib.Domain.spawn body) in
  body ();
  List.iter Stdlib.Domain.join spawned;
  Alcotest.(check int) "counter exact under domains"
    ((domains + 1) * per_domain)
    (Obs.counter_value c);
  Alcotest.(check int) "histogram count exact under domains"
    ((domains + 1) * (per_domain / 100))
    (Obs.h_snapshot h).Obs.h_count;
  (* bucket totals agree with the exact count *)
  let s = Obs.h_snapshot h in
  Alcotest.(check int) "bucket sum = count" s.Obs.h_count
    (Array.fold_left ( + ) 0 s.Obs.h_counts)

(* ------------------------------------------------------------------ *)
(* Span nesting under fault injection                                  *)

exception Boom

let find_span ~since name =
  let spans, _, _ = Obs.trace_read ~since () in
  List.filter (fun sp -> String.equal sp.Obs.sr_name name) spans

let test_span_nesting_faults () =
  Obs.set_enabled true;
  Obs.set_trace_cap 4096;
  let base = head_cursor () in
  Alcotest.(check int) "depth 0 at rest" 0 (Obs.stack_depth ());
  (* three levels, the innermost raising: every level must still close
     (with_span is Fun.protect-based), parents must chain, and the
     stack must unwind to zero *)
  (try
     Obs.with_span "outer" (fun () ->
         Obs.with_span "middle" (fun () ->
             Alcotest.(check int) "depth inside" 2 (Obs.stack_depth ());
             Obs.with_span "inner" (fun () -> raise Boom)))
   with Boom -> ());
  Alcotest.(check int) "depth unwinds to 0 after raise" 0 (Obs.stack_depth ());
  let outer = find_span ~since:base "outer"
  and middle = find_span ~since:base "middle"
  and inner = find_span ~since:base "inner" in
  Alcotest.(check int) "outer recorded once" 1 (List.length outer);
  Alcotest.(check int) "middle recorded once" 1 (List.length middle);
  Alcotest.(check int) "inner recorded once" 1 (List.length inner);
  let outer = List.hd outer and middle = List.hd middle and inner = List.hd inner in
  Alcotest.(check int) "middle parented to outer" outer.Obs.sr_id middle.Obs.sr_parent;
  Alcotest.(check int) "inner parented to middle" middle.Obs.sr_id inner.Obs.sr_parent;
  Alcotest.(check int) "outer is a root" (-1) outer.Obs.sr_parent;
  (* the faulting span carries the error attribute *)
  Alcotest.(check bool) "inner has error attr" true
    (List.mem_assoc "error" inner.Obs.sr_attrs);
  (* children record before parents (completion order) *)
  Alcotest.(check bool) "inner sealed before outer" true (inner.Obs.sr_seq < outer.Obs.sr_seq)

let test_span_end_idempotent_and_parenting () =
  Obs.set_enabled true;
  let base = head_cursor () in
  let sp = Obs.span_begin "idem" ~attrs:[ ("k", "begin") ] in
  Obs.span_end sp ~attrs:[ ("k", "end") ];
  Obs.span_end sp ~attrs:[ ("k", "again") ];
  let recs = find_span ~since:base "idem" in
  Alcotest.(check int) "double close records once" 1 (List.length recs);
  (* duplicate keys: the last write wins *)
  Alcotest.(check string) "attr dedup, last wins" "end"
    (List.assoc "k" (List.hd recs).Obs.sr_attrs);
  (* explicit cross-domain parenting *)
  let parent = Obs.span_begin "xdom.parent" in
  let pid = Option.get (Obs.current_span_id ()) in
  let d =
    Stdlib.Domain.spawn (fun () ->
        let child = Obs.span_begin ~parent:pid "xdom.child" in
        Obs.span_end child)
  in
  Stdlib.Domain.join d;
  Obs.span_end parent;
  let child = List.hd (find_span ~since:base "xdom.child") in
  Alcotest.(check int) "cross-domain parent id" pid child.Obs.sr_parent;
  (* disabled tracing: dead spans record nothing and cost no depth *)
  Obs.set_enabled false;
  let head = head_cursor () in
  Obs.with_span "dead" (fun () ->
      Alcotest.(check int) "dead span adds no depth" 0 (Obs.stack_depth ()));
  Alcotest.(check int) "dead span not recorded" head (head_cursor ());
  Obs.set_enabled true

(* ------------------------------------------------------------------ *)
(* Trace context: mint/parse, deterministic head sampling, remote
   parents (DESIGN.md 18)                                              *)

let test_trace_context () =
  let trace = Obs.mint_trace () in
  Alcotest.(check int) "mint shape: 32hex-16hex" 49 (String.length trace);
  Alcotest.(check bool) "mint parses" true (Obs.parse_trace trace <> None);
  let tid, psid = Option.get (Obs.parse_trace trace) in
  Alcotest.(check int) "trace id half" 32 (String.length tid);
  Alcotest.(check int) "parent span half" 16 (String.length psid);
  Alcotest.(check string) "parse splits at the dash" trace (tid ^ "-" ^ psid);
  (* two mints differ (128-bit collision is not a test flake) *)
  Alcotest.(check bool) "mints are unique" true (not (String.equal trace (Obs.mint_trace ())));
  (* rejections: wrong lengths, non-hex, missing dash *)
  List.iter
    (fun bad ->
      Alcotest.(check bool) (Printf.sprintf "rejects %S" bad) true (Obs.parse_trace bad = None))
    [
      ""; "nope"; tid; tid ^ psid;
      String.make 32 'g' ^ "-" ^ psid;
      tid ^ "-" ^ String.make 16 'z';
      tid ^ "_" ^ psid;
      tid ^ "-" ^ psid ^ "0";
    ];
  (* span_hex: process prefix + 8 hex digits of the local id *)
  let h1 = Obs.span_hex 1 and h2 = Obs.span_hex 2 in
  Alcotest.(check int) "span hex length" 16 (String.length h1);
  Alcotest.(check string) "span hex shares the process prefix"
    (String.sub h1 0 8) (String.sub h2 0 8);
  Alcotest.(check bool) "span hex distinct per id" true (not (String.equal h1 h2))

let test_head_sampling () =
  Obs.set_enabled true;
  Obs.set_trace_cap 4096;
  let tid () = fst (Option.get (Obs.parse_trace (Obs.mint_trace ()))) in
  (* rate 1.0: everything sampled; rate 0.0: nothing *)
  Obs.set_trace_sample 1.0;
  Alcotest.(check (float 1e-9)) "rate clamps/reads back" 1.0 (Obs.trace_sample ());
  for _ = 1 to 50 do
    Alcotest.(check bool) "rate 1.0 samples all" true (Obs.trace_sampled (tid ()))
  done;
  Obs.set_trace_sample 0.0;
  for _ = 1 to 50 do
    Alcotest.(check bool) "rate 0.0 samples none" false (Obs.trace_sampled (tid ()))
  done;
  (* determinism: the decision is a pure function of the id, so every
     process in the fleet agrees without propagating any flag *)
  Obs.set_trace_sample 0.5;
  let ids = List.init 200 (fun _ -> tid ()) in
  let first = List.map Obs.trace_sampled ids in
  let second = List.map Obs.trace_sampled ids in
  Alcotest.(check (list bool)) "decision is deterministic per id" first second;
  let hits = List.length (List.filter Fun.id first) in
  (* 200 fair-ish coin flips: [40, 160] is > 8 sigma of slack *)
  Alcotest.(check bool) "rate 0.5 samples roughly half" true (hits > 40 && hits < 160);
  (* an unsampled trace records nothing, a sampled one records a
     remote-parented root with the propagation attrs *)
  let base = head_cursor () in
  let sampled = List.hd (List.filter Obs.trace_sampled ids) in
  let unsampled = List.hd (List.filter (fun t -> not (Obs.trace_sampled t)) ids) in
  let dead = Obs.span_begin_remote ~trace:unsampled ~parent_span:"00000000000000ff" "op.x" in
  Obs.span_end dead;
  Alcotest.(check int) "unsampled trace records nothing" base (head_cursor ());
  Alcotest.(check int) "unsampled span adds no depth" 0 (Obs.stack_depth ());
  let sp = Obs.span_begin_remote ~trace:sampled ~parent_span:"00000000000000ff" "op.x" in
  let child = Obs.span_begin "child.work" in
  Obs.span_end child;
  Obs.span_end sp;
  let root = List.hd (find_span ~since:base "op.x") in
  Alcotest.(check int) "remote root has no local parent" (-1) root.Obs.sr_parent;
  Alcotest.(check string) "trace attr" sampled (List.assoc "trace" root.Obs.sr_attrs);
  Alcotest.(check string) "parent_span attr" "00000000000000ff"
    (List.assoc "parent_span" root.Obs.sr_attrs);
  Alcotest.(check string) "span attr is this span's fleet id"
    (Obs.span_hex root.Obs.sr_id)
    (List.assoc "span" root.Obs.sr_attrs);
  let c = List.hd (find_span ~since:base "child.work") in
  Alcotest.(check int) "local child parents under the remote root"
    root.Obs.sr_id c.Obs.sr_parent;
  (* the root-side mint takes the same decision from the raw minted
     words, without ever building the context string: every context it
     does emit must pass the downstream string-level re-check *)
  Obs.set_trace_sample 0.5;
  let emitted = ref 0 in
  for _ = 1 to 200 do
    match Obs.mint_trace_sampled () with
    | Some t ->
      Stdlib.incr emitted;
      Alcotest.(check bool) "emitted context passes downstream check" true
        (Obs.trace_sampled (fst (Option.get (Obs.parse_trace t))))
    | None -> ()
  done;
  Alcotest.(check bool) "root mint suppresses roughly half" true
    (!emitted > 40 && !emitted < 160);
  Obs.set_trace_sample 1.0

(* Ring wraparound under sampling: only sampled traces consume ring
   slots, and the survivors are still the newest sampled spans in
   order. *)
let test_ring_wraparound_under_sampling () =
  Obs.set_enabled true;
  Obs.set_trace_cap 64;
  Obs.set_trace_sample 0.5;
  let base = head_cursor () in
  let recorded = ref 0 in
  for i = 0 to 399 do
    let trace = Obs.mint_trace () in
    let tid, psid = Option.get (Obs.parse_trace trace) in
    let sp =
      Obs.span_begin_remote ~trace:tid ~parent_span:psid
        ~attrs:[ ("i", string_of_int i) ] "wrap.sampled"
    in
    if Obs.trace_sampled tid then Stdlib.incr recorded;
    Obs.span_end sp
  done;
  Alcotest.(check int) "unsampled spans consumed no ring slots"
    (base + !recorded) (head_cursor ());
  let spans, _, dropped = Obs.trace_read ~since:base () in
  Alcotest.(check int) "ring keeps cap spans" 64 (List.length spans);
  Alcotest.(check int) "dropped = sampled overflow" (!recorded - 64) dropped;
  (* every survivor is sampled, sequenced, and attr-consistent *)
  List.iter
    (fun sp ->
      Alcotest.(check bool) "survivor is a sampled trace" true
        (Obs.trace_sampled (List.assoc "trace" sp.Obs.sr_attrs)))
    spans;
  Obs.set_trace_sample 1.0;
  Obs.set_trace_cap 4096

(* Counter windows: a worker restart-in-place resets cumulative
   counters; the windowed view must clamp to zero, never show a
   negative rate. *)
let test_counter_windows () =
  Alcotest.(check int) "monotonic delta" 7 (Obs.window_delta ~prev:3 ~cur:10);
  Alcotest.(check int) "reset clamps to zero" 0 (Obs.window_delta ~prev:1000 ~cur:4);
  Alcotest.(check (float 1e-9)) "rate" 3.5 (Obs.window_rate ~prev:3 ~cur:10 ~dt:2.0);
  Alcotest.(check (float 1e-9)) "reset rate clamps" 0.0
    (Obs.window_rate ~prev:1000 ~cur:4 ~dt:2.0);
  Alcotest.(check (float 1e-9)) "zero dt guards" 0.0 (Obs.window_rate ~prev:0 ~cur:5 ~dt:0.0);
  Alcotest.(check (array int)) "bucket windows clamp element-wise"
    [| 2; 0; 5 |]
    (Obs.window_counts ~prev:[| 1; 9 |] ~cur:[| 3; 4; 5 |]);
  Alcotest.(check (array int)) "full reset reads as silence"
    [| 0; 0 |]
    (Obs.window_counts ~prev:[| 50; 50 |] ~cur:[| 2; 1 |])

(* Slow-request log: over-threshold roots log their whole span tree as
   one JSON line in a bounded buffer. *)
let test_slow_log () =
  Obs.set_enabled true;
  Obs.set_trace_cap 4096;
  Obs.slow_clear ();
  Obs.set_slow_ms (Some 0.5);
  Alcotest.(check (option (float 1e-9))) "threshold reads back in us" (Some 500.0)
    (Obs.slow_threshold_us ());
  (* under threshold: nothing logged *)
  let since = Obs.trace_cursor () in
  let fast = Obs.span_begin "op.fast" in
  Obs.span_end fast;
  Obs.slow_check ~since ~dur_us:10.0 fast;
  Alcotest.(check int) "fast request not logged" 0 (List.length (fst (Obs.slow_read ())));
  (* over threshold: the tree (root + descendants, not bystanders) *)
  let since = Obs.trace_cursor () in
  let bystander = Obs.span_begin ~parent:(-1) "op.bystander" in
  Obs.span_end bystander;
  let root = Obs.span_begin ~parent:(-1) "op.slow" in
  let child = Obs.span_begin "slow.child" in
  let grandchild = Obs.span_begin "slow.grandchild" in
  Obs.span_end grandchild;
  Obs.span_end child;
  Obs.span_end root;
  Obs.slow_check ~since ~dur_us:900.0 root;
  let lines, dropped = Obs.slow_read () in
  Alcotest.(check int) "one slow line" 1 (List.length lines);
  Alcotest.(check int) "nothing dropped yet" 0 dropped;
  let line = List.hd lines in
  let has needle =
    let nl = String.length needle and tl = String.length line in
    let rec go i = i + nl <= tl && (String.equal (String.sub line i nl) needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "line carries the root name" true (has "\"name\":\"op.slow\"");
  Alcotest.(check bool) "line carries the duration" true (has "\"dur_ms\":0.900");
  Alcotest.(check bool) "tree includes the child" true (has "slow.child");
  Alcotest.(check bool) "tree includes the grandchild" true (has "slow.grandchild");
  Alcotest.(check bool) "tree excludes bystanders" true (not (has "op.bystander"));
  (* bounded: the buffer drops oldest past its cap and counts drops *)
  for i = 0 to 99 do
    let since = Obs.trace_cursor () in
    let sp = Obs.span_begin ~parent:(-1) (Printf.sprintf "op.slow%d" i) in
    Obs.span_end sp;
    Obs.slow_check ~since ~dur_us:1e6 sp
  done;
  let lines, dropped = Obs.slow_read () in
  Alcotest.(check int) "buffer bounded at 64" 64 (List.length lines);
  Alcotest.(check int) "drops counted" 37 dropped;
  (* disabled again: no threshold, no logging *)
  Obs.set_slow_ms None;
  Alcotest.(check (option (float 1e-9))) "threshold off" None (Obs.slow_threshold_us ());
  Obs.slow_clear ()

(* ------------------------------------------------------------------ *)
(* Exporters                                                           *)

let test_exporters () =
  let reg = Obs.create_registry () in
  Obs.add (Obs.counter reg "exp_total{kind=\"a\"}") 3;
  Obs.set_gauge (Obs.gauge reg "exp_gauge") 2.5;
  Obs.observe (Obs.histogram reg "exp_us") 100.0;
  let text = Obs.prometheus [ ("t", reg) ] in
  let has needle =
    let nl = String.length needle and tl = String.length text in
    let rec go i = i + nl <= tl && (String.equal (String.sub text i nl) needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "counter line" true (has "exp_total{kind=\"a\"} 3");
  Alcotest.(check bool) "gauge line" true (has "exp_gauge 2.5");
  Alcotest.(check bool) "histogram count line" true (has "exp_us_count 1");
  Alcotest.(check bool) "histogram sum line" true (has "exp_us_sum 100");
  Alcotest.(check bool) "le label" true (has "exp_us_bucket{le=");
  Obs.set_build_info ~version:"9.9.9-test";
  let text2 = Obs.prometheus [ ("t", reg) ] in
  let has2 needle =
    let nl = String.length needle and tl = String.length text2 in
    let rec go i = i + nl <= tl && (String.equal (String.sub text2 i nl) needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "build info gauge" true (has2 "dse_build_info{version=\"9.9.9-test\"} 1");
  Obs.set_build_info ~version:"dev";
  (* span JSON is one line and carries the attrs *)
  Obs.set_enabled true;
  let base = head_cursor () in
  Obs.instant "export.json" ~attrs:[ ("quote", "a\"b") ];
  let sp = List.hd (find_span ~since:base "export.json") in
  let line = Obs.span_to_json sp in
  Alcotest.(check bool) "single line" true (not (String.contains line '\n'));
  Alcotest.(check bool) "escaped attr" true
    (let nl = String.length "a\\\"b" and tl = String.length line in
     let rec go i =
       i + nl <= tl && (String.equal (String.sub line i nl) "a\\\"b" || go (i + 1))
     in
     go 0)

(* ------------------------------------------------------------------ *)
(* Snapshot merging: the fleet router aggregates per-shard histograms
   bucket-wise, which is exact because every histogram shares one
   bound table.                                                        *)

let test_merge_hsnapshots () =
  let snap values =
    let h = Obs.histogram (Obs.create_registry ()) "merge_us" in
    List.iter (Obs.observe h) values;
    Obs.h_snapshot h
  in
  let a_vals = [ 10.0; 100.0; 1_000.0 ] and b_vals = [ 5.0; 50_000.0; 50_000.0 ] in
  let a = snap a_vals and b = snap b_vals in
  let m = Obs.merge_hsnapshots a b in
  (* merging two shards equals one histogram that saw both streams *)
  let oracle = snap (a_vals @ b_vals) in
  Alcotest.(check int) "count adds" oracle.Obs.h_count m.Obs.h_count;
  Alcotest.(check (float 1e-9)) "sum adds" oracle.Obs.h_sum m.Obs.h_sum;
  Alcotest.(check (float 1e-9)) "min extremizes" 5.0 m.Obs.h_min;
  Alcotest.(check (float 1e-9)) "max extremizes" 50_000.0 m.Obs.h_max;
  Alcotest.(check (array int)) "bucket counts add exactly" oracle.Obs.h_counts m.Obs.h_counts;
  List.iter
    (fun q ->
      Alcotest.(check (float 1e-9))
        (Printf.sprintf "q%.2f matches the combined histogram" q)
        (Obs.quantile oracle q) (Obs.quantile m q))
    [ 0.5; 0.95; 0.99 ];
  (* commutative *)
  let m' = Obs.merge_hsnapshots b a in
  Alcotest.(check (array int)) "commutes" m.Obs.h_counts m'.Obs.h_counts;
  Alcotest.(check int) "commutes on count" m.Obs.h_count m'.Obs.h_count;
  (* the empty snapshot is the merge identity *)
  let e = Obs.empty_hsnapshot () in
  let id = Obs.merge_hsnapshots a e in
  Alcotest.(check int) "identity count" a.Obs.h_count id.Obs.h_count;
  Alcotest.(check (float 1e-9)) "identity sum" a.Obs.h_sum id.Obs.h_sum;
  Alcotest.(check (float 1e-9)) "identity min" a.Obs.h_min id.Obs.h_min;
  Alcotest.(check (float 1e-9)) "identity max" a.Obs.h_max id.Obs.h_max;
  Alcotest.(check (array int)) "identity buckets" a.Obs.h_counts id.Obs.h_counts;
  (* empty + empty is still empty (min/max stay at the identities) *)
  let ee = Obs.merge_hsnapshots e (Obs.empty_hsnapshot ()) in
  Alcotest.(check int) "empty count" 0 ee.Obs.h_count;
  Alcotest.(check bool) "empty min" true (ee.Obs.h_min = infinity);
  Alcotest.(check bool) "empty max" true (ee.Obs.h_max = neg_infinity)

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "obs"
    [
      ("first-use", [ Alcotest.test_case "trace values from 8 threads" `Quick test_first_use_race ]);
      ( "histogram",
        [
          Alcotest.test_case "quantiles vs exact-sort oracle" `Quick test_histogram_oracle;
          Alcotest.test_case "edge cases" `Quick test_histogram_edge_cases;
          Alcotest.test_case "bucket-wise snapshot merge" `Quick test_merge_hsnapshots;
        ] );
      ( "trace-ring",
        [
          Alcotest.test_case "wraparound drops oldest" `Quick test_ring_wraparound;
          Alcotest.test_case "since-cursor pagination" `Quick test_ring_pagination;
        ] );
      ( "concurrency",
        [ Alcotest.test_case "counter exactness across domains" `Quick test_concurrent_counters ] );
      ( "spans",
        [
          Alcotest.test_case "nesting under fault injection" `Quick test_span_nesting_faults;
          Alcotest.test_case "idempotent close, cross-domain parent" `Quick
            test_span_end_idempotent_and_parenting;
        ] );
      ("exporters", [ Alcotest.test_case "prometheus + span json" `Quick test_exporters ]);
      ( "trace-context",
        [
          Alcotest.test_case "mint/parse/span_hex" `Quick test_trace_context;
          Alcotest.test_case "deterministic head sampling" `Quick test_head_sampling;
          Alcotest.test_case "ring wraparound under sampling" `Quick
            test_ring_wraparound_under_sampling;
        ] );
      ( "windows",
        [ Alcotest.test_case "counter-reset clamping" `Quick test_counter_windows ] );
      ("slow-log", [ Alcotest.test_case "threshold, tree, bound" `Quick test_slow_log ]);
    ]
