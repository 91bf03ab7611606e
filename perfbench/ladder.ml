(* The traced run: per-layer metrics.

   First the workload's own deployment is driven twice for half the run
   each, untraced and then with a client span around every request; the
   throughput gap is trace.overhead_pct and the server counters
   differenced across the traced half give the per-request counts.

   Then a prefix of connection 0's seeded request stream is replayed,
   lockstep on one connection, up a ladder of rungs, each on fresh
   state and each calling one more layer's public entry point:

     1. Session calls, in-process (what the service calls per request)
     2. Service.handle on parsed requests, in-process, with the
        workload's journal policy and store capacity
     3. Service.handle_line on the wire line
     4. a Client over the Unix socket to `dse serve`, lockstep
     5. the same at depth 16
     6. `dse fleet serve -n 1`: the router plus one worker
     7. `dse fleet serve -n 2`                (6 and 7 on idct-fleet only)

   A layer's increment is the median over requests of its rung's
   latency minus the rung below's; the increments must add up to the top
   rung's median within [residual_tolerance_pct].

   Neither benchmarked deployment evicts or fsyncs, so the recovery
   metrics come from a probe: the idct-rehydrate stream through an
   in-process service with 1024 fsync-journaled sessions over a
   64-session store, then Service.resume on the sessions it evicted.
   Journal.append and Journal.sync_to are timed on a sync-mode journal
   fed the workload's own mutation records.

   Every timed call is recorded as a span (name, start, end, parent) in
   memory and written to spans.jsonl in the run directory at the end. *)

open Util
open Harness
module W = Workload
module S = Ds_layer.Session
module SV = Ds_serve.Service

let residual_tolerance_pct = 40.0

(* ----- spans ----- *)

type span = { id : int; parent : int; name : string; t0 : float; t1 : float }

let spans = ref []
let next_id = ref 0
let durations : (string, Buf.t) Hashtbl.t = Hashtbl.create 16

let fresh_id () =
  incr next_id;
  !next_id

let record ~id ~parent name t0 t1 =
  spans := { id; parent; name; t0; t1 } :: !spans;
  let b =
    match Hashtbl.find_opt durations name with
    | Some b -> b
    | None ->
      let b = Buf.create () in
      Hashtbl.add durations name b;
      b
  in
  Buf.add b ((t1 -. t0) *. 1e6)

let add_span ~parent name t0 t1 = record ~id:(fresh_id ()) ~parent name t0 t1

(* Time [f] as span [name]; [f] gets the span's id to parent its
   children.  Returns [f]'s result and the duration in µs. *)
let span ?(parent = -1) name f =
  let id = fresh_id () in
  let t0 = now () in
  let r = f id in
  let t1 = now () in
  record ~id ~parent name t0 t1;
  (r, (t1 -. t0) *. 1e6)

let call ~parent name f = fst (span ~parent name (fun _ -> f ()))
let durs name = match Hashtbl.find_opt durations name with Some b -> Buf.to_array b | None -> [||]

let write_spans file =
  Out_channel.with_open_bin file (fun oc ->
      List.iter
        (fun s ->
          Printf.fprintf oc {|{"id":%d,"parent":%d,"name":"%s","t0":%.9f,"t1":%.9f}|} s.id s.parent
            s.name s.t0 s.t1;
          output_char oc '\n')
        (List.rev !spans))

let ok_reply what = function
  | P.Reply _ -> ()
  | P.Failed (code, msg) -> fail "%s: %s %s" what (P.error_code_label code) msg

(* ----- rungs 1-3: in-process ----- *)

(* Rung 1: the Session calls the service makes for each request — a
   mutation also counts candidates and signs the result for its journal
   entry.  Returns the latencies, the mutation records (request JSON
   and signature, for the journal timings), cache and GC counts. *)
let engine_rung (w : W.t) ~seed prefix =
  let base = base_session w in
  let sessions = Hashtbl.create 64 and stats0 = Hashtbl.create 64 in
  (* setup as the service runs it: each mutation is counted and signed *)
  let session sid =
    match Hashtbl.find_opt sessions sid with
    | Some s -> s
    | None ->
      let s =
        List.fold_left
          (fun s req ->
            match apply s req with
            | Ok s ->
              ignore (S.candidate_count s, S.candidate_signature s);
              s
            | Error e -> fail "setup: %s" e)
          (S.pristine base) (w.setup ~seed sid)
      in
      Hashtbl.add sessions sid s;
      Hashtbl.add stats0 sid (S.cache_stats s);
      s
  in
  let records = ref [] in
  List.iter (fun (op : W.op) -> ignore (session op.sid)) prefix;
  Gc.full_major ();
  let gc0 = Gc.quick_stat () in
  let (lat, _) =
    span "ladder.rung1" (fun rung ->
        List.map
          (fun (op : W.op) ->
            let s = session op.sid in
            snd
              (span ~parent:rung "rung1.request" (fun id ->
                   let mutate name f =
                     match call ~parent:id name f with
                     | Error e -> fail "rung 1: %s" e
                     | Ok s' ->
                       ignore (S.candidate_count s');
                       let signature = call ~parent:id "session.signature" (fun () -> S.candidate_signature s') in
                       records := (P.json_of_request op.req, signature) :: !records;
                       Hashtbl.replace sessions op.sid s'
                   in
                   match op.req with
                   | P.Set { name; value; _ } -> mutate "session.set" (fun () -> S.set s name value)
                   | P.Retract { name; _ } -> mutate "session.retract" (fun () -> S.retract s name)
                   | P.Candidates _ ->
                     ignore (call ~parent:id "session.candidates" (fun () -> List.length (S.candidates s)))
                   | P.Ranges { merits; _ } ->
                     List.iter
                       (fun merit ->
                         ignore (call ~parent:id "session.merit_summary" (fun () -> S.merit_summary s ~merit)))
                       (Option.value ~default:[] merits)
                   | P.Signature _ ->
                     ignore (call ~parent:id "session.signature" (fun () -> S.candidate_signature s))
                   | _ -> fail "rung 1: unexpected request %s" op.line)))
          prefix)
  in
  let gc1 = Gc.quick_stat () in
  let hits = ref 0 and vlook = ref 0 and shits = ref 0 and slook = ref 0 in
  Hashtbl.iter
    (fun sid s ->
      let a = Hashtbl.find stats0 sid and b = S.cache_stats s in
      let open Ds_layer.Compliance in
      hits := !hits + b.verdict_hits - a.verdict_hits;
      vlook := !vlook + b.verdict_hits + b.verdict_misses - a.verdict_hits - a.verdict_misses;
      shits := !shits + b.survivor_hits - a.survivor_hits;
      slook := !slook + b.survivor_hits + b.survivor_misses - a.survivor_hits - a.survivor_misses)
    sessions;
  let n = float_of_int (List.length prefix) in
  ( Array.of_list lat,
    List.rev !records,
    [
      ("compliance.verdict_hit_rate", "ratio", ratio (float_of_int !hits) (float_of_int !vlook));
      ("compliance.survivor_hit_rate", "ratio", ratio (float_of_int !shits) (float_of_int !slook));
      ("engine.minor_words_per_req", "words", (gc1.Gc.minor_words -. gc0.Gc.minor_words) /. n);
      ("engine.promoted_words_per_req", "words", (gc1.Gc.promoted_words -. gc0.Gc.promoted_words) /. n);
    ] )

let journal_policy (w : W.t) =
  match w.deploy with
  | Deploy.Serve { sync; capacity } -> (sync, capacity)
  | Deploy.Fleet _ -> (false, Deploy.fleet_capacity)

(* The service's counters as the [metrics] and [stats] ops report them. *)
let counters svc =
  let json req = P.json_of_response (SV.handle svc req) in
  (json (P.Metrics { format = None }), num (path (json P.Stats) [ "evictions" ]))

(* Rungs 2 and 3, and the recovery probe: a fresh in-process service,
   set up like the deployment (untimed), then the prefix through
   [handle] (span [name]) or, with [wire], [handle_line].  Returns the
   latencies and the service's counters before and after the prefix. *)
let service_rung (w : W.t) ~seed ~dir ~wire ~rung ~name prefix =
  rm_rf dir;
  let sync, capacity = journal_policy w in
  let base = base_session w in
  let svc =
    SV.create
      (SV.config ~journal_dir:(Filename.concat dir "journal") ~journal_sync:sync ~capacity
         ~layers:[ (w.layer, fun ~eol:_ -> S.pristine base) ]
         ())
  in
  List.iter
    (fun conn -> List.iter (fun (op : W.op) -> ok_reply "setup" (SV.handle svc op.req)) (W.setup_ops w ~seed ~conn))
    (List.init W.connections Fun.id);
  let before = counters svc in
  Gc.full_major ();
  let lat, _ =
    span rung (fun parent ->
        List.map
          (fun (op : W.op) ->
            if wire then begin
              let reply, us = span ~parent name (fun _ -> SV.handle_line svc op.line) in
              (* the codec's three steps, timed apart on the same line *)
              ignore (call ~parent "protocol.parse" (fun () -> P.parse_request op.line));
              (match call ~parent "protocol.decode_reply" (fun () -> P.response_of_string reply) with
              | Ok resp ->
                ok_reply op.line resp;
                ignore (call ~parent "protocol.print" (fun () -> P.print_response resp))
              | Error e -> fail "rung 3: %s" e);
              us
            end
            else begin
              let resp, us = span ~parent name (fun _ -> SV.handle svc op.req) in
              ok_reply op.line resp;
              us
            end)
          prefix)
  in
  let after = counters svc in
  (* close every session, so its journal fd is not inherited by the
     server processes later rungs spawn *)
  List.iter
    (fun i -> ignore (SV.handle svc (P.Close { session = W.session_id w i })))
    (List.init w.sessions Fun.id);
  (Array.of_list lat, before, after)

(* Resume every evicted (snapshotted) session under [jdir], at most 64. *)
let resume_evicted (w : W.t) jdir =
  let base = base_session w in
  Sys.readdir jdir |> Array.to_list |> List.sort compare
  |> List.filter_map (Filename.chop_suffix_opt ~suffix:".snapshot")
  |> List.filteri (fun i _ -> i < 64)
  |> List.iter (fun id ->
         match
           call ~parent:(-1) "service.resume" (fun () ->
               SV.resume ~layers:[ (w.layer, fun ~eol:_ -> S.pristine base) ] ~dir:jdir ~id ())
         with
         | Ok _ -> ()
         | Error e -> fail "resume %s: %s" id e)

(* ----- rungs 4-7: over sockets ----- *)

(* A fresh deployment of [kind], set up like the workload's, then the
   prefix on one connection at [depth].  Returns per-request latencies
   and the wall time per request. *)
let socket_rung (w : W.t) ~dse ~seed ~dir ~rung ~depth kind prefix =
  let s = set_up w ~dse ~seed ~dir kind in
  let c = Deploy.connect_retry s.d.socket in
  let (r, _) =
    span (Printf.sprintf "ladder.rung%d" rung) (fun parent ->
        let r = Drive.run ~traced:true ~depth ~deadline:infinity c (Drive.of_list prefix) in
        for i = 0 to r.span_t0.n - 1 do
          add_span ~parent "client.request" r.span_t0.a.(i) r.span_t1.a.(i)
        done;
        r)
  in
  Deploy.close c;
  Deploy.stop s.d;
  check_results (Printf.sprintf "rung %d" rung) [ r ];
  let wall = (r.span_t1.a.(r.span_t1.n - 1) -. r.span_t0.a.(0)) *. 1e6 in
  (Buf.to_array r.all, wall /. float_of_int (List.length prefix))

(* ----- the traced drive ----- *)

let drive_half (w : W.t) ~traced ~sampled ~seconds d streams =
  let conns = List.init W.connections (fun _ -> Deploy.connect_retry d.Deploy.socket) in
  let t_start = now () in
  let deadline = t_start +. seconds in
  let rs =
    Drive.parallel conns (fun conn c ->
        Drive.run ~traced ~sampled:(Hashtbl.mem sampled) ~depth:w.depth ~deadline c
          (Drive.of_stream (List.nth streams conn)))
  in
  List.iter Deploy.close conns;
  check_results "drive" rs;
  let window = List.fold_left (fun acc r -> max acc r.Drive.t_end) t_start rs -. t_start in
  let bytes = List.fold_left (fun acc (c : Deploy.conn) -> acc + c.bytes) 0 conns in
  (rs, float_of_int (sum (fun r -> r.Drive.ok) rs) /. window, bytes)

let run (w : W.t) ~dse ~seed ~seconds =
  let dir = Filename.concat run_root w.name in
  rm_rf dir;
  mkdir_p dir;
  (* the layer build, timed in-process; the ladder reuses the result *)
  let gc0 = Gc.quick_stat () in
  let layer, build_us =
    span "generator.build" (fun _ ->
        match Ds_domains.Catalog.session w.layer ~eol:768 with Ok s -> s | Error e -> fail "%s" e)
  in
  let build_promoted = (Gc.quick_stat ()).Gc.promoted_words -. gc0.Gc.promoted_words in
  Hashtbl.replace layer_cache w.layer layer;
  (* the workload's deployment: untraced half, traced half *)
  let s = set_up w ~dse ~seed ~dir:(Filename.concat dir "deploy") w.deploy in
  let d = s.d in
  let admin = Deploy.connect_retry d.socket in
  let fds_before = Deploy.settled_fds d in
  let streams = List.init W.connections (fun conn -> w.stream ~seed ~conn) in
  let half = float_of_int seconds /. 2.0 in
  let sampled = sample_sessions w ~seed in
  let rs_u, thr_u, _ = drive_half w ~traced:false ~sampled ~seconds:half d streams in
  let m0 = metrics admin and ev0 = evictions admin in
  let rs_t, thr_t, bytes = drive_half w ~traced:true ~sampled ~seconds:half d streams in
  let m1 = metrics admin and ev1 = evictions admin in
  List.iter
    (fun (r : Drive.result) ->
      for i = 0 to r.span_t0.n - 1 do
        add_span ~parent:(-1) "client.request" r.span_t0.a.(i) r.span_t1.a.(i)
      done)
    rs_t;
  let fds_after = Deploy.settled_fds ~at_most:fds_before d in
  let res = Deploy.sample d in
  if fds_after > fds_before then fail "server fds grew from %d to %d over the drive" fds_before fds_after;
  (* both halves' histories, in order, per connection *)
  let merged =
    List.map2
      (fun (u : Drive.result) (t : Drive.result) ->
        Hashtbl.iter
          (fun sid h ->
            Hashtbl.replace u.history sid (h @ Option.value ~default:[] (Hashtbl.find_opt u.history sid)))
          t.history;
        u)
      rs_u rs_t
  in
  ignore (gate w ~seed admin sampled merged);
  Deploy.close admin;
  Deploy.stop d;
  let sent = float_of_int (sum (fun r -> r.Drive.sent) rs_t) in
  let appends = delta m0 m1 "dse_journal_appends_total" in
  if appends <> float_of_int (sum (fun r -> r.Drive.acked_writes) rs_t) then
    fail "journal appends %.0f differ from the acknowledged mutations" appends;
  (* the ladder *)
  let prefix = W.prefix w ~seed w.ladder_prefix in
  let r1, records, engine = engine_rung w ~seed prefix in
  let r2, _, _ =
    service_rung w ~seed ~dir:(Filename.concat dir "rung2") ~wire:false ~rung:"ladder.rung2"
      ~name:"service.handle" prefix
  in
  let r3, _, _ =
    service_rung w ~seed ~dir:(Filename.concat dir "rung3") ~wire:true ~rung:"ladder.rung3"
      ~name:"service.handle_line" prefix
  in
  (* the recovery probe *)
  let probe = W.idct_rehydrate in
  let probe_dir = Filename.concat dir "recovery" in
  let _, (pm0, pev0), (pm1, pev1) =
    service_rung probe ~seed ~dir:probe_dir ~wire:false ~rung:"recovery.probe" ~name:"recovery.handle"
      (W.prefix probe ~seed probe.ladder_prefix)
  in
  resume_evicted probe (Filename.concat probe_dir "journal");
  let probe_n = float_of_int probe.ladder_prefix in
  let serve =
    let sync, capacity = journal_policy w in
    Deploy.Serve { sync; capacity }
  in
  let sock ~rung ~depth kind =
    socket_rung w ~dse ~seed ~dir:(Filename.concat dir (Printf.sprintf "rung%d" rung)) ~rung ~depth kind prefix
  in
  let r4, _ = sock ~rung:4 ~depth:1 serve in
  let _, depth16_per_req = sock ~rung:5 ~depth:16 serve in
  let fleet = match w.deploy with Deploy.Fleet _ -> true | Deploy.Serve _ -> false in
  let routed =
    if fleet then
      Some (sock ~rung:6 ~depth:1 (Deploy.Fleet { workers = 1 }), sock ~rung:7 ~depth:1 (Deploy.Fleet { workers = 2 }))
    else None
  in
  let chain = [ r1; r2; r3; r4 ] @ match routed with Some ((r6, _), (r7, _)) -> [ r6; r7 ] | None -> [] in
  let paired a b = Array.mapi (fun i x -> x -. a.(i)) b in
  let rec increments = function
    | a :: (b :: _ as rest) -> median (paired a b) :: increments rest
    | _ -> []
  in
  let increments = median r1 :: increments chain in
  let top = median (List.nth chain (List.length chain - 1)) in
  let residual = 100.0 *. Float.abs (List.fold_left ( +. ) 0.0 increments -. top) /. top in
  if residual > residual_tolerance_pct then
    fail "ladder increments miss the top rung's median by %.1f%% (tolerance %.0f%%)" residual
      residual_tolerance_pct;
  (* journal: append and sync_to on the workload's own records *)
  let jdir = Filename.concat dir "journal-timing" in
  let j =
    match
      Ds_serve.Journal.create ~sync:true ~dir:jdir { session = "timing"; layer = w.layer; eol = 768; base = 0 }
    with
    | Ok j -> j
    | Error e -> fail "journal: %s" e
  in
  let jpath = Ds_serve.Journal.path ~dir:jdir ~id:"timing" in
  let size0 = du jpath in
  List.iter
    (fun (req, signature) ->
      match call ~parent:(-1) "journal.append" (fun () -> Ds_serve.Journal.append j ~req ~signature) with
      | Ok seq -> (
        match call ~parent:(-1) "journal.sync_to" (fun () -> Ds_serve.Journal.sync_to j seq) with
        | Ok () -> ()
        | Error e -> fail "journal sync: %s" e)
      | Error e -> fail "journal append: %s" e)
    records;
  Ds_serve.Journal.close j;
  let bytes_per_entry = ratio (float_of_int (du jpath - size0)) (float_of_int (List.length records)) in
  write_spans (Filename.concat dir "spans.jsonl");
  let p name q = pct (durs name) q in
  let via_router f = match routed with Some ((r6, _), (_, per_req)) -> f r6 per_req | None -> 0.0 in
  let rung_medians = List.map (fun a -> J.Float (median a)) chain in
  info w ~seed ~seconds ~trace:true
    [
      ("ladder_prefix", J.Int w.ladder_prefix);
      ("rung_medians_us", J.List rung_medians);
      ("increments_us", J.List (List.map (fun f -> J.Float f) increments));
      ("residual_tolerance_pct", J.Float residual_tolerance_pct);
      ("throughput_untraced_rps", J.Float thr_u);
      ("throughput_traced_rps", J.Float thr_t);
      ("deployment_evictions_per_req", J.Float ((ev1 -. ev0) /. sent));
      ("deployment_rehydrations_per_req", J.Float (delta m0 m1 "dse_rehydrations_total" /. sent));
      ("journal_fsync_batched_ratio_deployment",
        J.Float
          (let b = delta m0 m1 "dse_journal_fsync_batched_total" in
           ratio b (b +. delta m0 m1 "dse_journal_fsyncs_total")));
      ("spans", J.Int (List.length !spans));
    ];
  emit ~correct:true
    ~attempted:(sum (fun r -> r.Drive.sent) (rs_u @ rs_t))
    ~failed:0
    ([
       ("session.set_us_p50", "us", p "session.set" 50.0);
       ("session.set_us_p99", "us", p "session.set" 99.0);
       ("session.retract_us_p50", "us", p "session.retract" 50.0);
       ("session.candidates_us_p50", "us", p "session.candidates" 50.0);
       ("session.candidates_us_p99", "us", p "session.candidates" 99.0);
       ("session.merit_summary_us_p50", "us", p "session.merit_summary" 50.0);
       ("session.signature_us_p50", "us", p "session.signature" 50.0);
     ]
    @ engine
    @ [
        ("generator.build_ms", "ms", build_us /. 1000.0);
        ("generator.promoted_words", "words", build_promoted);
        ("service.handle_us_p50", "us", median r2);
        ("service.handle_us_p99", "us", pct r2 99.0);
        ("service.self_us_mean", "us", mean r2 -. mean r1);
        ("server.queue_wait_us_mean", "us", hist_mean_delta m0 m1 "dse_queue_wait_us");
        ("journal.append_us_p50", "us", p "journal.append" 50.0);
        ("journal.sync_us_p50", "us", p "journal.sync_to" 50.0);
        ("journal.sync_us_p99", "us", p "journal.sync_to" 99.0);
        ("journal.bytes_per_entry", "B", bytes_per_entry);
        ( "journal.fsync_batched_ratio",
          "ratio",
          let b = delta pm0 pm1 "dse_journal_fsync_batched_total" in
          ratio b (b +. delta pm0 pm1 "dse_journal_fsyncs_total") );
        ("service.resume_us_p50", "us", p "service.resume" 50.0);
        ("service.resume_us_p99", "us", p "service.resume" 99.0);
        ("store.evictions_per_req", "ratio", (pev1 -. pev0) /. probe_n);
        ("service.rehydrations_per_req", "ratio", delta pm0 pm1 "dse_rehydrations_total" /. probe_n);
        ("protocol.parse_us_p50", "us", p "protocol.parse" 50.0);
        ("protocol.print_us_p50", "us", p "protocol.print" 50.0);
        ("protocol.decode_reply_us_p50", "us", p "protocol.decode_reply" 50.0);
        ("codec.bytes_per_req", "B", float_of_int bytes /. sent);
        ("server.lockstep_us_p50", "us", median r4);
        ("server.lockstep_us_p99", "us", pct r4 99.0);
        ("server.depth16_us_per_req", "us", depth16_per_req);
        ("server.self_us_mean", "us", mean r4 -. mean r3);
        ("router.hop_us_p50", "us", via_router (fun r6 _ -> median (paired r4 r6)));
        ("router.hop_us_p99", "us", via_router (fun r6 _ -> pct (paired r4 r6) 99.0));
        ("router.two_worker_us_per_req", "us", via_router (fun _ per_req -> per_req));
        ( "router.passthrough_ratio",
          "ratio",
          via_router (fun _ _ ->
              ratio (delta m0 m1 "dse_router_passthrough_total") (delta m0 m1 "dse_router_requests_total")) );
        ("router.upstream_wait_us_mean", "us", via_router (fun _ _ -> hist_mean_delta m0 m1 "dse_router_upstream_wait_us"));
        ("server.threads", "count", float_of_int res.threads);
        ("server.fds", "count", float_of_int res.fds);
        ("ladder.residual_pct", "%", residual);
        ("trace.overhead_pct", "%", 100.0 *. (thr_u -. thr_t) /. thr_u);
      ])
