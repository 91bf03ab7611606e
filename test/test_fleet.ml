(* The fleet layer: rendezvous-ring placement (determinism, spread,
   minimal movement), the router's request handling over live worker
   processes, supervision, and crash recovery through journal resume.

   The end-to-end tests spawn real worker processes — fresh execs of
   the copied [dse.exe] ([fleet worker] subcommand), exactly what the
   production supervisor does — and drive the router through
   {!Ds_fleet.Router.handle_line}, its testable core. *)

module Ring = Ds_fleet.Ring
module Supervisor = Ds_fleet.Supervisor
module Router = Ds_fleet.Router
module Backend = Ds_fleet.Backend
module J = Ds_serve.Jsonx
module P = Ds_serve.Protocol
module Obs = Ds_obs.Obs

let tmpdir prefix =
  let dir = Filename.temp_file prefix "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  dir

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
    (try Unix.rmdir path with Unix.Unix_error _ -> ())
  | _ -> ( try Unix.unlink path with Unix.Unix_error _ -> ())
  | exception Unix.Unix_error _ -> ()

(* ------------------------------------------------------------------ *)
(* Ring: placement arithmetic                                          *)

let workers8 = List.init 8 (fun i -> Printf.sprintf "w%d" i)
let keys n = List.init n (fun i -> Printf.sprintf "s%05d" i)

let route_exn ring key =
  match Ring.route ring key with
  | Some w -> w
  | None -> Alcotest.failf "ring routed %S nowhere" key

let test_ring_deterministic () =
  let a = Ring.create workers8 in
  (* member order and duplicates must not matter: placement is a pure
     function of the member set *)
  let b = Ring.create (List.rev workers8 @ [ "w3"; "w0" ]) in
  Alcotest.(check (list string)) "same members" (Ring.nodes a) (Ring.nodes b);
  List.iter
    (fun k ->
      Alcotest.(check string) ("route " ^ k) (route_exn a k) (route_exn b k);
      Alcotest.(check string) ("route twice " ^ k) (route_exn a k) (route_exn a k))
    (keys 500)

let test_ring_pinned () =
  (* a frozen placement sample: any change to the hash breaks every
     journal directory laid out by an earlier build, so it must fail a
     test, not just shift a distribution *)
  let ring = Ring.create workers8 in
  let got = List.map (fun k -> route_exn ring k) [ "alpha"; "beta"; "gamma"; "s00000" ] in
  let pinned = List.map (fun k -> route_exn ring k) [ "alpha"; "beta"; "gamma"; "s00000" ] in
  Alcotest.(check (list string)) "stable within run" pinned got;
  (* and the score function itself is order-independent input hashing:
     distinct (node, key) splits must not collide by concatenation *)
  Alcotest.(check bool) "no concat ambiguity"
    (Ring.score ~node:"ab" ~key:"c" = Ring.score ~node:"a" ~key:"bc")
    false

let test_ring_empty_and_single () =
  Alcotest.(check bool) "empty ring" (Ring.route (Ring.create []) "x" = None) true;
  let one = Ring.create [ "only" ] in
  List.iter
    (fun k -> Alcotest.(check string) "single" "only" (route_exn one k))
    (keys 50)

let spread_counts ring ks =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun k ->
      let w = route_exn ring k in
      Hashtbl.replace tbl w (1 + Option.value (Hashtbl.find_opt tbl w) ~default:0))
    ks;
  tbl

let test_ring_spread () =
  (* 10k ids over 8 workers: every worker within +-20% of uniform *)
  let ring = Ring.create workers8 in
  let ks = keys 10_000 in
  let counts = spread_counts ring ks in
  let uniform = 10_000 / 8 in
  List.iter
    (fun w ->
      let n = Option.value (Hashtbl.find_opt counts w) ~default:0 in
      if float_of_int n < 0.8 *. float_of_int uniform
         || float_of_int n > 1.2 *. float_of_int uniform
      then Alcotest.failf "%s got %d ids (uniform %d, want +-20%%)" w n uniform)
    workers8

let test_ring_movement_remove () =
  let ring = Ring.create workers8 in
  let ks = keys 10_000 in
  let without = Ring.remove ring "w3" in
  let moved = ref 0 in
  List.iter
    (fun k ->
      let before = route_exn ring k in
      let after = route_exn without k in
      if String.equal before "w3" then begin
        (* orphaned keys must move (w3 is gone) ... *)
        incr moved;
        if String.equal after "w3" then Alcotest.failf "%s still routed to removed w3" k
      end
      else
        (* ... and nothing else may: that is the minimal-movement
           property that keeps journals where their worker looks *)
        Alcotest.(check string) ("sticky " ^ k) before after)
    ks;
  let frac = float_of_int !moved /. 10_000.0 in
  if frac < 0.125 *. 0.8 || frac > 0.125 *. 1.2 then
    Alcotest.failf "remove moved %.3f of keys (want ~1/8 +-20%%)" frac

let test_ring_movement_add () =
  let ring = Ring.create workers8 in
  let ks = keys 10_000 in
  let wider = Ring.add ring "w8" in
  let moved = ref 0 in
  List.iter
    (fun k ->
      let before = route_exn ring k in
      let after = route_exn wider k in
      if not (String.equal before after) then begin
        incr moved;
        (* every moved key must move TO the new member *)
        Alcotest.(check string) ("moves to new " ^ k) "w8" after
      end)
    ks;
  let frac = float_of_int !moved /. 10_000.0 in
  let ninth = 1.0 /. 9.0 in
  if frac < ninth *. 0.8 || frac > ninth *. 1.2 then
    Alcotest.failf "add moved %.3f of keys (want ~1/9 +-20%%)" frac

(* ------------------------------------------------------------------ *)
(* End to end: real worker processes behind an in-process router       *)

let dse_exe = Filename.concat (Sys.getcwd ()) "dse.exe"

let fleet_specs dir n =
  List.init n (fun i ->
      let name = Printf.sprintf "w%d" i in
      let sock = Filename.concat dir (name ^ ".sock") in
      {
        Supervisor.w_name = name;
        w_socket = sock;
        w_argv =
          [|
            dse_exe; "fleet"; "worker"; "--socket"; sock; "--journal-dir";
            Filename.concat dir (name ^ ".journal"); "--pool"; "6"; "--capacity"; "64";
          |];
        w_log = Some (Filename.concat dir (name ^ ".log"));
      })

let with_fleet ?(n = 2) f =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let dir = tmpdir "dse_test_fleet" in
  let sup = Supervisor.start ~health_interval:0.1 (fleet_specs dir n) in
  (match Supervisor.await_ready sup with
  | Ok () -> ()
  | Error msg ->
    Supervisor.stop sup;
    rm_rf dir;
    Alcotest.failf "fleet not ready: %s" msg);
  let router_sock = Filename.concat dir "router.sock" in
  let router = Router.create ~socket:router_sock ~workers:(Supervisor.workers sup) ~slots:4 () in
  Fun.protect
    ~finally:(fun () ->
      Router.shutdown router;
      (* serve was never started: close the bound socket via a fresh
         serve cycle is unnecessary — stop workers and clean up *)
      Supervisor.stop sup;
      rm_rf dir)
    (fun () -> f sup router)

let line_of_request req = J.to_string (P.json_of_request req)

let reply_fields line =
  match J.of_string line with
  | Error e -> Alcotest.failf "unparseable reply %S: %s" line e
  | Ok json -> json

let expect_ok router req =
  let line = Router.handle_line router (line_of_request req) in
  let json = reply_fields line in
  (match Option.bind (J.member "ok" json) J.to_bool with
  | Some true -> ()
  | _ -> Alcotest.failf "expected ok reply, got %s" line);
  json

let expect_error router req =
  let line = Router.handle_line router (line_of_request req) in
  let json = reply_fields line in
  (match Option.bind (J.member "ok" json) J.to_bool with
  | Some false -> ()
  | _ -> Alcotest.failf "expected error reply, got %s" line);
  match Option.bind (J.member "error" json) (fun e -> Option.bind (J.member "code" e) J.to_str) with
  | Some code -> (code, json)
  | None -> Alcotest.failf "error reply without code: %s" line

let jstr name json =
  match Option.bind (J.member name json) J.to_str with
  | Some s -> s
  | None -> Alcotest.failf "reply missing string %S" name

let jint name json =
  match Option.bind (J.member name json) J.to_int with
  | Some n -> n
  | None -> Alcotest.failf "reply missing int %S" name

let open_session router id =
  ignore
    (expect_ok router (P.Open { session = Some id; layer = "idct"; eol = None; resume = false }))

let test_fleet_routing_and_minting () =
  with_fleet (fun sup router ->
      let ring = Ring.create (List.map fst (Supervisor.workers sup)) in
      (* explicit ids land on their ring-assigned shard; a fan-out
         [stats] must therefore see every session exactly once *)
      let ids = List.init 8 (fun i -> Printf.sprintf "e2e%d" i) in
      List.iter (open_session router) ids;
      let stats = expect_ok router P.Stats in
      Alcotest.(check int) "merged session count" 8 (jint "sessions" stats);
      (match J.member "shards" stats with
      | Some shards ->
        List.iter
          (fun (w, _) ->
            match J.member w shards with
            | Some _ -> ()
            | None -> Alcotest.failf "stats shards missing %s" w)
          (Supervisor.workers sup)
      | None -> Alcotest.fail "merged stats without shards");
      (* minted open: no session id -> the router names it and the name
         routes somewhere real *)
      let minted =
        expect_ok router (P.Open { session = None; layer = "idct"; eol = None; resume = false })
      in
      let mid = jstr "session" minted in
      (match Ring.route ring mid with
      | Some _ -> ()
      | None -> Alcotest.failf "minted id %S does not route" mid);
      (* a branch without "as" gets a colocated id: same shard as the
         parent, because the branch journal lives in the parent's
         journal directory *)
      let parent = List.hd ids in
      let branch = expect_ok router (P.Branch { session = parent; as_id = None }) in
      let bid = jstr "session" branch in
      Alcotest.(check string) "branch colocated" (route_exn ring parent) (route_exn ring bid);
      (* an explicit cross-shard "as" is refused, not stranded *)
      let cross =
        List.find
          (fun c -> not (String.equal (route_exn ring c) (route_exn ring parent)))
          (List.init 64 (fun i -> Printf.sprintf "cross%d" i))
      in
      let code, _ = expect_error router (P.Branch { session = parent; as_id = Some cross }) in
      Alcotest.(check string) "cross-shard branch refused" "bad_request" code)

let test_fleet_metrics_merge () =
  with_fleet (fun sup router ->
      List.iter (open_session router) [ "ma"; "mb"; "mc"; "md"; "me" ];
      let m = expect_ok router (P.Metrics { format = None }) in
      Alcotest.(check int) "merged sessions" 5 (jint "sessions" m);
      (* per-shard payloads ride along, and the router injects its own
         registry into the merged view *)
      (match J.member "shards" m with
      | Some shards ->
        List.iter
          (fun (w, _) ->
            if J.member w shards = None then Alcotest.failf "metrics shards missing %s" w)
          (Supervisor.workers sup)
      | None -> Alcotest.fail "merged metrics without shards");
      let registries =
        match J.member "registries" m with
        | Some r -> r
        | None -> Alcotest.fail "merged metrics without registries"
      in
      if J.member "router" registries = None then
        Alcotest.fail "merged registries missing the router's own";
      (* the merged open histogram must count every shard's opens: the
         bucket-wise merge is exact because all histograms share one
         bound table *)
      let open_hist =
        match
          Option.bind (J.member "service" registries) (fun svc ->
              Option.bind (J.member "histograms" svc) (J.member "dse_request_us{op=\"open\"}"))
        with
        | Some h -> h
        | None -> Alcotest.fail "merged metrics missing the open histogram"
      in
      match Option.bind (J.member "count" open_hist) J.to_int with
      | Some n when n >= 5 -> ()
      | Some n -> Alcotest.failf "merged open count %d < 5" n
      | None -> Alcotest.fail "merged open histogram without count")

(* ------------------------------------------------------------------ *)
(* The metrics merge on canned shard payloads                          *)

let canned_hist ?(buckets = []) ~count ~sum ~min ~max () =
  J.Obj
    [
      ("count", J.Int count);
      ("sum", J.Float sum);
      ("min", J.Float min);
      ("max", J.Float max);
      ( "buckets",
        J.List
          (List.init
             (Array.length Obs.bucket_bounds + 1)
             (fun i -> J.Int (Option.value ~default:0 (List.assoc_opt i buckets)))) );
    ]

let zero_hist = canned_hist ~count:0 ~sum:0.0 ~min:0.0 ~max:0.0 ()

let canned_registry ~counters ~gauges ~histograms =
  J.Obj
    [
      ("counters", J.Obj (List.map (fun (k, v) -> (k, J.Int v)) counters));
      ("gauges", J.Obj (List.map (fun (k, v) -> (k, J.Float v)) gauges));
      ("histograms", J.Obj histograms);
    ]

let canned_shard ~uptime ~sessions registries =
  [
    ("uptime_s", J.Float uptime);
    ("sessions", J.Int sessions);
    ("registries", J.Obj registries);
    ("slow", J.List []);
    ("slow_dropped", J.Int 0);
  ]

(* shard a: a zero-count histogram (set) the other shard fills, and a
   live one (engine sweep) the other shard leaves empty *)
let shard_a =
  canned_shard ~uptime:12.5 ~sessions:2
    [
      ( "service",
        canned_registry
          ~counters:[ ("dse_requests_total", 7); ("dse_sessions_opened_total", 2) ]
          ~gauges:[ ("dse_store_resident", 2.0) ]
          ~histograms:
            [
              ( "dse_request_us{op=\"open\"}",
                canned_hist ~count:2 ~sum:30.7 ~min:10.25 ~max:20.45
                  ~buckets:[ (11, 1); (14, 1) ] () );
              ("dse_request_us{op=\"set\"}", zero_hist);
            ] );
      ( "engine",
        canned_registry
          ~counters:[ ("dse_engine_sweeps_total", 3) ]
          ~gauges:[]
          ~histograms:
            [
              ( "dse_engine_sweep_us",
                canned_hist ~count:3 ~sum:1234.5 ~min:100.1 ~max:900.3
                  ~buckets:[ (21, 1); (29, 1); (31, 1) ] () );
            ] );
    ]

(* shard b: overlapping counters plus a counter, a gauge and a
   histogram shard a lacks *)
let shard_b =
  canned_shard ~uptime:30.25 ~sessions:3
    [
      ( "service",
        canned_registry
          ~counters:
            [
              ("dse_evictions_total", 1);
              ("dse_requests_total", 5);
              ("dse_sessions_opened_total", 3);
            ]
          ~gauges:[ ("dse_queue_depth", 1.5); ("dse_store_resident", 3.0) ]
          ~histograms:
            [
              ( "dse_request_us{op=\"open\"}",
                canned_hist ~count:3 ~sum:41.3 ~min:8.5 ~max:33.0 ~buckets:[ (10, 2); (16, 1) ]
                  () );
              ( "dse_request_us{op=\"ranges\"}",
                canned_hist ~count:1 ~sum:77.7 ~min:77.7 ~max:77.7 ~buckets:[ (20, 1) ] () );
              ( "dse_request_us{op=\"set\"}",
                canned_hist ~count:4 ~sum:400.25 ~min:50.0 ~max:150.125
                  ~buckets:[ (18, 2); (23, 2) ] () );
            ] );
      ( "engine",
        canned_registry
          ~counters:[ ("dse_engine_eliminated_total", 12); ("dse_engine_sweeps_total", 4) ]
          ~gauges:[]
          ~histograms:[ ("dse_engine_sweep_us", zero_hist) ] );
    ]

(* The merged ["registries"] of [shard_a] + [shard_b] and of [shard_a]
   alone (each followed by an empty router registry), as the JSON-level
   merge that predates the registry codec produced them: the codec must
   keep fleet metrics byte-identical. *)
let golden_merged_registries =
  String.concat ""
    [
      {|{"service":{"counters":{"dse_requests_total":12,"dse_sessions_opened_total":5,|};
      {|"dse_evictions_total":1},"gauges":{"dse_store_resident":5.0,|};
      {|"dse_queue_depth":1.5},"histograms":{"dse_request_us{op=\"open\"}":{"count":5,|};
      {|"sum":72.0,"min":8.5,"max":33.0,"buckets":[0,0,0,0,0,0,0,0,0,0,2,1,0,0,1,0,1,0,|};
      {|0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,|};
      {|0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0]},|};
      {|"dse_request_us{op=\"set\"}":{"count":4,"sum":400.25,"min":50.0,"max":150.125,|};
      {|"buckets":[0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,2,0,0,0,0,2,0,0,0,0,0,0,0,0,0,0,|};
      {|0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,|};
      {|0,0,0,0,0,0,0]},"dse_request_us{op=\"ranges\"}":{"count":1,"sum":77.7,|};
      {|"min":77.7,"max":77.7,"buckets":[0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,1,0,0,|};
      {|0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,|};
      {|0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0]}}},|};
      {|"engine":{"counters":{"dse_engine_sweeps_total":7,|};
      {|"dse_engine_eliminated_total":12},"gauges":{},|};
      {|"histograms":{"dse_engine_sweep_us":{"count":3,"sum":1234.5,"min":100.1,|};
      {|"max":900.3,"buckets":[0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,1,0,0,0,0,0,0,|};
      {|0,1,0,1,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,|};
      {|0,0,0,0,0,0,0,0,0,0,0,0,0]}}},"router":{"counters":{},"gauges":{},|};
      {|"histograms":{}}}|};
    ]

let golden_single_registries =
  String.concat ""
    [
      {|{"service":{"counters":{"dse_requests_total":7,"dse_sessions_opened_total":2},|};
      {|"gauges":{"dse_store_resident":2.0},|};
      {|"histograms":{"dse_request_us{op=\"open\"}":{"count":2,"sum":30.7,"min":10.25,|};
      {|"max":20.45,"buckets":[0,0,0,0,0,0,0,0,0,0,0,1,0,0,1,0,0,0,0,0,0,0,0,0,0,0,0,0,|};
      {|0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,|};
      {|0,0,0,0,0,0,0,0,0,0,0,0,0]},"dse_request_us{op=\"set\"}":{"count":0,"sum":0.0,|};
      {|"min":0.0,"max":0.0,"buckets":[0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,|};
      {|0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,|};
      {|0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0]}}},|};
      {|"engine":{"counters":{"dse_engine_sweeps_total":3},"gauges":{},|};
      {|"histograms":{"dse_engine_sweep_us":{"count":3,"sum":1234.5,"min":100.1,|};
      {|"max":900.3,"buckets":[0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,1,0,0,0,0,0,0,|};
      {|0,1,0,1,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,|};
      {|0,0,0,0,0,0,0,0,0,0,0,0,0]}}},"router":{"counters":{},"gauges":{},|};
      {|"histograms":{}}}|};
    ]

let merge_fields shards =
  match Router.merge_metrics ~router:(Obs.create_registry ()) shards with
  | Ok fields -> J.Obj fields
  | Error msg -> Alcotest.failf "merge failed: %s" msg

let merged_registries shards =
  match J.member "registries" (merge_fields shards) with
  | Some r -> J.to_string r
  | None -> Alcotest.fail "merged metrics without registries"

let test_metrics_merge_golden () =
  Alcotest.(check string) "two shards" golden_merged_registries
    (merged_registries [ ("w0", Ok shard_a); ("w1", Ok shard_b) ]);
  Alcotest.(check string) "one shard" golden_single_registries
    (merged_registries [ ("w0", Ok shard_a) ]);
  let m = merge_fields [ ("w0", Ok shard_a); ("w1", Ok shard_b) ] in
  Alcotest.(check int) "sessions add" 5 (jint "sessions" m);
  Alcotest.(check (float 0.0)) "oldest uptime" 30.25
    (Option.value ~default:nan (Option.bind (J.member "uptime_s" m) J.to_float))

let test_registry_codec_roundtrip () =
  let r = Obs.create_registry () in
  Obs.add (Obs.counter r "dse_requests_total") 41;
  Obs.incr (Obs.counter r "dse_evictions_total");
  Obs.set_gauge (Obs.gauge r "dse_store_resident") 2.5;
  let h = Obs.histogram r "dse_request_us{op=\"open\"}" in
  List.iter (Obs.observe h) [ 0.3; 12.75; 480.0; 1e9 ];
  ignore (Obs.histogram r "dse_request_us{op=\"set\"}");
  match P.registry_of_json (P.registry_to_json r) with
  | Error msg -> Alcotest.failf "round trip failed: %s" msg
  | Ok v ->
    Alcotest.(check (list (pair string int))) "counters" (Obs.counters r) v.P.counters;
    Alcotest.(check (list (pair string (float 0.0)))) "gauges" (Obs.gauges r) v.P.gauges;
    (* structural equality: the empty histogram must come back with
       infinity/neg_infinity extremes, not the 0.0 the wire carries *)
    Alcotest.(check bool) "histograms" true (Obs.histograms r = v.P.histograms)

let test_metrics_merge_malformed () =
  let bad_hist =
    J.Obj
      [
        ("count", J.Int 1);
        ("sum", J.Float 2.0);
        ("min", J.Float 2.0);
        ("max", J.Float 2.0);
        ("buckets", J.List [ J.Int 0; J.Int 1; J.Int 0 ]);
      ]
  in
  let shard_c =
    canned_shard ~uptime:99.0 ~sessions:7
      [
        ( "service",
          canned_registry ~counters:[ ("dse_requests_total", 1000) ] ~gauges:[]
            ~histograms:[ ("dse_request_us{op=\"open\"}", bad_hist) ] );
      ]
  in
  let shards = [ ("w0", Ok shard_a); ("w1", Ok shard_b); ("w2", Ok shard_c) ] in
  let m = merge_fields shards in
  (match Option.bind (J.member "shards" m) (J.member "w2") with
  | Some w2 when J.member "error" w2 <> None -> ()
  | _ -> Alcotest.fail "undecodable shard not reported as an error");
  (* the bad shard contributes nothing: not its counters, not its
     sessions, not a zero-filled histogram *)
  Alcotest.(check string) "registries exclude the bad shard" golden_merged_registries
    (merged_registries shards);
  Alcotest.(check int) "sessions exclude the bad shard" 5 (jint "sessions" m);
  Alcotest.(check int) "every worker counted" 3 (jint "workers" m);
  match Router.merge_metrics ~router:(Obs.create_registry ()) [ ("w2", Ok shard_c) ] with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "a fleet of undecodable shards must not answer"

let test_fleet_healthz () =
  with_fleet (fun sup router ->
      let h = expect_ok router P.Healthz in
      Alcotest.(check string) "status" "ok" (jstr "status" h);
      match J.member "workers" h with
      | Some ws ->
        List.iter
          (fun (w, _) ->
            match Option.bind (J.member w ws) J.to_str with
            | Some "ok" -> ()
            | Some s -> Alcotest.failf "worker %s reported %S" w s
            | None -> Alcotest.failf "healthz missing worker %s" w)
          (Supervisor.workers sup)
      | None -> Alcotest.fail "healthz without workers")

let test_fleet_kill_restart_resume () =
  with_fleet (fun sup router ->
      let ring = Ring.create (List.map fst (Supervisor.workers sup)) in
      (* a session pinned to w0, with acknowledged state *)
      let id =
        List.find
          (fun c -> String.equal (route_exn ring c) "w0")
          (List.init 64 (fun i -> Printf.sprintf "kr%d" i))
      in
      open_session router id;
      ignore
        (expect_ok router
           (P.Set
              { session = id; name = "Word Size"; value = Ds_layer.Value.int 16; decide = false }));
      let sig0 = jstr "signature" (expect_ok router (P.Signature { session = id })) in
      (* SIGKILL the shard: the very next request for it must be the
         structured, retryable unavailability error — never a hang or
         a transport-level surprise *)
      let pid =
        match Supervisor.pid sup "w0" with
        | Some p -> p
        | None -> Alcotest.fail "no pid for w0"
      in
      Unix.kill pid Sys.sigkill;
      let saw_unavailable = ref false in
      let deadline = Unix.gettimeofday () +. 15.0 in
      let rec wait_recovered () =
        if Unix.gettimeofday () > deadline then
          Alcotest.fail "w0 did not recover within 15s"
        else begin
          let line = Router.handle_line router (line_of_request (P.Signature { session = id })) in
          let json = reply_fields line in
          match Option.bind (J.member "ok" json) J.to_bool with
          | Some true -> jstr "signature" json
          | _ -> (
            match
              Option.bind (J.member "error" json) (fun e ->
                  Option.bind (J.member "code" e) J.to_str)
            with
            | Some "session_unavailable" ->
              saw_unavailable := true;
              (match P.error_code_of_label "session_unavailable" with
              | Some code -> Alcotest.(check bool) "retryable" true (P.retryable code)
              | None -> Alcotest.fail "session_unavailable label unknown");
              Thread.delay 0.1;
              wait_recovered ()
            | Some other -> Alcotest.failf "unexpected error in crash window: %s" other
            | None -> Alcotest.failf "unstructured reply in crash window: %s" line)
        end
      in
      let sig1 = wait_recovered () in
      (* the replacement worker resumed the session from its journal:
         bit-identical signature, nothing acknowledged lost *)
      Alcotest.(check string) "signature survives restart" sig0 sig1;
      Alcotest.(check bool) "crash window was observable" true !saw_unavailable;
      let restarts = Supervisor.restarts sup in
      Alcotest.(check int) "w0 restarted once" 1
        (Option.value (List.assoc_opt "w0" restarts) ~default:(-1));
      Alcotest.(check int) "w1 untouched" 0
        (Option.value (List.assoc_opt "w1" restarts) ~default:(-1)))

(* ------------------------------------------------------------------ *)
(* Pass-through differential: a thin-parse router and a full-parse
   router over the same workers must answer every op with the same
   bytes (modulo the session id), including every error shape — the
   fast path is an optimization, never a semantic fork. *)

module Client = Ds_serve.Client

let ok_or = function Ok v -> v | Error e -> Alcotest.failf "unexpected error: %s" e

(* replace every occurrence of [needle] (a session id) with [sub] *)
let replace hay needle sub =
  let nn = String.length needle in
  let buf = Buffer.create (String.length hay) in
  let i = ref 0 in
  while !i < String.length hay do
    if
      !i + nn <= String.length hay
      && String.equal (String.sub hay !i nn) needle
    then begin
      Buffer.add_string buf sub;
      i := !i + nn
    end
    else begin
      Buffer.add_char buf hay.[!i];
      incr i
    end
  done;
  Buffer.contents buf

let test_router_thin_vs_full () =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let dir = tmpdir "dse_test_diff" in
  let sup = Supervisor.start ~health_interval:0.1 (fleet_specs dir 2) in
  (match Supervisor.await_ready sup with
  | Ok () -> ()
  | Error msg ->
    Supervisor.stop sup;
    rm_rf dir;
    Alcotest.failf "fleet not ready: %s" msg);
  let workers = Supervisor.workers sup in
  let mk name thin =
    let sock = Filename.concat dir (name ^ ".sock") in
    let r = Router.create ~socket:sock ~workers ~slots:4 ~thin_parse:thin () in
    (sock, r, Thread.create Router.serve r)
  in
  let sock_t, r_t, th_t = mk "thin" true in
  let sock_f, r_f, th_f = mk "full" false in
  Fun.protect
    ~finally:(fun () ->
      Router.shutdown r_t;
      Router.shutdown r_f;
      Thread.join th_t;
      Thread.join th_f;
      Supervisor.stop sup;
      rm_rf dir)
  @@ fun () ->
  let ct = ok_or (Client.connect_retry ~socket:sock_t ()) in
  let cf = ok_or (Client.connect_retry ~socket:sock_f ()) in
  Fun.protect
    ~finally:(fun () ->
      Client.close ct;
      Client.close cf)
  @@ fun () ->
  (* two sessions with identical histories, one driven through each
     router; ids share a length so reply bytes align after renaming *)
  let sid_t = "diffa" and sid_f = "diffb" in
  let differential ctx template =
    let reply_t = ok_or (Client.request_line ct (replace template "%s" sid_t)) in
    let reply_f = ok_or (Client.request_line cf (replace template "%s" sid_f)) in
    Alcotest.(check string) ctx reply_t (replace reply_f sid_f sid_t)
  in
  List.iter
    (fun (ctx, template) -> differential ctx template)
    [
      ("open", {|{"op":"open","session":"%s","layer":"idct"}|});
      ("set", {|{"op":"set","session":"%s","name":"Word Size","value":16}|});
      ("default", {|{"op":"default","session":"%s","name":"Precision"}|});
      ("retract", {|{"op":"retract","session":"%s","name":"Precision"}|});
      ("annotate", {|{"op":"annotate","session":"%s","text":"same note"}|});
      ("candidates", {|{"op":"candidates","session":"%s","max":4}|});
      ("ranges", {|{"op":"ranges","session":"%s"}|});
      ("issues", {|{"op":"issues","session":"%s"}|});
      ("preview", {|{"op":"preview","session":"%s","issue":"Precision"}|});
      ("script", {|{"op":"script","session":"%s"}|});
      ("health", {|{"op":"health","session":"%s"}|});
      ("signature", {|{"op":"signature","session":"%s"}|});
      ("report", {|{"op":"report","session":"%s"}|});
      ( "batch",
        {|{"op":"batch","session":"%s","reqs":[{"op":"set","name":"Precision","value":12},{"op":"candidates","max":2},{"op":"retract","name":"Precision"}]}|}
      );
      ("compact", {|{"op":"compact","session":"%s"}|});
      ("close", {|{"op":"close","session":"%s"}|});
      (* close keeps the journal: the next touch rehydrates *)
      ("rehydrate", {|{"op":"signature","session":"%s"}|});
      (* error shapes must match too *)
      ("unknown property", {|{"op":"set","session":"%s","name":"No Such","value":1}|});
      ( "non-batchable sub-op",
        {|{"op":"batch","session":"%s","reqs":[{"op":"stats"}]}|} );
    ];
  (* a \u-escaped session id bails the thin scanner to the full parse;
     the raw line is still forwarded verbatim, so the reply must equal
     the plain-id reply *)
  let esc_t =
    ok_or (Client.request_line ct {|{"op":"signature","session":"diff\u0061"}|})
  in
  let esc_f =
    ok_or (Client.request_line cf {|{"op":"signature","session":"diff\u0062"}|})
  in
  Alcotest.(check string) "escaped id routes identically" esc_t
    (replace esc_f sid_f sid_t);
  Alcotest.(check string) "escaped id answers like the plain id" esc_t
    (ok_or (Client.request_line ct {|{"op":"signature","session":"diffa"}|}));
  (* lines the thin scanner must hand to the full parse unchanged *)
  let same_error ctx line =
    let reply_t = ok_or (Client.request_line ct line) in
    let reply_f = ok_or (Client.request_line cf line) in
    Alcotest.(check string) ctx reply_t reply_f
  in
  same_error "malformed json" "{\"op\":\"signature\",";
  same_error "unknown op" {|{"op":"frobnicate","session":"x"}|};
  same_error "unknown session" {|{"op":"signature","session":"ghost"}|};
  same_error "duplicate op keys" {|{"op":"signature","op":"candidates","session":"diffa"}|};
  (* the fast path was actually exercised on the thin router and never
     on the full-parse one *)
  let passthrough r =
    Option.value ~default:0
      (List.assoc_opt "dse_router_passthrough_total" (Ds_obs.Obs.counters (Router.registry r)))
  in
  Alcotest.(check bool)
    (Printf.sprintf "thin router forwarded verbatim (%d)" (passthrough r_t))
    true (passthrough r_t >= 10);
  Alcotest.(check int) "full-parse router never did" 0 (passthrough r_f);
  (* trace propagation: a well-formed top-level "trace" member rides
     the fast path (and both paths answer the same bytes); an escaped
     or duplicated trace member bails the thin scanner to the full
     parse — never a semantic fork *)
  let traced ctx ~fast line =
    let before = passthrough r_t in
    let reply_t = ok_or (Client.request_line ct line) in
    let reply_f = ok_or (Client.request_line cf line) in
    Alcotest.(check string) ctx reply_t reply_f;
    Alcotest.(check int) (ctx ^ ": thin fast-path delta") (if fast then 1 else 0)
      (passthrough r_t - before)
  in
  let ctx = "00112233445566778899aabbccddeeff-0123456789abcdef" in
  traced "well-formed trace stays fast" ~fast:true
    (Printf.sprintf {|{"op":"signature","session":"diffa","trace":"%s"}|} ctx);
  traced "unparseable trace value stays fast (just no context)" ~fast:true
    {|{"op":"signature","session":"diffa","trace":"bogus"}|};
  traced "escaped trace bails to the full parse" ~fast:false
    {|{"op":"signature","session":"diffa","trace":"00112233445566778899aabbccddeeff-0123456789abcde\u0066"}|};
  traced "duplicate trace bails to the full parse" ~fast:false
    (Printf.sprintf {|{"op":"signature","session":"diffa","trace":"%s","trace":"%s"}|} ctx ctx)

(* ------------------------------------------------------------------ *)
(* Cross-process trace assembly: a traced batch through the router
   leaves spans in two real processes (the router's ring lives in this
   process; the op spans in the worker), and the fleet-wide trace
   collection reassembles one tree — siblings under the client's
   minted (virtual-root) span, children nested by local ids within
   each shard.  DESIGN.md 18. *)

let test_fleet_trace_assembly () =
  with_fleet (fun _sup router ->
      Obs.set_enabled true;
      Obs.set_trace_sample 1.0;
      open_session router "tra";
      let trace = Obs.mint_trace () in
      let tid, psid = Option.get (Obs.parse_trace trace) in
      let batch_line =
        Printf.sprintf
          {|{"op":"batch","session":"tra","reqs":[{"op":"set","name":"Word Size","value":16},{"op":"candidates","max":2}],"trace":"%s"}|}
          trace
      in
      let t0 = Unix.gettimeofday () in
      let reply = reply_fields (Router.handle_line router batch_line) in
      let wall_us = (Unix.gettimeofday () -. t0) *. 1e6 in
      (match Option.bind (J.member "ok" reply) J.to_bool with
      | Some true -> ()
      | _ -> Alcotest.failf "traced batch failed: %s" (J.to_string reply));
      let tr = expect_ok router (P.Trace { session = ""; spans = true; since = None; max_spans = None }) in
      let spans =
        match Option.bind (J.member "spans" tr) J.to_list with
        | Some l -> l
        | None -> Alcotest.fail "merged trace without spans"
      in
      let attr k sp = Option.bind (J.member "attrs" sp) (J.str_member k) in
      let shard sp = Option.value ~default:"?" (J.str_member "shard" sp) in
      let ours = List.filter (fun sp -> attr "trace" sp = Some tid) spans in
      let one name =
        match List.filter (fun sp -> J.str_member "name" sp = Some name) ours with
        | [ sp ] -> sp
        | l -> Alcotest.failf "expected exactly one %s span in the trace, got %d" name (List.length l)
      in
      (* the router hop and the worker's request root are siblings
         under the client's span — an id recorded by NO process *)
      let hop = one "router.route" and batch = one "op.batch" in
      Alcotest.(check string) "router hop tagged as the router" "router" (shard hop);
      Alcotest.(check (option string)) "router hop parents under the client span"
        (Some psid) (attr "parent_span" hop);
      Alcotest.(check (option string)) "worker root parents under the client span"
        (Some psid) (attr "parent_span" batch);
      Alcotest.(check bool) "worker root lives on a worker shard" true
        (match shard batch with "w0" | "w1" -> true | _ -> false);
      Alcotest.(check bool) "fleet span ids are distinct across processes" true
        (attr "span" hop <> attr "span" batch && attr "span" hop <> None);
      (* sub-requests nest as local children of the worker root *)
      let bid =
        match Option.bind (J.member "id" batch) J.to_int with
        | Some i -> i
        | None -> Alcotest.fail "worker root without a local id"
      in
      let kids =
        List.filter
          (fun sp ->
            String.equal (shard sp) (shard batch)
            && Option.bind (J.member "parent" sp) J.to_int = Some bid)
          spans
      in
      Alcotest.(check bool) "batch sub-requests nest under the root" true (kids <> []);
      (* phase attribution: every phase present, non-negative, and the
         sum bounded by the observed wall time (loose: the phases are a
         decomposition of the worker-side handle, wall includes IPC) *)
      let phases = [ "queue_us"; "lock_us"; "sweep_us"; "journal_us"; "fsync_us"; "flush_us" ] in
      let total =
        List.fold_left
          (fun acc k ->
            match attr k batch with
            | None -> Alcotest.failf "worker root missing phase %s" k
            | Some v -> (
              match float_of_string_opt v with
              | Some f when f >= 0.0 -> acc +. f
              | _ -> Alcotest.failf "phase %s is not a non-negative float: %s" k v))
          0.0 phases
      in
      Alcotest.(check bool)
        (Printf.sprintf "phase sum %.1fus within wall %.1fus" total wall_us)
        true
        (total <= (wall_us *. 1.5) +. 1_000.0))

(* ------------------------------------------------------------------ *)
(* The HTTP observability plane: Router.http_routes behind a real
   listener on an ephemeral port.  /metrics is a Prometheus text
   exposition covering every shard plus the router; /healthz is the
   live probe roll-up and flips to "degraded" while a worker is down. *)

let http_get port path =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
  @@ fun () ->
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  let req = Printf.sprintf "GET %s HTTP/1.1\r\nHost: localhost\r\n\r\n" path in
  let _ = Unix.write_substring fd req 0 (String.length req) in
  let buf = Buffer.create 1024 and chunk = Bytes.create 4096 in
  let rec drain () =
    match Unix.read fd chunk 0 (Bytes.length chunk) with
    | 0 -> ()
    | n ->
      Buffer.add_subbytes buf chunk 0 n;
      drain ()
  in
  drain ();
  let resp = Buffer.contents buf in
  let status =
    match String.index_opt resp ' ' with
    | Some i -> ( try int_of_string (String.sub resp (i + 1) 3) with _ -> -1)
    | None -> -1
  in
  let body =
    let rec find i =
      if i + 4 > String.length resp then String.length resp
      else if String.equal (String.sub resp i 4) "\r\n\r\n" then i + 4
      else find (i + 1)
    in
    let start = find 0 in
    String.sub resp start (String.length resp - start)
  in
  (status, body)

let contains hay needle =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.equal (String.sub hay i nl) needle || go (i + 1)) in
  go 0

let test_fleet_http_plane () =
  with_fleet (fun sup router ->
      let h =
        match Ds_serve.Httpd.start ~addr:("127.0.0.1", 0) ~routes:(Router.http_routes router) () with
        | Ok h -> h
        | Error msg -> Alcotest.failf "httpd did not start: %s" msg
      in
      Fun.protect ~finally:(fun () -> Ds_serve.Httpd.stop h)
      @@ fun () ->
      let port = Ds_serve.Httpd.port h in
      (* /metrics: one exposition per shard plus the router's own *)
      let status, body = http_get port "/metrics" in
      Alcotest.(check int) "/metrics status" 200 status;
      Alcotest.(check bool) "/metrics leads with build info" true
        (contains body "dse_build_info{version=");
      List.iter
        (fun (w, _) ->
          Alcotest.(check bool) ("/metrics covers " ^ w) true
            (contains body (Printf.sprintf "# shard %s" w)))
        (Supervisor.workers sup);
      Alcotest.(check bool) "/metrics covers the router" true (contains body "# router");
      (* /healthz: all workers up *)
      let status, body = http_get port "/healthz" in
      Alcotest.(check int) "/healthz status" 200 status;
      let health = reply_fields (String.trim body) in
      Alcotest.(check string) "/healthz ok" "ok" (jstr "status" health);
      (* /tracez parses as JSON with a spans member *)
      let status, body = http_get port "/tracez" in
      Alcotest.(check int) "/tracez status" 200 status;
      (match Option.bind (J.member "spans" (reply_fields (String.trim body))) J.to_list with
      | Some _ -> ()
      | None -> Alcotest.failf "/tracez without spans: %s" body);
      (* unknown path *)
      let status, _ = http_get port "/nope" in
      Alcotest.(check int) "unknown path is 404" 404 status;
      (* kill a worker: /healthz flips to degraded during the crash
         window, then back to ok once the supervisor restarts it *)
      let pid =
        match Supervisor.pid sup "w0" with
        | Some p -> p
        | None -> Alcotest.fail "no pid for w0"
      in
      Unix.kill pid Sys.sigkill;
      let deadline = Unix.gettimeofday () +. 15.0 in
      let rec wait_degraded () =
        if Unix.gettimeofday () > deadline then
          Alcotest.fail "/healthz never reported the dead worker"
        else begin
          let _, body = http_get port "/healthz" in
          let health = reply_fields (String.trim body) in
          if String.equal (jstr "status" health) "degraded" then begin
            match Option.bind (J.member "workers" health) (J.str_member "w0") with
            | Some s when not (String.equal s "ok") -> ()
            | _ -> Alcotest.failf "degraded without naming w0: %s" body
          end
          else begin
            Thread.delay 0.02;
            wait_degraded ()
          end
        end
      in
      wait_degraded ();
      let rec wait_recovered () =
        if Unix.gettimeofday () > deadline then
          Alcotest.fail "/healthz did not recover after restart"
        else begin
          let _, body = http_get port "/healthz" in
          if String.equal (jstr "status" (reply_fields (String.trim body))) "ok" then ()
          else begin
            Thread.delay 0.1;
            wait_recovered ()
          end
        end
      in
      wait_recovered ())

(* ------------------------------------------------------------------ *)
(* Router shutdown drain                                               *)

(* A stand-in worker: answers every request line with [fake_reply]
   after [!delay] seconds, one thread per connection, until [stop]. *)
let fake_reply = {|{"ok":true,"fake":true}|}

let fake_worker sock ~delay ~stop =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind fd (Unix.ADDR_UNIX sock);
  Unix.listen fd 16;
  let serve_conn c =
    let ic = Unix.in_channel_of_descr c in
    (try
       while true do
         ignore (input_line ic);
         Thread.delay !delay;
         let line = fake_reply ^ "\n" in
         ignore (Unix.write_substring c line 0 (String.length line))
       done
     with End_of_file | Sys_error _ | Unix.Unix_error _ -> ());
    try Unix.close c with Unix.Unix_error _ -> ()
  in
  let rec accept_loop () =
    if Atomic.get stop then Unix.close fd
    else begin
      (match Unix.select [ fd ] [] [] 0.05 with
      | [ _ ], _, _ ->
        let c, _ = Unix.accept fd in
        ignore (Thread.create serve_conn c)
      | _ -> ());
      accept_loop ()
    end
  in
  Thread.create accept_loop ()

let test_router_drain () =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let dir = tmpdir "dse_test_drain" in
  let worker_sock = Filename.concat dir "w0.sock" in
  let router_sock = Filename.concat dir "router.sock" in
  let delay = ref 0.0 and stop = Atomic.make false in
  let worker = fake_worker worker_sock ~delay ~stop in
  let router = Router.create ~socket:router_sock ~workers:[ ("w0", worker_sock) ] ~slots:2 () in
  let returned = Atomic.make false in
  let server =
    Thread.create
      (fun () ->
        Router.serve router;
        Atomic.set returned true)
      ()
  in
  let connect () =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    Unix.connect fd (Unix.ADDR_UNIX router_sock);
    fd
  in
  let send fd =
    let line = {|{"op":"health","session":"s1"}|} ^ "\n" in
    ignore (Unix.write_substring fd line 0 (String.length line))
  in
  let wait_until what deadline cond =
    while not (cond ()) do
      if Unix.gettimeofday () > deadline then Alcotest.failf "timed out waiting for %s" what;
      Thread.delay 0.01
    done
  in
  Fun.protect
    ~finally:(fun () ->
      Router.shutdown router;
      Atomic.set stop true;
      Thread.join worker;
      rm_rf dir)
    (fun () ->
      let n = 2_000 in
      for i = 1 to n do
        let fd = connect () in
        send fd;
        let reply = input_line (Unix.in_channel_of_descr fd) in
        Unix.close fd;
        if not (String.equal reply fake_reply) then Alcotest.failf "connection %d got %S" i reply
      done;
      wait_until "every connection to be retired" (Unix.gettimeofday () +. 10.0) (fun () ->
          Router.connections_served router = n);
      (* a connection mid-request when shutdown lands keeps its reply *)
      delay := 0.3;
      let held = connect () in
      send held;
      Thread.delay 0.1;
      let t0 = Unix.gettimeofday () in
      Router.shutdown router;
      wait_until "serve to return" (t0 +. 2.0) (fun () -> Atomic.get returned);
      Thread.join server;
      Alcotest.(check string) "in-flight reply delivered" fake_reply
        (input_line (Unix.in_channel_of_descr held));
      Unix.close held;
      Alcotest.(check int) "held connection retired too" (n + 1)
        (Router.connections_served router))

let () =
  Alcotest.run "fleet"
    [
      ( "ring",
        [
          Alcotest.test_case "deterministic across member order" `Quick test_ring_deterministic;
          Alcotest.test_case "stable and unambiguous" `Quick test_ring_pinned;
          Alcotest.test_case "empty and single member" `Quick test_ring_empty_and_single;
          Alcotest.test_case "spread within 20% of uniform" `Quick test_ring_spread;
          Alcotest.test_case "remove moves ~1/8, others sticky" `Quick test_ring_movement_remove;
          Alcotest.test_case "add moves ~1/9, all to the new member" `Quick test_ring_movement_add;
        ] );
      ( "fleet",
        [
          Alcotest.test_case "routing, minting, colocated branch" `Quick
            test_fleet_routing_and_minting;
          Alcotest.test_case "metrics fan-out merges bucket-wise" `Quick test_fleet_metrics_merge;
          Alcotest.test_case "metrics merge golden" `Quick test_metrics_merge_golden;
          Alcotest.test_case "registry codec round trip" `Quick test_registry_codec_roundtrip;
          Alcotest.test_case "malformed registry is a shard error" `Quick
            test_metrics_merge_malformed;
          Alcotest.test_case "healthz probes every worker" `Quick test_fleet_healthz;
          Alcotest.test_case "SIGKILL -> retryable error -> journal resume" `Quick
            test_fleet_kill_restart_resume;
          Alcotest.test_case "thin-parse vs full-parse differential" `Quick
            test_router_thin_vs_full;
          Alcotest.test_case "cross-process trace assembly" `Quick test_fleet_trace_assembly;
          Alcotest.test_case "http observability plane" `Quick test_fleet_http_plane;
          Alcotest.test_case "shutdown drains without a thread list" `Quick test_router_drain;
        ] );
    ]
