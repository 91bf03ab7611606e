(* The exploration service: JSON codec, protocol round-trips, session
   store, journal replay (including the crash-recovery acceptance
   path), and a live socket end-to-end. *)

module J = Ds_serve.Jsonx
module P = Ds_serve.Protocol
module Store = Ds_serve.Store
module Journal = Ds_serve.Journal
module Service = Ds_serve.Service
module Iofault = Ds_serve.Iofault
module Session = Ds_layer.Session
module Value = Ds_layer.Value

let ok = function Ok v -> v | Error e -> Alcotest.failf "unexpected error: %s" e

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec scan i = i + nn <= nh && (String.sub hay i nn = needle || scan (i + 1)) in
  scan 0

let reply = function
  | P.Reply payload -> payload
  | P.Failed (code, msg) ->
    Alcotest.failf "request failed: %s: %s" (P.error_code_label code) msg

let failed code = function
  | P.Failed (got, _) ->
    Alcotest.(check string) "error code" (P.error_code_label code) (P.error_code_label got)
  | P.Reply _ -> Alcotest.fail "expected a failure reply"

let jstr k payload =
  match Option.bind (List.assoc_opt k payload) J.to_str with
  | Some s -> s
  | None -> Alcotest.failf "reply missing string field %S" k

let jint k payload =
  match Option.bind (List.assoc_opt k payload) J.to_int with
  | Some n -> n
  | None -> Alcotest.failf "reply missing int field %S" k

let jmember k payload =
  match List.assoc_opt k payload with
  | Some v -> v
  | None -> Alcotest.failf "reply missing field %S" k

let tmpdir prefix =
  let dir = Filename.temp_file prefix "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  dir

let rec rm_rf path =
  if Sys.is_directory path then begin
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  end
  else Sys.remove path

(* ------------------------------------------------------------------ *)
(* Jsonx                                                               *)

let test_jsonx_roundtrip () =
  let cases =
    [
      J.Null;
      J.Bool true;
      J.Bool false;
      J.Int 0;
      J.Int (-42);
      J.Float 3.5;
      J.Str "";
      J.Str "plain";
      J.Str "quote \" slash \\ newline \n tab \t";
      J.List [];
      J.List [ J.Int 1; J.Str "two"; J.Null ];
      J.Obj [];
      J.Obj [ ("a", J.Int 1); ("nested", J.Obj [ ("b", J.List [ J.Bool false ]) ]) ];
    ]
  in
  List.iter
    (fun v ->
      let s = J.to_string v in
      Alcotest.(check bool)
        (Printf.sprintf "single line: %s" s)
        false (String.contains s '\n');
      match J.of_string s with
      | Ok v' -> Alcotest.(check string) "roundtrip" s (J.to_string v')
      | Error e -> Alcotest.failf "reparse of %s failed: %s" s e)
    cases

let test_jsonx_numbers () =
  (match J.of_string "8" with
  | Ok (J.Int 8) -> ()
  | other -> Alcotest.failf "integral parses as Int, got %s"
               (match other with Ok v -> J.to_string v | Error e -> e));
  (match J.of_string "8.0" with
  | Ok (J.Float f) -> Alcotest.(check (float 1e-9)) "8.0" 8.0 f
  | _ -> Alcotest.fail "8.0 parses as Float");
  (match J.of_string "-1.5e3" with
  | Ok (J.Float f) -> Alcotest.(check (float 1e-6)) "-1.5e3" (-1500.0) f
  | _ -> Alcotest.fail "exponent parses as Float");
  (* floats always re-render with a decimal marker, so they stay floats *)
  match J.of_string (J.to_string (J.Float 7.0)) with
  | Ok (J.Float _) -> ()
  | _ -> Alcotest.fail "Float 7.0 survives a print/parse cycle as Float"

let test_jsonx_strings () =
  (match J.of_string "\"\\u0041\\u00e9\"" with
  | Ok (J.Str s) -> Alcotest.(check string) "unicode escapes" "A\xc3\xa9" s
  | _ -> Alcotest.fail "unicode escape parse");
  (* surrogate pair: U+1F600 *)
  (match J.of_string "\"\\ud83d\\ude00\"" with
  | Ok (J.Str s) -> Alcotest.(check string) "surrogate pair" "\xf0\x9f\x98\x80" s
  | _ -> Alcotest.fail "surrogate pair parse");
  let control = J.to_string (J.Str "\x01") in
  match J.of_string control with
  | Ok (J.Str s) -> Alcotest.(check string) "control char" "\x01" s
  | _ -> Alcotest.fail "control char roundtrip"

let test_jsonx_errors () =
  let bad =
    [
      ""; "{"; "[1,"; "{\"a\":}"; "tru"; "\"unterminated"; "1 2"; "{\"a\":1}x";
      (* int_of_string-isms that are not JSON *)
      "\"\\u00_a\""; "\"\\u0x41\"";
      (* overflows to infinity, which has no JSON form *)
      "1e999"; "-1e999";
    ]
  in
  List.iter
    (fun s ->
      match J.of_string s with
      | Ok v -> Alcotest.failf "%S should not parse (got %s)" s (J.to_string v)
      | Error _ -> ())
    bad

(* ------------------------------------------------------------------ *)
(* Protocol                                                            *)

let test_protocol_roundtrip () =
  let requests =
    [
      P.Open { session = None; layer = "crypto"; eol = None; resume = false };
      P.Open { session = Some "a"; layer = "synthetic"; eol = Some 96; resume = false };
      P.Open { session = Some "a"; layer = ""; eol = None; resume = true };
      P.Set { session = "a"; name = "Radix"; value = Value.int 4; decide = false };
      P.Set { session = "a"; name = "Algorithm"; value = Value.str "Montgomery"; decide = true };
      P.Set { session = "a"; name = "Latency"; value = Value.real 8.5; decide = false };
      P.Default { session = "a"; name = "Behavioral Description" };
      P.Retract { session = "a"; name = "Radix" };
      P.Annotate { session = "a"; text = "checking the \"fast\" branch" };
      P.Candidates { session = "a"; max = None };
      P.Ranges { session = "a"; merits = None };
      P.Ranges { session = "a"; merits = Some [ "latency-ns"; "area-um2" ] };
      P.Issues { session = "a" };
      P.Preview { session = "a"; issue = "Algorithm"; merit = Some "latency-ns" };
      P.Preview { session = "a"; issue = "Algorithm"; merit = None };
      P.Script { session = "a" };
      P.Trace { session = "a"; spans = false; since = None; max_spans = None };
      P.Trace { session = ""; spans = true; since = None; max_spans = None };
      P.Trace { session = "a"; spans = true; since = Some 7; max_spans = Some 100 };
      P.Metrics { format = None };
      P.Metrics { format = Some "prometheus" };
      P.Health { session = "a" };
      P.Signature { session = "a" };
      P.Report { session = "a"; title = Some "T" };
      P.Report { session = "a"; title = None };
      P.Branch { session = "a"; as_id = Some "b" };
      P.Branch { session = "a"; as_id = None };
      P.Compact { session = "a" };
      P.Close { session = "a" };
      P.Stats;
    ]
  in
  List.iter
    (fun req ->
      let json = P.json_of_request req in
      match P.request_of_json json with
      | Ok req' ->
        Alcotest.(check bool)
          (Printf.sprintf "roundtrip %s" (J.to_string json))
          true (req = req')
      | Error e -> Alcotest.failf "decode of %s failed: %s" (J.to_string json) e)
    requests

let test_protocol_errors () =
  (match P.parse_request "not json" with
  | Error (P.Parse_error, _) -> ()
  | _ -> Alcotest.fail "bad JSON -> Parse_error");
  (match P.parse_request "{\"op\":\"frobnicate\"}" with
  | Error (P.Unknown_op, _) -> ()
  | _ -> Alcotest.fail "unknown op -> Unknown_op");
  (match P.parse_request "{\"op\":\"set\",\"session\":\"a\"}" with
  | Error (P.Bad_request, _) -> ()
  | _ -> Alcotest.fail "missing fields -> Bad_request");
  match P.parse_request "{\"session\":\"a\"}" with
  | Error ((P.Bad_request | P.Unknown_op), _) -> ()
  | _ -> Alcotest.fail "missing op rejected"

let test_response_roundtrip () =
  let responses =
    [
      P.Reply [ ("session", J.Str "a"); ("candidates", J.Int 40) ];
      P.Reply [];
      P.Failed (P.Rejected, "constraint CC1 violated");
      P.Failed (P.Unknown_session, "no session \"x\"");
    ]
  in
  List.iter
    (fun r ->
      let line = P.print_response r in
      match P.response_of_string line with
      | Ok r' -> Alcotest.(check string) "response roundtrip" line (P.print_response r')
      | Error e -> Alcotest.failf "decode of %s failed: %s" line e)
    responses

let test_value_coercions () =
  (match P.value_of_json (J.Int 8) with
  | Ok (Value.Int 8) -> ()
  | _ -> Alcotest.fail "Int 8");
  (match P.value_of_json (J.Float 8.5) with
  | Ok (Value.Real r) -> Alcotest.(check (float 1e-9)) "real" 8.5 r
  | _ -> Alcotest.fail "Float -> Real");
  (match P.value_of_json (J.Str "hardware") with
  | Ok (Value.Str "hardware") -> ()
  | _ -> Alcotest.fail "Str");
  (match P.value_of_json (J.List []) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "arrays are not values");
  (* non-finite reals would journal as null and break replay *)
  List.iter
    (fun f ->
      match P.value_of_json (J.Float f) with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "non-finite %f accepted as a value" f)
    [ Float.nan; Float.infinity; Float.neg_infinity ]

(* ------------------------------------------------------------------ *)
(* Store                                                               *)

let entry_for s = { Store.session = s; layer = "synthetic"; eol = 768; journal = None }

let syn_session () = Ds_domains.Synthetic.session Ds_domains.Synthetic.default_spec

let test_store_lru () =
  let s = syn_session () in
  let store = Store.create ~capacity:3 () in
  List.iter (fun id -> ignore (Store.put store id (entry_for s))) [ "a"; "b"; "c" ];
  Alcotest.(check int) "full" 3 (Store.count store);
  (* touch "a" so "b" becomes the LRU victim *)
  ignore (Store.find store "a");
  let evicted = Store.put store "d" (entry_for s) in
  Alcotest.(check (list string)) "victim handed back" [ "b" ] (List.map fst evicted);
  Alcotest.(check int) "still bounded" 3 (Store.count store);
  Alcotest.(check bool) "b evicted" false (Store.mem store "b");
  Alcotest.(check bool) "a kept" true (Store.mem store "a");
  Alcotest.(check int) "one eviction" 1 (Store.evictions store);
  (* replacing an existing id is not an insertion: no eviction *)
  Alcotest.(check int) "replace evicts nobody" 0 (List.length (Store.put store "a" (entry_for s)));
  Alcotest.(check int) "replace keeps count" 3 (Store.count store);
  Alcotest.(check int) "replace evicts nothing" 1 (Store.evictions store);
  Store.remove store "a";
  Alcotest.(check bool) "removed" false (Store.mem store "a");
  Store.remove store "a" (* no-op *)

let test_store_fresh_ids () =
  let s = syn_session () in
  let store = Store.create ~capacity:8 () in
  let id1 = Store.fresh_id store in
  ignore (Store.put store id1 (entry_for s));
  let id2 = Store.fresh_id store in
  Alcotest.(check bool) "fresh ids distinct" false (String.equal id1 id2);
  (* most-recently-used first *)
  ignore (Store.put store id2 (entry_for s));
  ignore (Store.find store id1);
  Alcotest.(check (list string)) "MRU order" [ id1; id2 ] (Store.ids store);
  (* the skip predicate vetoes ids the table doesn't know about (the
     service uses it to avoid ids with a journal on disk) *)
  let skipped = Store.fresh_id ~skip:(fun id -> String.equal id "s3") store in
  Alcotest.(check string) "skip predicate honoured" "s4" skipped

(* ------------------------------------------------------------------ *)
(* Service basics                                                      *)

let service ?journal_dir ?capacity () =
  Service.create
    (Service.config ?journal_dir ?capacity
       ~default_merits:[ "delay"; "cost" ]
       ~layers:Ds_domains.Catalog.factories ())

let open_req ?session ?(layer = "synthetic") ?eol ?(resume = false) () =
  P.Open { session; layer; eol; resume }

(* the synthetic layer's top generalized issue: deciding it narrows the
   focus and prunes the population, retracting it restores *)
let issue = "L1"
let pick = Value.str "l1-o0"

let test_service_basics () =
  let svc = service () in
  let payload = reply (Service.handle svc (open_req ~session:"t" ())) in
  let n0 = jint "candidates" payload in
  Alcotest.(check bool) "population present" true (n0 > 0);
  failed P.Session_exists (Service.handle svc (open_req ~session:"t" ()));
  failed P.Unknown_layer (Service.handle svc (open_req ~session:"u" ~layer:"nope" ()));
  failed P.Unknown_session
    (Service.handle svc (P.Candidates { session = "ghost"; max = None }));
  failed P.Bad_request (Service.handle svc (open_req ~session:".bad" ()));
  (* a binding change prunes, retract restores *)
  let set =
    reply
      (Service.handle svc
         (P.Set { session = "t"; name = issue; value = pick; decide = false }))
  in
  let n1 = jint "candidates" set in
  Alcotest.(check bool) "decision pruned" true (n1 < n0);
  failed P.Rejected
    (Service.handle svc
       (P.Set { session = "t"; name = "No Such Property"; value = Value.int 1; decide = false }));
  let back = reply (Service.handle svc (P.Retract { session = "t"; name = issue })) in
  Alcotest.(check int) "retract restores" n0 (jint "candidates" back);
  (* ranges use the configured default merits *)
  let ranges = reply (Service.handle svc (P.Ranges { session = "t"; merits = None })) in
  (match jmember "ranges" ranges with
  | J.Obj fields ->
    Alcotest.(check (list string)) "default merits" [ "delay"; "cost" ] (List.map fst fields)
  | _ -> Alcotest.fail "ranges is an object");
  (* stats counts what we did *)
  let stats = reply (Service.handle svc P.Stats) in
  (match jmember "requests" stats with
  | J.Obj ops -> Alcotest.(check bool) "open counted" true (List.mem_assoc "open" ops)
  | _ -> Alcotest.fail "stats.requests is an object");
  let closed = reply (Service.handle svc (P.Close { session = "t" })) in
  Alcotest.(check string) "closed" "t" (jstr "closed" closed);
  failed P.Unknown_session (Service.handle svc (P.Close { session = "t" }))

let test_service_branch () =
  let svc = service () in
  ignore (reply (Service.handle svc (open_req ~session:"a" ())));
  ignore
    (reply
       (Service.handle svc
          (P.Set { session = "a"; name = issue; value = pick; decide = true })));
  let br = reply (Service.handle svc (P.Branch { session = "a"; as_id = Some "b" })) in
  Alcotest.(check string) "branch id" "b" (jstr "session" br);
  (* the branch then diverges without touching the parent *)
  ignore (reply (Service.handle svc (P.Retract { session = "b"; name = issue })));
  let sig_of id =
    jstr "signature" (reply (Service.handle svc (P.Signature { session = id })))
  in
  Alcotest.(check bool) "branches diverged" false (String.equal (sig_of "a") (sig_of "b"))

(* One [ranges] request folds all its merits together; its reply must
   be byte for byte what one single-merit request per merit gives, on
   a fresh service (both cold) and again on the warm one.  Merit lists
   carry a duplicate and a merit no core has. *)
let test_ranges_fused_reply () =
  let layers =
    ("gen", fun ~eol:_ -> Ds_domains.Generator.session Ds_domains.Generator.default_spec)
    :: Ds_domains.Catalog.factories
  in
  let module N = Ds_domains.Names in
  List.iter
    (fun (layer, steps, merits) ->
      let run () =
        let svc = Service.create (Service.config ~layers ()) in
        ignore (reply (Service.handle svc (open_req ~session:"r" ~layer ())));
        List.iter
          (fun (name, value, decide) ->
            ignore (reply (Service.handle svc (P.Set { session = "r"; name; value; decide }))))
          steps;
        svc
      in
      let ranges svc merits =
        P.print_response (Service.handle svc (P.Ranges { session = "r"; merits = Some merits }))
      in
      let fused_svc = run () and single_svc = run () in
      let per_merit =
        List.concat_map
          (fun merit ->
            match
              jmember "ranges"
                (reply
                   (Service.handle single_svc (P.Ranges { session = "r"; merits = Some [ merit ] })))
            with
            | J.Obj fields -> fields
            | _ -> Alcotest.fail "ranges is an object")
          merits
      in
      let expected =
        P.print_response (P.Reply [ ("session", J.Str "r"); ("ranges", J.Obj per_merit) ])
      in
      Alcotest.(check bool) (layer ^ ": some range is non-empty") true (contains expected "[");
      Alcotest.(check string) (layer ^ ": fused = per merit") expected (ranges fused_svc merits);
      Alcotest.(check string) (layer ^ ": warm fused = per merit") expected (ranges fused_svc merits))
    [
      ( "crypto",
        [
          (N.operator_family, Value.str "modular", true);
          (N.modular_operator, Value.str "multiplier", true);
          (N.effective_operand_length, Value.int 768, false);
          (N.latency_single_operation, Value.int 8, false);
        ],
        [ N.m_latency_ns; N.m_area_um2; "no-such-merit"; N.m_latency_ns; N.m_power_mw ] );
      ( "gen",
        [ ("GB0", Value.real 170.0, false); ("GB1", Value.real 200.0, false) ],
        [ "m0"; "m3"; "m1"; "m0"; "no-such-merit"; "m2" ] );
    ]

(* The shell constructs requests directly (no wire screening), so the
   service itself must refuse values the journal cannot represent —
   before the slot is taken, so even for a session that does not exist,
   and without touching the journal. *)
let test_non_finite_values_refused () =
  let dir = tmpdir "dse_nonfinite" in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let svc = service ~journal_dir:dir () in
  ignore (reply (Service.handle svc (open_req ~session:"t" ())));
  let journal () = In_channel.with_open_bin (Journal.path ~dir ~id:"t") In_channel.input_all in
  let before = journal () in
  List.iter
    (fun f ->
      failed P.Bad_request
        (Service.handle svc
           (P.Set { session = "t"; name = issue; value = Value.real f; decide = false })))
    [ Float.nan; Float.infinity; Float.neg_infinity ];
  List.iter
    (fun (session, decide) ->
      failed P.Bad_request
        (Service.handle svc (P.Set { session; name = issue; value = Value.real Float.nan; decide })))
    [ ("t", true); ("no-such-session", false) ];
  Alcotest.(check string) "journal unchanged" before (journal ())

let test_handle_line_never_raises () =
  let svc = service () in
  List.iter
    (fun line ->
      let out = Service.handle_line svc line in
      match J.of_string out with
      | Ok json -> (
        match J.member "ok" json with
        | Some (J.Bool _) -> ()
        | _ -> Alcotest.failf "reply has no ok field: %s" out)
      | Error e -> Alcotest.failf "reply is not JSON (%s): %s" e out)
    [
      "";
      "garbage";
      "{\"op\":\"nope\"}";
      "{\"op\":\"open\",\"layer\":\"synthetic\",\"session\":\"x\"}";
      "{\"op\":\"candidates\",\"session\":\"x\"}";
    ]

let test_lru_eviction_keeps_journal_resumable () =
  let dir = tmpdir "dse_lru" in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let svc = service ~journal_dir:dir ~capacity:2 () in
  ignore (reply (Service.handle svc (open_req ~session:"a" ())));
  ignore
    (reply
       (Service.handle svc
          (P.Set { session = "a"; name = issue; value = pick; decide = false })));
  let sig_a = jstr "signature" (reply (Service.handle svc (P.Signature { session = "a" }))) in
  (* push "a" out of the bounded table *)
  ignore (reply (Service.handle svc (open_req ~session:"b" ())));
  ignore (reply (Service.handle svc (open_req ~session:"c" ())));
  let stats = reply (Service.handle svc P.Stats) in
  Alcotest.(check bool) "an eviction happened" true (jint "evictions" stats > 0);
  (* eviction is invisible: the first touch rehydrates from the journal *)
  let back = reply (Service.handle svc (P.Signature { session = "a" })) in
  Alcotest.(check string) "signature preserved across eviction" sig_a (jstr "signature" back);
  (* the session is resident again, so an explicit re-open is refused *)
  failed P.Session_exists
    (Service.handle svc (open_req ~session:"a" ~layer:"" ~resume:true ()))

(* ------------------------------------------------------------------ *)
(* Journal replay: the crash-recovery acceptance test                   *)

(* A scripted crypto exploration journaled by one service must replay,
   in a *fresh* service over the same directory, to the identical
   candidate set and merit ranges — byte-identical replies. *)
let crypto_script sid =
  [
    P.Set { session = sid; name = "Operator Family"; value = Value.str "modular"; decide = true };
    P.Set { session = sid; name = "Modular Operator"; value = Value.str "multiplier"; decide = true };
    P.Set { session = sid; name = "Effective Operand Length"; value = Value.int 768; decide = false };
    P.Set
      { session = sid; name = "Latency Single Operation"; value = Value.int 8; decide = false };
    P.Annotate { session = sid; text = "after the paper's four requirements" };
  ]

let crypto_service dir =
  Service.create
    (Service.config ~journal_dir:dir
       ~default_merits:[ "latency-ns"; "area-um2" ]
       ~layers:Ds_domains.Catalog.factories ())

let test_replay_reconstructs_session () =
  let dir = tmpdir "dse_replay" in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let svc = crypto_service dir in
  ignore (reply (Service.handle svc (open_req ~session:"cs" ~layer:"crypto" ~eol:768 ())));
  List.iter (fun req -> ignore (reply (Service.handle svc req))) (crypto_script "cs");
  let before_candidates = reply (Service.handle svc (P.Candidates { session = "cs"; max = None })) in
  let before_ranges = reply (Service.handle svc (P.Ranges { session = "cs"; merits = None })) in
  Alcotest.(check int) "script pruned to the paper's 40" 40 (jint "count" before_candidates);
  (* the first service is simply abandoned — as after a crash, nothing
     is closed cleanly; journal appends were flushed per request *)
  let svc2 = crypto_service dir in
  let resumed =
    reply (Service.handle svc2 (open_req ~session:"cs" ~layer:"crypto" ~resume:true ()))
  in
  Alcotest.(check int) "replayed every journaled mutation" 5 (jint "replayed" resumed);
  let after_candidates = reply (Service.handle svc2 (P.Candidates { session = "cs"; max = None })) in
  let after_ranges = reply (Service.handle svc2 (P.Ranges { session = "cs"; merits = None })) in
  Alcotest.(check string) "identical candidate set"
    (P.print_response (P.Reply before_candidates))
    (P.print_response (P.Reply after_candidates));
  Alcotest.(check string) "identical merit ranges"
    (P.print_response (P.Reply before_ranges))
    (P.print_response (P.Reply after_ranges))

let test_replay_ignores_torn_tail () =
  let dir = tmpdir "dse_torn" in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let svc = crypto_service dir in
  ignore (reply (Service.handle svc (open_req ~session:"cs" ~layer:"crypto" ())));
  List.iter (fun req -> ignore (reply (Service.handle svc req))) (crypto_script "cs");
  let sig_before =
    jstr "signature" (reply (Service.handle svc (P.Signature { session = "cs" })))
  in
  (* simulate a crash mid-append: a trailing unterminated fragment *)
  let path = Journal.path ~dir ~id:"cs" in
  let oc = open_out_gen [ Open_append ] 0o644 path in
  output_string oc "{\"req\":{\"op\":\"set\",\"session\":\"cs\",\"na";
  close_out oc;
  let svc2 = crypto_service dir in
  let resumed =
    reply (Service.handle svc2 (open_req ~session:"cs" ~layer:"" ~resume:true ()))
  in
  Alcotest.(check int) "torn line dropped, entries kept" 5 (jint "replayed" resumed);
  Alcotest.(check string) "state matches the acknowledged prefix" sig_before
    (jstr "signature" resumed)

(* The dangerous half of the torn-tail story: resuming must also
   *repair* the file, because the next append would otherwise glue onto
   the fragment and corrupt the journal for every later load. *)
let test_append_after_torn_resume () =
  let dir = tmpdir "dse_torn_append" in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let svc = crypto_service dir in
  ignore (reply (Service.handle svc (open_req ~session:"cs" ~layer:"crypto" ())));
  List.iter (fun req -> ignore (reply (Service.handle svc req))) (crypto_script "cs");
  let path = Journal.path ~dir ~id:"cs" in
  let oc = open_out_gen [ Open_append ] 0o644 path in
  output_string oc "{\"req\":{\"op\":\"set\",\"session\":\"cs\",\"na";
  close_out oc;
  (* resume, then keep working: this append lands where the fragment was *)
  let svc2 = crypto_service dir in
  ignore (reply (Service.handle svc2 (open_req ~session:"cs" ~layer:"" ~resume:true ())));
  ignore
    (reply
       (Service.handle svc2
          (P.Set
             { session = "cs"; name = "Implementation Style"; value = Value.str "hardware";
               decide = true })));
  let sig_live = jstr "signature" (reply (Service.handle svc2 (P.Signature { session = "cs" }))) in
  (* a third service must replay the repaired journal cleanly *)
  let svc3 = crypto_service dir in
  let resumed =
    reply (Service.handle svc3 (open_req ~session:"cs" ~layer:"" ~resume:true ()))
  in
  Alcotest.(check int) "history plus the post-resume append" 6 (jint "replayed" resumed);
  Alcotest.(check string) "journal stayed well-formed" sig_live (jstr "signature" resumed)

(* A restarted server must not hand out (or plainly re-open) an id whose
   journal a previous life left on disk — Journal.create truncates. *)
let test_restart_never_truncates_journals () =
  let dir = tmpdir "dse_restart" in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let svc = crypto_service dir in
  (* auto-generated id: "s1" *)
  let opened = reply (Service.handle svc (open_req ~layer:"crypto" ())) in
  let id = jstr "session" opened in
  Alcotest.(check string) "first auto id" "s1" id;
  List.iter (fun req -> ignore (reply (Service.handle svc req))) (crypto_script id);
  let sig_before = jstr "signature" (reply (Service.handle svc (P.Signature { session = id }))) in
  (* fresh service over the same journal dir, as after a restart *)
  let svc2 = crypto_service dir in
  failed P.Session_exists (Service.handle svc2 (open_req ~session:id ~layer:"crypto" ()));
  let auto = reply (Service.handle svc2 (open_req ~layer:"crypto" ())) in
  Alcotest.(check bool)
    (Printf.sprintf "auto id skips journalled %S (got %S)" id (jstr "session" auto))
    false
    (String.equal id (jstr "session" auto));
  (* branching onto the journalled id is refused too *)
  failed P.Session_exists
    (Service.handle svc2 (P.Branch { session = jstr "session" auto; as_id = Some id }));
  (* ...and through it all the original session stayed resumable *)
  let resumed = reply (Service.handle svc2 (open_req ~session:id ~layer:"" ~resume:true ())) in
  Alcotest.(check string) "history intact" sig_before (jstr "signature" resumed)

let test_replay_detects_divergence () =
  let dir = tmpdir "dse_tamper" in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let svc = crypto_service dir in
  ignore (reply (Service.handle svc (open_req ~session:"cs" ~layer:"crypto" ())));
  List.iter (fun req -> ignore (reply (Service.handle svc req))) (crypto_script "cs");
  (* corrupt one recorded signature: replay must refuse, not hand the
     designer a silently different space *)
  let path = Journal.path ~dir ~id:"cs" in
  let lines =
    In_channel.with_open_text path In_channel.input_all
    |> String.split_on_char '\n'
    |> List.filter (fun l -> String.length l > 0)
  in
  let tampered =
    List.mapi
      (fun i line ->
        if i <> 2 then line
        else
          match J.of_string line with
          | Ok (J.Obj fields) ->
            J.to_string
              (J.Obj
                 (List.map
                    (function
                      | "sig", _ -> ("sig", J.Str "00000000000000000000000000000000")
                      | kv -> kv)
                    fields))
          | _ -> Alcotest.fail "journal entry line is a JSON object")
      lines
  in
  Out_channel.with_open_text path (fun oc ->
      List.iter (fun l -> output_string oc (l ^ "\n")) tampered);
  let svc2 = crypto_service dir in
  match Service.handle svc2 (open_req ~session:"cs" ~layer:"" ~resume:true ()) with
  | P.Failed (P.Journal_error, msg) ->
    Alcotest.(check bool)
      (Printf.sprintf "names the diverging entry: %s" msg)
      true
      (contains msg "diverged at entry 2")
  | P.Failed (code, msg) ->
    Alcotest.failf "wrong failure %s: %s" (P.error_code_label code) msg
  | P.Reply _ -> Alcotest.fail "tampered journal replayed successfully"

let test_branch_journals_independently () =
  let dir = tmpdir "dse_branchj" in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let svc = crypto_service dir in
  ignore (reply (Service.handle svc (open_req ~session:"a" ~layer:"crypto" ())));
  List.iter (fun req -> ignore (reply (Service.handle svc req))) (crypto_script "a");
  ignore (reply (Service.handle svc (P.Branch { session = "a"; as_id = Some "b" })));
  ignore
    (reply
       (Service.handle svc
          (P.Set
             { session = "b"; name = "Implementation Style"; value = Value.str "hardware";
               decide = true })));
  let sig_a = jstr "signature" (reply (Service.handle svc (P.Signature { session = "a" }))) in
  let sig_b = jstr "signature" (reply (Service.handle svc (P.Signature { session = "b" }))) in
  (* both resume independently in a fresh service *)
  let svc2 = crypto_service dir in
  let ra = reply (Service.handle svc2 (open_req ~session:"a" ~layer:"" ~resume:true ())) in
  let rb = reply (Service.handle svc2 (open_req ~session:"b" ~layer:"" ~resume:true ())) in
  Alcotest.(check string) "parent resumed" sig_a (jstr "signature" ra);
  Alcotest.(check string) "branch resumed" sig_b (jstr "signature" rb);
  Alcotest.(check int) "branch replayed parent history + its own" 6 (jint "replayed" rb)

let test_resume_guards () =
  let dir = tmpdir "dse_guards" in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let svc = crypto_service dir in
  failed P.Journal_error
    (Service.handle svc (open_req ~session:"nothere" ~layer:"" ~resume:true ()));
  ignore (reply (Service.handle svc (open_req ~session:"a" ~layer:"crypto" ())));
  (* resuming under the wrong layer name is refused *)
  let svc2 = crypto_service dir in
  failed P.Bad_request
    (Service.handle svc2 (open_req ~session:"a" ~layer:"synthetic" ~resume:true ()));
  (* resume with journaling disabled is refused *)
  let svc3 = service () in
  failed P.Journal_error
    (Service.handle svc3 (open_req ~session:"a" ~layer:"" ~resume:true ()))

let test_candidate_signature () =
  let s0 = syn_session () in
  Alcotest.(check string) "deterministic" (Session.candidate_signature s0)
    (Session.candidate_signature (syn_session ()));
  let s1 = ok (Session.set s0 issue pick) in
  Alcotest.(check bool) "binding changes the signature" false
    (String.equal (Session.candidate_signature s0) (Session.candidate_signature s1));
  let s2 = ok (Session.retract s1 issue) in
  Alcotest.(check string) "retract restores the signature" (Session.candidate_signature s0)
    (Session.candidate_signature s2)

(* ------------------------------------------------------------------ *)
(* Socket end-to-end                                                    *)

let test_socket_end_to_end () =
  let socket =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "dse_test_%d.sock" (Unix.getpid ()))
  in
  let svc = service () in
  let server = Ds_serve.Server.create ~socket ~pool:2 svc in
  let server_thread = Thread.create Ds_serve.Server.serve server in
  Fun.protect ~finally:(fun () ->
      Ds_serve.Server.shutdown server;
      Thread.join server_thread)
  @@ fun () ->
  let client = ok (Ds_serve.Client.connect_retry ~socket ()) in
  let request req = reply (ok (Ds_serve.Client.request client req)) in
  let opened = request (open_req ~session:"e2e" ()) in
  let n0 = jint "candidates" opened in
  let set =
    request (P.Set { session = "e2e"; name = issue; value = pick; decide = true })
  in
  Alcotest.(check bool) "pruned over the wire" true (jint "candidates" set < n0);
  let cands = request (P.Candidates { session = "e2e"; max = None }) in
  Alcotest.(check int) "count matches list" (jint "count" cands)
    (match jmember "candidates" cands with J.List l -> List.length l | _ -> -1);
  (* protocol-level failure crosses the wire as a failure reply *)
  (match ok (Ds_serve.Client.request client (P.Candidates { session = "ghost"; max = None })) with
  | P.Failed (P.Unknown_session, _) -> ()
  | _ -> Alcotest.fail "unknown session over the wire");
  let closed = request (P.Close { session = "e2e" }) in
  Alcotest.(check string) "closed" "e2e" (jstr "closed" closed);
  (* a second concurrent client is served by the pool *)
  let client2 = ok (Ds_serve.Client.connect ~socket ()) in
  let s2 = reply (ok (Ds_serve.Client.request client2 (open_req ()))) in
  Alcotest.(check bool) "second client opened" true (jint "candidates" s2 > 0);
  Ds_serve.Client.close client2;
  Ds_serve.Client.close client;
  Alcotest.(check bool) "socket gone after shutdown" true
    (Ds_serve.Server.shutdown server;
     Thread.join server_thread;
     not (Sys.file_exists socket))

(* ------------------------------------------------------------------ *)
(* Concurrency: per-session locking, striped stats, group commit        *)

(* Alcotest failures raised on a worker thread would just kill that
   thread; workers record findings here and the main thread asserts
   after the join. *)
let collector () =
  let lock = Mutex.create () and errs = ref [] in
  let record msg =
    Mutex.lock lock;
    errs := msg :: !errs;
    Mutex.unlock lock
  in
  (record, fun () -> List.rev !errs)

let check_collected errs =
  match errs () with
  | [] -> ()
  | e :: rest -> Alcotest.failf "%d worker failure(s), first: %s" (List.length rest + 1) e

let count_occurrences hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec scan i acc =
    if i + nn > nh then acc
    else if String.sub hay i nn = needle then scan (i + nn) (acc + 1)
    else scan (i + 1) acc
  in
  if nn = 0 then 0 else scan 0 0

(* Mixed read/mutate soak: four driver threads each own a session and
   loop the oracle's script, four readers hammer those same sessions,
   and everybody annotates one shared session.  Every observable must
   match what one thread alone produced. *)
let test_concurrent_soak () =
  let svc = service () in
  let set_req sid = P.Set { session = sid; name = issue; value = pick; decide = false } in
  let retract_req sid = P.Retract { session = sid; name = issue } in
  (* sequential oracle for one loop iteration *)
  let n_open = jint "candidates" (reply (Service.handle svc (open_req ~session:"oracle" ()))) in
  let oracle_set = reply (Service.handle svc (set_req "oracle")) in
  let n_set = jint "candidates" oracle_set in
  let sig_set = jstr "signature" oracle_set in
  let oracle_back = reply (Service.handle svc (retract_req "oracle")) in
  let sig_open = jstr "signature" oracle_back in
  Alcotest.(check int) "oracle retract restores" n_open (jint "candidates" oracle_back);
  Alcotest.(check bool) "oracle set prunes" true (n_set < n_open);
  let sessions = List.init 4 (Printf.sprintf "soak-%d") in
  List.iter
    (fun sid -> ignore (reply (Service.handle svc (open_req ~session:sid ()))))
    ("shared" :: sessions);
  let record, errs = collector () in
  let expect ctx want req =
    match Service.handle svc req with
    | P.Failed (code, msg) ->
      record (Printf.sprintf "%s failed: %s: %s" ctx (P.error_code_label code) msg)
    | P.Reply payload -> (
      match Option.bind (List.assoc_opt "candidates" payload) J.to_int with
      | Some n when not (List.mem n want) ->
        record (Printf.sprintf "%s: candidates %d not in oracle states" ctx n)
      | _ -> (
        match (Option.bind (List.assoc_opt "signature" payload) J.to_str, want) with
        | Some got, [ n ] ->
          let expected = if n = n_set then sig_set else sig_open in
          if not (String.equal got expected) then
            record (ctx ^ ": signature diverges from the sequential oracle")
        | _ -> ()))
  in
  let iterations = 15 in
  let running = Atomic.make true in
  let driver sid () =
    for i = 1 to iterations do
      let ctx = Printf.sprintf "%s#%d" sid i in
      expect (ctx ^ "/set") [ n_set ] (set_req sid);
      expect (ctx ^ "/candidates") [ n_set ] (P.Candidates { session = sid; max = None });
      expect (ctx ^ "/retract") [ n_open ] (retract_req sid);
      ignore (Service.handle svc (P.Annotate { session = "shared"; text = "n@" ^ ctx }))
    done
  in
  let reader k () =
    let i = ref 0 in
    while Atomic.get running do
      incr i;
      let sid = List.nth sessions ((k + !i) mod 4) in
      (* a reader races the owning driver: either committed state is
         legal, a torn or failed read is not *)
      expect (Printf.sprintf "reader-%d" k) [ n_open; n_set ] (P.Candidates { session = sid; max = None });
      ignore (Service.handle svc (P.Annotate { session = "shared"; text = "n@r" }))
    done
  in
  let drivers = List.map (fun sid -> Thread.create (driver sid) ()) sessions in
  let readers = List.init 4 (fun k -> Thread.create (reader k) ()) in
  List.iter Thread.join drivers;
  Atomic.set running false;
  List.iter Thread.join readers;
  check_collected errs;
  (* concurrent annotates of the shared session all landed *)
  let driver_notes = 4 * iterations in
  let trace = jstr "trace" (reply (Service.handle svc (P.Trace { session = "shared"; spans = false; since = None; max_spans = None }))) in
  Alcotest.(check bool) "no shared annotate lost" true
    (count_occurrences trace "n@" >= driver_notes)

(* Striped per-op stats: concurrent counters must not lose increments
   (the PR 3 single-mutex service counted under the global lock; the
   striped counters have to add up exactly without it). *)
let test_stats_race () =
  let svc = service () in
  ignore (reply (Service.handle svc (open_req ~session:"stats" ())));
  let workers = 6 and per_worker = 50 in
  let record, errs = collector () in
  let hammer _ () =
    for _ = 1 to per_worker do
      match Service.handle svc (P.Candidates { session = "stats"; max = None }) with
      | P.Reply _ -> ()
      | P.Failed (_, msg) -> record ("candidates failed: " ^ msg)
    done
  in
  let threads = List.init workers (fun k -> Thread.create (hammer k) ()) in
  List.iter Thread.join threads;
  check_collected errs;
  let stats = reply (Service.handle svc P.Stats) in
  match jmember "requests" stats with
  | J.Obj ops -> (
    match List.assoc_opt "candidates" ops with
    | Some (J.Obj fields) ->
      Alcotest.(check (option int)) "no increment lost"
        (Some (workers * per_worker))
        (Option.bind (List.assoc_opt "count" fields) J.to_int)
    | _ -> Alcotest.fail "stats.requests.candidates is an object")
  | _ -> Alcotest.fail "stats.requests is an object"

(* The metrics op exposes the telemetry registries over the wire: the
   service registry must carry per-op request histograms whose counts
   match what we actually did, and the prometheus format must render
   the same data as text. *)
let test_metrics_op () =
  let module Obs = Ds_obs.Obs in
  let svc = service () in
  ignore (reply (Service.handle svc (open_req ~session:"m" ())));
  ignore (reply (Service.handle svc (P.Candidates { session = "m"; max = None })));
  ignore (reply (Service.handle svc (P.Candidates { session = "m"; max = None })));
  let m = reply (Service.handle svc (P.Metrics { format = None })) in
  Alcotest.(check int) "sessions" 1 (jint "sessions" m);
  (match jmember "bounds" m with
  | J.List bs ->
    Alcotest.(check int) "bucket bounds shipped" (Array.length Obs.bucket_bounds)
      (List.length bs)
  | _ -> Alcotest.fail "bounds is a list");
  (match jmember "registries" m with
  | J.Obj regs -> (
    Alcotest.(check bool) "engine registry present" true (List.mem_assoc "engine" regs);
    match List.assoc_opt "service" regs with
    | Some (J.Obj svc_reg) -> (
      match List.assoc_opt "histograms" svc_reg with
      | Some (J.Obj hists) -> (
        match List.assoc_opt "dse_request_us{op=\"candidates\"}" hists with
        | Some (J.Obj fields) ->
          Alcotest.(check (option int)) "per-op request count"
            (Some 2)
            (Option.bind (List.assoc_opt "count" fields) J.to_int)
        | _ -> Alcotest.fail "candidates histogram present")
      | _ -> Alcotest.fail "service histograms is an object")
    | _ -> Alcotest.fail "service registry is an object")
  | _ -> Alcotest.fail "registries is an object");
  (* prometheus text exposition of the same registries *)
  let p = reply (Service.handle svc (P.Metrics { format = Some "prometheus" })) in
  Alcotest.(check string) "format echoed" "prometheus" (jstr "format" p);
  let text = jstr "text" p in
  let has needle =
    let nl = String.length needle and tl = String.length text in
    let rec go i = i + nl <= tl && (String.equal (String.sub text i nl) needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "request histogram exported" true
    (has "dse_request_us_count{op=\"candidates\"} 2");
  Alcotest.(check bool) "engine metrics exported" true (has "dse_engine_sweeps_total");
  failed P.Bad_request (Service.handle svc (P.Metrics { format = Some "xml" }))

(* The trace op's spans mode pages the telemetry ring with a
   since-cursor; session-tagged op spans must be retrievable. *)
let test_trace_spans_op () =
  let module Obs = Ds_obs.Obs in
  let was = Obs.enabled () in
  Obs.set_enabled true;
  Fun.protect
    ~finally:(fun () -> Obs.set_enabled was)
    (fun () ->
      let svc = service () in
      let probe =
        reply
          (Service.handle svc
             (P.Trace { session = ""; spans = true; since = Some max_int; max_spans = None }))
      in
      let base = jint "next" probe in
      ignore (reply (Service.handle svc (open_req ~session:"tr" ())));
      ignore (reply (Service.handle svc (P.Candidates { session = "tr"; max = None })));
      let page =
        reply
          (Service.handle svc
             (P.Trace { session = ""; spans = true; since = Some base; max_spans = Some 512 }))
      in
      Alcotest.(check bool) "enabled reported" true
        (match jmember "enabled" page with J.Bool b -> b | _ -> false);
      Alcotest.(check bool) "cursor advanced" true (jint "next" page > base);
      match jmember "spans" page with
      | J.List spans ->
        let names =
          List.filter_map
            (function
              | J.Obj fields -> Option.bind (List.assoc_opt "name" fields) J.to_str
              | _ -> None)
            spans
        in
        Alcotest.(check bool) "op.open span present" true (List.mem "op.open" names);
        Alcotest.(check bool) "op.candidates span present" true
          (List.mem "op.candidates" names)
      | _ -> Alcotest.fail "spans is a list")

(* Eviction racing in-flight requests: a tiny store hammered by opens
   and mutations must only ever answer with structured replies — a
   session yanked mid-flight is an [Unknown_session], never a crash —
   and the service must stay fully functional afterwards. *)
let test_eviction_race () =
  let dir = tmpdir "dse_evict" in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let svc = service ~journal_dir:dir ~capacity:3 () in
  let record, errs = collector () in
  let structured ctx req =
    match Service.handle svc req with
    | P.Reply _ | P.Failed ((P.Unknown_session | P.Session_exists), _) -> ()
    | P.Failed (code, msg) ->
      record (Printf.sprintf "%s: unexpected %s: %s" ctx (P.error_code_label code) msg)
    | exception e -> record (Printf.sprintf "%s: raised %s" ctx (Printexc.to_string e))
  in
  let churn t () =
    for i = 1 to 12 do
      let sid = Printf.sprintf "ev-%d-%d" t i in
      let ctx = sid in
      structured (ctx ^ "/open") (open_req ~session:sid ());
      structured (ctx ^ "/set")
        (P.Set { session = sid; name = issue; value = pick; decide = false });
      structured (ctx ^ "/candidates") (P.Candidates { session = sid; max = None });
      structured (ctx ^ "/retract") (P.Retract { session = sid; name = issue })
    done
  in
  let threads = List.init 8 (fun t -> Thread.create (churn t) ()) in
  List.iter Thread.join threads;
  check_collected errs;
  let stats = reply (Service.handle svc P.Stats) in
  Alcotest.(check bool) "evictions happened" true (jint "evictions" stats > 0);
  (* the survivor of the churn still serves a full session lifecycle *)
  let n = jint "candidates" (reply (Service.handle svc (open_req ~session:"after" ()))) in
  let set =
    reply (Service.handle svc (P.Set { session = "after"; name = issue; value = pick; decide = false }))
  in
  Alcotest.(check bool) "functional after churn" true (jint "candidates" set < n);
  ignore (reply (Service.handle svc (P.Close { session = "after" })))

(* The client's reconnect backoff: deterministic, exponential, jittered
   within [0.75, 1.25) of the nominal delay, and capped. *)
let test_backoff_schedule () =
  let base = 0.02 and cap = 0.5 in
  let sched = Ds_serve.Client.backoff_schedule ~base ~cap ~attempts:10 () in
  Alcotest.(check int) "length" 10 (List.length sched);
  Alcotest.(check bool) "deterministic" true
    (sched = Ds_serve.Client.backoff_schedule ~base ~cap ~attempts:10 ());
  List.iteri
    (fun i d ->
      let nominal = base *. (2.0 ** float_of_int i) in
      let lo = Float.min cap (0.75 *. nominal) and hi = Float.min cap (1.25 *. nominal) in
      Alcotest.(check bool)
        (Printf.sprintf "delay %d within the jitter envelope" i)
        true
        (d >= lo -. 1e-12 && d <= hi +. 1e-12))
    sched;
  (* the tail is capped: by attempt 7 the nominal exponential (1.28s)
     is far past the cap even after maximum downward jitter *)
  List.iteri (fun i d -> if i >= 7 then Alcotest.(check (float 0.0)) "capped" cap d) sched;
  Alcotest.(check int) "empty schedule" 0
    (List.length (Ds_serve.Client.backoff_schedule ~attempts:0 ()))

(* Group commit: concurrent appends all become durable, a sync_to for
   an already-covered sequence rides a past flush (batched), and the
   journal replays completely. *)
let test_group_commit () =
  let dir = tmpdir "dse_gc" in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let j =
    ok
      (Journal.create ~sync:true ~dir
         { Journal.session = "gc"; layer = "synthetic"; eol = 768; base = 0 })
  in
  let record, errs = collector () in
  let workers = 6 and per_worker = 10 in
  let appender t () =
    for i = 1 to per_worker do
      let signature = Printf.sprintf "sig-%d-%d" t i in
      match Journal.append j ~req:(J.Obj [ ("op", J.Str "annotate") ]) ~signature with
      | Error msg -> record ("append failed: " ^ msg)
      | Ok seq -> (
        match Journal.sync_to j seq with
        | Ok () -> ()
        | Error msg -> record ("sync_to failed: " ^ msg))
    done
  in
  let threads = List.init workers (fun t -> Thread.create (appender t) ()) in
  List.iter Thread.join threads;
  check_collected errs;
  (* deterministic batching: sync a late sequence, then ask for an
     earlier one — it is already covered and must not fsync again *)
  let seq_a = ok (Journal.append j ~req:(J.Obj []) ~signature:"sig-tail-a") in
  let seq_b = ok (Journal.append j ~req:(J.Obj []) ~signature:"sig-tail-b") in
  ok (Journal.sync_to j seq_b);
  let stats_before = Journal.sync_stats j in
  ok (Journal.sync_to j seq_a);
  let stats_after = Journal.sync_stats j in
  Alcotest.(check int) "covered sync batched" (stats_before.Journal.batched + 1)
    stats_after.Journal.batched;
  Alcotest.(check int) "no extra fsync" stats_before.Journal.syncs stats_after.Journal.syncs;
  Alcotest.(check bool) "leader fsyncs happened" true (stats_after.Journal.syncs > 0);
  Journal.close j;
  let { Journal.header; entries; _ } = ok (Journal.load ~dir ~id:"gc") in
  Alcotest.(check string) "header survives" "gc" header.Journal.session;
  Alcotest.(check int) "every concurrent append persisted"
    ((workers * per_worker) + 2)
    (List.length entries);
  let signatures = List.map (fun e -> e.Journal.signature) entries in
  List.iter
    (fun t ->
      for i = 1 to per_worker do
        let s = Printf.sprintf "sig-%d-%d" t i in
        Alcotest.(check bool) (s ^ " present") true (List.mem s signatures)
      done)
    (List.init workers Fun.id)

(* ------------------------------------------------------------------ *)
(* Durability: snapshots, compaction, rehydration, fault injection      *)

let jbool k payload =
  match List.assoc_opt k payload with
  | Some (J.Bool b) -> b
  | _ -> Alcotest.failf "reply missing bool field %S" k

let crypto_service_ext ?journal_sync ?capacity ?compact_after dir =
  Service.create
    (Service.config ~journal_dir:dir ?journal_sync ?capacity ?compact_after
       ~default_merits:[ "latency-ns"; "area-um2" ]
       ~layers:Ds_domains.Catalog.factories ())

let crypto_plain () =
  Service.create
    (Service.config ~default_merits:[ "latency-ns"; "area-um2" ]
       ~layers:Ds_domains.Catalog.factories ())

let service_counter svc name =
  let m = reply (Service.handle svc (P.Metrics { format = None })) in
  match jmember "registries" m with
  | J.Obj regs -> (
    match List.assoc_opt "service" regs with
    | Some (J.Obj r) -> (
      match List.assoc_opt "counters" r with
      | Some (J.Obj cs) ->
        Option.value ~default:0 (Option.bind (List.assoc_opt name cs) J.to_int)
      | _ -> 0)
    | _ -> 0)
  | _ -> 0

let read_file path = In_channel.with_open_bin path In_channel.input_all
let write_file path s = Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc s)

(* Tamper with the snapshot's payload so its recorded checksum no
   longer matches — the shape silent on-disk corruption takes. *)
let corrupt_snapshot ~dir ~id =
  let path = Journal.snapshot_path ~dir ~id in
  write_file path (read_file path ^ "corrupted\n")

(* The compaction acceptance bound: after [compact], a resume replays
   the checkpoint script plus at most the entries appended {e after}
   the checkpoint — never the full history — and reconstructs replies
   byte for byte. *)
let test_compact_bounds_replay () =
  let dir = tmpdir "dse_compact" in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let svc = crypto_service dir in
  ignore (reply (Service.handle svc (open_req ~session:"cs" ~layer:"crypto" ~eol:768 ())));
  List.iter (fun req -> ignore (reply (Service.handle svc req))) (crypto_script "cs");
  let before = reply (Service.handle svc (P.Candidates { session = "cs"; max = None })) in
  let compacted = reply (Service.handle svc (P.Compact { session = "cs" })) in
  Alcotest.(check int) "five entries subsumed" 5 (jint "base" compacted);
  Alcotest.(check int) "tail emptied" 0 (jint "tail" compacted);
  Alcotest.(check bool) "snapshot published" true (Journal.snapshot_exists ~dir ~id:"cs");
  (* compaction must not change any observable *)
  let mid = reply (Service.handle svc (P.Candidates { session = "cs"; max = None })) in
  Alcotest.(check string) "compaction is invisible"
    (P.print_response (P.Reply before))
    (P.print_response (P.Reply mid));
  (* a second compact with an empty tail is a no-op, not an error *)
  let again = reply (Service.handle svc (P.Compact { session = "cs" })) in
  Alcotest.(check int) "idempotent base" 5 (jint "base" again);
  (* keep exploring past the checkpoint: exactly two tail entries *)
  ignore
    (reply
       (Service.handle svc
          (P.Set
             { session = "cs"; name = "Implementation Style"; value = Value.str "hardware";
               decide = true })));
  ignore (reply (Service.handle svc (P.Annotate { session = "cs"; text = "post-checkpoint" })));
  let live_candidates = reply (Service.handle svc (P.Candidates { session = "cs"; max = None })) in
  let live_ranges = reply (Service.handle svc (P.Ranges { session = "cs"; merits = None })) in
  (* crash; the fresh service resumes from the checkpoint + tail *)
  let svc2 = crypto_service dir in
  let resumed = reply (Service.handle svc2 (open_req ~session:"cs" ~layer:"" ~resume:true ())) in
  Alcotest.(check bool) "resumed from the snapshot" true (jbool "snapshot" resumed);
  Alcotest.(check int) "replay bounded by the tail length" 2 (jint "tail_replayed" resumed);
  Alcotest.(check bool) "tail is part of the total" true
    (jint "tail_replayed" resumed <= jint "replayed" resumed);
  let after_candidates = reply (Service.handle svc2 (P.Candidates { session = "cs"; max = None })) in
  let after_ranges = reply (Service.handle svc2 (P.Ranges { session = "cs"; merits = None })) in
  Alcotest.(check string) "identical candidate set"
    (P.print_response (P.Reply live_candidates))
    (P.print_response (P.Reply after_candidates));
  Alcotest.(check string) "identical merit ranges"
    (P.print_response (P.Reply live_ranges))
    (P.print_response (P.Reply after_ranges))

let test_auto_compaction () =
  let dir = tmpdir "dse_autocompact" in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let svc = crypto_service_ext ~compact_after:4 dir in
  ignore (reply (Service.handle svc (open_req ~session:"cs" ~layer:"crypto" ~eol:768 ())));
  List.iter (fun req -> ignore (reply (Service.handle svc req))) (crypto_script "cs");
  (* the threshold fired inside mutation #4; entry #5 started a new tail *)
  Alcotest.(check bool) "auto-compaction happened" true
    (service_counter svc "dse_compactions_total" >= 1);
  Alcotest.(check bool) "snapshot on disk" true (Journal.snapshot_exists ~dir ~id:"cs");
  let sig_live = jstr "signature" (reply (Service.handle svc (P.Signature { session = "cs" }))) in
  let svc2 = crypto_service dir in
  let resumed = reply (Service.handle svc2 (open_req ~session:"cs" ~layer:"" ~resume:true ())) in
  Alcotest.(check bool) "snapshot fast path" true (jbool "snapshot" resumed);
  Alcotest.(check int) "only the post-threshold tail replayed" 1 (jint "tail_replayed" resumed);
  Alcotest.(check string) "state preserved" sig_live (jstr "signature" resumed);
  (* the same script as one batch: the threshold check runs once, after
     the batch's last step, so the checkpoint covers every entry *)
  let dir_b = tmpdir "dse_autocompact_batch" in
  Fun.protect ~finally:(fun () -> rm_rf dir_b) @@ fun () ->
  let svc_b = crypto_service_ext ~compact_after:4 dir_b in
  ignore (reply (Service.handle svc_b (open_req ~session:"cs" ~layer:"crypto" ~eol:768 ())));
  let batch = reply (Service.handle svc_b (ok (P.batch_of_requests (crypto_script "cs")))) in
  if List.mem_assoc "batch_aborted_at" batch then Alcotest.fail "the crypto script batch aborted";
  Alcotest.(check int) "the batch compacted once" 1
    (service_counter svc_b "dse_compactions_total");
  Alcotest.(check bool) "batch snapshot on disk" true (Journal.snapshot_exists ~dir:dir_b ~id:"cs");
  let sig_batch =
    jstr "signature" (reply (Service.handle svc_b (P.Signature { session = "cs" })))
  in
  Alcotest.(check string) "batch and sequential runs agree" sig_live sig_batch;
  let resumed_b =
    reply (Service.handle (crypto_service dir_b) (open_req ~session:"cs" ~layer:"" ~resume:true ()))
  in
  Alcotest.(check bool) "batch snapshot fast path" true (jbool "snapshot" resumed_b);
  Alcotest.(check int) "no tail past the batch checkpoint" 0 (jint "tail_replayed" resumed_b);
  Alcotest.(check string) "batch state preserved" sig_batch (jstr "signature" resumed_b)

(* Crash between publishing the snapshot and truncating the journal:
   both lineages are on disk (full history AND a checkpoint subsuming
   it).  Either path must reconstruct the same session. *)
let test_crash_between_snapshot_and_truncate () =
  let dir = tmpdir "dse_snapcrash" in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let svc = crypto_service dir in
  ignore (reply (Service.handle svc (open_req ~session:"cs" ~layer:"crypto" ~eol:768 ())));
  List.iter (fun req -> ignore (reply (Service.handle svc req))) (crypto_script "cs");
  let sig_live = jstr "signature" (reply (Service.handle svc (P.Signature { session = "cs" }))) in
  let journal_path = Journal.path ~dir ~id:"cs" in
  let pre_compact = read_file journal_path in
  ignore (reply (Service.handle svc (P.Compact { session = "cs" })));
  (* simulate the crash: the snapshot rename completed, the journal
     rewrite did not — restore the full-history journal file *)
  write_file journal_path pre_compact;
  let svc2 = crypto_service dir in
  let resumed = reply (Service.handle svc2 (open_req ~session:"cs" ~layer:"" ~resume:true ())) in
  Alcotest.(check bool) "snapshot still usable" true (jbool "snapshot" resumed);
  Alcotest.(check int) "nothing past the checkpoint to replay" 0 (jint "tail_replayed" resumed);
  Alcotest.(check string) "state preserved" sig_live (jstr "signature" resumed);
  (* the soak oracle ignores the snapshot whenever full history is
     available — and must land on the same state *)
  let info =
    ok
      (Service.resume ~prefer_snapshot:false ~layers:Ds_domains.Catalog.factories ~dir
         ~id:"cs" ())
  in
  Alcotest.(check bool) "oracle replayed history" false info.Service.r_from_snapshot;
  Alcotest.(check int) "oracle replayed everything" 5 info.Service.r_replayed;
  Alcotest.(check string) "oracle agrees" sig_live
    (Session.candidate_signature info.Service.r_session)

(* A snapshot that fails its checksum while the journal still holds the
   full history (base 0) falls back to full replay; once the history
   has been truncated (base > 0) the same corruption is a hard error —
   loud, never silently different. *)
let test_checksum_mismatch_falls_back () =
  let dir = tmpdir "dse_cksum" in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let svc = crypto_service dir in
  ignore (reply (Service.handle svc (open_req ~session:"cs" ~layer:"crypto" ~eol:768 ())));
  List.iter (fun req -> ignore (reply (Service.handle svc req))) (crypto_script "cs");
  let sig_live = jstr "signature" (reply (Service.handle svc (P.Signature { session = "cs" }))) in
  let journal_path = Journal.path ~dir ~id:"cs" in
  let pre_compact = read_file journal_path in
  ignore (reply (Service.handle svc (P.Compact { session = "cs" })));
  write_file journal_path pre_compact;
  corrupt_snapshot ~dir ~id:"cs";
  let svc2 = crypto_service dir in
  let resumed = reply (Service.handle svc2 (open_req ~session:"cs" ~layer:"" ~resume:true ())) in
  Alcotest.(check bool) "snapshot rejected" false (jbool "snapshot" resumed);
  Alcotest.(check int) "full history replayed" 5 (jint "replayed" resumed);
  Alcotest.(check string) "state preserved" sig_live (jstr "signature" resumed);
  Alcotest.(check bool) "fallback counted" true
    (service_counter svc2 "dse_resume_fallback_total" >= 1)

let test_checksum_mismatch_after_truncation_is_fatal () =
  let dir = tmpdir "dse_cksum_fatal" in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let svc = crypto_service dir in
  ignore (reply (Service.handle svc (open_req ~session:"cs" ~layer:"crypto" ~eol:768 ())));
  List.iter (fun req -> ignore (reply (Service.handle svc req))) (crypto_script "cs");
  ignore (reply (Service.handle svc (P.Compact { session = "cs" })));
  corrupt_snapshot ~dir ~id:"cs";
  let svc2 = crypto_service dir in
  failed P.Journal_error
    (Service.handle svc2 (open_req ~session:"cs" ~layer:"" ~resume:true ()))

(* Evict, then touch: the rehydrated session must answer candidates and
   ranges byte-identically to what it answered while resident. *)
let test_rehydration_bit_identical () =
  let dir = tmpdir "dse_rehydrate" in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let svc = service ~journal_dir:dir ~capacity:2 () in
  ignore (reply (Service.handle svc (open_req ~session:"a" ())));
  ignore
    (reply
       (Service.handle svc (P.Set { session = "a"; name = issue; value = pick; decide = false })));
  let live_candidates = reply (Service.handle svc (P.Candidates { session = "a"; max = None })) in
  let live_ranges = reply (Service.handle svc (P.Ranges { session = "a"; merits = None })) in
  (* push "a" out; eviction also compacts its journal to a checkpoint *)
  ignore (reply (Service.handle svc (open_req ~session:"b" ())));
  ignore (reply (Service.handle svc (open_req ~session:"c" ())));
  Alcotest.(check bool) "eviction compacted the journal" true
    (Journal.snapshot_exists ~dir ~id:"a");
  let back_candidates = reply (Service.handle svc (P.Candidates { session = "a"; max = None })) in
  let back_ranges = reply (Service.handle svc (P.Ranges { session = "a"; merits = None })) in
  Alcotest.(check string) "candidates bit-identical after rehydration"
    (P.print_response (P.Reply live_candidates))
    (P.print_response (P.Reply back_candidates));
  Alcotest.(check string) "ranges bit-identical after rehydration"
    (P.print_response (P.Reply live_ranges))
    (P.print_response (P.Reply back_ranges));
  Alcotest.(check bool) "rehydration counted" true
    (service_counter svc "dse_rehydrations_total" >= 1)

let test_iofault_plans () =
  (match Iofault.parse_plan "fsync=eio,write=short:0.25" with
  | Ok plan -> Alcotest.(check int) "two items" 2 (List.length plan)
  | Error e -> Alcotest.failf "plan should parse: %s" e);
  List.iter
    (fun spec ->
      match Iofault.parse_plan spec with
      | Ok _ -> Alcotest.failf "%S should not parse" spec
      | Error _ -> ())
    [ "write=torn"; "fsync=short"; "write=eio:1.5"; "write=eio:-0.1"; "bogus"; "=eio"; "write=" ];
  Alcotest.(check bool) "disarmed by default" false (Iofault.armed ());
  let dir = tmpdir "dse_iofault" in
  Fun.protect
    ~finally:(fun () ->
      Iofault.disarm ();
      rm_rf dir)
  @@ fun () ->
  let fd = Unix.openfile (Filename.concat dir "probe") [ Unix.O_WRONLY; Unix.O_CREAT ] 0o644 in
  Fun.protect ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ()) @@ fun () ->
  Iofault.arm ~seed:1 [ (Iofault.Write, Iofault.Enospc, 1.0) ];
  Alcotest.(check bool) "armed" true (Iofault.armed ());
  (match Iofault.write fd (Bytes.of_string "x") 0 1 with
  | _ -> Alcotest.fail "armed write must fail"
  | exception Unix.Unix_error (Unix.ENOSPC, fn, _) ->
    Alcotest.(check string) "function names the injection" "inject:write" fn);
  Alcotest.(check int) "counted" 1 (Iofault.injected_for Iofault.Write);
  Alcotest.(check int) "total counted" 1 (Iofault.injected ());
  Iofault.disarm ();
  Alcotest.(check int) "clean write after disarm" 1 (Iofault.write fd (Bytes.of_string "x") 0 1)

(* A short write tears the entry mid-line; the append must fail, repair
   the file back to the last complete line, and leave the journal fully
   usable for both later appends and replay. *)
let test_fault_short_write_repaired () =
  let dir = tmpdir "dse_short" in
  Fun.protect
    ~finally:(fun () ->
      Iofault.disarm ();
      rm_rf dir)
  @@ fun () ->
  let j =
    ok (Journal.create ~dir { Journal.session = "sw"; layer = "synthetic"; eol = 768; base = 0 })
  in
  ignore (ok (Journal.append j ~req:(J.Obj [ ("op", J.Str "annotate") ]) ~signature:"sig-1"));
  Iofault.arm ~seed:3 [ (Iofault.Write, Iofault.Short_write, 1.0) ];
  (match Journal.append j ~req:(J.Obj [ ("op", J.Str "annotate") ]) ~signature:"sig-torn" with
  | Ok _ -> Alcotest.fail "short write must fail the append"
  | Error _ -> ());
  Iofault.disarm ();
  ignore (ok (Journal.append j ~req:(J.Obj [ ("op", J.Str "annotate") ]) ~signature:"sig-2"));
  Journal.close j;
  let { Journal.entries; _ } = ok (Journal.load ~dir ~id:"sw") in
  Alcotest.(check (list string)) "torn entry repaired away" [ "sig-1"; "sig-2" ]
    (List.map (fun e -> e.Journal.signature) entries)

(* The PR 4 contract end to end with an injected fault: a failed fsync
   evicts the session (durability unknown), and the next touch
   rehydrates exactly what reached disk — which includes the mutation
   whose fsync failed, because the append preceded it. *)
let test_fault_fsync_evicts_then_recovers () =
  let dir = tmpdir "dse_fsync" in
  Fun.protect
    ~finally:(fun () ->
      Iofault.disarm ();
      rm_rf dir)
  @@ fun () ->
  let set1 =
    P.Set { session = "cs"; name = "Operator Family"; value = Value.str "modular"; decide = true }
  in
  let set2 =
    P.Set
      { session = "cs"; name = "Modular Operator"; value = Value.str "multiplier"; decide = true }
  in
  (* sequential no-fault oracle for the expected final state *)
  let oracle = crypto_plain () in
  ignore (reply (Service.handle oracle (open_req ~session:"cs" ~layer:"crypto" ~eol:768 ())));
  ignore (reply (Service.handle oracle set1));
  ignore (reply (Service.handle oracle set2));
  let sig_oracle =
    jstr "signature" (reply (Service.handle oracle (P.Signature { session = "cs" })))
  in
  let svc = crypto_service_ext ~journal_sync:true dir in
  ignore (reply (Service.handle svc (open_req ~session:"cs" ~layer:"crypto" ~eol:768 ())));
  ignore (reply (Service.handle svc set1));
  Iofault.arm ~seed:11 [ (Iofault.Fsync, Iofault.Eio, 1.0) ];
  (match Service.handle svc set2 with
  | P.Failed (P.Journal_error, msg) ->
    Alcotest.(check bool)
      (Printf.sprintf "explains the durability gap: %s" msg)
      true
      (contains msg "durability unknown")
  | P.Failed (code, msg) -> Alcotest.failf "wrong failure %s: %s" (P.error_code_label code) msg
  | P.Reply _ -> Alcotest.fail "fsync fault must fail the mutation");
  Alcotest.(check bool) "fault was injected" true (Iofault.injected_for Iofault.Fsync >= 1);
  Iofault.disarm ();
  (* the session was evicted; the next touch rehydrates from the journal *)
  let back = reply (Service.handle svc (P.Signature { session = "cs" })) in
  Alcotest.(check string) "recovered state includes the journaled mutation" sig_oracle
    (jstr "signature" back)

(* A torn rename kills the snapshot publish: compaction reports the
   failure, the journal is untouched, and the session remains fully
   usable live and resumable after a crash. *)
let test_fault_torn_rename_aborts_compaction () =
  let dir = tmpdir "dse_torn_rename" in
  Fun.protect
    ~finally:(fun () ->
      Iofault.disarm ();
      rm_rf dir)
  @@ fun () ->
  let svc = crypto_service dir in
  ignore (reply (Service.handle svc (open_req ~session:"cs" ~layer:"crypto" ~eol:768 ())));
  List.iter (fun req -> ignore (reply (Service.handle svc req))) (crypto_script "cs");
  let sig_live = jstr "signature" (reply (Service.handle svc (P.Signature { session = "cs" }))) in
  Iofault.arm ~seed:5 [ (Iofault.Rename, Iofault.Torn_rename, 1.0) ];
  failed P.Journal_error (Service.handle svc (P.Compact { session = "cs" }));
  Iofault.disarm ();
  Alcotest.(check bool) "no snapshot published" false (Journal.snapshot_exists ~dir ~id:"cs");
  (* still fully usable live... *)
  Alcotest.(check string) "session unharmed" sig_live
    (jstr "signature" (reply (Service.handle svc (P.Signature { session = "cs" }))));
  (* ...and the untouched journal still resumes *)
  let svc2 = crypto_service dir in
  let resumed = reply (Service.handle svc2 (open_req ~session:"cs" ~layer:"" ~resume:true ())) in
  Alcotest.(check int) "full history intact" 5 (jint "replayed" resumed);
  Alcotest.(check string) "state preserved" sig_live (jstr "signature" resumed)

(* ------------------------------------------------------------------ *)
(* Satellites: bounded request lines, client retry deadline             *)

let test_request_too_large () =
  let socket =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "dse_big_%d.sock" (Unix.getpid ()))
  in
  let svc = service () in
  let server = Ds_serve.Server.create ~socket ~pool:1 ~max_request:1024 svc in
  let server_thread = Thread.create Ds_serve.Server.serve server in
  Fun.protect
    ~finally:(fun () ->
      Ds_serve.Server.shutdown server;
      Thread.join server_thread)
  @@ fun () ->
  let client = ok (Ds_serve.Client.connect_retry ~socket ()) in
  Fun.protect ~finally:(fun () -> Ds_serve.Client.close client) @@ fun () ->
  let line = ok (Ds_serve.Client.request_line client (String.make 5000 'x')) in
  (match P.response_of_string line with
  | Ok (P.Failed (P.Request_too_large, msg)) ->
    Alcotest.(check bool)
      (Printf.sprintf "names the limit: %s" msg)
      true (contains msg "1024")
  | Ok _ -> Alcotest.fail "oversized line must get request_too_large"
  | Error e -> Alcotest.failf "reply unparseable: %s" e);
  (* the connection survived: a normal request still works on it *)
  let opened = reply (ok (Ds_serve.Client.request client (open_req ~session:"ok" ()))) in
  Alcotest.(check bool) "connection still alive" true (jint "candidates" opened > 0)

let test_client_deadline_fails_fast () =
  let socket =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "dse_nosrv_%d.sock" (Unix.getpid ()))
  in
  let t0 = Unix.gettimeofday () in
  (match Ds_serve.Client.connect_retry ~deadline:0.05 ~base:0.01 ~socket () with
  | Ok _ -> Alcotest.fail "no server: connect must fail"
  | Error msg ->
    Alcotest.(check bool)
      (Printf.sprintf "distinct fail-fast error: %s" msg)
      true
      (Ds_serve.Client.deadline_exceeded msg));
  let elapsed = Unix.gettimeofday () -. t0 in
  Alcotest.(check bool)
    (Printf.sprintf "budget respected (%.3fs)" elapsed)
    true (elapsed < 2.0);
  Alcotest.(check bool) "other errors are not deadline errors" false
    (Ds_serve.Client.deadline_exceeded "connection refused")

(* ------------------------------------------------------------------ *)

(* ------------------------------------------------------------------ *)
(* Fleet-facing surface: healthz + retryable codes, candidate paging,
   idle reaping, durable reconnect across a server restart             *)

let test_healthz_and_retryable_codes () =
  (* codec round-trips for the ops the fleet router leans on *)
  let roundtrip req =
    match P.parse_request (J.to_string (P.json_of_request req)) with
    | Ok r -> Alcotest.(check bool) "request survives the codec" true (r = req)
    | Error (_, msg) -> Alcotest.failf "roundtrip failed: %s" msg
  in
  roundtrip P.Healthz;
  roundtrip (P.Candidates { session = "s"; max = Some 7 });
  roundtrip (P.Candidates { session = "s"; max = None });
  (* the retryable split: unavailability while a worker restarts is
     retryable; a caller mistake is not *)
  let code label =
    match P.error_code_of_label label with
    | Some c -> c
    | None -> Alcotest.failf "unknown error label %S" label
  in
  Alcotest.(check bool) "session_unavailable retryable" true
    (P.retryable (code "session_unavailable"));
  Alcotest.(check bool) "shutting_down retryable" true (P.retryable (code "shutting_down"));
  Alcotest.(check bool) "bad_request not retryable" false (P.retryable (code "bad_request"));
  Alcotest.(check bool) "unknown_session not retryable" false
    (P.retryable (code "unknown_session"));
  List.iter
    (fun l -> Alcotest.(check string) "label inverse" l (P.error_code_label (code l)))
    [ "session_unavailable"; "shutting_down"; "bad_request" ];
  (* a session_unavailable failure crosses the wire with its code *)
  let line = P.print_response (P.Failed (code "session_unavailable", "w0 is restarting")) in
  (match P.response_of_string line with
  | Ok (P.Failed (c, _)) ->
    Alcotest.(check string) "code survives" "session_unavailable" (P.error_code_label c)
  | _ -> Alcotest.failf "failure did not round-trip: %s" line);
  (* healthz is liveness only *)
  let svc = service () in
  let h = reply (Service.handle svc P.Healthz) in
  Alcotest.(check string) "status ok" "ok" (jstr "status" h);
  Alcotest.(check int) "no sessions yet" 0 (jint "sessions" h)

let test_candidates_max_page () =
  let svc = service () in
  let full = jint "candidates" (reply (Service.handle svc (open_req ~session:"pg" ()))) in
  Alcotest.(check bool) "population is big enough to page" true (full > 3);
  let page max = reply (Service.handle svc (P.Candidates { session = "pg"; max })) in
  let ids p = match jmember "candidates" p with J.List l -> List.length l | _ -> -1 in
  (* [max] bounds the id page, never the count *)
  let p2 = page (Some 2) in
  Alcotest.(check int) "count is the full survivor count" full (jint "count" p2);
  Alcotest.(check int) "page is capped" 2 (ids p2);
  let p0 = page (Some 0) in
  Alcotest.(check int) "empty page still counts" full (jint "count" p0);
  Alcotest.(check int) "max 0 ships no ids" 0 (ids p0);
  let pbig = page (Some (full + 100)) in
  Alcotest.(check int) "oversized max ships everything" full (ids pbig);
  Alcotest.(check int) "no max ships everything" full (ids (page None))

(* The candidates reply rendered exactly as the service rendered it when
   it materialized [Session.candidates] and filtered the page from the
   list; the paged read must reproduce it byte for byte, for every kind
   of [max] (absent, zero, short, exact, oversized, negative). *)
let list_rendering ~sid s max =
  let cands = Session.candidates s in
  let count = List.length cands in
  let page =
    match max with
    | Some m when m >= 0 && m < count -> List.filteri (fun i _ -> i < m) cands
    | _ -> cands
  in
  P.print_response
    (P.Reply
       [
         ("session", J.Str sid);
         ("count", J.Int count);
         ("candidates", J.List (List.map (fun (qid, _) -> J.Str qid) page));
       ])

let test_candidates_reply_rendering () =
  let svc = service () in
  List.iter
    (fun (layer, bindings) ->
      let sid = "render-" ^ layer in
      ignore (reply (Service.handle svc (open_req ~session:sid ~layer ())));
      let oracle = ref ((List.assoc layer Ds_domains.Catalog.factories) ~eol:768) in
      let check_state label =
        let count = Session.candidate_count !oracle in
        List.iter
          (fun max ->
            Alcotest.(check string)
              (Printf.sprintf "%s %s max=%s" layer label
                 (match max with Some m -> string_of_int m | None -> "none"))
              (list_rendering ~sid !oracle max)
              (P.print_response (Service.handle svc (P.Candidates { session = sid; max }))))
          [ None; Some 0; Some 1; Some 16; Some count; Some (count + 1); Some (-1) ]
      in
      check_state "fresh";
      List.iter
        (fun (name, value) ->
          ignore
            (reply
               (Service.handle svc (P.Set { session = sid; name; value; decide = false })));
          oracle := ok (Session.set !oracle name value);
          check_state name)
        bindings)
    [
      ( "idct",
        [
          ("Word Size", Value.int 16);
          ("Precision", Value.int 12);
          (Ds_domains.Idct_layer.technology_issue, Value.str "0.35u");
        ] );
      ("synthetic", [ (issue, pick) ]);
    ]

(* Journal descriptors are close-on-exec: a service that spawns a child
   must not leak one descriptor per resident session into it.  The fd
   is found through /proc, by the file it points at. *)
let test_journal_cloexec () =
  if Sys.file_exists "/proc/self/fdinfo" then begin
    let dir = tmpdir "dse_cloexec" in
    Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
    let header = { Journal.session = "cx"; layer = "synthetic"; eol = 768; base = 0 } in
    let file = Journal.path ~dir ~id:"cx" in
    let check label =
      let target = Unix.realpath file in
      let fds =
        Sys.readdir "/proc/self/fd" |> Array.to_list
        |> List.filter (fun fd ->
               match Unix.readlink (Filename.concat "/proc/self/fd" fd) with
               | link -> String.equal link target
               | exception Unix.Unix_error _ -> false)
      in
      Alcotest.(check bool) (label ^ ": journal fd found") true (fds <> []);
      List.iter
        (fun fd ->
          let flags =
            In_channel.with_open_text (Filename.concat "/proc/self/fdinfo" fd) In_channel.input_all
            |> String.split_on_char '\n'
            |> List.find_map (fun line ->
                   match String.split_on_char ':' line with
                   | [ "flags"; v ] -> int_of_string_opt ("0o" ^ String.trim v)
                   | _ -> None)
          in
          match flags with
          | Some f ->
            Alcotest.(check bool) (label ^ ": O_CLOEXEC set") true (f land 0o2000000 <> 0)
          | None -> Alcotest.failf "%s: no flags line for fd %s" label fd)
        fds
    in
    let j = ok (Journal.create ~dir header) in
    check "create";
    Journal.close j;
    let j = ok (Journal.open_append ~dir ~id:"cx" ()) in
    check "open_append";
    Journal.close j
  end

(* A child spawned while a connection is open must not inherit the
   connection: the fleet supervisor restarts workers from the process
   that serves HTTP (and routes), and an inherited copy of a served
   socket keeps the client from ever seeing EOF. *)
let test_sockets_close_on_exec () =
  let gate = Mutex.create () and opened = Condition.create () in
  let entered = ref false and release = ref false in
  let routes _ =
    Mutex.lock gate;
    entered := true;
    Condition.broadcast opened;
    while not !release do
      Condition.wait opened gate
    done;
    Mutex.unlock gate;
    Some (Ds_serve.Httpd.ok ~content_type:"text/plain" "held\n")
  in
  let h =
    match Ds_serve.Httpd.start ~addr:("127.0.0.1", 0) ~routes () with
    | Ok h -> h
    | Error msg -> Alcotest.failf "httpd did not start: %s" msg
  in
  Fun.protect ~finally:(fun () -> Ds_serve.Httpd.stop h) @@ fun () ->
  let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect ~finally:(fun () -> Unix.close fd) @@ fun () ->
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, Ds_serve.Httpd.port h));
  let req = "GET /hold HTTP/1.1\r\n\r\n" in
  ignore (Unix.write_substring fd req 0 (String.length req));
  Mutex.lock gate;
  while not !entered do
    Condition.wait opened gate
  done;
  Mutex.unlock gate;
  (* the served connection is open in the handler right now *)
  let child = Unix.create_process "sleep" [| "sleep"; "5" |] Unix.stdin Unix.stdout Unix.stderr in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.kill child Sys.sigkill with Unix.Unix_error _ -> ());
      ignore (Unix.waitpid [] child))
  @@ fun () ->
  Mutex.lock gate;
  release := true;
  Condition.broadcast opened;
  Mutex.unlock gate;
  let t0 = Unix.gettimeofday () in
  let chunk = Bytes.create 4096 in
  let rec drain () =
    match Unix.select [ fd ] [] [] (Float.max 0.0 (t0 +. 2.0 -. Unix.gettimeofday ())) with
    | [], _, _ -> Alcotest.fail "no EOF while a spawned child is alive: served socket leaked"
    | _ -> if Unix.read fd chunk 0 (Bytes.length chunk) > 0 then drain ()
  in
  drain ()

let test_idle_reap () =
  (* a silent client is reaped after [idle_timeout] and the reap is
     counted — leaked clients cannot pin pool threads forever *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let socket =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "dse_idle_%d.sock" (Unix.getpid ()))
  in
  let svc = service () in
  let server = Ds_serve.Server.create ~socket ~pool:2 ~idle_timeout:0.25 svc in
  let server_thread = Thread.create Ds_serve.Server.serve server in
  Fun.protect ~finally:(fun () ->
      Ds_serve.Server.shutdown server;
      Thread.join server_thread)
  @@ fun () ->
  let client = ok (Ds_serve.Client.connect_retry ~socket ()) in
  ignore (reply (ok (Ds_serve.Client.request client (open_req ~session:"idle" ()))));
  (* go silent past the timeout; the server closes the connection from
     its side, which surfaces here as a transport error *)
  let deadline = Unix.gettimeofday () +. 10.0 in
  let rec await_reap () =
    if service_counter svc "dse_serve_idle_reaped_total" >= 1 then ()
    else if Unix.gettimeofday () > deadline then
      Alcotest.fail "idle connection was never reaped"
    else begin
      Thread.delay 0.1;
      await_reap ()
    end
  in
  await_reap ();
  (match Ds_serve.Client.request client (P.Stats) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "request on a reaped connection should fail");
  Ds_serve.Client.close client;
  (* the service itself is unharmed: a fresh client still works *)
  let c2 = ok (Ds_serve.Client.connect ~socket ()) in
  ignore (reply (ok (Ds_serve.Client.request c2 (P.Signature { session = "idle" }))));
  Ds_serve.Client.close c2

let test_durable_reconnect_across_restart () =
  (* Durable keeps one connection and transparently reconnects when the
     server bounces; the reconnect is visible in its stats *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let socket =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "dse_dur_%d.sock" (Unix.getpid ()))
  in
  let svc = service () in
  let serve () =
    let server = Ds_serve.Server.create ~socket ~pool:2 svc in
    let th = Thread.create Ds_serve.Server.serve server in
    (server, th)
  in
  let server1, th1 = serve () in
  let d = Ds_serve.Client.Durable.create ~socket () in
  Fun.protect ~finally:(fun () -> Ds_serve.Client.Durable.close d) @@ fun () ->
  ignore (reply (ok (Ds_serve.Client.Durable.request d (open_req ~session:"dur" ()))));
  let sig0 = jstr "signature" (reply (ok (Ds_serve.Client.Durable.request d (P.Signature { session = "dur" })))) in
  Alcotest.(check int) "no reconnect yet" 0 (Ds_serve.Client.Durable.reconnects d);
  (* bounce the server (same in-process service, so the session
     survives); the durable client must resend and succeed *)
  Ds_serve.Server.shutdown server1;
  Thread.join th1;
  let server2, th2 = serve () in
  Fun.protect ~finally:(fun () ->
      Ds_serve.Server.shutdown server2;
      Thread.join th2)
  @@ fun () ->
  let sig1 = jstr "signature" (reply (ok (Ds_serve.Client.Durable.request d (P.Signature { session = "dur" })))) in
  Alcotest.(check string) "same session state across the bounce" sig0 sig1;
  Alcotest.(check int) "exactly one reconnect" 1 (Ds_serve.Client.Durable.reconnects d);
  Alcotest.(check bool) "the retry is counted" true (Ds_serve.Client.Durable.retried d >= 1);
  match Ds_serve.Client.Durable.stats_json d with
  | J.Obj fields ->
    List.iter
      (fun k ->
        if List.assoc_opt k fields = None then Alcotest.failf "stats_json missing %S" k)
      [ "requests"; "reconnects"; "retried" ]
  | _ -> Alcotest.fail "stats_json is not an object"

(* ------------------------------------------------------------------ *)
(* Batched ops, pipelined connections, bounded reply reads              *)

let test_batch_codec () =
  let sub =
    [
      P.Set { session = "b"; name = issue; value = pick; decide = false };
      P.Candidates { session = "b"; max = Some 4 };
      P.Retract { session = "b"; name = issue };
    ]
  in
  let batch = ok (P.batch_of_requests sub) in
  (match P.parse_request (J.to_string (P.json_of_request batch)) with
  | Ok r -> Alcotest.(check bool) "batch survives the codec" true (r = batch)
  | Error (_, msg) -> Alcotest.failf "batch roundtrip failed: %s" msg);
  (* a sub-request may omit its session: inherited from the envelope *)
  (match
     P.parse_request
       {|{"op":"batch","session":"b","reqs":[{"op":"candidates"},{"op":"signature"}]}|}
   with
  | Ok
      (P.Batch
        {
          session = "b";
          reqs = [ P.Candidates { session = "b"; max = None }; P.Signature { session = "b" } ];
        }) ->
    ()
  | Ok _ -> Alcotest.fail "inherited session decoded to something else"
  | Error (_, msg) -> Alcotest.failf "inherited session refused: %s" msg);
  (* assembly validation: empty, mixed sessions, lifecycle ops, nesting *)
  let refused = function Error _ -> () | Ok _ -> Alcotest.fail "invalid batch accepted" in
  refused (P.batch_of_requests []);
  refused
    (P.batch_of_requests
       [ P.Candidates { session = "a"; max = None }; P.Candidates { session = "b"; max = None } ]);
  refused (P.batch_of_requests [ open_req ~session:"a" () ]);
  refused (P.batch_of_requests [ P.Close { session = "a" } ]);
  refused (P.batch_of_requests [ batch ]);
  (* and the wire decoder enforces the same rules *)
  List.iter
    (fun line ->
      match P.parse_request line with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "invalid batch line accepted: %s" line)
    [
      {|{"op":"batch","session":"a","reqs":[]}|};
      {|{"op":"batch","session":"a","reqs":[{"op":"stats"}]}|};
      {|{"op":"batch","session":"a","reqs":[{"op":"candidates","session":"zzz"}]}|};
      {|{"op":"batch","session":"a","reqs":[{"op":"batch","reqs":[{"op":"candidates"}]}]}|};
    ]

(* The batch differential: the same mix as one batch and as a sequential
   op run must produce byte-identical sub-replies, identical live state,
   byte-identical journals, and identical resume-from-journal results. *)
let test_batch_vs_sequential () =
  let dir_seq = tmpdir "dse_bseq" and dir_bat = tmpdir "dse_bbat" in
  Fun.protect
    ~finally:(fun () ->
      rm_rf dir_seq;
      rm_rf dir_bat)
  @@ fun () ->
  let mix =
    crypto_script "cs"
    @ [ P.Candidates { session = "cs"; max = Some 4 }; P.Signature { session = "cs" } ]
  in
  let svc_seq = crypto_service dir_seq in
  ignore (reply (Service.handle svc_seq (open_req ~session:"cs" ~layer:"crypto" ~eol:768 ())));
  let seq_replies = List.map (Service.handle svc_seq) mix in
  let svc_bat = crypto_service dir_bat in
  ignore (reply (Service.handle svc_bat (open_req ~session:"cs" ~layer:"crypto" ~eol:768 ())));
  let batch_reply = reply (Service.handle svc_bat (ok (P.batch_of_requests mix))) in
  (match jmember "results" batch_reply with
  | J.List results ->
    Alcotest.(check int) "one result per sub-request" (List.length mix) (List.length results);
    List.iteri
      (fun i (want, got) ->
        Alcotest.(check string)
          (Printf.sprintf "result %d matches the sequential reply" i)
          (J.to_string (P.json_of_response want))
          (J.to_string got))
      (List.combine seq_replies results)
  | _ -> Alcotest.fail "batch reply without a results list");
  if List.mem_assoc "batch_aborted_at" batch_reply then
    Alcotest.fail "a fully successful batch must not carry an abort index";
  let sig_of svc = jstr "signature" (reply (Service.handle svc (P.Signature { session = "cs" }))) in
  Alcotest.(check string) "identical live state" (sig_of svc_seq) (sig_of svc_bat);
  (* every executed step records its op's latency exactly once, batched
     or not *)
  let op_count svc op =
    match List.assoc_opt (Printf.sprintf "dse_request_us{op=%S}" op)
            (Ds_obs.Obs.histograms (Service.registry svc)) with
    | Some h -> h.Ds_obs.Obs.h_count
    | None -> Alcotest.failf "no latency histogram for op %s" op
  in
  List.iter
    (fun (op, want) ->
      Alcotest.(check int) (op ^ " latency count, sequential") want (op_count svc_seq op);
      Alcotest.(check int) (op ^ " latency count, batched") want (op_count svc_bat op))
    [ ("set", 2); ("decide", 2) ];
  (* batch journals the individual mutation records: same bytes on disk *)
  Alcotest.(check string) "byte-identical journals"
    (read_file (Journal.path ~dir:dir_seq ~id:"cs"))
    (read_file (Journal.path ~dir:dir_bat ~id:"cs"));
  (* and replay reconstructs the same state from either journal *)
  let resume dir =
    let svc = crypto_service dir in
    reply (Service.handle svc (open_req ~session:"cs" ~layer:"" ~resume:true ()))
  in
  let r_seq = resume dir_seq and r_bat = resume dir_bat in
  Alcotest.(check int) "same replay depth" (jint "replayed" r_seq) (jint "replayed" r_bat);
  Alcotest.(check string) "resumed signatures agree" (jstr "signature" r_seq)
    (jstr "signature" r_bat)

(* Same differential under an injected fsync fault: both paths fail the
   group commit with the same structured error, evict, and rehydrate to
   the same (journaled) state. *)
let test_batch_fault_parity () =
  let dir_seq = tmpdir "dse_bfseq" and dir_bat = tmpdir "dse_bfbat" in
  Fun.protect
    ~finally:(fun () ->
      Iofault.disarm ();
      rm_rf dir_seq;
      rm_rf dir_bat)
  @@ fun () ->
  let set1 =
    P.Set { session = "cs"; name = "Operator Family"; value = Value.str "modular"; decide = true }
  in
  let set2 =
    P.Set
      { session = "cs"; name = "Modular Operator"; value = Value.str "multiplier"; decide = true }
  in
  let run_mutations svc =
    Iofault.arm ~seed:11 [ (Iofault.Fsync, Iofault.Eio, 1.0) ];
    let r =
      match svc with
      | `Seq svc ->
        ignore (Service.handle svc set1);
        Service.handle svc set2
      | `Bat svc -> Service.handle svc (ok (P.batch_of_requests [ set1; set2 ]))
    in
    Iofault.disarm ();
    r
  in
  let svc_seq = crypto_service_ext ~journal_sync:true dir_seq in
  ignore (reply (Service.handle svc_seq (open_req ~session:"cs" ~layer:"crypto" ~eol:768 ())));
  let svc_bat = crypto_service_ext ~journal_sync:true dir_bat in
  ignore (reply (Service.handle svc_bat (open_req ~session:"cs" ~layer:"crypto" ~eol:768 ())));
  let code_of = function
    | P.Failed (code, _) -> P.error_code_label code
    | P.Reply _ -> "ok"
  in
  let r_seq = run_mutations (`Seq svc_seq) and r_bat = run_mutations (`Bat svc_bat) in
  Alcotest.(check string) "sequential path fails the fsync" "journal_error" (code_of r_seq);
  Alcotest.(check string) "batch group commit fails the same way" "journal_error" (code_of r_bat);
  (* both evicted; both rehydrate everything that reached the journal *)
  let sig_seq = jstr "signature" (reply (Service.handle svc_seq (P.Signature { session = "cs" }))) in
  let sig_bat = jstr "signature" (reply (Service.handle svc_bat (P.Signature { session = "cs" }))) in
  Alcotest.(check string) "identical recovered state" sig_seq sig_bat

let test_batch_abort_semantics () =
  let svc = service () in
  ignore (reply (Service.handle svc (open_req ~session:"ab" ())));
  let signature () =
    jstr "signature" (reply (Service.handle svc (P.Signature { session = "ab" })))
  in
  let sig0 = signature () in
  (* a failing read records its failure and the batch continues *)
  let read_fail =
    reply
      (Service.handle svc
         (ok
            (P.batch_of_requests
               [
                 P.Preview { session = "ab"; issue = "no-such-issue"; merit = None };
                 P.Set { session = "ab"; name = issue; value = pick; decide = false };
               ])))
  in
  (match jmember "results" read_fail with
  | J.List [ first; second ] ->
    (match P.response_of_json first with
    | Ok (P.Failed _) -> ()
    | _ -> Alcotest.fail "failing preview must surface as a failed result");
    (match P.response_of_json second with
    | Ok (P.Reply _) -> ()
    | _ -> Alcotest.fail "the set after the failing read must still execute")
  | _ -> Alcotest.fail "expected two results");
  if List.mem_assoc "batch_aborted_at" read_fail then
    Alcotest.fail "a read failure must not abort the batch";
  Alcotest.(check bool) "the set landed" false (String.equal sig0 (signature ()));
  ignore (reply (Service.handle svc (P.Retract { session = "ab"; name = issue })));
  (* the first mutation failure aborts: its reply is the last result and
     nothing after it executes *)
  let aborted =
    reply
      (Service.handle svc
         (ok
            (P.batch_of_requests
               [
                 P.Candidates { session = "ab"; max = Some 0 };
                 P.Set { session = "ab"; name = "no-such-property"; value = pick; decide = false };
                 P.Set { session = "ab"; name = issue; value = pick; decide = false };
               ])))
  in
  Alcotest.(check int) "abort index" 1 (jint "batch_aborted_at" aborted);
  (match jmember "results" aborted with
  | J.List l ->
    Alcotest.(check int) "failed reply is the last result" 2 (List.length l);
    (match P.response_of_json (List.nth l 1) with
    | Ok (P.Failed (P.Rejected, _)) -> ()
    | _ -> Alcotest.fail "the aborting result must be the rejection")
  | _ -> Alcotest.fail "results missing");
  Alcotest.(check string) "nothing after the abort executed" sig0 (signature ());
  (* the non-finite screen aborts before anything is journaled *)
  let nf =
    reply
      (Service.handle svc
         (ok
            (P.batch_of_requests
               [
                 P.Set
                   { session = "ab"; name = issue; value = Value.real Float.nan; decide = false };
               ])))
  in
  Alcotest.(check int) "non-finite aborts at 0" 0 (jint "batch_aborted_at" nf);
  match jmember "results" nf with
  | J.List [ only ] -> (
    match P.response_of_json only with
    | Ok (P.Failed (P.Bad_request, _)) -> ()
    | _ -> Alcotest.fail "a non-finite set must fail bad_request")
  | _ -> Alcotest.fail "expected exactly one result"

(* FIFO under pipelining: each reply must answer the request at its own
   index.  Page sizes k mod 4 make any reordering visible, and four
   concurrent clients keep several connections in flight at once. *)
let test_pipeline_fifo () =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let socket =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "dse_fifo_%d.sock" (Unix.getpid ()))
  in
  let svc = service () in
  let server = Ds_serve.Server.create ~socket ~pool:4 svc in
  let server_thread = Thread.create Ds_serve.Server.serve server in
  Fun.protect
    ~finally:(fun () ->
      Ds_serve.Server.shutdown server;
      Thread.join server_thread)
  @@ fun () ->
  let record, errs = collector () in
  let client_run tid () =
    match Ds_serve.Client.connect_retry ~socket () with
    | Error e -> record ("connect: " ^ e)
    | Ok c ->
      Fun.protect ~finally:(fun () -> Ds_serve.Client.close c) @@ fun () ->
      let sid = Printf.sprintf "fifo-%d" tid in
      (match Ds_serve.Client.request c (open_req ~session:sid ()) with
      | Ok (P.Reply _) -> ()
      | Ok (P.Failed (_, msg)) -> record (sid ^ ": open failed: " ^ msg)
      | Error e -> record (sid ^ ": open failed: " ^ e));
      let n = 48 in
      let lines =
        List.init n (fun k ->
            J.to_string
              (P.json_of_request (P.Candidates { session = sid; max = Some (k mod 4) })))
      in
      let results = Ds_serve.Client.pipeline c lines in
      if List.length results <> n then record (sid ^ ": result count mismatch");
      List.iteri
        (fun k r ->
          match r with
          | Error e -> record (Printf.sprintf "%s[%d]: %s" sid k e)
          | Ok line -> (
            match P.response_of_string line with
            | Ok (P.Reply payload) ->
              let page =
                match List.assoc_opt "candidates" payload with
                | Some (J.List l) -> List.length l
                | _ -> -1
              in
              if page <> k mod 4 then
                record
                  (Printf.sprintf "%s[%d]: page %d proves out-of-order delivery (want %d)" sid
                     k page (k mod 4))
            | Ok (P.Failed (code, msg)) ->
              record (Printf.sprintf "%s[%d]: %s: %s" sid k (P.error_code_label code) msg)
            | Error e -> record (Printf.sprintf "%s[%d]: unparseable: %s" sid k e)))
        results
  in
  let threads = List.init 4 (fun tid -> Thread.create (client_run tid) ()) in
  List.iter Thread.join threads;
  check_collected errs

let test_response_too_large () =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let socket =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "dse_toolarge_%d.sock" (Unix.getpid ()))
  in
  let svc = service () in
  let server = Ds_serve.Server.create ~socket ~pool:2 svc in
  let server_thread = Thread.create Ds_serve.Server.serve server in
  Fun.protect
    ~finally:(fun () ->
      Ds_serve.Server.shutdown server;
      Thread.join server_thread)
  @@ fun () ->
  (* seed a session whose trace is guaranteed past the client's bound *)
  (let c = ok (Ds_serve.Client.connect_retry ~socket ()) in
   ignore (reply (ok (Ds_serve.Client.request c (open_req ~session:"big" ()))));
   ignore
     (reply
        (ok (Ds_serve.Client.request c (P.Annotate { session = "big"; text = String.make 4096 'n' }))));
   Ds_serve.Client.close c);
  let trace = P.Trace { session = "big"; spans = false; since = None; max_spans = None } in
  let c = ok (Ds_serve.Client.connect ~max_response:1024 ~socket ()) in
  Fun.protect ~finally:(fun () -> Ds_serve.Client.close c) @@ fun () ->
  (match ok (Ds_serve.Client.request c trace) with
  | P.Failed (P.Response_too_large, msg) ->
    Alcotest.(check bool) (Printf.sprintf "names the bound: %s" msg) true (contains msg "1024")
  | P.Failed (code, msg) -> Alcotest.failf "wrong failure %s: %s" (P.error_code_label code) msg
  | P.Reply _ -> Alcotest.fail "an oversized reply must fail structurally");
  (* the oversized line was drained through its newline: the connection
     stays ordered and usable *)
  let after = reply (ok (Ds_serve.Client.request c (P.Signature { session = "big" }))) in
  Alcotest.(check string) "connection usable after the drain" "big" (jstr "session" after);
  (* the raw variant surfaces a recognizable error *)
  (match Ds_serve.Client.request_line c (J.to_string (P.json_of_request trace)) with
  | Error msg ->
    Alcotest.(check bool) "recognizer accepts it" true (Ds_serve.Client.response_too_large msg)
  | Ok _ -> Alcotest.fail "request_line must report the bound");
  ignore (reply (ok (Ds_serve.Client.request c (P.Signature { session = "big" }))));
  (* deterministic, so Durable never retries it — even when asked to
     retry failures *)
  let d = Ds_serve.Client.Durable.create ~max_response:1024 ~socket () in
  Fun.protect ~finally:(fun () -> Ds_serve.Client.Durable.close d) @@ fun () ->
  (match ok (Ds_serve.Client.Durable.request ~retry_failures:true d trace) with
  | P.Failed (P.Response_too_large, _) -> ()
  | P.Failed (code, msg) -> Alcotest.failf "wrong durable failure %s: %s" (P.error_code_label code) msg
  | P.Reply _ -> Alcotest.fail "durable must surface response_too_large");
  Alcotest.(check int) "never retried" 0 (Ds_serve.Client.Durable.retried d)

(* One resolver serves the server and the fleet router: an explicit
   depth wins over DSE_PIPELINE_DEPTH, the default is 16, and whichever
   applies is clamped to 1..1024. *)
let test_pipeline_depth_resolver () =
  let depth = Ds_serve.Lineserver.pipeline_depth in
  let with_env name v f =
    let saved = Sys.getenv_opt name in
    Unix.putenv name v;
    Fun.protect ~finally:(fun () -> Unix.putenv name (Option.value saved ~default:"")) f
  in
  if Sys.getenv_opt "DSE_PIPELINE_DEPTH" = None then
    Alcotest.(check int) "unset" 16 (depth None);
  Alcotest.(check int) "explicit 0" 1 (depth (Some 0));
  Alcotest.(check int) "explicit 5000" 1024 (depth (Some 5000));
  Alcotest.(check int) "explicit 7" 7 (depth (Some 7));
  with_env "DSE_PIPELINE_DEPTH" "0" (fun () -> Alcotest.(check int) "env 0" 1 (depth None));
  with_env "DSE_PIPELINE_DEPTH" "5000" (fun () ->
      Alcotest.(check int) "env 5000" 1024 (depth None));
  with_env "DSE_PIPELINE_DEPTH" " 32 " (fun () -> Alcotest.(check int) "env 32" 32 (depth None));
  with_env "DSE_PIPELINE_DEPTH" "deep" (fun () ->
      Alcotest.(check int) "env garbage" 16 (depth None));
  with_env "DSE_PIPELINE_DEPTH" "64" (fun () ->
      Alcotest.(check int) "explicit wins" 4 (depth (Some 4)));
  let idle = Ds_serve.Lineserver.env_idle_timeout in
  with_env "DSE_IDLE_TIMEOUT" "2.5" (fun () ->
      Alcotest.(check (option (float 0.0))) "idle 2.5" (Some 2.5) (idle ()));
  with_env "DSE_IDLE_TIMEOUT" "0" (fun () ->
      Alcotest.(check (option (float 0.0))) "idle 0 is off" None (idle ()))

(* The drain probe is a non-blocking read, not [select]: a descriptor
   above FD_SETSIZE (1024) drains like any other. *)
let test_ready_read_high_fd () =
  let a, b = Unix.socketpair ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let high : Unix.file_descr = Obj.magic 1100 in
  Unix.dup2 ~cloexec:true a high;
  Unix.close a;
  Fun.protect ~finally:(fun () ->
      Unix.close high;
      Unix.close b)
  @@ fun () ->
  let msg = "first\nsecond\n" in
  ignore (Unix.write_substring b msg 0 (String.length msg));
  let reader = Ds_serve.Lineio.create high in
  let next () =
    match Ds_serve.Lineio.read_line_ready ~limit:1024 reader with
    | Some (Ds_serve.Lineio.Line l) -> Some l
    | Some _ -> Alcotest.fail "expected a line or nothing"
    | None -> None
  in
  Alcotest.(check (option string)) "first" (Some "first") (next ());
  Alcotest.(check (option string)) "second" (Some "second") (next ());
  Alcotest.(check (option string)) "drained" None (next ())

(* A socket that cannot be bound must not leave its descriptor behind. *)
let test_failed_bind_closes_listener () =
  let open_fds () = Array.length (Sys.readdir "/proc/self/fd") in
  let socket =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "dse_nobind_%d/missing/server.sock" (Unix.getpid ()))
  in
  let svc = service () in
  let before = open_fds () in
  (match Ds_serve.Server.create ~socket svc with
  | _ -> Alcotest.fail "binding under a missing directory must fail"
  | exception Unix.Unix_error _ -> ());
  Alcotest.(check int) "no fd leaked" before (open_fds ())

(* ------------------------------------------------------------------ *)
(* Signature versions: v1 files written before signature v2            *)

(* test/fixtures/v1 holds journals and snapshots of crypto, IDCT and
   the 2,000-core generated layer, written by the service before
   signature v2 (headers without "sig_version"): set, retract, re-set,
   annotate, compact, then a two-entry tail.  Each entry is the
   fixture's id, its layer, and one more mutation to apply after
   resuming. *)
let v1_fixtures =
  [
    ("crypto-v1", "crypto", P.Retract { session = "crypto-v1"; name = "Latency Single Operation" });
    ( "idct-v1",
      "idct",
      P.Set
        { session = "idct-v1"; name = "IDCT Algorithm"; value = Value.str "chen"; decide = false } );
    ("gen-v1", "gen", P.Retract { session = "gen-v1"; name = "GB1" });
  ]

let fixture_layers =
  ("gen", fun ~eol:_ -> Ds_domains.Generator.session Ds_domains.Generator.default_spec)
  :: Ds_domains.Catalog.factories

let with_fixture id f =
  let dir = tmpdir "dse_v1" in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  List.iter
    (fun ext ->
      let data =
        In_channel.with_open_bin (Filename.concat "fixtures/v1" (id ^ ext)) In_channel.input_all
      in
      Out_channel.with_open_bin (Filename.concat dir (id ^ ext)) (fun oc ->
          output_string oc data))
    [ ".journal"; ".snapshot" ];
  f dir

let first_line file = In_channel.with_open_bin file In_channel.input_line |> Option.get

let last_sig ~dir ~id =
  match List.rev (ok (Journal.load ~dir ~id)).Journal.entries with
  | e :: _ -> e.Journal.signature
  | [] -> Alcotest.fail "journal has no tail"

let test_v1_fixtures_resume () =
  List.iter
    (fun (id, layer, mutation) ->
      with_fixture id @@ fun dir ->
      let service () =
        Service.create (Service.config ~journal_dir:dir ~layers:fixture_layers ())
      in
      let resume svc =
        reply (Service.handle svc (open_req ~session:id ~layer ~resume:true ()))
      in
      Alcotest.(check int) (id ^ ": fixture is v1") 1 (ok (Journal.load ~dir ~id)).Journal.sig_version;
      let recorded = last_sig ~dir ~id in
      let svc = service () in
      let r = resume svc in
      Alcotest.(check bool) (id ^ ": resumed from the snapshot") true (jbool "snapshot" r);
      Alcotest.(check string) (id ^ ": verified v1 signature") recorded (jstr "signature" r);
      (* the resumed lineage keeps signing v1 into its v1 file *)
      let signed = jstr "signature" (reply (Service.handle svc mutation)) in
      let loaded = ok (Journal.load ~dir ~id) in
      Alcotest.(check int) (id ^ ": header still v1") 1 loaded.Journal.sig_version;
      Alcotest.(check bool) (id ^ ": header has no version field") false
        (contains (first_line (Journal.path ~dir ~id)) "sig_version");
      Alcotest.(check string) (id ^ ": appended signature") signed (last_sig ~dir ~id);
      (* a fresh service verifies the appended entry in v1 *)
      let svc = service () in
      Alcotest.(check string) (id ^ ": re-resumed") signed (jstr "signature" (resume svc));
      (* compaction and branching keep the lineage's version *)
      ignore (reply (Service.handle svc (P.Compact { session = id })));
      Alcotest.(check int) (id ^ ": compacted journal v1") 1
        (ok (Journal.load ~dir ~id)).Journal.sig_version;
      Alcotest.(check int) (id ^ ": new snapshot v1") 1
        (ok (Journal.load_snapshot ~dir ~id)).Journal.snap_sig_version;
      let branch = id ^ "-b" in
      ignore (reply (Service.handle svc (P.Branch { session = id; as_id = Some branch })));
      Alcotest.(check int) (id ^ ": branch v1") 1
        (ok (Journal.load ~dir ~id:branch)).Journal.sig_version;
      let svc = service () in
      Alcotest.(check string) (id ^ ": resumed after compaction") signed
        (jstr "signature" (resume svc));
      Alcotest.(check string) (id ^ ": branch resumed") signed
        (jstr "signature"
           (reply (Service.handle svc (open_req ~session:branch ~layer ~resume:true ()))));
      (* a new session in the same directory is v2 *)
      let fresh = id ^ "-new" in
      ignore (reply (Service.handle svc (open_req ~session:fresh ~layer ())));
      Alcotest.(check int) (id ^ ": new session v2") 2
        (ok (Journal.load ~dir ~id:fresh)).Journal.sig_version;
      Alcotest.(check bool) (id ^ ": new header names v2") true
        (contains (first_line (Journal.path ~dir ~id:fresh)) {|"sig_version":2|}))
    v1_fixtures

(* One flipped hex digit in the last recorded signature: the v1
   verification must still catch it. *)
let test_v1_fixture_flipped_sig () =
  List.iter
    (fun (id, layer, _) ->
      with_fixture id @@ fun dir ->
      let file = Journal.path ~dir ~id in
      let text = In_channel.with_open_bin file In_channel.input_all in
      let key = {|"sig":"|} in
      let klen = String.length key in
      let rec last_key i =
        if i < 0 then Alcotest.fail "no sig field"
        else if String.sub text i klen = key then i
        else last_key (i - 1)
      in
      let at = last_key (String.length text - klen) + klen in
      let flipped = Bytes.of_string text in
      Bytes.set flipped at (if text.[at] = '0' then '1' else '0');
      Out_channel.with_open_bin file (fun oc -> Out_channel.output_bytes oc flipped);
      let svc = Service.create (Service.config ~journal_dir:dir ~layers:fixture_layers ()) in
      failed P.Journal_error
        (Service.handle svc (open_req ~session:id ~layer ~resume:true ())))
    v1_fixtures

let () =
  Alcotest.run "serve"
    [
      ( "jsonx",
        [
          Alcotest.test_case "roundtrip" `Quick test_jsonx_roundtrip;
          Alcotest.test_case "numbers" `Quick test_jsonx_numbers;
          Alcotest.test_case "strings" `Quick test_jsonx_strings;
          Alcotest.test_case "errors" `Quick test_jsonx_errors;
        ] );
      ( "protocol",
        [
          Alcotest.test_case "request roundtrip" `Quick test_protocol_roundtrip;
          Alcotest.test_case "request errors" `Quick test_protocol_errors;
          Alcotest.test_case "response roundtrip" `Quick test_response_roundtrip;
          Alcotest.test_case "value coercions" `Quick test_value_coercions;
        ] );
      ( "store",
        [
          Alcotest.test_case "lru eviction" `Quick test_store_lru;
          Alcotest.test_case "fresh ids and order" `Quick test_store_fresh_ids;
        ] );
      ( "service",
        [
          Alcotest.test_case "basics" `Quick test_service_basics;
          Alcotest.test_case "branch" `Quick test_service_branch;
          Alcotest.test_case "handle_line total" `Quick test_handle_line_never_raises;
          Alcotest.test_case "non-finite values refused" `Quick test_non_finite_values_refused;
          Alcotest.test_case "eviction keeps sessions resumable" `Quick
            test_lru_eviction_keeps_journal_resumable;
          Alcotest.test_case "candidate signature" `Quick test_candidate_signature;
          Alcotest.test_case "fused ranges reply" `Quick test_ranges_fused_reply;
        ] );
      ( "journal",
        [
          Alcotest.test_case "crash replay reconstructs the session" `Quick
            test_replay_reconstructs_session;
          Alcotest.test_case "torn tail ignored" `Quick test_replay_ignores_torn_tail;
          Alcotest.test_case "torn tail repaired before appending" `Quick
            test_append_after_torn_resume;
          Alcotest.test_case "restart never truncates journals" `Quick
            test_restart_never_truncates_journals;
          Alcotest.test_case "tampering detected" `Quick test_replay_detects_divergence;
          Alcotest.test_case "branch journals independently" `Quick
            test_branch_journals_independently;
          Alcotest.test_case "resume guards" `Quick test_resume_guards;
          Alcotest.test_case "descriptors are close-on-exec" `Quick test_journal_cloexec;
        ] );
      ( "socket",
        [
          Alcotest.test_case "end to end" `Quick test_socket_end_to_end;
          Alcotest.test_case "oversized request line" `Quick test_request_too_large;
          Alcotest.test_case "client deadline fails fast" `Quick
            test_client_deadline_fails_fast;
          Alcotest.test_case "sockets are close-on-exec" `Quick test_sockets_close_on_exec;
          Alcotest.test_case "ready reads above FD_SETSIZE" `Quick test_ready_read_high_fd;
          Alcotest.test_case "failed bind closes the listener" `Quick
            test_failed_bind_closes_listener;
        ] );
      ( "durability",
        [
          Alcotest.test_case "compaction bounds resume replay" `Quick
            test_compact_bounds_replay;
          Alcotest.test_case "auto-compaction past the threshold" `Quick test_auto_compaction;
          Alcotest.test_case "crash between snapshot and truncation" `Quick
            test_crash_between_snapshot_and_truncate;
          Alcotest.test_case "checksum mismatch falls back to history" `Quick
            test_checksum_mismatch_falls_back;
          Alcotest.test_case "checksum mismatch after truncation is fatal" `Quick
            test_checksum_mismatch_after_truncation_is_fatal;
          Alcotest.test_case "rehydration is bit-identical" `Quick
            test_rehydration_bit_identical;
          Alcotest.test_case "iofault plans" `Quick test_iofault_plans;
          Alcotest.test_case "short write repaired" `Quick test_fault_short_write_repaired;
          Alcotest.test_case "failed fsync evicts, rehydration recovers" `Quick
            test_fault_fsync_evicts_then_recovers;
          Alcotest.test_case "torn rename aborts compaction safely" `Quick
            test_fault_torn_rename_aborts_compaction;
          Alcotest.test_case "v1 fixtures resume and stay v1" `Quick test_v1_fixtures_resume;
          Alcotest.test_case "v1 fixture with a flipped sig fails" `Quick
            test_v1_fixture_flipped_sig;
        ] );
      ( "concurrency",
        [
          Alcotest.test_case "mixed read/mutate soak" `Quick test_concurrent_soak;
          Alcotest.test_case "striped stats add up" `Quick test_stats_race;
          Alcotest.test_case "metrics op" `Quick test_metrics_op;
          Alcotest.test_case "trace spans op" `Quick test_trace_spans_op;
          Alcotest.test_case "eviction races in-flight requests" `Quick test_eviction_race;
          Alcotest.test_case "client backoff schedule" `Quick test_backoff_schedule;
          Alcotest.test_case "journal group commit" `Quick test_group_commit;
        ] );
      ( "fleet-surface",
        [
          Alcotest.test_case "healthz + retryable codes" `Quick
            test_healthz_and_retryable_codes;
          Alcotest.test_case "candidates max pages ids, not count" `Quick
            test_candidates_max_page;
          Alcotest.test_case "candidates reply byte-equal to the list rendering" `Quick
            test_candidates_reply_rendering;
          Alcotest.test_case "idle connections reaped and counted" `Quick test_idle_reap;
          Alcotest.test_case "durable client reconnects across restart" `Quick
            test_durable_reconnect_across_restart;
        ] );
      ( "batch-pipeline",
        [
          Alcotest.test_case "batch codec + validation" `Quick test_batch_codec;
          Alcotest.test_case "batch vs sequential differential" `Quick
            test_batch_vs_sequential;
          Alcotest.test_case "batch fault parity" `Quick test_batch_fault_parity;
          Alcotest.test_case "batch abort semantics" `Quick test_batch_abort_semantics;
          Alcotest.test_case "pipelined replies stay FIFO" `Quick test_pipeline_fifo;
          Alcotest.test_case "pipeline depth resolver" `Quick test_pipeline_depth_resolver;
          Alcotest.test_case "oversized reply bounded client-side" `Quick
            test_response_too_large;
        ] );
    ]
