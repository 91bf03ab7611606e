(* Unit tests for the columnar sweep substrate: bitsets against a
   bool-array oracle, packed verdict slots (word reads vs per-id reads,
   the bitset merge, restamping), the clock cache's second-chance
   eviction, and the columnar store against per-core lookups. *)

open Ds_layer
module Core = Ds_reuse.Core
module Prng = Ds_bignum.Prng

(* ------------------------------------------------------------------ *)
(* Bitset vs oracle                                                    *)

let naive_popcount x =
  let c = ref 0 in
  for b = 0 to 31 do
    if x land (1 lsl b) <> 0 then incr c
  done;
  !c

let test_popcount32 () =
  let edges =
    [
      0;
      1;
      0xFFFFFFFF;
      1 lsl 31;
      (1 lsl 31) - 1;
      0x55555555;
      0xAAAAAAAA;
      0x00FF00FF;
      0x80000001;
    ]
  in
  List.iter
    (fun x ->
      Alcotest.(check int)
        (Printf.sprintf "popcount32 0x%x" x)
        (naive_popcount x) (Bitset.popcount32 x))
    edges;
  let g = Prng.create 1 in
  for _ = 1 to 1000 do
    let x = Prng.int g (1 lsl 30) lor (Prng.int g 4 lsl 30) in
    Alcotest.(check int)
      (Printf.sprintf "popcount32 0x%x" x)
      (naive_popcount x) (Bitset.popcount32 x)
  done;
  (* bits above 31 must be ignored, not counted *)
  Alcotest.(check int) "payload only" 1 (Bitset.popcount32 ((1 lsl 40) lor 1))

let test_spread_roundtrip () =
  let g = Prng.create 2 in
  let check16 x =
    let s = Bitset.spread16 x in
    Alcotest.(check int) "only even bit positions" 0 (s land 0xAAAAAAAA);
    Alcotest.(check int) (Printf.sprintf "roundtrip 0x%x" x) (x land 0xFFFF)
      (Bitset.unspread16 s)
  in
  List.iter check16 [ 0; 1; 0xFFFF; 0x8000; 0x5555; 0xAAAA; 0x00FF ];
  for _ = 1 to 1000 do
    check16 (Prng.int g 0x10000)
  done

let random_ops ~length ~ops seed =
  let g = Prng.create seed in
  let t = Bitset.create length in
  let oracle = Array.make (Stdlib.max 1 length) false in
  for _ = 1 to ops do
    let i = Prng.int g length in
    if Prng.int g 3 = 0 then begin
      Bitset.clear t i;
      oracle.(i) <- false
    end
    else begin
      Bitset.set t i;
      oracle.(i) <- true
    end
  done;
  (t, oracle)

let test_bitset_oracle () =
  List.iter
    (fun length ->
      let t, oracle = random_ops ~length ~ops:(4 * (length + 1)) (100 + length) in
      let expected = Array.to_list oracle |> List.filteri (fun i _ -> oracle.(i)) in
      ignore expected;
      for i = 0 to length - 1 do
        Alcotest.(check bool)
          (Printf.sprintf "mem %d/%d" i length)
          oracle.(i) (Bitset.mem t i)
      done;
      let count_oracle = Array.fold_left (fun a b -> if b then a + 1 else a) 0 oracle in
      Alcotest.(check int) (Printf.sprintf "count/%d" length) count_oracle (Bitset.count t);
      (* iter_true: ascending, exactly the oracle's true indices *)
      let seen = ref [] in
      Bitset.iter_true (fun i -> seen := i :: !seen) t;
      let seen = List.rev !seen in
      let oracle_ids = List.init length Fun.id |> List.filter (fun i -> oracle.(i)) in
      Alcotest.(check (list int)) (Printf.sprintf "iter_true/%d" length) oracle_ids seen;
      Alcotest.(check int)
        (Printf.sprintf "fold_true/%d" length)
        count_oracle
        (Bitset.fold_true (fun acc _ -> acc + 1) 0 t);
      Alcotest.(check (list int))
        (Printf.sprintf "map_true/%d" length)
        (List.map (fun i -> 3 * i) oracle_ids)
        (Bitset.map_true (fun i -> 3 * i) t);
      List.iter
        (fun k ->
          Alcotest.(check (list int))
            (Printf.sprintf "take_true %d/%d" k length)
            (List.filteri (fun i _ -> i < k) oracle_ids)
            (Bitset.take_true t k))
        [ 0; 1; 5; count_oracle; count_oracle + 1 ];
      let odd = Bitset.copy t in
      Bitset.filter_in_place (fun i -> i mod 2 = 1) odd;
      Alcotest.(check (list int))
        (Printf.sprintf "filter_in_place/%d" length)
        (List.filter (fun i -> i mod 2 = 1) oracle_ids)
        (Bitset.map_true Fun.id odd);
      (* iter_runs: maximal, ascending, and covering exactly the set bits *)
      let runs = ref [] in
      Bitset.iter_runs (fun lo hi -> runs := (lo, hi) :: !runs) t;
      let runs = List.rev !runs in
      Alcotest.(check (list int))
        (Printf.sprintf "iter_runs cover/%d" length)
        oracle_ids
        (List.concat_map (fun (lo, hi) -> List.init (hi - lo) (fun j -> lo + j)) runs);
      List.iter
        (fun (lo, hi) ->
          Alcotest.(check bool)
            (Printf.sprintf "run [%d,%d) maximal/%d" lo hi length)
            true
            (lo < hi && (lo = 0 || not oracle.(lo - 1)) && (hi = length || not oracle.(hi))))
        runs)
    [ 1; 31; 32; 33; 37; 64; 100; 129 ]

let test_bitset_structure () =
  let full = Bitset.create_full 37 in
  Alcotest.(check int) "create_full count" 37 (Bitset.count full);
  Alcotest.(check int) "create_full words" 2 (Bitset.word_count full);
  (* the last word's padding bits must be clear or popcounts drift *)
  Alcotest.(check int) "last word masked" ((1 lsl 5) - 1) (Bitset.word full 1);
  let empty = Bitset.create 0 in
  Alcotest.(check int) "empty" 0 (Bitset.count empty);
  let t = Bitset.of_ids ~length:70 [| 0; 31; 32; 69 |] in
  Alcotest.(check int) "of_ids count" 4 (Bitset.count t);
  Alcotest.(check bool) "of_ids mem" true (Bitset.mem t 69);
  let c = Bitset.copy t in
  Alcotest.(check bool) "copy equal" true (Bitset.equal t c);
  Bitset.clear c 31;
  Alcotest.(check bool) "copy independent" true (Bitset.mem t 31 && not (Bitset.mem c 31));
  Alcotest.(check bool) "copy unequal after edit" false (Bitset.equal t c);
  (* runs over whole words stay open across the word boundary *)
  let runs t =
    let acc = ref [] in
    Bitset.iter_runs (fun lo hi -> acc := (lo, hi) :: !acc) t;
    List.rev !acc
  in
  let pair = Alcotest.(list (pair int int)) in
  Alcotest.check pair "full runs" [ (0, 37) ] (runs full);
  Alcotest.check pair "full aligned" [ (0, 96) ] (runs (Bitset.create_full 96));
  Alcotest.check pair "empty runs" [] (runs empty);
  Alcotest.check pair "of_ids runs" [ (0, 1); (31, 33); (69, 70) ] (runs t)

(* ------------------------------------------------------------------ *)
(* Packed verdict slots                                                *)

let universe = 70 (* crosses two bitset words and five verdict words *)

(* Each call stamps the slot with a state never used before. *)
let fresh_slot =
  let stamps = ref 0 in
  fun t ->
    incr stamps;
    Compliance.slot ~universe t ~cc:"CC" ~stamp:(Printf.sprintf "state %d" !stamps)

(* Write [(id, inferior)] verdicts back through the one bitset merge. *)
let merge_verdicts s verdicts ~hits ~misses =
  let touched = Bitset.create universe and inferior = Bitset.create universe in
  List.iter
    (fun (id, verdict) ->
      Bitset.set touched id;
      if verdict then Bitset.set inferior id)
    verdicts;
  Compliance.Slot.merge_bits s ~touched ~inferior_bits:inferior ~hits ~misses

let test_slot_merge_peek () =
  let t = Compliance.create () in
  let s = fresh_slot t in
  let g = Prng.create 3 in
  let verdicts =
    List.init universe (fun id ->
        if Prng.int g 3 = 0 then None else Some (id, Prng.int g 2 = 0))
    |> List.filter_map Fun.id
  in
  merge_verdicts s verdicts ~hits:0 ~misses:(List.length verdicts);
  let view = Compliance.Slot.view s in
  List.iter
    (fun (id, inferior) ->
      Alcotest.(check (option bool))
        (Printf.sprintf "peek %d" id)
        (Some inferior)
        (Compliance.Slot.peek view ~id))
    verdicts;
  let merged = List.map fst verdicts in
  for id = 0 to universe - 1 do
    if not (List.mem id merged) then
      Alcotest.(check (option bool))
        (Printf.sprintf "unmerged %d" id)
        None
        (Compliance.Slot.peek view ~id)
  done;
  Alcotest.(check (option bool)) "out of range" None
    (Compliance.Slot.peek view ~id:(universe + 1000))

(* peek_word must agree bit for bit with 32 individual peeks. *)
let check_words ctx view =
  for w = 0 to ((universe + 31) / 32) - 1 do
    let known, inferior = Compliance.Slot.peek_word view ~w in
    for b = 0 to 31 do
      let id = (32 * w) + b in
      let k, i =
        match Compliance.Slot.peek view ~id with
        | None -> (0, 0)
        | Some false -> (1, 0)
        | Some true -> (1, 1)
      in
      Alcotest.(check (pair int int))
        (Printf.sprintf "%s: word %d bit %d" ctx w b)
        (k, i)
        ((known lsr b) land 1, (inferior lsr b) land 1)
    done
  done

let test_slot_peek_word () =
  let t = Compliance.create () in
  let s = fresh_slot t in
  let g = Prng.create 4 in
  let verdicts =
    List.init universe (fun id ->
        if Prng.int g 4 = 0 then None else Some (id, Prng.int g 2 = 0))
    |> List.filter_map Fun.id
  in
  merge_verdicts s verdicts ~hits:0 ~misses:0;
  check_words "after merge" (Compliance.Slot.view s)

let test_slot_merge_bits_identity () =
  let t = Compliance.create () in
  let s = fresh_slot t in
  let g = Prng.create 5 in
  let touched = Bitset.create universe and inferior = Bitset.create universe in
  for id = 0 to universe - 1 do
    if Prng.int g 3 > 0 then begin
      Bitset.set touched id;
      if Prng.int g 2 = 0 then Bitset.set inferior id
    end
  done;
  Compliance.Slot.merge_bits s ~touched ~inferior_bits:inferior ~hits:0 ~misses:0;
  let view = Compliance.Slot.view s in
  for id = 0 to universe - 1 do
    let expected =
      if Bitset.mem touched id then Some (Bitset.mem inferior id) else None
    in
    Alcotest.(check (option bool)) (Printf.sprintf "identity id %d" id) expected
      (Compliance.Slot.peek view ~id)
  done;
  check_words "merge_bits identity" view;
  (* a second merge must only add verdicts, never erase prior ones *)
  let touched2 = Bitset.create universe and inferior2 = Bitset.create universe in
  Bitset.set touched2 0;
  Bitset.set inferior2 0;
  Compliance.Slot.merge_bits s ~touched:touched2 ~inferior_bits:inferior2 ~hits:0 ~misses:0;
  let view = Compliance.Slot.view s in
  Alcotest.(check (option bool)) "overwritten id 0" (Some true)
    (Compliance.Slot.peek view ~id:0);
  for id = 1 to universe - 1 do
    let expected =
      if Bitset.mem touched id then Some (Bitset.mem inferior id) else None
    in
    Alcotest.(check (option bool)) (Printf.sprintf "retained id %d" id) expected
      (Compliance.Slot.peek view ~id)
  done

let test_slot_restamp_drops () =
  let t = Compliance.create () in
  let stale = fresh_slot t in
  (* same constraint, another state: restamps the slot *)
  let live = fresh_slot t in
  merge_verdicts stale [ (1, true); (2, false) ] ~hits:0 ~misses:2;
  Alcotest.(check (option bool)) "stale merge dropped" None
    (Compliance.Slot.peek (Compliance.Slot.view live) ~id:1);
  merge_verdicts live [ (1, true) ] ~hits:0 ~misses:1;
  Alcotest.(check (option bool)) "live merge lands" (Some true)
    (Compliance.Slot.peek (Compliance.Slot.view live) ~id:1);
  (* counters from both merges were kept *)
  let stats = Compliance.stats t in
  Alcotest.(check int) "misses counted" 3 stats.Compliance.verdict_misses

(* ------------------------------------------------------------------ *)
(* Clock cache                                                         *)

let test_clock_cache_basics () =
  let evicted = ref 0 in
  let c = Clock_cache.create ~on_evict:(fun () -> incr evicted) ~capacity:4 () in
  List.iter (fun k -> Clock_cache.store c k (String.length k)) [ "a"; "bb"; "ccc"; "dddd" ];
  Alcotest.(check int) "length" 4 (Clock_cache.length c);
  Alcotest.(check (option int)) "find" (Some 2) (Clock_cache.find c "bb");
  (* overwrite is not an insertion: nothing evicted *)
  Clock_cache.store c "bb" 20;
  Alcotest.(check int) "overwrite keeps length" 4 (Clock_cache.length c);
  Alcotest.(check int) "overwrite no evictions" 0 !evicted;
  Alcotest.(check (option int)) "overwritten" (Some 20) (Clock_cache.find c "bb");
  Clock_cache.store c "eeeee" 5;
  Alcotest.(check int) "capacity held" 4 (Clock_cache.length c);
  Alcotest.(check int) "one eviction" 1 !evicted;
  Alcotest.(check int) "counter matches" 1 (Clock_cache.evictions c)

let test_clock_cache_second_chance () =
  let c = Clock_cache.create ~capacity:3 () in
  List.iter (fun k -> Clock_cache.store c k k) [ "a"; "b"; "c" ];
  (* every entry carries its insertion reference bit, so the first
     at-capacity insert sweeps a full revolution clearing them and
     evicts the oldest entry *)
  Clock_cache.store c "d" "d";
  Alcotest.(check bool) "oldest evicted" false (Clock_cache.mem c "a");
  (* b and c are now cold; touching b must save it from the next
     eviction at the cold c's expense — the second chance itself *)
  ignore (Clock_cache.find c "b");
  Clock_cache.store c "e" "e";
  Alcotest.(check bool) "recently-used survives" true (Clock_cache.mem c "b");
  Alcotest.(check bool) "cold entry evicted" false (Clock_cache.mem c "c");
  Alcotest.(check bool) "new entries present" true
    (Clock_cache.mem c "d" && Clock_cache.mem c "e");
  Alcotest.(check int) "still at capacity" 3 (Clock_cache.length c)

let test_clock_cache_churn () =
  (* memo semantics under heavy churn: whatever find returns must be
     what was last stored under that key *)
  let c = Clock_cache.create ~capacity:8 () in
  let g = Prng.create 6 in
  let last = Hashtbl.create 32 in
  for _ = 1 to 1000 do
    let k = Printf.sprintf "k%d" (Prng.int g 24) in
    if Prng.int g 2 = 0 then begin
      let v = Prng.int g 1000 in
      Clock_cache.store c k v;
      Hashtbl.replace last k v
    end
    else
      match Clock_cache.find c k with
      | None -> () (* evicted: a miss, never wrong *)
      | Some v -> Alcotest.(check int) ("stale " ^ k) (Hashtbl.find last k) v
  done;
  Alcotest.(check bool) "bounded" true (Clock_cache.length c <= 8)

(* ------------------------------------------------------------------ *)
(* Columnar store vs per-core lookups                                  *)

let sample_cores =
  [
    ("lib/a", [ ("style", "hw"); ("alg", "fast") ], [ ("delay", 1.5); ("cost", 10.0) ]);
    ("lib/b", [ ("style", "sw") ], [ ("delay", Float.nan) ]);
    ("lib/c", [], [ ("cost", infinity) ]);
    ("lib/d", [ ("style", "hw") ], []);
  ]
  |> List.map (fun (id, properties, merits) ->
         ( id,
           Core.make_exn ~id ~name:id ~provider:"t" ~kind:Core.Soft_core ~properties ~merits
             () ))

let sample_store () = Columnar.build (Array.of_list sample_cores)

let test_columnar_accessors () =
  let store = sample_store () in
  Alcotest.(check int) "length" (List.length sample_cores) (Columnar.length store);
  List.iteri
    (fun i (qid, core) ->
      Alcotest.(check string) ("qid " ^ qid) qid (Columnar.qid store i);
      Alcotest.(check string) ("core " ^ qid) core.Core.id (Columnar.core store i).Core.id)
    sample_cores

let test_columnar_merit_column () =
  let store = sample_store () in
  List.iter
    (fun merit ->
      match Columnar.merit_column store merit with
      | None -> Alcotest.failf "column %s missing" merit
      | Some (values, present) ->
        List.iteri
          (fun i (_, core) ->
            match Core.merit core merit with
            | None ->
              Alcotest.(check bool) (Printf.sprintf "%s absent %d" merit i) false
                (Bitset.mem present i)
            | Some v ->
              Alcotest.(check bool) (Printf.sprintf "%s present %d" merit i) true
                (Bitset.mem present i);
              (* NaN-safe: compare by bits, not (=) *)
              Alcotest.(check int64) (Printf.sprintf "%s value %d" merit i)
                (Int64.bits_of_float v)
                (Int64.bits_of_float values.(i)))
          sample_cores)
    [ "delay"; "cost" ];
  Alcotest.(check bool) "unknown merit" true (Columnar.merit_column store "power" = None)

let test_columnar_property_matches () =
  let store = sample_store () in
  let check_pred ~key ~value =
    match Columnar.property_matches store ~key ~value with
    | None -> Alcotest.failf "no predicate for declared key %s" key
    | Some pred ->
      List.iteri
        (fun i (_, core) ->
          Alcotest.(check bool)
            (Printf.sprintf "%s=%s core %d" key value i)
            (Core.matches_property core ~key ~value)
            (pred i))
        sample_cores
  in
  check_pred ~key:"style" ~value:"hw";
  check_pred ~key:"style" ~value:"sw";
  check_pred ~key:"alg" ~value:"fast";
  (* a value no core binds: only undiscriminated cores match *)
  check_pred ~key:"style" ~value:"analog";
  (* a key no core declares: no column, caller skips the filter *)
  Alcotest.(check bool) "undeclared key" true
    (Columnar.property_matches store ~key:"vendor" ~value:"x" = None)

let test_merit_summary_columnar () =
  let store = sample_store () in
  let n = Columnar.length store in
  let entries = Array.of_list sample_cores in
  for mask = 0 to (1 lsl n) - 1 do
    let bits = Bitset.create n in
    let picked = ref [] in
    for i = n - 1 downto 0 do
      if mask land (1 lsl i) <> 0 then begin
        Bitset.set bits i;
        picked := entries.(i) :: !picked
      end
    done;
    let merits = [ "delay"; "cost"; "power" ] in
    List.iter2
      (fun merit actual ->
        let expected = Evaluation.merit_summary !picked ~merit in
        Alcotest.(check bool)
          (Printf.sprintf "summary %s mask %d" merit mask)
          true (expected = actual))
      merits
      (Evaluation.merit_summary_columnar store bits ~merits)
  done

(* The fused fold against the list fold, on a store of 77 cores (the
   last word ragged) whose columns hold NaN, both infinities, both
   zeros and absent merits.  Column "z" holds nothing but those, so its
   finite range is a pair of zeros; ranges compare by bits, so a fold
   that visited ids out of order would show in the sign of a zero. *)
let test_merit_summary_fused () =
  let g = Prng.create 17 in
  let specials = [| Float.nan; infinity; neg_infinity; 0.0; -0.0 |] in
  let n = 77 in
  let cores =
    List.init n (fun i ->
        let merits =
          List.filter_map
            (fun m ->
              match Prng.int g 8 with
              | 0 -> None
              | 1 -> Some (m, specials.(Prng.int g (Array.length specials)))
              | _ when m = "z" -> Some (m, specials.(Prng.int g (Array.length specials)))
              | _ -> Some (m, (Prng.float g *. 200.0) -. 100.0))
            [ "a"; "b"; "c"; "z" ]
        in
        let id = Printf.sprintf "lib/f%02d" i in
        (id, Core.make_exn ~id ~name:id ~provider:"t" ~kind:Core.Soft_core ~properties:[] ~merits ()))
  in
  let store = Columnar.build (Array.of_list cores) in
  let bits_of pick =
    let bits = Bitset.create n in
    for i = 0 to n - 1 do
      if pick i then Bitset.set bits i
    done;
    bits
  in
  let bitsets =
    [
      ("empty", bits_of (fun _ -> false));
      ("full", bits_of (fun _ -> true));
      ("random", bits_of (fun _ -> Prng.int g 2 = 0));
      ("sparse", bits_of (fun _ -> Prng.int g 7 = 0));
      ("ragged", bits_of (fun i -> i >= 64));
    ]
  in
  let range_bits = Option.map (fun (lo, hi) -> (Int64.bits_of_float lo, Int64.bits_of_float hi)) in
  let same (a : Evaluation.merit_summary) (b : Evaluation.merit_summary) =
    range_bits a.merit_range = range_bits b.merit_range
    && a.skipped_non_finite = b.skipped_non_finite
    && a.missing = b.missing
  in
  List.iter
    (fun (label, bits) ->
      let picked = List.filteri (fun i _ -> Bitset.mem bits i) cores in
      List.iter
        (fun merits ->
          let fused = Evaluation.merit_summary_columnar store bits ~merits in
          Alcotest.(check int)
            (Printf.sprintf "%s [%s]: one summary per merit" label (String.concat ";" merits))
            (List.length merits) (List.length fused);
          List.iter2
            (fun merit actual ->
              Alcotest.(check bool)
                (Printf.sprintf "%s [%s]: %s" label (String.concat ";" merits) merit)
                true
                (same (Evaluation.merit_summary picked ~merit) actual))
            merits fused)
        [ [ "a"; "b"; "c"; "z" ]; [ "b"; "z"; "b" ]; [ "a"; "absent"; "c" ]; [ "absent" ]; [] ])
    bitsets

let () =
  Alcotest.run "columnar"
    [
      ( "bitset",
        [
          Alcotest.test_case "popcount32" `Quick test_popcount32;
          Alcotest.test_case "spread16 roundtrip" `Quick test_spread_roundtrip;
          Alcotest.test_case "ops vs oracle" `Quick test_bitset_oracle;
          Alcotest.test_case "structure" `Quick test_bitset_structure;
        ] );
      ( "verdict slots",
        [
          Alcotest.test_case "merge + peek" `Quick test_slot_merge_peek;
          Alcotest.test_case "peek_word" `Quick test_slot_peek_word;
          Alcotest.test_case "merge_bits identity" `Quick test_slot_merge_bits_identity;
          Alcotest.test_case "restamp drops stale merges" `Quick test_slot_restamp_drops;
        ] );
      ( "clock cache",
        [
          Alcotest.test_case "basics" `Quick test_clock_cache_basics;
          Alcotest.test_case "second chance" `Quick test_clock_cache_second_chance;
          Alcotest.test_case "churn" `Quick test_clock_cache_churn;
        ] );
      ( "columnar store",
        [
          Alcotest.test_case "accessors" `Quick test_columnar_accessors;
          Alcotest.test_case "merit columns" `Quick test_columnar_merit_column;
          Alcotest.test_case "property predicates" `Quick test_columnar_property_matches;
          Alcotest.test_case "merit summary" `Quick test_merit_summary_columnar;
          Alcotest.test_case "fused merit summaries" `Quick test_merit_summary_fused;
        ] );
    ]
