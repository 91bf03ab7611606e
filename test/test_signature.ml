(* Candidate signatures and candidate reads straight off the survivor
   bitset: pinned digests for fixed states of two shipped layers (a
   format drift shared by the cached and uncached paths would pass every
   differential but not these), the id-image digest against the
   per-core Buffer walk it replaced, [Session.candidate_page] against
   [Session.candidates], and an allocation guard on the generated
   layer's sweep kernel. *)

open Ds_layer
module G = Ds_domains.Generator
module IL = Ds_domains.Idct_layer

let ok = function Ok s -> s | Error m -> Alcotest.failf "unexpected error: %s" m

(* ------------------------------------------------------------------ *)
(* Fixed states                                                        *)

(* Every budget has to be bound before the family issue is addressable
   (the GEL constraints' independent sets).  The walk ends with a plain
   issue (scattered pool) and a retraction. *)
let gen_states ~use_cache =
  let s0 = G.session ~use_cache G.default_spec in
  let s1 = ok (Session.set s0 (G.budget_name 0) (Value.real 190.0)) in
  let s2 = ok (Session.set s1 (G.budget_name 1) (Value.real 185.5)) in
  let s2 = ok (Session.set s2 (G.budget_name 2) (Value.real 240.0)) in
  let s2 = ok (Session.set s2 (G.budget_name 3) (Value.real 1000.0)) in
  let s3 = ok (Session.set s2 G.family_issue (Value.str "fam2")) in
  let s4 = ok (Session.set s3 "Q0" (Value.str "q1")) in
  let s5 = ok (Session.retract s4 (G.budget_name 0)) in
  [
    ("gen fresh", s0);
    ("gen GB0", s1);
    ("gen all budgets", s2);
    ("gen fam2", s3);
    ("gen Q0", s4);
    ("gen retract GB0", s5);
  ]

let idct_states ~use_cache =
  let s0 = Session.create ~hierarchy:IL.generalization_first ~use_cache ~cores:IL.cores () in
  let s1 = ok (Session.set s0 "Word Size" (Value.int 16)) in
  let s2 = ok (Session.set s1 "Precision" (Value.int 12)) in
  let s3 = ok (Session.set s2 IL.technology_issue (Value.str "0.35u")) in
  let s4 = ok (Session.set s3 IL.algorithm_issue (Value.str "chen")) in
  [
    ("idct fresh", s0);
    ("idct word", s1);
    ("idct precision", s2);
    ("idct tech", s3);
    ("idct algo", s4);
  ]

(* ------------------------------------------------------------------ *)
(* Golden signatures                                                   *)

(* Digests taken before signatures were read off the id image; they
   must never move (journals on disk carry them). *)
let golden =
  [
    ("gen fresh", "12f31539e3ab8f60accc3d945e1d57d1", 2000);
    ("gen GB0", "fc7c21dd8e78b57ec7235c271a1b2ebc", 1790);
    ("gen all budgets", "5bb576c8bccd99bdf5e21f4aabddb6b2", 1692);
    ("gen fam2", "d90fc62970ff5096fd513b330c80a5d9", 407);
    ("gen Q0", "343750706adb654649052a22d4501d6a", 124);
    ("gen retract GB0", "15a99b38e9131652022e5a2a77731df1", 131);
    ("idct fresh", "52b5df3aaf43c755287a664a482c8bf6", 5);
    ("idct word", "5ddca454da9b6013baae984ee1a99fd9", 5);
    ("idct precision", "96543c62d41a45ae1552a660180f672d", 5);
    ("idct tech", "a84b57a15df8b88b45726a3be283c14a", 3);
    ("idct algo", "5d4105611b24163722399475d73ba0ba", 1);
  ]

let test_golden () =
  List.iter
    (fun use_cache ->
      List.iter
        (fun (name, s) ->
          let digest, count =
            match List.find_opt (fun (n, _, _) -> String.equal n name) golden with
            | Some (_, d, c) -> (d, c)
            | None -> Alcotest.failf "no golden entry for %s" name
          in
          let label = Printf.sprintf "%s (use_cache:%b)" name use_cache in
          Alcotest.(check int) (label ^ " count") count (Session.candidate_count s);
          Alcotest.(check string) label digest (Session.candidate_signature s);
          (* the second read of a cached state is a memo hit: same bytes *)
          Alcotest.(check string) (label ^ " again") digest (Session.candidate_signature s))
        (gen_states ~use_cache @ idct_states ~use_cache))
    [ true; false ]

(* ------------------------------------------------------------------ *)
(* Id-image digest vs the Buffer walk                                  *)

let store_len = 200

(* qids of uneven lengths, so a wrong offset shifts bytes visibly *)
let store =
  let entries =
    Array.of_list (G.cores { G.default_spec with cores = store_len })
    |> Array.mapi (fun i (_, core) -> (String.make (1 + (i mod 7)) 'q' ^ string_of_int i, core))
  in
  (Array.map fst entries, Columnar.build entries)

let buffer_walk qids ~prefix bits =
  let buf = Buffer.create 256 in
  Buffer.add_string buf prefix;
  Bitset.iter_true
    (fun i ->
      Buffer.add_char buf '#';
      Buffer.add_string buf qids.(i))
    bits;
  Digest.string (Buffer.contents buf)

(* Shapes: empty, full, one bit, random bits, random runs (which cross
   32-bit word boundaries), over lengths that leave a partial last
   word. *)
let gen_bitset =
  let open QCheck2.Gen in
  let* length = int_range 0 store_len in
  let* kind = int_range 0 4 in
  let* seed = int in
  let g = Random.State.make [| seed |] in
  let t = Bitset.create length in
  (match kind with
  | 0 -> ()
  | 1 -> for i = 0 to length - 1 do Bitset.set t i done
  | 2 -> if length > 0 then Bitset.set t (Random.State.int g length)
  | 3 ->
    let density = Random.State.int g 101 in
    for i = 0 to length - 1 do
      if Random.State.int g 100 < density then Bitset.set t i
    done
  | _ ->
    for _ = 1 to Random.State.int g 6 do
      if length > 0 then begin
        let lo = Random.State.int g length in
        let hi = Stdlib.min length (lo + 1 + Random.State.int g 70) in
        for i = lo to hi - 1 do Bitset.set t i done
      end
    done);
  let* prefix = string_size ~gen:printable (int_range 0 40) in
  return (prefix, t)

let print_case (prefix, t) =
  let ids = Bitset.fold_true (fun acc i -> string_of_int i :: acc) [] t in
  Printf.sprintf "prefix %S, length %d, ids [%s]" prefix (Bitset.length t)
    (String.concat ";" (List.rev ids))

let prop_digest_ids =
  QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 12 |])
    (QCheck2.Test.make ~count:500 ~name:"digest_ids = Buffer walk" ~print:print_case gen_bitset
       (fun (prefix, bits) ->
         let qids, store = store in
         Digest.equal (Columnar.digest_ids store ~prefix bits) (buffer_walk qids ~prefix bits)))

let test_digest_edges () =
  let qids, store = store in
  let check label bits =
    Alcotest.(check string) label
      (Digest.to_hex (buffer_walk qids ~prefix:"p" bits))
      (Digest.to_hex (Columnar.digest_ids store ~prefix:"p" bits))
  in
  check "empty" (Bitset.create store_len);
  check "full" (Bitset.create_full store_len);
  check "zero-length" (Bitset.create 0);
  check "last bit only" (Bitset.of_ids ~length:store_len [| store_len - 1 |]);
  check "word boundary run" (Bitset.of_ids ~length:store_len (Array.init 40 (fun i -> 10 + i)));
  check "whole middle words" (Bitset.of_ids ~length:store_len (Array.init 96 (fun i -> 32 + i)));
  (* a repeat digest reuses the domain's scratch buffer *)
  check "full again" (Bitset.create_full store_len);
  Alcotest.check_raises "longer bitset refused"
    (Invalid_argument "Columnar.digest_ids: bitset too long") (fun () ->
      ignore (Columnar.digest_ids store ~prefix:"" (Bitset.create (store_len + 1))))

(* Each domain digests through its own scratch buffer: digests computed
   on several domains at once, of different bitsets, all match. *)
let test_digest_domains () =
  let qids, store = store in
  let work seed () =
    let g = Random.State.make [| seed |] in
    let bad = ref 0 in
    for _ = 1 to 300 do
      let bits = Bitset.create store_len in
      for i = 0 to store_len - 1 do
        if Random.State.bool g then Bitset.set bits i
      done;
      let prefix = string_of_int seed in
      if not (Digest.equal (Columnar.digest_ids store ~prefix bits) (buffer_walk qids ~prefix bits))
      then incr bad
    done;
    !bad
  in
  let others = List.map (fun seed -> Stdlib.Domain.spawn (work seed)) [ 1; 2 ] in
  let here = work 3 () in
  Alcotest.(check (list int)) "mismatches per domain" [ 0; 0; 0 ]
    (here :: List.map Stdlib.Domain.join others)

(* ------------------------------------------------------------------ *)
(* candidate_page vs candidates                                        *)

let check_pages label s =
  let all = List.map fst (Session.candidates s) in
  let count = List.length all in
  List.iter
    (fun max ->
      let label =
        Printf.sprintf "%s max=%s" label
          (match max with Some m -> string_of_int m | None -> "none")
      in
      let expected =
        match max with
        | Some m when m >= 0 -> List.filteri (fun i _ -> i < m) all
        | Some _ | None -> all
      in
      let got_count, got = Session.candidate_page s ~max in
      Alcotest.(check int) (label ^ " count") count got_count;
      Alcotest.(check (list string)) (label ^ " page") expected got)
    [ None; Some 0; Some 1; Some 16; Some count; Some (count + 1); Some (-1) ]

let test_candidate_page () =
  List.iter
    (fun use_cache ->
      List.iter
        (fun (name, s) -> check_pages (Printf.sprintf "%s (use_cache:%b)" name use_cache) s)
        (gen_states ~use_cache @ idct_states ~use_cache))
    [ true; false ]

(* ------------------------------------------------------------------ *)
(* Allocation guard                                                    *)

(* Re-binding a budget to a value no state has seen re-opens that
   budget's constraint, so the next sweep runs its kernel on every core
   still alive.  The kernel reads flat merit columns without boxing; the
   closure-per-read version allocated about 15 words per core. *)
let test_sweep_allocation () =
  let d0 = Parallel.domain_count () in
  Parallel.set_domain_count 1;
  Fun.protect
    ~finally:(fun () -> Parallel.set_domain_count d0)
    (fun () ->
      let spec = { G.default_spec with cores = 20_000 } in
      let s = G.session spec in
      let s =
        List.fold_left
          (fun s i -> ok (Session.set s (G.budget_name i) (Value.real 1000.0)))
          s
          (List.init spec.G.ccs Fun.id)
      in
      ignore (Session.candidate_count s);
      let rebind s v =
        let s = ok (Session.retract s (G.budget_name 0)) in
        ok (Session.set s (G.budget_name 0) (Value.real v))
      in
      (* one warm-up round so the lineage's verdict buffers exist *)
      let s = rebind s 190.25 in
      ignore (Session.candidate_count s);
      let s = rebind s 191.75 in
      let w0 = Gc.minor_words () in
      let survivors = Session.candidate_count s in
      let words = Gc.minor_words () -. w0 in
      let per_core = words /. float_of_int spec.G.cores in
      Alcotest.(check bool) "the sweep pruned something" true (survivors < spec.G.cores);
      if per_core >= 2.0 then
        Alcotest.failf "sweep allocated %.2f minor words per core (%.0f words)" per_core words)

let () =
  Alcotest.run "signature"
    [
      ("golden", [ Alcotest.test_case "fixed states" `Quick test_golden ]);
      ( "digest",
        [
          prop_digest_ids;
          Alcotest.test_case "edge shapes" `Quick test_digest_edges;
          Alcotest.test_case "concurrent domains" `Quick test_digest_domains;
        ] );
      ("candidate_page", [ Alcotest.test_case "vs candidates" `Quick test_candidate_page ]);
      ("allocation", [ Alcotest.test_case "generator sweep" `Quick test_sweep_allocation ]);
    ]
