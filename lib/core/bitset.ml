(* Fixed-length bitsets over plain [int array] words, 32 payload bits
   per word.  32 (not 63) so that one bitset word maps onto exactly two
   packed-verdict words of {!Compliance.Slot} (16 two-bit codes each)
   and onto whole cache lines of the columnar float arrays — the sweep
   kernel walks all three in lockstep.  Every operation is plain
   unboxed [int] arithmetic: no [Int64] boxing in the hot loop.

   Concurrency contract (what the columnar sweep relies on): reads and
   writes of one array element are atomic in OCaml (no tearing), so
   distinct words may be written by distinct domains without
   synchronization.  {!Parallel.map_chunks} with [quantum] a multiple
   of {!bits_per_word} hands each chunk a disjoint word range, which is
   exactly that regime. *)

type t = { words : int array; length : int }

let bits_per_word = 32
let word_count_for length = (length + bits_per_word - 1) / bits_per_word

let create length =
  if length < 0 then invalid_arg "Bitset.create: negative length";
  { words = Array.make (word_count_for length) 0; length }

(* Mask of the valid bits of the last word ([lnot 0] when the length is
   word-aligned, including 0). *)
let last_word_mask length =
  let r = length mod bits_per_word in
  if r = 0 then lnot 0 else (1 lsl r) - 1

let create_full length =
  let t = create length in
  let nw = Array.length t.words in
  if nw > 0 then begin
    Array.fill t.words 0 nw ((1 lsl bits_per_word) - 1);
    t.words.(nw - 1) <- t.words.(nw - 1) land last_word_mask length
  end;
  t

let length t = t.length
let word_count t = Array.length t.words

let mem t i = Array.unsafe_get t.words (i lsr 5) land (1 lsl (i land 31)) <> 0

let set t i =
  let w = i lsr 5 in
  Array.unsafe_set t.words w (Array.unsafe_get t.words w lor (1 lsl (i land 31)))

let clear t i =
  let w = i lsr 5 in
  Array.unsafe_set t.words w (Array.unsafe_get t.words w land lnot (1 lsl (i land 31)))

let word t w = Array.unsafe_get t.words w
let set_word t w v = Array.unsafe_set t.words w (v land 0xFFFFFFFF)

(* SWAR popcount over a 32-bit payload; the multiply stays well inside
   OCaml's 63-bit int, but unlike a C uint32 it keeps product bits
   above 31, so the byte-accumulator shift needs an explicit final
   mask. *)
let popcount32 x =
  let x = x land 0xFFFFFFFF in
  let x = x - ((x lsr 1) land 0x55555555) in
  let x = (x land 0x33333333) + ((x lsr 2) land 0x33333333) in
  let x = (x + (x lsr 4)) land 0x0F0F0F0F in
  (x * 0x01010101) lsr 24 land 0xFF

let count t = Array.fold_left (fun acc w -> acc + popcount32 w) 0 t.words

(* Spread the low 16 bits of [x] to the even positions of a 32-bit
   word (0babcd -> 0b0a0b0c0d), and back.  The sweep uses the pair to
   convert between survivor-mask bits and packed two-bit verdict
   codes. *)
let spread16 x =
  let x = x land 0xFFFF in
  let x = (x lor (x lsl 8)) land 0x00FF00FF in
  let x = (x lor (x lsl 4)) land 0x0F0F0F0F in
  let x = (x lor (x lsl 2)) land 0x33333333 in
  (x lor (x lsl 1)) land 0x55555555

let unspread16 x =
  let x = x land 0x55555555 in
  let x = (x lor (x lsr 1)) land 0x33333333 in
  let x = (x lor (x lsr 2)) land 0x0F0F0F0F in
  let x = (x lor (x lsr 4)) land 0x00FF00FF in
  (x lor (x lsr 8)) land 0x0000FFFF

let iter_true f t =
  let nw = Array.length t.words in
  for w = 0 to nw - 1 do
    let bits = ref (Array.unsafe_get t.words w) in
    let base = w * bits_per_word in
    while !bits <> 0 do
      let b = !bits land - !bits in
      (* index of the lowest set bit: popcount of the bits below it *)
      f (base + popcount32 (b - 1));
      bits := !bits land (!bits - 1)
    done
  done

(* [iter_true] reads each word before visiting its bits, so clearing
   the visited index does not disturb the walk. *)
let filter_in_place p t = iter_true (fun i -> if not (p i) then clear t i) t

let fold_true f init t =
  let acc = ref init in
  iter_true (fun i -> acc := f !acc i) t;
  !acc

(* Trailing zeros of the 32-bit payload of [x]; 32 when it is zero
   (the mask below the lowest set bit is then all ones). *)
let ctz32 x = popcount32 ((x land -x) - 1)

(* Built back to front, one cons per element: the top word's highest
   bit is consed first. *)
let map_true f t =
  let acc = ref [] in
  for w = Array.length t.words - 1 downto 0 do
    let bits = Array.unsafe_get t.words w in
    if bits <> 0 then begin
      let base = w * bits_per_word in
      for b = bits_per_word - 1 downto 0 do
        if bits land (1 lsl b) <> 0 then acc := f (base + b) :: !acc
      done
    end
  done;
  !acc

let take_true t k =
  let acc = ref [] and left = ref k and w = ref 0 in
  let nw = Array.length t.words in
  while !left > 0 && !w < nw do
    let bits = ref (Array.unsafe_get t.words !w) in
    while !left > 0 && !bits <> 0 do
      acc := ((!w * bits_per_word) + ctz32 !bits) :: !acc;
      decr left;
      bits := !bits land (!bits - 1)
    done;
    incr w
  done;
  List.rev !acc

(* One pass over the words, two trailing-zero counts per run boundary:
   inside a run, count the ones still ahead in this word; outside,
   count the zeros.  A run reaching the top of a word stays open into
   the next one, so runs crossing word boundaries come out whole. *)
let iter_runs f t =
  let start = ref (-1) in
  for w = 0 to Array.length t.words - 1 do
    let bits = Array.unsafe_get t.words w in
    if not ((bits = 0 && !start < 0) || (bits = 0xFFFFFFFF && !start >= 0)) then begin
      let base = w * bits_per_word in
      let pos = ref 0 in
      while !pos < bits_per_word do
        if !start >= 0 then begin
          pos := !pos + ctz32 (lnot (bits lsr !pos));
          if !pos < bits_per_word then begin
            f !start (base + !pos);
            start := -1
          end
        end
        else begin
          pos := !pos + ctz32 (bits lsr !pos);
          if !pos < bits_per_word then start := base + !pos
        end
      done
    end
  done;
  if !start >= 0 then f !start t.length

let equal a b =
  a.length = b.length
  &&
  let rec go w = w < 0 || (a.words.(w) = b.words.(w) && go (w - 1)) in
  go (Array.length a.words - 1)

let copy t = { words = Array.copy t.words; length = t.length }

let of_ids ~length ids =
  let t = create length in
  Array.iter (fun i -> set t i) ids;
  t
