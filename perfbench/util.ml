(* Timing, sample statistics, files and JSON access shared by the
   benchmark's modules. *)

module J = Ds_serve.Jsonx

(* Monotonic seconds at nanosecond resolution: µs-scale engine and codec
   calls are timed one by one. *)
let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

exception Bench_failure of string

(* A failed check or reply: the run prints no numbers and exits 1. *)
let fail fmt = Printf.ksprintf (fun s -> raise (Bench_failure s)) fmt

(* A growable float sample buffer: several hundred thousand latencies
   per run, appended from the hot loop. *)
module Buf = struct
  type t = { mutable a : float array; mutable n : int }

  let create () = { a = Array.make 4096 0.0; n = 0 }

  let add b x =
    if b.n = Array.length b.a then begin
      let a' = Array.make (2 * b.n) 0.0 in
      Array.blit b.a 0 a' 0 b.n;
      b.a <- a'
    end;
    Array.unsafe_set b.a b.n x;
    b.n <- b.n + 1

  let to_array b = Array.sub b.a 0 b.n
  let concat bs = Array.concat (List.map to_array bs)
end

let sorted a =
  let a = Array.copy a in
  Array.sort Float.compare a;
  a

(* Nearest-rank percentile; 0 on an empty sample. *)
let pct a p =
  let s = sorted a in
  let n = Array.length s in
  if n = 0 then 0.0
  else s.(max 0 (min (n - 1) (int_of_float (Float.ceil (p /. 100.0 *. float_of_int n)) - 1)))

let median a = pct a 50.0

let mean a =
  if Array.length a = 0 then 0.0 else Array.fold_left ( +. ) 0.0 a /. float_of_int (Array.length a)

let ratio a b = if b = 0.0 then 0.0 else a /. b

(* ----- files ----- *)

let rec rm_rf path =
  match (Unix.lstat path).Unix.st_kind with
  | Unix.S_DIR ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Unix.unlink path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

(* Bytes of the regular files under [path]. *)
let rec du path =
  match (Unix.lstat path).Unix.st_kind with
  | Unix.S_DIR ->
    Array.fold_left (fun acc f -> acc + du (Filename.concat path f)) 0 (Sys.readdir path)
  | Unix.S_REG -> (Unix.lstat path).Unix.st_size
  | _ -> 0
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> 0

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* ----- JSON ----- *)

let rec path j = function
  | [] -> Some j
  | k :: rest -> Option.bind (J.member k j) (fun j -> path j rest)

let obj_fields = function Some (J.Obj fields) -> fields | _ -> []
let num = function Some (J.Int i) -> float_of_int i | Some (J.Float f) -> f | _ -> 0.0
