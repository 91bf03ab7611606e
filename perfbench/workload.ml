(* The workloads: how each is deployed, what setup opens and binds, and
   the seeded request stream each connection sends.

   idct-rehydrate is runnable by name but not one of the benchmark's
   workloads: every touch evicts a session, and eviction fsyncs the
   journal directory, so on a shared disk its runs spread too far to
   bound.  The traced runs replay its stream in-process as the recovery
   probe (see Ladder). *)

module P = Ds_serve.Protocol
module V = Ds_layer.Value

type op = {
  sid : int;  (** session index *)
  req : P.request;
  line : string;
  write : bool;  (** a journaled mutation ([set] / [retract]) *)
}

type t = {
  name : string;
  why : string;
  deploy : Deploy.kind;
  layer : string;
  sessions : int;
  depth : int;  (** requests each connection keeps in flight *)
  ladder_prefix : int;  (** requests replayed on each ladder rung *)
  stream : seed:int -> conn:int -> unit -> op;
      (** the connection's endless request stream; connection [c] only
          ever touches sessions [i] with [i mod 2 = c], so no two
          connections race on one session *)
  setup : seed:int -> int -> P.request list;  (** the bindings after [open] *)
}

let connections = 2
let session_id w i = Printf.sprintf "%s-%d" (String.sub w.name 0 4) i
let line_of req = Ds_serve.Jsonx.to_string (P.json_of_request req)

let op sid req =
  let write = match req with P.Set _ | P.Retract _ -> true | _ -> false in
  { sid; req; line = line_of req; write }

let rng ~seed ~conn salt = Random.State.make [| seed; conn; salt |]

let set w sid name value =
  op sid (P.Set { session = session_id w sid; name; value; decide = false })

let retract w sid name = op sid (P.Retract { session = session_id w sid; name })
let candidates w sid = op sid (P.Candidates { session = session_id w sid; max = Some 16 })

(* IDCT sessions get a Word Size at setup; the drive binds and retracts
   Precision below it, so every [set] is consistent. *)
let idct_setup w ~seed i =
  let g = rng ~seed ~conn:i 1 in
  [
    P.Set
      {
        session = session_id w i;
        name = "Word Size";
        value = V.Int (16 + Random.State.int g 9);
        decide = false;
      };
  ]

let precision g = V.Int (4 + Random.State.int g 12)

(* Connection [conn]'s sessions in a seeded order. *)
let partition w ~seed ~conn =
  let own = Array.init (w.sessions / connections) (fun k -> (k * connections) + conn) in
  let g = rng ~seed ~conn 2 in
  for k = Array.length own - 1 downto 1 do
    let j = Random.State.int g (k + 1) in
    let x = own.(k) in
    own.(k) <- own.(j);
    own.(j) <- x
  done;
  own

let rec idct_fleet =
  {
    name = "idct-fleet";
    why =
      "router plus two workers, two connections at depth 16 over 900 resident IDCT sessions: \
       codec, socket, pipelining, router hop and dispatch carry the cost";
    deploy = Deploy.Fleet { workers = 2 };
    layer = "idct";
    (* the ladder's single `dse serve` rung holds every session's journal
       open, and the server's select() fails once an fd passes 1023 *)
    sessions = 900;
    depth = 16;
    ladder_prefix = 1800;
    setup = (fun ~seed i -> idct_setup idct_fleet ~seed i);
    stream =
      (fun ~seed ~conn ->
        let w = idct_fleet in
        let own = partition w ~seed ~conn in
        let g = rng ~seed ~conn 3 in
        let next = ref 0 and phase = Array.make w.sessions 0 in
        (* round-robin over the partition: a session is revisited only
           after every other session of the connection, so its previous
           request has long been answered even at depth 16 *)
        fun () ->
          let sid = own.(!next mod Array.length own) in
          incr next;
          let p = phase.(sid) in
          phase.(sid) <- (p + 1) mod 4;
          match p with
          | 0 -> set w sid "Precision" (precision g)
          | 1 -> candidates w sid
          | 2 -> op sid (P.Signature { session = session_id w sid })
          | _ -> retract w sid "Precision");
  }

(* A step: retract one budget, re-bind it, read candidates, then the
   ranges of m0-m1 and of m2-m3.  The split puts the overall median in
   the middle of the candidates reads and the read median inside the
   ranges reads, instead of on the edge between two costs. *)
let budgets = 4

(* A fresh budget: a uniform real in [185, 195), never integral, so it
   decodes as a real and misses every cached verdict.  The band is narrow
   so every step keeps about the same share of the cores, and a run's
   cost does not hang on which budgets its seed drew. *)
let budget g =
  let v = 185.0 +. Random.State.float g 10.0 in
  V.Real (if Float.is_integer v then v +. 0.5 else v)

let rec gen100k_steps =
  {
    name = "gen100k-steps";
    why =
      "one server, two lockstep 10^5-core sessions re-binding budgets to fresh values that miss \
       the compliance caches: the columnar sweep carries the cost";
    deploy = Deploy.Serve { sync = false; capacity = 64 };
    layer = "gen100k";
    sessions = 2;
    depth = 1;
    ladder_prefix = 200;
    setup =
      (fun ~seed i ->
        let g = rng ~seed ~conn:i 1 in
        List.init budgets (fun b ->
            P.Set
              {
                session = session_id gen100k_steps i;
                name = Ds_domains.Generator.budget_name b;
                value = budget g;
                decide = false;
              }));
    stream =
      (fun ~seed ~conn ->
        let w = gen100k_steps in
        let g = rng ~seed ~conn 3 in
        let k = ref 0 in
        fun () ->
          let step = !k / 5 and p = !k mod 5 in
          incr k;
          let b = Ds_domains.Generator.budget_name (step mod budgets) in
          let ranges ms = op conn (P.Ranges { session = session_id w conn; merits = Some ms }) in
          match p with
          | 0 -> retract w conn b
          | 1 -> set w conn b (budget g)
          | 2 -> candidates w conn
          | 3 -> ranges [ "m0"; "m1" ]
          | _ -> ranges [ "m2"; "m3" ]);
  }

let rec idct_rehydrate =
  {
    name = "idct-rehydrate";
    why =
      "1024 fsync-journaled IDCT sessions behind a 64-session store, touched uniformly: \
       eviction, resume, journal and fsync carry the cost";
    deploy = Deploy.Serve { sync = true; capacity = 64 };
    layer = "idct";
    sessions = 1024;
    depth = 1;
    ladder_prefix = 600;
    setup = (fun ~seed i -> idct_setup idct_rehydrate ~seed i);
    stream =
      (fun ~seed ~conn ->
        let w = idct_rehydrate in
        let own = partition w ~seed ~conn in
        let g = rng ~seed ~conn 3 in
        let phase = Array.make w.sessions 0 in
        fun () ->
          let sid = own.(Random.State.int g (Array.length own)) in
          let p = phase.(sid) in
          phase.(sid) <- (p + 1) mod 3;
          match p with
          | 0 -> set w sid "Precision" (precision g)
          | 1 -> candidates w sid
          | _ -> retract w sid "Precision");
  }

let all = [ idct_fleet; gen100k_steps; idct_rehydrate ]

let open_req w i =
  P.Open { session = Some (session_id w i); layer = w.layer; eol = None; resume = false }

(* Every session's open and setup bindings, connection [conn]'s share. *)
let setup_ops w ~seed ~conn =
  List.concat
    (List.init (w.sessions / connections) (fun k ->
         let i = (k * connections) + conn in
         op i (open_req w i) :: List.map (op i) (w.setup ~seed i)))

(* The first [n] requests of connection 0's stream. *)
let prefix w ~seed n =
  let next = w.stream ~seed ~conn:0 in
  List.init n (fun _ -> next ())
