(* What both kinds of run share: setup, the server's counters, the
   correctness gate and the output lines. *)

open Util
module P = Ds_serve.Protocol
module W = Workload

let run_root = ".perfbench_run"

(* ----- server-side counters, differenced across a window ----- *)

let metrics admin = match J.of_string (Deploy.call admin {|{"op":"metrics"}|}) with
  | Ok j when path j [ "ok" ] = Some (J.Bool true) -> j
  | Ok _ | Error _ -> fail "metrics request failed"

(* A counter summed over every registry of the reply (a fleet router
   merges its shards' registries and adds its own under "router"). *)
let registries m =
  List.map snd (obj_fields (path m [ "registries" ]))
  @ Option.to_list (path m [ "router" ])

let counter m name =
  List.fold_left (fun acc r -> acc +. num (path r [ "counters"; name ])) 0.0 (registries m)

let hist m name =
  List.fold_left
    (fun (c, s) r ->
      (c +. num (path r [ "histograms"; name; "count" ]), s +. num (path r [ "histograms"; name; "sum" ])))
    (0.0, 0.0) (registries m)

let delta m0 m1 name = counter m1 name -. counter m0 name

let hist_mean_delta m0 m1 name =
  let c0, s0 = hist m0 name and c1, s1 = hist m1 name in
  ratio (s1 -. s0) (c1 -. c0)

let evictions admin =
  match J.of_string (Deploy.call admin {|{"op":"stats"}|}) with
  | Ok j -> num (path j [ "evictions" ])
  | Error e -> fail "stats request failed: %s" e

(* ----- setup ----- *)

type deployed = { d : Deploy.t; setup_s : float; setup_writes : int }

let check_results what (rs : Drive.result list) =
  List.iter
    (fun (r : Drive.result) ->
      match r.first_error with
      | Some e -> fail "%s: %d failed replies, first: %s" what r.failed e
      | None -> ())
    rs

let sum f rs = List.fold_left (fun acc r -> acc + f r) 0 rs

(* Spawn, wait for the socket, open and bind every session at depth 16
   on two connections: from spawn to the first measured request. *)
let set_up (w : W.t) ~dse ~seed ~dir kind =
  let t0 = now () in
  let d = Deploy.start ~dse ~dir kind in
  let conns = List.init W.connections (fun _ -> Deploy.connect_retry d.socket) in
  let rs =
    Drive.parallel conns (fun conn c ->
        Drive.run ~depth:16 ~deadline:infinity c (Drive.of_list (W.setup_ops w ~seed ~conn)))
  in
  List.iter Deploy.close conns;
  let setup_s = now () -. t0 in
  check_results "setup" rs;
  { d; setup_s; setup_writes = sum (fun r -> r.Drive.acked_writes) rs }

(* ----- correctness gate ----- *)

let layer_cache = Hashtbl.create 2

(* The workload's layer built once in-process; sessions are pristine
   copies of it, as the service's layer cache hands them out. *)
let base_session (w : W.t) =
  match Hashtbl.find_opt layer_cache w.layer with
  | Some s -> s
  | None ->
    let s =
      match Ds_domains.Catalog.session w.layer ~eol:768 with
      | Ok s -> s
      | Error e -> fail "%s" e
    in
    Hashtbl.add layer_cache w.layer s;
    s

let apply s = function
  | P.Set { name; value; _ } -> Ds_layer.Session.set s name value
  | P.Retract { name; _ } -> Ds_layer.Session.retract s name
  | _ -> Ok s

(* The bindings a history leaves, in binding order. *)
let net_script history =
  let drop name = List.filter (function P.Set s -> s.name <> name | _ -> true) in
  List.fold_left
    (fun acc req ->
      match req with
      | P.Set { name; _ } -> drop name acc @ [ req ]
      | P.Retract { name; _ } -> drop name acc
      | _ -> acc)
    [] history

let sample_sessions (w : W.t) ~seed =
  let g = W.rng ~seed ~conn:9 9 in
  let n = min 16 w.sessions in
  let chosen = Hashtbl.create n in
  while Hashtbl.length chosen < n do
    Hashtbl.replace chosen (Random.State.int g w.sessions) ()
  done;
  chosen

(* Every sampled session's server signature must equal an in-process
   replay of its setup plus acknowledged mutations.  On gen100k the
   replay applies the bindings the history leaves (each step retracts
   before it re-binds, so they sign alike), because a thousand 10^5-core
   sweeps would outlast the run; IDCT replays the full history and also
   checks the cached sweep against [candidates_naive]. *)
let gate (w : W.t) ~seed admin sampled (rs : Drive.result list) =
  let base = base_session w in
  Hashtbl.fold
    (fun sid () n ->
      let history =
        List.fold_left
          (fun acc (r : Drive.result) ->
            match Hashtbl.find_opt r.history sid with Some h -> List.rev h @ acc | None -> acc)
          [] rs
      in
      let history = w.setup ~seed sid @ history in
      let history = if w.layer = "idct" then history else net_script history in
      let local =
        List.fold_left
          (fun s req -> match apply s req with Ok s -> s | Error e -> fail "replay of %s: %s" (W.session_id w sid) e)
          (Ds_layer.Session.pristine base) history
      in
      if w.layer = "idct" then begin
        let ids l = List.map fst l in
        if ids (Ds_layer.Session.candidates local) <> ids (Ds_layer.Session.candidates_naive local)
        then fail "session %s: cached candidates differ from candidates_naive" (W.session_id w sid)
      end;
      let reply = Deploy.call admin (W.line_of (P.Signature { session = W.session_id w sid })) in
      let server =
        match J.of_string reply with Ok j -> J.str_member "signature" j | Error _ -> None
      in
      if server <> Some (Ds_layer.Session.candidate_signature local) then
        fail "session %s: server signature %s differs from the oracle replay" (W.session_id w sid) reply;
      n + 1)
    sampled 0

(* ----- output ----- *)

let fnum f = if Float.is_finite f then Printf.sprintf "%.17g" f else "0"

let emit ~correct ~attempted ~failed metrics =
  let m =
    List.map (fun (name, unit, v) -> Printf.sprintf {|"%s": {"value": %s, "unit": "%s"}|} name (fnum v) unit) metrics
  in
  Printf.printf {|{"correct": %b, "attempted": %d, "failed": %d, "metrics": {%s}}|} correct attempted
    failed (String.concat ", " m);
  print_newline ()

let env_config () =
  Array.to_list (Unix.environment ())
  |> List.filter (fun kv -> String.starts_with ~prefix:"DSE_" kv)
  |> List.sort compare

let info (w : W.t) ~seed ~seconds ~trace extra =
  let str s = J.Str s in
  let j =
    J.Obj
      ([
         ("workload", str w.name);
         ("why", str w.why);
         ("seed", J.Int seed);
         ("seconds", J.Int seconds);
         ("trace", J.Bool trace);
         ("deploy", str (Deploy.describe w.deploy));
         ("layer", str w.layer);
         ("sessions", J.Int w.sessions);
         ("connections", J.Int W.connections);
         ("depth", J.Int w.depth);
         ("env", J.List (List.map str (env_config ())));
       ]
      @ extra)
  in
  print_endline (J.to_string j)

