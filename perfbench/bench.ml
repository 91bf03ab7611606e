(* The exploration-service benchmark: one workload per invocation.

     bench.exe --workload W --seed N --seconds S --trace 0|1 --dse PATH

   With --trace 0 it sets the workload's deployment up three times,
   drives each closed-loop for a third of S seconds and prints the
   end-to-end metrics, each the median over the three.  With --trace 1 it prints
   the per-layer metrics instead (see Ladder).  Either way every reply
   must be ok, a seeded sample of sessions must sign like an in-process
   Session replay of their acknowledged mutations, and the server's own
   counters must agree with the client's; otherwise the run prints
   "correct": false, no numbers, and exits 1.  The last stdout line is
   the result object; the line before it records the seed, the
   effective configuration, sample counts and check results. *)

open Util
open Harness
module W = Workload

(* The run is split over this many fresh deployments, each set up
   (setup_s is the median of their set-up times) and driven for an equal
   share of the window with the same seeded streams.  Every metric is the
   median over the deployments, so one server process that lands in a
   slow state moves one of three values, not the run. *)
let deployments = 3

(* ----- the measured run ----- *)

type lats = { all : float array; reads : float array; writes : float array }

(* Samples a sub-window should hold of reads and of writes. *)
let min_samples = 1000

(* One deployment's window cut into an odd number of equal sub-windows,
   as many as leave each about [min_samples] * 1.2 reads and as many
   writes, at most one per second: a stall of a second or two moves one
   sub-window's values, not the deployment's median. *)
let sub_windows ~t_start ~window (rs : Drive.result list) =
  let lat = Buf.concat (List.map (fun r -> r.Drive.all) rs) in
  let at = Buf.concat (List.map (fun r -> r.Drive.done_at) rs) in
  let wr = Buf.concat (List.map (fun r -> r.Drive.is_write) rs) in
  let writes = int_of_float (Array.fold_left ( +. ) 0.0 wr) in
  let fewest = min writes (Array.length lat - writes) in
  let k = max 1 (min (int_of_float window) (fewest * 5 / (6 * min_samples))) in
  let k = if k mod 2 = 0 then k - 1 else k in
  let len = window /. float_of_int k in
  let subs = Array.init k (fun _ -> (Buf.create (), Buf.create (), Buf.create ())) in
  Array.iteri
    (fun j x ->
      let a, r, w = subs.(max 0 (min (k - 1) (int_of_float ((at.(j) -. t_start) /. len)))) in
      Buf.add a x;
      Buf.add (if wr.(j) = 1.0 then w else r) x)
    lat;
  ( len,
    Array.to_list
      (Array.map (fun (a, r, w) -> { all = Buf.to_array a; reads = Buf.to_array r; writes = Buf.to_array w }) subs) )

type measured = {
  setup : deployed;
  len : float;  (** sub-window length, s *)
  subs : lats list;
  sent : int;
  failed : int;
  acked_writes : int;
  rss_mb : float;
  journal_bytes : int;
  checks : (string * J.t) list;
}

(* Drive one set-up deployment for [seconds], check it, stop it. *)
let measure (w : W.t) ~seed ~seconds (s : deployed) =
  let d = s.d in
  let admin = Deploy.connect_retry d.socket in
  let fds_before = Deploy.settled_fds d in
  let m0 = metrics admin in
  let sampled = sample_sessions w ~seed in
  let conns = List.init W.connections (fun _ -> Deploy.connect_retry d.socket) in
  let t_start = now () in
  let deadline = t_start +. seconds in
  let rs =
    Drive.parallel conns (fun conn c ->
        Drive.run ~sampled:(Hashtbl.mem sampled) ~depth:w.depth ~deadline c
          (Drive.of_stream (w.stream ~seed ~conn)))
  in
  List.iter Deploy.close conns;
  let window = List.fold_left (fun acc r -> max acc r.Drive.t_end) t_start rs -. t_start in
  let m1 = metrics admin in
  let fds_after = Deploy.settled_fds ~at_most:fds_before d in
  let res = Deploy.sample d in
  let sent = sum (fun r -> r.Drive.sent) rs in
  let acked_writes = sum (fun r -> r.Drive.acked_writes) rs in
  check_results "drive" rs;
  let checked = gate w ~seed admin sampled rs in
  Deploy.close admin;
  Deploy.stop d;
  (* telemetry reconciliation: the server's counters against ours *)
  let appends = delta m0 m1 "dse_journal_appends_total" in
  if appends <> float_of_int acked_writes then
    fail "journal appends %.0f differ from %d acknowledged mutations" appends acked_writes;
  let rehydrations = delta m0 m1 "dse_rehydrations_total" in
  (match w.deploy with
  | Deploy.Fleet _ ->
    (* the router counts the closing metrics request before it answers *)
    let routed = delta m0 m1 "dse_router_requests_total" in
    if routed <> float_of_int (sent + 1) then
      fail "router counted %.0f requests, the client sent %d (+1 metrics)" routed sent;
    if rehydrations <> 0.0 then fail "%.0f rehydrations: the store did not hold every session" rehydrations
  | Deploy.Serve { capacity; _ } ->
    if w.sessions > capacity && rehydrations <= 0.0 then
      fail "no rehydrations over a store smaller than the sessions");
  if fds_after > fds_before then fail "server fds grew from %d to %d over the drive" fds_before fds_after;
  let len, subs = sub_windows ~t_start ~window rs in
  {
    setup = s;
    len;
    subs;
    sent;
    failed = sum (fun r -> r.Drive.failed) rs;
    acked_writes;
    rss_mb = float_of_int res.rss_kb /. 1024.0;
    journal_bytes = List.fold_left (fun acc dir -> acc + du dir) 0 (Deploy.journal_dirs d);
    checks =
      [
        ("window_s", J.Float window);
        ("sub_windows", J.Int (List.length subs));
        ("acked_writes", J.Int acked_writes);
        ("journal_appends_delta", J.Float appends);
        ("rehydrations_delta", J.Float rehydrations);
        ("fds_before", J.Int fds_before);
        ("fds_after", J.Int fds_after);
        ("threads", J.Int res.threads);
        ("sessions_checked", J.Int checked);
      ];
  }

let plain (w : W.t) ~dse ~seed ~seconds =
  let dir = Filename.concat run_root w.name in
  let share = float_of_int seconds /. float_of_int deployments in
  let ms =
    List.init deployments (fun _ -> measure w ~seed ~seconds:share (set_up w ~dse ~seed ~dir w.deploy))
  in
  let med f = median (Array.of_list (List.map f ms)) in
  let per_deployment f m = median (Array.of_list (List.map f m.subs)) in
  let rate m = per_deployment (fun s -> float_of_int (Array.length s.all) /. m.len) m in
  let timing name sel p = (name, "us", med (per_deployment (fun s -> pct (sel s) p))) in
  let count sel = List.fold_left (fun acc m -> List.fold_left (fun acc s -> acc + Array.length (sel s)) acc m.subs) 0 ms in
  let sent = List.fold_left (fun acc m -> acc + m.sent) 0 ms in
  let failed = List.fold_left (fun acc m -> acc + m.failed) 0 ms in
  info w ~seed ~seconds ~trace:false
    [
      ("deployments", J.Int deployments);
      ("samples", J.Obj [ ("read", J.Int (count (fun s -> s.reads))); ("write", J.Int (count (fun s -> s.writes))) ]);
      ("throughput_each", J.List (List.map (fun m -> J.Float (rate m)) ms));
      ("setup_s_each", J.List (List.map (fun m -> J.Float m.setup.setup_s) ms));
      ("error_rate", J.Float (ratio (float_of_int failed) (float_of_int sent)));
      ("checks", J.List (List.map (fun m -> J.Obj m.checks) ms));
    ];
  let all s = s.all and reads s = s.reads and writes s = s.writes in
  emit ~correct:true ~attempted:sent ~failed
    [
      ("throughput_rps", "1/s", med rate);
      timing "latency_p50_us" all 50.0;
      timing "latency_p90_us" all 90.0;
      timing "read_p50_us" reads 50.0;
      timing "read_p90_us" reads 90.0;
      timing "write_p50_us" writes 50.0;
      timing "write_p90_us" writes 90.0;
      ("setup_s", "s", med (fun m -> m.setup.setup_s));
      ("server_rss_mb", "MB", med (fun m -> m.rss_mb));
      ( "journal_bytes_per_write",
        "B",
        med (fun m -> float_of_int m.journal_bytes /. float_of_int (m.acked_writes + m.setup.setup_writes)) );
    ]

(* ----- command line ----- *)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10 and trace = ref 0 and dse = ref "" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME");
      ("--seed", Arg.Set_int seed, "N");
      ("--seconds", Arg.Set_int seconds, "S");
      ("--trace", Arg.Set_int trace, "0|1");
      ("--dse", Arg.Set_string dse, "PATH to dse.exe");
    ]
    (fun a -> raise (Arg.Bad a))
    "bench.exe --workload NAME --seed N --seconds S --trace 0|1 --dse PATH";
  let w =
    match List.find_opt (fun (w : W.t) -> w.name = !workload) W.all with
    | Some w -> w
    | None ->
      Printf.eprintf "unknown workload %S (known: %s)\n" !workload
        (String.concat ", " (List.map (fun (w : W.t) -> w.name) W.all));
      exit 2
  in
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  (* stop the servers this run started before dying of a signal *)
  List.iter
    (fun s -> Sys.set_signal s (Sys.Signal_handle (fun _ -> Deploy.stop_all (); exit 1)))
    [ Sys.sigterm; Sys.sigint ];
  match
    if !trace = 0 then plain w ~dse:!dse ~seed:!seed ~seconds:!seconds
    else Ladder.run w ~dse:!dse ~seed:!seed ~seconds:!seconds
  with
  | () -> Deploy.stop_all ()
  | exception e ->
    Deploy.stop_all ();
    let msg = match e with Bench_failure m -> m | e -> Printexc.to_string e in
    Printf.eprintf "benchmark failed: %s\n%!" msg;
    emit ~correct:false ~attempted:0 ~failed:1 [];
    exit 1
