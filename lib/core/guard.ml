module Obs = Ds_obs.Obs

type fault =
  | Raised of string
  | Non_finite of string
  | Budget_exhausted of int
  | Diverged of string

let describe_fault = function
  | Raised exn -> "raised: " ^ exn
  | Non_finite what -> "non-finite value: " ^ what
  | Budget_exhausted budget -> Printf.sprintf "evaluation budget exhausted (%d steps)" budget
  | Diverged what -> "diverged: " ^ what

let default_budget = 100_000

exception Out_of_fuel

(* Stack of fuel counters: the innermost [run] owns the head.  Nested
   runs (a guarded closure calling back into guarded library code) each
   burn their own budget.  The stack is domain-local: the exploration
   service's request worker domains evaluate closures concurrently, and
   each domain's budgets must be its own. *)
let fuel : int ref list Stdlib.Domain.DLS.key =
  Stdlib.Domain.DLS.new_key (fun () -> [])

let tick () =
  match Stdlib.Domain.DLS.get fuel with
  | [] -> ()
  | r :: _ ->
    decr r;
    if !r <= 0 then raise Out_of_fuel

let run ?(budget = default_budget) f =
  let r = ref budget in
  Stdlib.Domain.DLS.set fuel (r :: Stdlib.Domain.DLS.get fuel);
  (* pop by identity, not by position: robust even if systhreads of one
     domain interleave their runs (worst case a budget goes unenforced
     for a bit; never a spurious Out_of_fuel) *)
  let pop () =
    Stdlib.Domain.DLS.set fuel
      (List.filter (fun x -> x != r) (Stdlib.Domain.DLS.get fuel))
  in
  match f () with
  | v ->
    pop ();
    Ok v
  | exception e ->
    pop ();
    (match e with
    | Out_of_fuel -> Error (Budget_exhausted budget)
    | Out_of_memory -> raise e
    | e -> Error (Raised (Printexc.to_string e)))

let is_finite v = Float.is_finite v

let finite_metrics metrics =
  match List.find_opt (fun (_, v) -> not (is_finite v)) metrics with
  | Some (name, v) -> Error (Non_finite (Printf.sprintf "%s = %h" name v))
  | None -> Ok metrics

let finite_values values =
  let bad (_, value) = match value with Value.Real v -> not (is_finite v) | _ -> false in
  match List.find_opt bad values with
  | Some (name, value) -> Error (Non_finite (Printf.sprintf "%s = %s" name (Value.to_string value)))
  | None -> Ok values

type status =
  | Healthy
  | Degraded
  | Quarantined of { reason : string; at_event : int }

let status_label = function
  | Healthy -> "healthy"
  | Degraded -> "degraded"
  | Quarantined _ -> "quarantined"

type diag = {
  cc : string;
  op : string;
  fault : fault;
  quarantines : bool;
  seq : int;
}

let describe_diag d =
  Printf.sprintf "%s %s during %s: %s" d.cc
    (if d.quarantines then "quarantined" else "faulted")
    d.op (describe_fault d.fault)

type entry = { mutable status : status; mutable strikes : int }

(* The registry is shared by a whole session lineage and, since the
   service stopped serializing requests globally, by concurrent
   requests on different domains: all mutation and every compound read
   happen under [lock].  [next_seq] doubles as the published diagnostic
   count; it is an atomic so the hot-path staleness probe
   ({!diag_count}, one call per core in the candidate sweep) stays
   lock-free. *)
type registry = {
  lock : Mutex.t;
  states : (string, entry) Hashtbl.t;
  mutable order : string list; (* first-fault order, newest first *)
  mutable trail : diag list; (* newest first *)
  next_seq : int Atomic.t;
}

let registry () =
  {
    lock = Mutex.create ();
    states = Hashtbl.create 8;
    order = [];
    trail = [];
    next_seq = Atomic.make 0;
  }

let locked reg f =
  Mutex.lock reg.lock;
  match f () with
  | v ->
    Mutex.unlock reg.lock;
    v
  | exception e ->
    Mutex.unlock reg.lock;
    raise e

let strikes_to_quarantine = 3

(* Telemetry (DESIGN.md 13): faults and quarantines are global-registry
   counters plus instant spans, so a pruning trace shows exactly when a
   constraint dropped out. *)
let m_faults = Obs.counter Obs.default "dse_engine_guard_faults_total"
let m_quarantines = Obs.counter Obs.default "dse_engine_guard_quarantines_total"

let observe_diag d =
  Obs.incr m_faults;
  if d.quarantines then Obs.incr m_quarantines;
  if Obs.recording () then
    Obs.instant "guard.fault"
      ~attrs:
        [
          ("cc", d.cc);
          ("op", d.op);
          ("fault", describe_fault d.fault);
          ("quarantines", if d.quarantines then "true" else "false");
        ]

let entry_of reg cc =
  match Hashtbl.find_opt reg.states cc with
  | Some e -> e
  | None ->
    let e = { status = Healthy; strikes = 0 } in
    Hashtbl.add reg.states cc e;
    reg.order <- cc :: reg.order;
    e

let push reg diag =
  reg.trail <- diag :: reg.trail;
  Atomic.incr reg.next_seq;
  diag

let record reg ~cc ~op fault =
  locked reg (fun () ->
      let e = entry_of reg cc in
      let seq = Atomic.get reg.next_seq in
      let quarantines =
        match e.status with
        | Quarantined _ -> false
        | Healthy | Degraded -> (
          e.strikes <- e.strikes + 1;
          match fault with
          | Budget_exhausted _ | Diverged _ -> true
          | Raised _ | Non_finite _ -> e.strikes >= strikes_to_quarantine)
      in
      if quarantines then
        e.status <- Quarantined { reason = describe_fault fault; at_event = seq }
      else if e.status = Healthy then e.status <- Degraded;
      let d = push reg { cc; op; fault; quarantines; seq } in
      observe_diag d;
      d)

let force_quarantine reg ~cc ~op fault =
  locked reg (fun () ->
      let e = entry_of reg cc in
      match e.status with
      | Quarantined _ -> None
      | Healthy | Degraded ->
        let seq = Atomic.get reg.next_seq in
        e.status <- Quarantined { reason = describe_fault fault; at_event = seq };
        let d = push reg { cc; op; fault; quarantines = true; seq } in
        observe_diag d;
        Some d)

let status_of reg cc =
  locked reg (fun () ->
      match Hashtbl.find_opt reg.states cc with Some e -> e.status | None -> Healthy)

let quarantined reg cc =
  match status_of reg cc with Quarantined _ -> true | Healthy | Degraded -> false

let diags reg = locked reg (fun () -> List.rev reg.trail)
let diag_count reg = Atomic.get reg.next_seq

let faulty reg =
  locked reg (fun () ->
      List.rev_map (fun cc -> (cc, (Hashtbl.find reg.states cc).status)) reg.order)
