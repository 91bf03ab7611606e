module Core = Ds_reuse.Core
module Obs = Ds_obs.Obs

(* Engine telemetry (DESIGN.md 13): counters/histograms always record;
   spans ([engine.sweep], [cc.eliminate], [engine.derive_fixpoint],
   [cc.derive], [session.set], [session.retract]) record when tracing
   is enabled and carry the pruning story — which constraint eliminated
   how many cores — as structured data. *)
let m_sweeps = Obs.counter Obs.default "dse_engine_sweeps_total"
let m_sweep_us = Obs.histogram Obs.default "dse_engine_sweep_us"
let m_eliminated = Obs.counter Obs.default "dse_engine_eliminated_total"
let m_derive_rounds = Obs.counter Obs.default "dse_engine_derive_rounds_total"

type source = Designer | Default_value | Derived of string

type binding = {
  defined_at : string list;
  prop : Property.t;
  value : Value.t;
  source : source;
}

type event =
  | Requirement_entered of { name : string; value : Value.t }
  | Decision_made of { name : string; value : Value.t }
  | Focus_descended of {
      path : string list;
      candidates_before : int;
      candidates_after : int;
    }
  | Binding_derived of { name : string; value : Value.t; by : string }
  | Binding_retracted of { name : string; invalidated : string list }
  | Note of string
  | Constraint_faulted of { name : string; op : string; detail : string }
  | Constraint_quarantined of { name : string; op : string; reason : string }

(* Events are pushed newest-first (O(1)) but always read oldest-first.
   Each push allocates a fresh memo cell, so the rendered list is
   computed once per session value and never shared stale across
   exploration branches. *)
module Trail = struct
  type 'e t = { rev : 'e list; memo : 'e list option ref }

  let empty () = { rev = []; memo = ref (Some []) }
  let push trail e = { rev = e :: trail.rev; memo = ref None }

  let render trail =
    match !(trail.memo) with
    | Some es -> es
    | None ->
      let es = List.rev trail.rev in
      trail.memo := Some es;
      es
end

type t = {
  hierarchy : Hierarchy.t;
  constraints : Consistency.t list;
  index : Index.t;
  focus : string list;
  bindings : binding list;
  trail : event Trail.t;
  guard : Guard.registry;
      (* shared by every session derived from this one: a faulty closure
         is faulty on every exploration branch, so quarantine carries
         across branches (and is monotone) *)
  cache : Compliance.t;
      (* shared like [guard]; entries are keyed by constraint state, so
         branches that diverge never share one *)
  use_cache : bool;
  sig_version : int;
      (* candidate signature format: 2, or 1 for a lineage resumed from
         a v1 journal; every session derived from this one keeps it *)
}

let create ~hierarchy ?(constraints = []) ?(use_cache = true) ~cores () =
  {
    hierarchy;
    constraints;
    index = Index.build hierarchy cores;
    focus = [ (Hierarchy.root hierarchy).Cdo.name ];
    bindings = [];
    trail = Trail.empty ();
    guard = Guard.registry ();
    cache = Compliance.create ();
    use_cache;
    sig_version = 2;
  }

(* A fresh session over an already-built layer: shares the immutable
   structure (hierarchy, constraints, candidate index) but none of the
   mutable lineage state (guard registry, verdict cache, trail,
   bindings).  Observably identical to [create] over the
   same inputs, minus the index build — what makes caching parsed
   layers across service sessions safe. *)
let pristine t =
  {
    t with
    focus = [ (Hierarchy.root t.hierarchy).Cdo.name ];
    bindings = [];
    trail = Trail.empty ();
    guard = Guard.registry ();
    cache = Compliance.create ();
    sig_version = 2;
  }

let signature_version t = t.sig_version
let with_v1_signatures t = { t with sig_version = 1 }

let hierarchy t = t.hierarchy
let focus t = t.focus

let focus_cdo t =
  match Hierarchy.find t.hierarchy t.focus with
  | Some cdo -> cdo
  | None -> assert false (* focus is maintained as a valid path *)

let bindings t = t.bindings
let binding t name = List.find_opt (fun b -> String.equal b.prop.Property.name name) t.bindings
let value_of t name = Option.map (fun b -> b.value) (binding t name)

(* Guard diagnostics are recorded in the shared registry (queries like
   [candidates] evaluate closures too but return no new session); they
   are rendered into the event trail on the fly, after the session's own
   events. *)
let diag_event (d : Guard.diag) =
  let detail = Guard.describe_fault d.Guard.fault in
  if d.Guard.quarantines then
    Constraint_quarantined { name = d.Guard.cc; op = d.Guard.op; reason = detail }
  else Constraint_faulted { name = d.Guard.cc; op = d.Guard.op; detail }

let events t =
  let own = Trail.render t.trail in
  if Guard.diag_count t.guard = 0 then own
  else own @ List.map diag_event (Guard.diags t.guard)

let health t =
  List.map (fun cc -> (cc.Consistency.name, Guard.status_of t.guard cc.Consistency.name)) t.constraints

let diagnostics t = Guard.diags t.guard

let quarantined_cc t cc = Guard.quarantined t.guard cc.Consistency.name

let record_fault t cc ~op fault =
  ignore (Guard.record t.guard ~cc:cc.Consistency.name ~op fault)

let value_signature = function
  (* kind-tagged so e.g. [Str "8."] and [Real 8.] cannot collide *)
  | Value.Str s -> "s" ^ s
  | Value.Int i -> "i" ^ string_of_int i
  | Value.Real f -> "r" ^ string_of_float f
  | Value.Flag b -> if b then "f1" else "f0"

(* The cache keys ([cc_state_key], [state_signature]) must name a state
   exactly, so they take reals by their bits: [string_of_float] keeps 12
   significant digits, and two budgets that print alike would share
   verdicts and a survivor set.  [candidate_signature]'s observable
   prefix keeps [value_signature], so journal bytes do not move. *)
let value_key = function
  | Value.Real f -> Printf.sprintf "r%h" f
  | (Value.Str _ | Value.Int _ | Value.Flag _) as v -> value_signature v

(* A constraint's cache identity: its name plus the current value (or
   absence) of every property it mentions.  The paper's re-assessment
   rule names exactly the constraints a binding change can affect —
   those that mention the property — and those are exactly the keys the
   change moves, so memoized verdicts are stamped with the key and stay
   valid while it stands.  Re-entering a previously-visited state
   (undo/redo, A/B comparison loops) reproduces the key, so the state
   signature recurs and the survivor cache serves the revisit without a
   sweep. *)
let cc_state_key t cc =
  let buf = Buffer.create 64 in
  Buffer.add_string buf cc.Consistency.name;
  let add p =
    Buffer.add_char buf '|';
    Buffer.add_string buf p.Propref.property;
    Buffer.add_char buf '=';
    match binding t p.Propref.property with
    | Some b -> Buffer.add_string buf (value_key b.value)
    | None -> Buffer.add_char buf '?'
  in
  List.iter add cc.Consistency.indep;
  List.iter add cc.Consistency.dep;
  Buffer.contents buf

let ancestor_paths t =
  let rec prefixes acc cur = function
    | [] -> List.rev acc
    | seg :: rest ->
      let cur = cur @ [ seg ] in
      prefixes (cur :: acc) cur rest
  in
  prefixes [] [] t.focus

(* A property reference applies in this session when its pattern
   addresses the focus node or one of its ancestors (by path or by
   abbreviation). *)
let ref_applies t pref =
  List.exists
    (fun path -> Hierarchy.ref_matches t.hierarchy pref ~path ~property:pref.Propref.property)
    (ancestor_paths t)

let env t =
  {
    Consistency.value =
      (fun pref -> if ref_applies t pref then value_of t pref.Propref.property else None);
    Consistency.value_of = (fun name -> value_of t name);
    Consistency.focus = t.focus;
  }

let bound_fn t pref = ref_applies t pref && value_of t pref.Propref.property <> None

(* Constraints whose dependent set includes this property at the current
   focus. *)
let governing t name =
  List.filter
    (fun cc ->
      List.exists
        (fun pref -> String.equal pref.Propref.property name && ref_applies t pref)
        cc.Consistency.dep)
    t.constraints

(* Inconsistent-options constraints with every referenced property bound
   are "active" and must hold.  A quarantined predicate is skipped: the
   designer keeps working with a sound-but-wider space and the registry
   carries the warning (conservative: warn instead of reject). *)
let active_violations t =
  let bound = bound_fn t in
  List.filter_map
    (fun cc ->
      match cc.Consistency.relation with
      | Consistency.Inconsistent _ ->
        if
          (not (quarantined_cc t cc))
          && List.for_all bound cc.Consistency.indep
          && List.for_all bound cc.Consistency.dep
        then
          match Guard.run (fun () -> Consistency.check cc (env t)) with
          | Ok violation -> violation
          | Error fault ->
            record_fault t cc ~op:"check" fault;
            None
        else None
      | Consistency.Derive _ | Consistency.Estimator_context _ | Consistency.Eliminate _ -> None)
    t.constraints

let violations = active_violations

(* Run Derive constraints to a fixpoint, adding derived bindings for
   properties that are visible and unbound.  Each compute closure runs
   guarded: a fault (exception, non-finite derived value, exhausted step
   budget) drops that constraint's contribution for this round and is
   recorded in the registry.  A fixpoint that still produces new
   bindings when the round budget runs out is not truncated silently:
   the constraints that fed the final round are quarantined with a
   divergence diagnostic. *)
let derive_fixpoint t =
  let rounds = ref 0 and derived = ref 0 in
  let rec step t budget =
    incr rounds;
    let added_by = ref [] in
    let t' =
      List.fold_left
        (fun t cc ->
          match cc.Consistency.relation with
          | Consistency.Derive { compute }
            when (not (quarantined_cc t cc)) && Consistency.ready cc ~bound:(bound_fn t) -> (
            match Result.bind (Guard.run (fun () -> compute (env t))) Guard.finite_values with
            | Error fault ->
              record_fault t cc ~op:"derive" fault;
              t
            | Ok values ->
              List.fold_left
                (fun t (name, value) ->
                  match binding t name with
                  | Some _ -> t
                  | None -> (
                    match Hierarchy.find_property t.hierarchy t.focus name with
                    | None -> t
                    | Some (defined_at, prop) ->
                      if Property.accepts prop value then begin
                        added_by := cc.Consistency.name :: !added_by;
                        incr derived;
                        if Obs.recording () then
                          Obs.instant "cc.derive"
                            ~attrs:
                              [
                                ("cc", cc.Consistency.name);
                                ("name", name);
                                ("value", Value.to_string value);
                              ];
                        {
                          t with
                          bindings =
                            { defined_at; prop; value; source = Derived cc.Consistency.name }
                            :: t.bindings;
                          trail =
                            Trail.push t.trail
                              (Binding_derived { name; value; by = cc.Consistency.name });
                        }
                      end
                      else t))
                t values)
          | Consistency.Derive _ | Consistency.Inconsistent _ | Consistency.Estimator_context _
          | Consistency.Eliminate _ ->
            t)
        t t.constraints
    in
    if !added_by = [] then t'
    else if budget = 0 then begin
      List.iter
        (fun name ->
          ignore
            (Guard.force_quarantine t'.guard ~cc:name ~op:"derive"
               (Guard.Diverged
                  "derive fixpoint exhausted its round budget (non-convergence or oscillation)")))
        (List.sort_uniq String.compare !added_by);
      t'
    end
    else step t' (budget - 1)
  in
  let sp = Obs.span_begin "engine.derive_fixpoint" in
  Fun.protect
    ~finally:(fun () ->
      Obs.add m_derive_rounds !rounds;
      Obs.span_end sp
        ~attrs:[ ("rounds", string_of_int !rounds); ("derived", string_of_int !derived) ])
    (fun () -> step t (List.length t.constraints + 8))

(* Candidate cores: under the focus, complying with every bound design
   issue, surviving the elimination constraints. *)
let issue_filter t =
  let issue_bindings = List.filter (fun b -> Property.is_design_issue b.prop) t.bindings in
  fun (_, core) ->
    List.for_all
      (fun b ->
        Core.matches_property core ~key:b.prop.Property.name ~value:(Value.to_string b.value))
      issue_bindings

(* The reference pruning path: every elimination closure re-runs against
   every core on every query.  Kept verbatim behind [use_cache:false] as
   the oracle for the equivalence suite and the bench baseline. *)
let candidates_naive t =
  let complies = issue_filter t in
  (* A faulting or quarantined elimination predicate never discards a
     core: the space may only stay the same or widen. *)
  let eliminated core =
    List.exists
      (fun cc ->
        match cc.Consistency.relation with
        | Consistency.Eliminate { inferior; _ } ->
          (not (quarantined_cc t cc))
          && Consistency.ready cc ~bound:(bound_fn t)
          && (match Guard.run (fun () -> inferior (env t) core) with
             | Ok inferior -> inferior
             | Error fault ->
               record_fault t cc ~op:"eliminate" fault;
               false)
        | Consistency.Inconsistent _ | Consistency.Derive _ | Consistency.Estimator_context _ ->
          false)
      t.constraints
  in
  Index.under t.index t.focus
  |> List.filter complies
  |> List.filter (fun (_, core) -> not (eliminated core))

let focus_key t = String.concat "." t.focus

(* Everything the candidate set depends on: the focus, the design-issue
   bindings (compliance filter), and per elimination constraint its
   quarantine flag (quarantine is monotone, so a pre-quarantine
   signature can never recur and serve a stale set) and state key (the
   values of its declared properties).  The flag precedes the key so a
   key ending in a string value cannot absorb it. *)
let state_signature t =
  let buf = Buffer.create 128 in
  Buffer.add_string buf (focus_key t);
  t.bindings
  |> List.filter (fun b -> Property.is_design_issue b.prop)
  |> List.sort (fun a b -> String.compare a.prop.Property.name b.prop.Property.name)
  |> List.iter (fun b ->
         Buffer.add_char buf '|';
         Buffer.add_string buf b.prop.Property.name;
         Buffer.add_char buf '=';
         Buffer.add_string buf (value_key b.value));
  List.iter
    (fun cc ->
      match cc.Consistency.relation with
      | Consistency.Eliminate _ ->
        Buffer.add_char buf '|';
        Buffer.add_char buf (if quarantined_cc t cc then 'q' else ':');
        Buffer.add_string buf (cc_state_key t cc)
      | Consistency.Inconsistent _ | Consistency.Derive _ | Consistency.Estimator_context _ -> ())
    t.constraints;
  Buffer.contents buf

(* One resolved elimination constraint of a sweep: its verdict view
   (see {!Compliance.Slot}), its closure, its resolved columnar kernel
   ([None] when the constraint offers none), and its quarantine flag as
   of the last refresh. *)
type elim = {
  e_cc : Consistency.t;
  e_slot : Compliance.Slot.t;
  e_view : int array;
  e_inferior : Consistency.env -> Core.t -> bool;
  e_kernel : (int -> int -> int) option;
  mutable e_quarantined : bool;
}

exception Sweep_fault

(* The recording sweep: the fault fallback of the columnar one, over
   the pool's dense ids in ascending order.  Readiness is hoisted (it
   depends only on bindings and focus, both fixed within a query).
   Quarantine flags are snapshot per query and refreshed whenever the
   guard registry records anything new — quarantine can only change
   when a fault is recorded, so one integer compare per core replaces a
   registry probe per (constraint, core) while a constraint quarantined
   by a cache miss mid-query still stops evaluating immediately,
   exactly as on the naive path.  A quarantined constraint's memoized
   verdicts are skipped, never served.  Faulted evaluations are never
   stored.  Returns what the columnar sweep produces: the survivor
   mask, per constraint the touched/inferior id bitsets of the verdicts
   it computed, and its per-constraint eliminations, hits and misses. *)
let sweep_recording t environment store pool elims =
  let universe = Bitset.length pool in
  let keep = Bitset.copy pool in
  let touched = Array.map (fun _ -> Bitset.create universe) elims in
  let inferior_bits = Array.map (fun _ -> Bitset.create universe) elims in
  let elimc = Array.make (Array.length elims) 0 in
  let hits = ref 0 and misses = ref 0 in
  Array.iter (fun e -> e.e_quarantined <- quarantined_cc t e.e_cc) elims;
  let diag_mark = ref (Guard.diag_count t.guard) in
  let refresh_quarantine () =
    let now = Guard.diag_count t.guard in
    if now <> !diag_mark then begin
      diag_mark := now;
      Array.iter (fun e -> e.e_quarantined <- quarantined_cc t e.e_cc) elims
    end
  in
  Bitset.iter_true
    (fun id ->
      refresh_quarantine ();
      let core = Columnar.core store id in
      let eliminated = ref false in
      Array.iteri
        (fun j e ->
          if (not !eliminated) && not e.e_quarantined then
            let verdict =
              match Compliance.Slot.peek e.e_view ~id with
              | Some _ as cached ->
                incr hits;
                cached
              | None -> (
                incr misses;
                match Guard.run (fun () -> e.e_inferior environment core) with
                | Ok verdict ->
                  Bitset.set touched.(j) id;
                  if verdict then Bitset.set inferior_bits.(j) id;
                  Some verdict
                | Error fault ->
                  record_fault t e.e_cc ~op:"eliminate" fault;
                  None)
            in
            if verdict = Some true then begin
              eliminated := true;
              elimc.(j) <- elimc.(j) + 1
            end)
        elims;
      if !eliminated then Bitset.clear keep id)
    pool;
  (keep, touched, inferior_bits, elimc, !hits, !misses)

(* The columnar sweep: the same query as [candidates_naive], computed
   incrementally over the index's flat columns and answered as a
   survivor {!Bitset} over the dense-id universe instead of a core
   list.

   Everything lives in that one id space.  The pool is the focus
   subtree's mask ([Index.under_bits]) with the design-issue
   compliance filter clearing bits in place; the keep mask and the
   per-constraint touched/inferior masks are id bitsets, so word [w]
   of every mask and the verdict words read by
   {!Compliance.Slot.peek_word} all cover ids [32w, 32w + 32).  A warm
   (constraint, word) step is one [peek_word] plus a handful of mask
   ops, with no per-core control flow; a cold one adds one word-kernel
   call, or one guarded closure call per unknown id for a constraint
   without a kernel.  Words outside the pool are skipped by their zero
   keep word.

   Evaluation-set parity with the core-major/early-exit recording
   sweep: the word loop applies constraints in declaration order and
   strips eliminated cores from the keep word after each one, so a core
   is evaluated by constraint [j] exactly when it survived constraints
   [0..j-1] — the same (core, constraint) pairs, in a different
   iteration order, which is invisible because successful verdicts are
   deterministic and faults abort to the sequential recording path
   before anything is published. *)
let candidates_bits_memo t =
  let fkey = focus_key t in
  let environment = env t in
  let bound = bound_fn t in
  let store = Index.columnar t.index in
  let universe = Index.size t.index in
  let pool = Index.under_bits t.index t.focus in
  (* [Columnar.property_matches] is [Core.matches_property] over the
     interned column: [None] means no core declares the key, which the
     per-core filter treats as all-match *)
  let preds =
    List.filter_map
      (fun b ->
        if Property.is_design_issue b.prop then
          Columnar.property_matches store ~key:b.prop.Property.name
            ~value:(Value.to_string b.value)
        else None)
      t.bindings
  in
  if preds <> [] then Bitset.filter_in_place (fun i -> List.for_all (fun p -> p i) preds) pool;
  let elim_ccs =
    List.filter_map
      (fun cc ->
        match cc.Consistency.relation with
        | Consistency.Eliminate { inferior; vectorized } when Consistency.ready cc ~bound ->
          Some (cc, inferior, vectorized)
        | Consistency.Eliminate _ | Consistency.Inconsistent _ | Consistency.Derive _
        | Consistency.Estimator_context _ ->
          None)
      t.constraints
  in
  if elim_ccs = [] then pool
  else begin
    let elims =
      Array.of_list
        (List.map
           (fun (cc, inferior, vectorized) ->
             let slot =
               Compliance.slot ~universe t.cache ~cc:cc.Consistency.name
                 ~stamp:(fkey ^ "@" ^ cc_state_key t cc)
             in
             let kernel =
               (* kernel resolution is layer code too: a throw here just
                  means no fast path for this query *)
               match vectorized with
               | None -> None
               | Some resolve -> ( try resolve environment store with _ -> None)
             in
             {
               e_cc = cc;
               e_slot = slot;
               e_view = Compliance.Slot.view slot;
               e_inferior = inferior;
               e_kernel = kernel;
               e_quarantined = quarantined_cc t cc;
             })
           elim_ccs)
    in
    let n_elims = Array.length elims in
    let m = Bitset.count pool in
    (* [pool] stays intact for the recording fallback *)
    let keep = Bitset.copy pool in
    let touched = Array.init n_elims (fun _ -> Bitset.create universe) in
    let inferior_bits = Array.init n_elims (fun _ -> Bitset.create universe) in
    (* one word loop over the universe: words outside the pool have a
       zero keep word and are skipped *)
    let sweep_words () =
      let elimc = Array.make n_elims 0 in
      let hits = ref 0 and misses = ref 0 in
      for w = 0 to Bitset.word_count keep - 1 do
        let kw = ref (Bitset.word keep w) in
        if !kw <> 0 then begin
          for j = 0 to n_elims - 1 do
            let e = elims.(j) in
            if !kw <> 0 && not e.e_quarantined then begin
              let known, inf = Compliance.Slot.peek_word e.e_view ~w in
              let cached_known = !kw land known in
              let unknown = !kw land lnot known in
              hits := !hits + Bitset.popcount32 cached_known;
              misses := !misses + Bitset.popcount32 unknown;
              let new_elim = ref 0 in
              if unknown <> 0 then begin
                (match e.e_kernel with
                | Some kernel -> new_elim := kernel w unknown land unknown
                | None ->
                  let eval id =
                    match
                      Guard.run (fun () -> e.e_inferior environment (Columnar.core store id))
                    with
                    | Ok v -> v
                    | Error _ -> raise_notrace Sweep_fault
                  in
                  let bits = ref unknown in
                  while !bits <> 0 do
                    let b = !bits land - !bits in
                    if eval ((w lsl 5) + Bitset.popcount32 (b - 1)) then
                      new_elim := !new_elim lor b;
                    bits := !bits land (!bits - 1)
                  done);
                Bitset.set_word touched.(j) w (Bitset.word touched.(j) w lor unknown);
                Bitset.set_word inferior_bits.(j) w
                  (Bitset.word inferior_bits.(j) w lor !new_elim)
              end;
              let elim_w = (cached_known land inf) lor !new_elim in
              if elim_w <> 0 then begin
                elimc.(j) <- elimc.(j) + Bitset.popcount32 elim_w;
                kw := !kw land lnot elim_w
              end
            end
          done;
          Bitset.set_word keep w !kw
        end
      done;
      (keep, touched, inferior_bits, elimc, !hits, !misses)
    in
    let elim_total = Array.make n_elims 0 in
    let hits_total = ref 0 and misses_total = ref 0 in
    let was_fallback = ref false in
    let sp =
      Obs.span_begin "engine.sweep"
        ~attrs:
          [
            ("focus", fkey);
            ("pool", string_of_int m);
            ("constraints", string_of_int n_elims);
          ]
    in
    let t0 = Obs.now_us () in
    Fun.protect
      ~finally:(fun () ->
        Obs.incr m_sweeps;
        Obs.observe m_sweep_us (Obs.now_us () -. t0);
        let eliminated = Array.fold_left ( + ) 0 elim_total in
        Obs.add m_eliminated eliminated;
        if Obs.recording () then
          Array.iteri
            (fun j e ->
              if elim_total.(j) > 0 || e.e_quarantined then
                Obs.instant "cc.eliminate"
                  ~attrs:
                    [
                      ("cc", e.e_cc.Consistency.name);
                      ("eliminated", string_of_int elim_total.(j));
                      ("quarantined", if e.e_quarantined then "true" else "false");
                    ])
            elims;
        Obs.span_end sp
          ~attrs:
            [
              ("survivors", string_of_int (m - eliminated));
              ("hits", string_of_int !hits_total);
              ("misses", string_of_int !misses_total);
              ("fallback", if !was_fallback then "true" else "false");
            ])
      (fun () ->
        let keep, touched, inferior_bits, elimc, hits, misses =
          try sweep_words ()
          with _ ->
            (* a closure faulted ([Sweep_fault]) or a kernel (layer code
               running outside Guard) threw: discard the masks and replay
               with the guarded closures, recording faults/strikes/
               quarantines in exact encounter order (successful verdicts
               are deterministic and were never published, so
               re-evaluating them has no side effects) *)
            was_fallback := true;
            sweep_recording t environment store pool elims
        in
        Array.blit elimc 0 elim_total 0 n_elims;
        hits_total := hits;
        misses_total := misses;
        Array.iteri
          (fun j e ->
            Compliance.Slot.merge_bits e.e_slot ~touched:touched.(j)
              ~inferior_bits:inferior_bits.(j)
              ~hits:(if j = 0 then !hits_total else 0)
              ~misses:(if j = 0 then !misses_total else 0))
          elims;
        keep)
  end

(* The survivor set of the current state, served from the lineage cache
   or computed by the columnar sweep.  Quarantine may advance while
   computing, but it is monotone: the pre-computation key can never
   recur, so storing under it is safe (the entry just goes dead).
   [key] is [state_signature t]: a caller that also keys its own memo
   by it builds it once and passes it in. *)
let survivor_set t ~key =
  match Compliance.find_survivor_set t.cache ~key with
  | Some sv -> sv
  | None -> Compliance.store_survivor_bits t.cache ~key (candidates_bits_memo t)

let candidates t =
  if not t.use_cache then candidates_naive t
  else
    (* ascending dense ids are index insertion order.  Built afresh per
       call and never cached: a cached list would pin one cons per
       survivor for as long as the state stays in the table, and every
       read the service serves (count, id page, signature, ranges) works
       off the bitset instead *)
    Bitset.map_true (Index.entry_at t.index)
      (survivor_set t ~key:(state_signature t)).Compliance.sv_bits

let cache_stats t = Compliance.stats t.cache
let population t = Index.all t.index

let candidate_count t =
  if not t.use_cache then List.length (candidates_naive t)
  else
    (* by popcount — no million-cons list just to take its length *)
    Compliance.survivor_count (survivor_set t ~key:(state_signature t))

(* The count by popcount and the first [max] ids by an early-exit walk:
   a page of a large bitset set never builds the candidate list. *)
let candidate_page t ~max =
  let take = match max with Some m when m >= 0 -> m | Some _ | None -> Stdlib.max_int in
  if not t.use_cache then begin
    let survivors = candidates_naive t in
    (List.length survivors, List.filteri (fun i _ -> i < take) survivors |> List.map fst)
  end
  else begin
    let sv = survivor_set t ~key:(state_signature t) in
    let store = Index.columnar t.index in
    ( Compliance.survivor_count sv,
      List.map (Columnar.qid store) (Bitset.take_true sv.Compliance.sv_bits take) )
  end

(* Memoized like the survivor set itself, one entry per merit on the
   survivor set's key: a revisited state serves its ranges without
   re-folding the pool.  The merits the memo misses share one fold. *)
let merit_summaries t ~merits =
  if not t.use_cache then
    let survivors = candidates t in
    List.map (fun merit -> Evaluation.merit_summary survivors ~merit) merits
  else begin
    let key = state_signature t in
    let prefix = key ^ "#" in
    let found = List.map (fun m -> (m, Compliance.find_summary t.cache ~key:(prefix ^ m))) merits in
    let misses = List.filter_map (function m, None -> Some m | _, Some _ -> None) found in
    let misses = List.sort_uniq String.compare misses in
    let fresh =
      if misses = [] then []
      else
        Obs.with_span "eval.merit_summary"
          ~attrs:[ ("merit", String.concat "," misses); ("cached", "false") ]
          (fun () ->
            (* straight off the merit columns — no candidate list *)
            let bits = (survivor_set t ~key).Compliance.sv_bits in
            List.combine misses
              (Evaluation.merit_summary_columnar (Index.columnar t.index) bits ~merits:misses))
    in
    List.iter (fun (m, sm) -> Compliance.store_summary t.cache ~key:(prefix ^ m) sm) fresh;
    List.map
      (fun (merit, hit) ->
        match hit with
        | Some summary ->
          if Obs.recording () then
            Obs.instant "eval.merit_summary" ~attrs:[ ("merit", merit); ("cached", "true") ];
          summary
        | None -> List.assoc merit fresh)
      found
  end

let merit_summary t ~merit = List.hd (merit_summaries t ~merits:[ merit ])
let merit_range t ~merit = (merit_summary t ~merit).Evaluation.merit_range

let eligible t name =
  List.for_all (fun cc -> Consistency.ready cc ~bound:(bound_fn t)) (governing t name)

let open_issues t =
  Hierarchy.visible_properties t.hierarchy t.focus
  |> List.filter_map (fun (_, prop) ->
         if Property.is_design_issue prop && binding t prop.Property.name = None then
           Some (prop, eligible t prop.Property.name)
         else None)

let source_label = function
  | Designer -> "designer"
  | Default_value -> "default"
  | Derived by -> "derived:" ^ by

let set_with_source_unspanned t name value source =
  match Hierarchy.find_property t.hierarchy t.focus name with
  | None -> Error (Printf.sprintf "property %S is not visible at %s" name (String.concat "." t.focus))
  | Some (defined_at, prop) ->
    if binding t name <> None then Error (Printf.sprintf "property %S is already bound" name)
    else if not (Property.accepts prop value) then
      Error
        (Printf.sprintf "value %s outside the domain %s of %S" (Value.to_string value)
           (Domain.describe prop.Property.domain) name)
    else if Property.is_design_issue prop && not (eligible t name) then begin
      let blocking =
        governing t name
        |> List.filter (fun cc -> not (Consistency.ready cc ~bound:(bound_fn t)))
        |> List.map (fun cc -> cc.Consistency.name)
      in
      Error
        (Printf.sprintf "issue %S cannot be addressed yet: independent set of %s unbound" name
           (String.concat ", " blocking))
    end
    else begin
      let event =
        if Property.is_requirement prop then Requirement_entered { name; value }
        else Decision_made { name; value }
      in
      let t' =
        {
          t with
          bindings = { defined_at; prop; value; source } :: t.bindings;
          trail = Trail.push t.trail event;
        }
      in
      match active_violations t' with
      | { Consistency.message; _ } :: _ -> Error message
      | [] -> (
        (* Generalized issue of the focus node: descend. *)
        let focus_issue =
          match Cdo.generalized_issue (focus_cdo t') with
          | Some issue when String.equal issue.Property.name name -> Some issue
          | Some _ | None -> None
        in
        match focus_issue with
        | None -> Ok (derive_fixpoint t')
        | Some _ -> (
          match Value.as_str value with
          | None -> Error "generalized issue options are strings"
          | Some opt -> (
            match Cdo.child_for_option (focus_cdo t') opt with
            | None -> Error (Printf.sprintf "no specialization for option %S" opt)
            | Some child ->
              let before = candidate_count t' in
              let t'' = { t' with focus = t'.focus @ [ child.Cdo.name ] } in
              let after = candidate_count t'' in
              let t'' =
                {
                  t'' with
                  trail =
                    Trail.push t''.trail
                      (Focus_descended
                         { path = t''.focus; candidates_before = before; candidates_after = after });
                }
              in
              Ok (derive_fixpoint t''))))
    end

let set_with_source t name value source =
  if not (Obs.recording ()) then set_with_source_unspanned t name value source
  else begin
    let sp =
      Obs.span_begin "session.set"
        ~attrs:
          [ ("name", name); ("value", Value.to_string value); ("source", source_label source) ]
    in
    Fun.protect
      ~finally:(fun () -> Obs.span_end sp)
      (fun () ->
        match set_with_source_unspanned t name value source with
        | Ok _ as r ->
          Obs.span_add sp [ ("ok", "true") ];
          r
        | Error e as r ->
          Obs.span_add sp [ ("ok", "false"); ("error", e) ];
          r)
  end

let set t name value = set_with_source t name value Designer
let annotate t note = { t with trail = Trail.push t.trail (Note note) }

type option_preview = {
  option_value : string;
  outcome : [ `Explored of int * (float * float) option | `Rejected of string ];
}

let preview_options t ~issue ~merit =
  match Hierarchy.find_property t.hierarchy t.focus issue with
  | None ->
    Error (Printf.sprintf "property %S is not visible at %s" issue (String.concat "." t.focus))
  | Some (_, prop) -> (
    if not (Property.is_design_issue prop) then
      Error (Printf.sprintf "%S is not a design issue" issue)
    else if binding t issue <> None then Error (Printf.sprintf "%S is already bound" issue)
    else begin
      match Domain.options prop.Property.domain with
      | None -> Error (Printf.sprintf "%S is not an enumerated issue" issue)
      | Some options ->
        Ok
          (List.map
             (fun option_value ->
               match set t issue (Value.Str option_value) with
               | Ok t' ->
                 {
                   option_value;
                   outcome = `Explored (candidate_count t', merit_range t' ~merit);
                 }
               | Error reason -> { option_value; outcome = `Rejected reason })
             options)
    end)

let set_default t name =
  match Hierarchy.find_property t.hierarchy t.focus name with
  | None -> Error (Printf.sprintf "property %S is not visible at %s" name (String.concat "." t.focus))
  | Some (_, prop) -> (
    match prop.Property.default with
    | None -> Error (Printf.sprintf "property %S declares no default" name)
    | Some v -> set_with_source t name v Default_value)

(* Retract: drop the binding, recompute every derived binding from the
   survivors, and pop the focus when a generalized decision goes away. *)
let retract_unspanned t name =
  match binding t name with
  | None -> Error (Printf.sprintf "property %S is not bound" name)
  | Some b -> (
    match b.source with
    | Derived by ->
      Error (Printf.sprintf "%S was derived by %s; retract one of its inputs instead" name by)
    | Designer | Default_value ->
      (* New focus: if the retracted property is the generalized issue of
         a node on the focus path, cut the path at that node. *)
      let new_focus =
        let rec walk acc = function
          | [] -> List.rev acc
          | seg :: rest -> (
            let path = List.rev (seg :: acc) in
            match Hierarchy.find t.hierarchy path with
            | None -> List.rev acc @ (seg :: rest)
            | Some cdo -> (
              match Cdo.generalized_issue cdo with
              | Some issue when String.equal issue.Property.name name -> path
              | Some _ | None -> walk (seg :: acc) rest))
        in
        walk [] t.focus
      in
      let still_visible prop_name =
        Hierarchy.find_property t.hierarchy new_focus prop_name <> None
      in
      let survivors, dropped =
        List.partition
          (fun b' ->
            (not (String.equal b'.prop.Property.name name))
            && (match b'.source with Derived _ -> false | Designer | Default_value -> true)
            && still_visible b'.prop.Property.name)
          t.bindings
      in
      let invalidated =
        List.filter_map
          (fun b' ->
            if String.equal b'.prop.Property.name name then None
            else Some b'.prop.Property.name)
          dropped
      in
      let t' =
        {
          t with
          focus = new_focus;
          bindings = survivors;
          trail = Trail.push t.trail (Binding_retracted { name; invalidated });
        }
      in
      Ok (derive_fixpoint t'))

let retract t name =
  if not (Obs.recording ()) then retract_unspanned t name
  else begin
    let sp = Obs.span_begin "session.retract" ~attrs:[ ("name", name) ] in
    Fun.protect
      ~finally:(fun () -> Obs.span_end sp)
      (fun () ->
        match retract_unspanned t name with
        | Ok _ as r ->
          Obs.span_add sp [ ("ok", "true") ];
          r
        | Error e as r ->
          Obs.span_add sp [ ("ok", "false"); ("error", e) ];
          r)
  end

let estimates t =
  List.filter_map
    (fun cc ->
      match cc.Consistency.relation with
      | Consistency.Estimator_context { tool; estimate } ->
        if (not (quarantined_cc t cc)) && Consistency.ready cc ~bound:(bound_fn t) then
          match Result.bind (Guard.run (fun () -> estimate (env t))) Guard.finite_metrics with
          | Ok metrics -> Some (tool, metrics)
          | Error fault ->
            record_fault t cc ~op:"estimate" fault;
            None
        else None
      | Consistency.Inconsistent _ | Consistency.Derive _ | Consistency.Eliminate _ -> None)
    t.constraints

(* The designer-visible state, digested.  Unlike [state_signature]
   (cache-keying: constraint state keys and quarantine flags), this
   covers exactly what a client of the exploration service can observe:
   focus, all bindings with their sources, and the candidate set.
   Replaying a journal into a fresh lineage must reproduce it bit for
   bit.  v2 digests the survivor bitset's words behind the layer's
   fingerprint ({!Columnar.digest_bits}); v1 digests every survivor's
   ["#" ^ qid] ({!Columnar.digest_ids}) and signs only lineages resumed
   from v1 journals. *)
let candidate_signature t =
  let buf = Buffer.create 256 in
  Buffer.add_string buf (focus_key t);
  t.bindings
  |> List.map (fun b ->
         let src =
           match b.source with
           | Designer -> "!"
           | Default_value -> "d"
           | Derived cc -> "<" ^ cc
         in
         b.prop.Property.name ^ "=" ^ value_signature b.value ^ src)
  |> List.sort String.compare
  |> List.iter (fun entry ->
         Buffer.add_char buf '|';
         Buffer.add_string buf entry);
  let prefix = Buffer.contents buf in
  let store = Index.columnar t.index in
  if not t.use_cache then begin
    let survivors = candidates_naive t in
    if t.sig_version = 1 then begin
      List.iter
        (fun (qid, _) ->
          Buffer.add_char buf '#';
          Buffer.add_string buf qid)
        survivors;
      Digest.to_hex (Digest.string (Buffer.contents buf))
    end
    else begin
      (* the naive list is an ascending-id subsequence of the focus
         subtree's entries, so one walk of its mask, next to the list,
         maps each candidate to its dense id *)
      let bits = Bitset.create (Index.size t.index) in
      let rest =
        Bitset.fold_true
          (fun rest id ->
            match rest with
            | entry :: tl when entry == Index.entry_at t.index id ->
              Bitset.set bits id;
              tl
            | _ -> rest)
          survivors
          (Index.under_bits t.index t.focus)
      in
      if rest <> [] then failwith "Session.candidate_signature: candidates out of index order";
      Digest.to_hex (Columnar.digest_bits store ~prefix bits)
    end
  end
  else begin
    (* The candidate set is a function of the state signature (that is
       the survivor cache's contract), so (observable prefix, version,
       state signature) determines the digest; the version byte
       separates the prefix from the state key, so a memo hit returns
       exactly the bytes a fresh digest would have produced. *)
    let state = state_signature t in
    let key = prefix ^ (if t.sig_version = 1 then "\x01" else "\x02") ^ state in
    match Compliance.find_signature t.cache ~key with
    | Some digest -> digest
    | None ->
      let bits = (survivor_set t ~key:state).Compliance.sv_bits in
      (* ascending dense ids are index insertion order, so the id
         image's runs are exactly the bytes the v1 list walk appends *)
      let digest =
        Digest.to_hex
          (if t.sig_version = 1 then Columnar.digest_ids store ~prefix bits
           else Columnar.digest_bits store ~prefix bits)
      in
      Compliance.store_signature t.cache ~key digest;
      digest
  end

let script t =
  (* Walk the event log: set events append; a retraction removes the
     latest entry for its property and every entry whose binding it
     invalidated (decisions that lived below a popped focus). *)
  let remove_last name entries =
    let rec go = function
      | [] -> []
      | (n, _) :: rest when String.equal n name -> rest
      | kept :: rest -> kept :: go rest
    in
    List.rev (go (List.rev entries))
  in
  List.fold_left
    (fun entries event ->
      match event with
      | Requirement_entered { name; value } | Decision_made { name; value } ->
        entries @ [ (name, value) ]
      | Binding_retracted { name; invalidated } ->
        List.fold_left (fun acc n -> remove_last n acc) entries (name :: invalidated)
      | Focus_descended _ | Binding_derived _ | Note _ | Constraint_faulted _
      | Constraint_quarantined _ ->
        entries)
    [] (events t)

let replay t entries =
  List.fold_left
    (fun acc (name, value) -> Result.bind acc (fun s -> set s name value))
    (Ok t) entries

let pp_source fmt = function
  | Designer -> Format.pp_print_string fmt "designer"
  | Default_value -> Format.pp_print_string fmt "default"
  | Derived cc -> Format.fprintf fmt "derived by %s" cc

let pp_trace fmt t =
  Format.fprintf fmt "focus: %s@." (String.concat "." t.focus);
  Format.fprintf fmt "bindings:@.";
  List.iter
    (fun b ->
      Format.fprintf fmt "  %s = %s (%a)@." b.prop.Property.name (Value.to_string b.value)
        pp_source b.source)
    (List.rev t.bindings);
  Format.fprintf fmt "events:@.";
  List.iter
    (fun event ->
      match event with
      | Requirement_entered { name; value } ->
        Format.fprintf fmt "  requirement %s := %s@." name (Value.to_string value)
      | Decision_made { name; value } ->
        Format.fprintf fmt "  decision %s := %s@." name (Value.to_string value)
      | Focus_descended { path; candidates_before; candidates_after } ->
        Format.fprintf fmt "  focus -> %s (candidates %d -> %d)@." (String.concat "." path)
          candidates_before candidates_after
      | Binding_derived { name; value; by } ->
        Format.fprintf fmt "  derived %s := %s (by %s)@." name (Value.to_string value) by
      | Binding_retracted { name; invalidated } ->
        Format.fprintf fmt "  retracted %s%s@." name
          (if invalidated = [] then ""
           else " (invalidated: " ^ String.concat ", " invalidated ^ ")")
      | Note s -> Format.fprintf fmt "  note: %s@." s
      | Constraint_faulted { name; op; detail } ->
        Format.fprintf fmt "  constraint %s faulted during %s: %s@." name op detail
      | Constraint_quarantined { name; op; reason } ->
        Format.fprintf fmt "  constraint %s quarantined during %s: %s@." name op reason)
    (events t);
  (* only non-healthy constraints are listed, so a fault-free trace is
     byte-identical to the unguarded one *)
  match List.filter (fun (_, s) -> s <> Guard.Healthy) (health t) with
  | [] -> ()
  | faulty ->
    Format.fprintf fmt "constraint health:@.";
    List.iter
      (fun (name, status) ->
        match status with
        | Guard.Quarantined { reason; at_event } ->
          Format.fprintf fmt "  %s: quarantined (%s; diagnostic #%d)@." name reason at_event
        | Guard.Degraded -> Format.fprintf fmt "  %s: degraded@." name
        | Guard.Healthy -> ())
      faulty
