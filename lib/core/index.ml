module Core = Ds_reuse.Core

(* The index is a trie over hierarchy node paths.  Classification is
   unchanged (each core descends the generalized-issue chain as far as
   its property values allow); what changed is the query side: [under],
   [at] and [count_under] used to scan the full entry list with a
   path-prefix test per entry, which made every candidate query O(n) in
   the library size.  The trie resolves a node in O(depth) and each
   frozen node carries its subtree's entries (precomputed once at
   build), so [under] is O(depth + matches) and [count_under] is
   O(depth). *)

type entry = { qid : string; core : Core.t; seq : int }

type node = {
  here : (string * Core.t) list;  (* indexed exactly at this node, insertion order *)
  children : (string, node) Hashtbl.t;
  subtree : (string * Core.t) list;  (* at or below, insertion order *)
  subtree_bits : Bitset.t;  (* dense ids of [subtree], over the universe *)
  count : int;  (* List.length subtree *)
}

type t = {
  root : node option;  (* None for an empty population *)
  root_name : string;
  orphans : (string * Core.t) list;
  all : (string * Core.t) list;  (* every indexed entry, insertion order *)
  paths : (string, string list) Hashtbl.t;  (* qualified id -> node path *)
  store : Columnar.t;  (* flat per-property/per-merit columns, by dense id *)
}

(* Descend from the root as far as the core's property values allow:
   at each generalized issue, follow the child for the core's declared
   option; stop when the issue is undeclared or the option unknown. *)
let classify hierarchy core =
  let rec go path cdo =
    match cdo.Cdo.specialization with
    | None -> Some (path @ [ cdo.Cdo.name ])
    | Some spec -> (
      let issue_name = spec.Cdo.issue.Property.name in
      match Core.property core issue_name with
      | None -> Some (path @ [ cdo.Cdo.name ])
      | Some option_value -> (
        match Cdo.child_for_option cdo option_value with
        | Some child -> go (path @ [ cdo.Cdo.name ]) child
        | None ->
          (* Declared an option the hierarchy does not model: the core
             falls outside the design space at the root, inside it
             otherwise. *)
          if path = [] then None else Some (path @ [ cdo.Cdo.name ])))
  in
  go [] (Hierarchy.root hierarchy)

(* Build-time trie: mutable, frozen into [node] once every core is
   placed. *)
type builder = {
  mutable here_rev : entry list;
  kids : (string, builder) Hashtbl.t;
}

let fresh_builder () = { here_rev = []; kids = Hashtbl.create 4 }

let rec insert builder entry = function
  | [] -> builder.here_rev <- entry :: builder.here_rev
  | seg :: rest ->
    let child =
      match Hashtbl.find_opt builder.kids seg with
      | Some child -> child
      | None ->
        let child = fresh_builder () in
        Hashtbl.add builder.kids seg child;
        child
    in
    insert child entry rest

(* Returns the frozen node plus its subtree's entries (unsorted); the
   per-node [subtree] list is re-sorted by insertion number so query
   results keep the registry order the old linear scan produced.
   [universe] is the number of indexed entries, the length of every
   node's id mask. *)
let rec freeze ~universe builder =
  let children = Hashtbl.create (Hashtbl.length builder.kids) in
  let below =
    Hashtbl.fold
      (fun seg child acc ->
        let child_node, child_entries = freeze ~universe child in
        Hashtbl.add children seg child_node;
        List.rev_append child_entries acc)
      builder.kids []
  in
  let entries = List.rev_append builder.here_rev below in
  let in_order = List.sort (fun a b -> compare a.seq b.seq) entries in
  let strip es = List.map (fun e -> (e.qid, e.core)) es in
  let subtree_bits = Bitset.create universe in
  List.iter (fun e -> Bitset.set subtree_bits e.seq) entries;
  let node =
    {
      here = strip (List.rev builder.here_rev);
      children;
      subtree = strip in_order;
      subtree_bits;
      count = List.length in_order;
    }
  in
  (node, entries)

let build hierarchy cores =
  let root_name = (Hierarchy.root hierarchy).Cdo.name in
  let builder = fresh_builder () in
  let paths = Hashtbl.create (List.length cores) in
  let seq = ref 0 in
  let entries_rev, orphans_rev =
    List.fold_left
      (fun (entries, orphans) (qid, core) ->
        match classify hierarchy core with
        | Some path ->
          let entry = { qid; core; seq = !seq } in
          incr seq;
          (* path always starts at the root node; store the suffix below
             the root in the trie *)
          (match path with
          | r :: rest when String.equal r root_name -> insert builder entry rest
          | other -> insert builder entry other);
          if not (Hashtbl.mem paths qid) then Hashtbl.add paths qid path;
          ((qid, core) :: entries, orphans)
        | None -> (entries, (qid, core) :: orphans))
      ([], []) cores
  in
  let root, _ = freeze ~universe:!seq builder in
  let all = List.rev entries_rev in
  (* The columnar projection is built eagerly with the trie: layers are
     built once and shared across session lineages ([Session.pristine],
     the service's parsed-layer cache), so the column pass amortizes
     like the index itself.  Dense ids are the insertion-order [seq]
     numbers, so [all], every [subtree] and every bitset materialize in
     the same order. *)
  let entries = Array.of_list all in
  assert (Array.length entries = !seq);
  {
    root = Some root;
    root_name;
    orphans = List.rev orphans_rev;
    all;
    paths;
    store = Columnar.build entries;
  }

let path_of t ~qualified_id = Hashtbl.find_opt t.paths qualified_id

let resolve t path =
  match (t.root, path) with
  | None, _ -> None
  | Some root, [] -> Some root
  | Some root, first :: rest ->
    if not (String.equal first t.root_name) then None
    else begin
      let rec walk node = function
        | [] -> Some node
        | seg :: rest -> (
          match Hashtbl.find_opt node.children seg with
          | Some child -> walk child rest
          | None -> None)
      in
      walk root rest
    end

let under t path =
  (* [] matched every entry under the old prefix test; keep that. *)
  if path = [] then t.all
  else match resolve t path with Some node -> node.subtree | None -> []

let at t path = match resolve t path with Some node when path <> [] -> node.here | _ -> []

let count_under t path =
  if path = [] then List.length t.all
  else match resolve t path with Some node -> node.count | None -> 0

let all t = t.all
let unindexed t = t.orphans

(* {2 Columnar access} — the dense-id view of the same entries. *)

let size t = Columnar.length t.store
let columnar t = t.store
let entry_at t i = Columnar.entry t.store i

(* [resolve] maps the empty path to the root, whose mask is full *)
let under_bits t path =
  match resolve t path with
  | Some node -> Bitset.copy node.subtree_bits
  | None -> Bitset.create (size t)
