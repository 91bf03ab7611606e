module Core = Ds_reuse.Core

(* The index is a trie over hierarchy node paths whose nodes are dense-id
   masks over the one entry array, the {!Columnar} store.  Each core
   descends the generalized-issue chain as far as its property values
   allow and gets the next dense id (insertion order); every node on its
   path sets that id's bit.  A node resolves in O(depth); [under] maps
   the node's mask through the entry array in ascending-id order, which
   is insertion order, so it needs no per-node list.  [count_under] is
   the mask's popcount and [at] the mask minus the children's masks. *)

type node = {
  children : (string, node) Hashtbl.t;
  subtree_bits : Bitset.t;  (* dense ids indexed at or below, over the universe *)
}

type t = {
  root : node;
  root_name : string;
  orphans : (string * Core.t) list;
  paths : (string, string list) Hashtbl.t;  (* qualified id -> node path *)
  store : Columnar.t;  (* the (qid, core) entries and their columns, by dense id *)
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

let fresh_node universe = { children = Hashtbl.create 4; subtree_bits = Bitset.create universe }

let rec insert ~universe node id path =
  Bitset.set node.subtree_bits id;
  match path with
  | [] -> ()
  | seg :: rest ->
    let child =
      match Hashtbl.find_opt node.children seg with
      | Some child -> child
      | None ->
        let child = fresh_node universe in
        Hashtbl.add node.children seg child;
        child
    in
    insert ~universe child id rest

let build hierarchy cores =
  let root_name = (Hierarchy.root hierarchy).Cdo.name in
  let paths = Hashtbl.create (List.length cores) in
  let placed_rev, orphans_rev =
    List.fold_left
      (fun (placed, orphans) ((qid, core) as entry) ->
        match classify hierarchy core with
        | Some path ->
          if not (Hashtbl.mem paths qid) then Hashtbl.add paths qid path;
          ((entry, path) :: placed, orphans)
        | None -> (placed, entry :: orphans))
      ([], []) cores
  in
  (* dense ids are positions in insertion order *)
  let placed = Array.of_list (List.rev placed_rev) in
  let universe = Array.length placed in
  let root = fresh_node universe in
  Array.iteri
    (fun id (_, path) ->
      (* path always starts at the root node; the trie holds the suffix
         below it *)
      match path with
      | r :: rest when String.equal r root_name -> insert ~universe root id rest
      | other -> insert ~universe root id other)
    placed;
  (* The columnar projection is built eagerly with the trie: layers are
     built once and shared across session lineages ([Session.pristine],
     the service's parsed-layer cache), so the column pass amortizes
     like the index itself. *)
  {
    root;
    root_name;
    orphans = List.rev orphans_rev;
    paths;
    store = Columnar.build (Array.map fst placed);
  }

let path_of t ~qualified_id = Hashtbl.find_opt t.paths qualified_id

let resolve t = function
  | [] -> Some t.root
  | first :: rest ->
    if not (String.equal first t.root_name) then None
    else begin
      let rec walk node = function
        | [] -> Some node
        | seg :: rest -> (
          match Hashtbl.find_opt node.children seg with
          | Some child -> walk child rest
          | None -> None)
      in
      walk t.root rest
    end

let entries t bits = Bitset.map_true (Columnar.entry t.store) bits

(* [resolve] maps the empty path to the root, so [under t []] is every
   indexed entry, as under the old prefix test. *)
let under t path = match resolve t path with Some node -> entries t node.subtree_bits | None -> []

let at t path =
  match resolve t path with
  | Some node when path <> [] ->
    let here = Bitset.copy node.subtree_bits in
    Hashtbl.iter
      (fun _ child -> Bitset.filter_in_place (fun i -> not (Bitset.mem child.subtree_bits i)) here)
      node.children;
    entries t here
  | Some _ | None -> []

let count_under t path =
  match resolve t path with Some node -> Bitset.count node.subtree_bits | None -> 0

let all t = entries t t.root.subtree_bits
let unindexed t = t.orphans

(* {2 Columnar access} — the dense-id view of the same entries. *)

let size t = Columnar.length t.store
let columnar t = t.store
let entry_at t i = Columnar.entry t.store i

let under_bits t path =
  match resolve t path with
  | Some node -> Bitset.copy node.subtree_bits
  | None -> Bitset.create (size t)
