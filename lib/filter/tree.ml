module Event = Genas_model.Event
module Schema = Genas_model.Schema
module Axis = Genas_model.Axis

type node =
  | Leaf of { id : int; ids : int array }
  | Node of {
      id : int;
      attr : int;
      cells : int array;
      edge_positions : float array;
      children : node array;
      rest : node option;
    }

type config = { attr_order : int array; strategies : Order.strategy array }

type stats = {
  nodes : int;
  leaves : int;
  edges : int;
  postings : int;
  build_visits : int;
}

type t = {
  decomp : Decomp.t;
  config : config;
  tables : Order.table array;
  root : node option;
  stats : stats;
}

let default_config decomp =
  let n = Decomp.arity decomp in
  {
    attr_order = Array.init n Fun.id;
    strategies = Array.make n (Order.Linear Order.Natural_asc);
  }

let validate_config decomp config =
  let n = Decomp.arity decomp in
  if Array.length config.attr_order <> n then
    invalid_arg "Tree.build: attr_order length mismatch";
  if Array.length config.strategies <> n then
    invalid_arg "Tree.build: strategies length mismatch";
  let seen = Array.make n false in
  Array.iter
    (fun a ->
      if a < 0 || a >= n || seen.(a) then
        invalid_arg "Tree.build: attr_order is not a permutation";
      seen.(a) <- true)
    config.attr_order

(* Memo keys are sorted alive-id arrays, one table per level; two nodes
   with the same key root identical subtrees, so the construction
   hash-conses them. A probe key may view a prefix of a scratch buffer,
   so a key carries its length and its hash, computed once. *)
module Key = struct
  type t = { ids : int array; len : int; hash : int }

  let make ids len =
    let h = ref 1 in
    for i = 0 to len - 1 do
      h := (!h * 31) + Array.unsafe_get ids i + 1
    done;
    { ids; len; hash = !h land max_int }

  let equal a b =
    a.hash = b.hash && a.len = b.len
    &&
    let rec same i =
      i = a.len
      || (Array.unsafe_get a.ids i = Array.unsafe_get b.ids i && same (i + 1))
    in
    same 0

  let hash k = k.hash
end

module Memo = Hashtbl.Make (Key)

(* Merge the sorted [src.(lo .. hi-1)] with the sorted [dc.(0 .. ndc-1)]
   into [dst] (disjoint by construction: constrainers vs don't-cares);
   returns the merged length. *)
let merge_into dst src lo hi dc ndc =
  let i = ref lo and j = ref 0 and k = ref 0 in
  while !i < hi && !j < ndc do
    let a = src.(!i) and b = dc.(!j) in
    if a <= b then begin
      dst.(!k) <- a;
      incr i
    end
    else begin
      dst.(!k) <- b;
      incr j
    end;
    incr k
  done;
  let ra = hi - !i in
  Array.blit src !i dst !k ra;
  Array.blit dc !j dst (!k + ra) (ndc - !j);
  !k + ra + ndc - !j

exception Construction_blowup of int

let id = function Leaf { id; _ } | Node { id; _ } -> id

(* Sort [a.(0 .. n-1)] ascending by [key]; nodes touch few cells. *)
let insertion_sort (key : float array) a n =
  for i = 1 to n - 1 do
    let x = a.(i) in
    let kx = key.(x) in
    let j = ref (i - 1) in
    while !j >= 0 && key.(a.(!j)) > kx do
      a.(!j + 1) <- a.(!j);
      decr j
    done;
    a.(!j + 1) <- x
  done

let build ?(share = true) ?max_visits decomp config =
  validate_config decomp config;
  let n = Decomp.arity decomp in
  let tables =
    Array.init n (fun attr ->
        Order.compile decomp.Decomp.overlays.(attr)
          (Order.strategy_order config.strategies.(attr)))
  in
  let nids = Array.length decomp.Decomp.ids in
  (* Per-attribute scratch for the node testing it: its don't-cares,
     its ids bucketed by cell (counting sort), the touched cells,
     per-cell bucket ends, and its children's merged alive sets. A
     child copies its alive set out of the scratch only on a memo
     miss. *)
  let scratch size = Array.init n (fun attr -> Array.make (size attr) 0) in
  let dontcares = scratch (fun _ -> nids) and merged = scratch (fun _ -> nids) in
  let buckets = scratch (fun a -> Array.length decomp.Decomp.cell_list.(a)) in
  let ncells a = Array.length tables.(a).Order.positions in
  let touched = scratch ncells and ends = scratch ncells in
  (* Sized so that a table of a few hundred profiles never resizes the
     leaf memo (the 500-profile paper table holds 20-30k leaves). *)
  let memo =
    Array.init (n + 1) (fun level ->
        Memo.create (if level = n then 64 * nids else nids))
  in
  let nodes = ref 0 and leaves = ref 0 and edges = ref 0 and visits = ref 0 in
  let postings = ref 0 in
  let rec construct level src len =
    incr visits;
    (match max_visits with
    | Some limit when !visits > limit -> raise (Construction_blowup limit)
    | Some _ | None -> ());
    let probe = Key.make src len in
    match if share then Memo.find_opt memo.(level) probe else None with
    | Some node -> node
    | None ->
      let alive = Array.sub src 0 len in
      let node =
        if level < n then inner level alive
        else begin
          incr leaves;
          postings := !postings + len;
          Leaf { id = !nodes + !leaves - 1; ids = alive }
        end
      in
      if share then Memo.replace memo.(level) { probe with Key.ids = alive } node;
      node
  and inner level alive =
    let attr = config.attr_order.(level) in
    let first = decomp.Decomp.cell_first.(attr) in
    let list = decomp.Decomp.cell_list.(attr) in
    let positions = tables.(attr).Order.positions in
    let dc = dontcares.(attr) and bucket = buckets.(attr) in
    let touched = touched.(attr) and ends = ends.(attr) in
    (* Count ids per cell; [ends] holds the counts until placement. *)
    let ndc = ref 0 and k = ref 0 in
    Array.iter
      (fun pid ->
        if first.(pid) = first.(pid + 1) then begin
          dc.(!ndc) <- pid;
          incr ndc
        end;
        for j = first.(pid) to first.(pid + 1) - 1 do
          let c = list.(j) in
          if ends.(c) = 0 then begin
            touched.(!k) <- c;
            incr k
          end;
          ends.(c) <- ends.(c) + 1
        done)
      alive;
    let k = !k and ndc = !ndc in
    (* Store edges in the defined value order (ascending lookup
       position) so both scan strategies read them in place. *)
    insertion_sort positions touched k;
    let total = ref 0 in
    for i = 0 to k - 1 do
      let c = touched.(i) in
      let cnt = ends.(c) in
      ends.(c) <- !total;
      total := !total + cnt
    done;
    (* Placing [alive] in ascending order keeps each bucket sorted. *)
    Array.iter
      (fun pid ->
        for j = first.(pid) to first.(pid + 1) - 1 do
          let c = list.(j) in
          bucket.(ends.(c)) <- pid;
          ends.(c) <- ends.(c) + 1
        done)
      alive;
    let cells = Array.sub touched 0 k in
    let hi = Array.map (fun c -> ends.(c)) cells in
    Array.iter (fun c -> ends.(c) <- 0) cells;
    let rest = if ndc = 0 then None else Some (construct (level + 1) dc ndc) in
    let next = merged.(attr) in
    let children =
      Array.init k (fun i ->
          let lo = if i = 0 then 0 else hi.(i - 1) in
          construct (level + 1) next (merge_into next bucket lo hi.(i) dc ndc))
    in
    incr nodes;
    edges := !edges + k;
    Node
      {
        id = !nodes + !leaves - 1;
        attr;
        cells;
        edge_positions = Array.map (fun c -> positions.(c)) cells;
        children;
        rest;
      }
  in
  let root =
    if nids = 0 then None else Some (construct 0 decomp.Decomp.ids nids)
  in
  {
    decomp;
    config;
    tables;
    root;
    stats =
      {
        nodes = !nodes;
        leaves = !leaves;
        edges = !edges;
        postings = !postings;
        build_visits = !visits;
      };
  }

(* Runtime search at one node: returns (comparisons, matched edge
   index). Mirrors Order.linear_cost/binary_cost but also yields the
   index so the traversal can descend. *)
let scan strategy ~edge_positions ~target =
  let n = Array.length edge_positions in
  if n = 0 then (0, None)
  else
    match strategy with
    | Order.Linear _ ->
      let rec scan i =
        if i = n then (n, None)
        else
          let p = edge_positions.(i) in
          if p = target then (i + 1, Some i)
          else if p > target then (i + 1, None)
          else scan (i + 1)
      in
      scan 0
    | Order.Binary -> Order.bisect ~edge_positions ~target
    | Order.Hashed ->
      (* One charged comparison; the edge is located by bisection. *)
      let _, found = Order.bisect ~edge_positions ~target in
      (1, found)

let match_targets ?ops t targets =
  (* [targets.(attr)] = lookup position of the event's cell on that
     attribute, or +inf when the value falls outside every cell. *)
  let comparisons = ref 0 and node_visits = ref 0 in
  let matched = ref [] in
  let rec go = function
    | Leaf { ids; _ } -> matched := Array.to_list ids :: !matched
    | Node { attr; edge_positions; children; rest; _ } ->
      incr node_visits;
      let cost, hit =
        scan t.config.strategies.(attr) ~edge_positions
          ~target:targets.(attr)
      in
      comparisons := !comparisons + cost;
      (match hit with
      | Some i -> go children.(i)
      | None -> ( match rest with Some r -> go r | None -> ()))
  in
  (match t.root with Some r -> go r | None -> ());
  let result = List.sort_uniq Int.compare (List.concat !matched) in
  (match ops with
  | Some o ->
    o.Ops.comparisons <- o.Ops.comparisons + !comparisons;
    o.Ops.node_visits <- o.Ops.node_visits + !node_visits;
    o.Ops.events <- o.Ops.events + 1;
    o.Ops.matches <- o.Ops.matches + List.length result
  | None -> ());
  result

let targets_of_coords t coords =
  Array.mapi
    (fun attr c ->
      if Float.is_nan c then Float.infinity
      else
        match Decomp.cell_of_coord t.decomp ~attr c with
        | Some cell -> t.tables.(attr).Order.positions.(cell)
        | None -> Float.infinity)
    coords

let match_coords ?ops t coords =
  if Array.length coords <> Decomp.arity t.decomp then
    invalid_arg "Tree.match_coords: wrong arity";
  match_targets ?ops t (targets_of_coords t coords)

let match_event ?ops t event =
  let n = Decomp.arity t.decomp in
  let coords =
    Array.init n (fun attr ->
        let dom = (Schema.attribute t.decomp.Decomp.schema attr).Schema.domain in
        match Axis.coord dom (Event.value event attr) with
        | Some c -> c
        | None -> Float.nan)
  in
  match_targets ?ops t (targets_of_coords t coords)

let pp ppf t =
  let schema = t.decomp.Decomp.schema in
  let attr_name a = (Schema.attribute schema a).Schema.name in
  let cell_label attr cell =
    let itv =
      t.decomp.Decomp.overlays.(attr).Genas_interval.Overlay.cells.(cell)
        .Genas_interval.Overlay.itv
    in
    Format.asprintf "%a" Genas_interval.Interval.pp itv
  in
  let pp_leaf ppf ids =
    Format.fprintf ppf "{%s}"
      (String.concat "," (Array.to_list (Array.map string_of_int ids)))
  in
  let rec go ppf indent node =
    match node with
    | Leaf { ids; _ } -> Format.fprintf ppf "%s-> %a@," indent pp_leaf ids
    | Node { attr; cells; children; rest; _ } ->
      Array.iteri
        (fun i cell ->
          Format.fprintf ppf "%s%s %s@," indent (attr_name attr)
            (cell_label attr cell);
          go ppf (indent ^ "  ") children.(i))
        cells;
      (match rest with
      | None -> ()
      | Some child ->
        Format.fprintf ppf "%s%s %s@," indent (attr_name attr)
          (if Array.length cells = 0 then "*" else "(*)");
        go ppf (indent ^ "  ") child)
  in
  match t.root with
  | None -> Format.fprintf ppf "(empty tree)"
  | Some root ->
    Format.fprintf ppf "@[<v>";
    go ppf "" root;
    Format.fprintf ppf "@]"
