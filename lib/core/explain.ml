module Schema = Genas_model.Schema
module Interval = Genas_interval.Interval
module Overlay = Genas_interval.Overlay
module Tree = Genas_filter.Tree
module Order = Genas_filter.Order
module Decomp = Genas_filter.Decomp

type step = {
  level : int;
  node : int;
  attr : int;
  attr_name : string;
  cell : int option;
  strategy : Order.strategy;
  comparisons : int;
  edges_at_node : int;
  outcome : [ `Edge of int | `Rest | `Reject ];
}

type t = {
  steps : step list;
  leaf : int option;
  matched : Genas_profile.Profile_set.id list;
  total_comparisons : int;
}

(* The walk Tree.match_targets takes, recording each node; [cell_of
   attr] resolves the event's cell on [attr] when a node tests it. *)
let walk tree ~cell_of =
  let schema = tree.Tree.decomp.Decomp.schema in
  let rec go level steps total = function
    | Tree.Leaf { id; ids } ->
      { steps = List.rev steps; leaf = Some id; matched = Array.to_list ids;
        total_comparisons = total }
    | Tree.Node { id; attr; edge_positions; children; rest; _ } -> (
      let cell = cell_of attr in
      let target =
        match cell with
        | Some c -> tree.Tree.tables.(attr).Order.positions.(c)
        | None -> Float.infinity
      in
      let strategy = tree.Tree.config.Tree.strategies.(attr) in
      let cost, hit = Tree.scan strategy ~edge_positions ~target in
      let outcome, next =
        match (hit, rest) with
        | Some i, _ -> (`Edge i, Some children.(i))
        | None, Some r -> (`Rest, Some r)
        | None, None -> (`Reject, None)
      in
      let steps =
        {
          level;
          node = id;
          attr;
          attr_name = (Schema.attribute schema attr).Schema.name;
          cell;
          strategy;
          comparisons = cost;
          edges_at_node = Array.length edge_positions;
          outcome;
        }
        :: steps
      in
      let total = total + cost in
      match next with
      | Some nd -> go (level + 1) steps total nd
      | None ->
        { steps = List.rev steps; leaf = None; matched = [];
          total_comparisons = total })
  in
  match tree.Tree.root with
  | Some root -> go 0 [] 0 root
  | None -> { steps = []; leaf = None; matched = []; total_comparisons = 0 }

let trace tree event =
  let decomp = tree.Tree.decomp in
  walk tree ~cell_of:(fun attr -> Decomp.cell_of_event decomp ~attr event)

let cell_label tree s =
  match s.cell with
  | Some c ->
    Format.asprintf "%a" Interval.pp
      tree.Tree.decomp.Decomp.overlays.(s.attr).Overlay.cells.(c).Overlay.itv
  | None -> "(outside axis)"

let pp tree ppf t =
  Format.fprintf ppf "@[<v>";
  List.iter
    (fun s ->
      Format.fprintf ppf "level %d: %-12s value in %-12s %a over %d edge(s): \
                          %d comparison(s) -> %s@,"
        s.level s.attr_name (cell_label tree s) Order.pp_strategy s.strategy
        s.edges_at_node s.comparisons
        (match s.outcome with
        | `Edge _ -> "edge"
        | `Rest -> "rest (*)"
        | `Reject -> "reject"))
    t.steps;
  (match t.matched with
  | [] -> Format.fprintf ppf "no match"
  | ids ->
    Format.fprintf ppf "matched profiles: %s"
      (String.concat ", " (List.map string_of_int ids)));
  Format.fprintf ppf " (%d comparisons total)@]" t.total_comparisons
