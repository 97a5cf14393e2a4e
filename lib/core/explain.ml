module Schema = Genas_model.Schema
module Event = Genas_model.Event
module Axis = Genas_model.Axis
module Interval = Genas_interval.Interval
module Overlay = Genas_interval.Overlay
module Tree = Genas_filter.Tree
module Order = Genas_filter.Order
module Decomp = Genas_filter.Decomp

type step = {
  level : int;
  attr : int;
  attr_name : string;
  cell_label : string;
  strategy : Order.strategy;
  comparisons : int;
  edges_at_node : int;
  outcome : [ `Edge | `Rest | `Reject ];
}

type t = {
  steps : step list;
  matched : Genas_profile.Profile_set.id list;
  total_comparisons : int;
}

let trace_coords tree coords =
  let decomp = tree.Tree.decomp in
  if Array.length coords <> Decomp.arity decomp then
    invalid_arg "Explain.trace_coords: wrong arity";
  let schema = decomp.Decomp.schema in
  let steps = ref [] and total = ref 0 in
  let matched = ref [] in
  let rec go level = function
    | Tree.Leaf { ids; _ } -> matched := Array.to_list ids
    | Tree.Node { attr; edge_positions; children; rest; _ } ->
      let cell = Decomp.cell_of_coord decomp ~attr coords.(attr) in
      let target =
        match cell with
        | Some c -> tree.Tree.tables.(attr).Order.positions.(c)
        | None -> Float.infinity
      in
      let strategy = tree.Tree.config.Tree.strategies.(attr) in
      let cost, hit = Tree.scan strategy ~edge_positions ~target in
      total := !total + cost;
      let outcome, next =
        match hit with
        | Some i -> (`Edge, Some children.(i))
        | None -> (
          match rest with
          | Some r -> (`Rest, Some r)
          | None -> (`Reject, None))
      in
      let cell_label =
        match cell with
        | Some c ->
          Format.asprintf "%a" Interval.pp
            decomp.Decomp.overlays.(attr).Overlay.cells.(c).Overlay.itv
        | None -> "(outside axis)"
      in
      steps :=
        {
          level;
          attr;
          attr_name = (Schema.attribute schema attr).Schema.name;
          cell_label;
          strategy;
          comparisons = cost;
          edges_at_node = Array.length edge_positions;
          outcome;
        }
        :: !steps;
      (match next with Some nd -> go (level + 1) nd | None -> ())
  in
  (match tree.Tree.root with Some root -> go 0 root | None -> ());
  {
    steps = List.rev !steps;
    matched = List.sort_uniq Int.compare !matched;
    total_comparisons = !total;
  }

let trace tree event =
  let decomp = tree.Tree.decomp in
  let schema = decomp.Decomp.schema in
  let coords =
    Array.init (Decomp.arity decomp) (fun attr ->
        match
          Axis.coord (Schema.attribute schema attr).Schema.domain
            (Event.value event attr)
        with
        | Some c -> c
        | None -> Float.nan)
  in
  trace_coords tree coords

(* ------------------------------------------------------------------ *)
(* Hotness advisory: observed per-level survival vs the chosen order.

   The planner puts the (predicted) most selective attribute first, so
   along the tree the observed survival rate — the fraction of events
   arriving at level l that proceed past it — should be non-decreasing
   with depth. A later level with a lower survival rate than an
   earlier one filters harder despite being tested later: the V/A
   prediction that ordered them is inverted for the observed traffic,
   and moving that attribute up would shed work earlier. *)

type advisory_line = {
  adv_level : int;
  adv_attr : int;
  adv_attr_name : string;
  adv_visits : int;  (** events that reached this level *)
  adv_survival : float;
      (** visits(level+1) / visits(level); [nan] when no event reached
          this level *)
}

type advisory = {
  adv_events : int;
  adv_lines : advisory_line list;  (** root level first *)
  adv_inversions : (int * int) list;
      (** (earlier level, later level): the later one filters harder *)
  adv_ok : bool;
}

let advisory ?(tolerance = 0.05) (tree : Tree.t) ~level_visits ~events =
  if not (Float.is_finite tolerance) || tolerance < 0.0 then
    invalid_arg "Explain.advisory: tolerance must be non-negative";
  let order = tree.Tree.config.Tree.attr_order in
  let arity = Array.length order in
  if Array.length level_visits < arity + 1 then
    invalid_arg "Explain.advisory: level_visits too short for the tree";
  let schema = tree.Tree.decomp.Decomp.schema in
  let survival l =
    let v = level_visits.(l) in
    if v = 0 then Float.nan
    else float_of_int level_visits.(l + 1) /. float_of_int v
  in
  let lines =
    List.init arity (fun l ->
        {
          adv_level = l;
          adv_attr = order.(l);
          adv_attr_name = (Schema.attribute schema order.(l)).Schema.name;
          adv_visits = level_visits.(l);
          adv_survival = survival l;
        })
  in
  let inversions = ref [] in
  List.iter
    (fun (li : advisory_line) ->
      List.iter
        (fun (lj : advisory_line) ->
          if
            lj.adv_level > li.adv_level
            && Float.is_finite li.adv_survival
            && Float.is_finite lj.adv_survival
            && lj.adv_survival < li.adv_survival -. tolerance
          then inversions := (li.adv_level, lj.adv_level) :: !inversions)
        lines)
    lines;
  let inversions = List.rev !inversions in
  { adv_events = events; adv_lines = lines; adv_inversions = inversions;
    adv_ok = inversions = [] }

let pp_advisory ppf a =
  Format.fprintf ppf "@[<v>hotness advisory over %d event(s):@," a.adv_events;
  List.iter
    (fun l ->
      Format.fprintf ppf
        "level %d: %-12s %7d visit(s), survival %s@," l.adv_level
        l.adv_attr_name l.adv_visits
        (if Float.is_finite l.adv_survival then
           Printf.sprintf "%.3f" l.adv_survival
         else "n/a"))
    a.adv_lines;
  if a.adv_ok then
    Format.fprintf ppf "ordering consistent with observed selectivity@]"
  else begin
    List.iter
      (fun (i, j) ->
        let line l = List.nth a.adv_lines l in
        Format.fprintf ppf
          "inversion: level %d (%s, survival %.3f) filters harder than level \
           %d (%s, survival %.3f) — consider moving it earlier@,"
          j (line j).adv_attr_name (line j).adv_survival i
          (line i).adv_attr_name (line i).adv_survival)
      a.adv_inversions;
    Format.fprintf ppf "%d inversion(s) flagged@]"
      (List.length a.adv_inversions)
  end

let pp ppf t =
  Format.fprintf ppf "@[<v>";
  List.iter
    (fun s ->
      Format.fprintf ppf "level %d: %-12s value in %-12s %a over %d edge(s): \
                          %d comparison(s) -> %s@,"
        s.level s.attr_name s.cell_label Order.pp_strategy s.strategy
        s.edges_at_node s.comparisons
        (match s.outcome with
        | `Edge -> "edge"
        | `Rest -> "rest (*)"
        | `Reject -> "reject"))
    t.steps;
  (match t.matched with
  | [] -> Format.fprintf ppf "no match"
  | ids ->
    Format.fprintf ppf "matched profiles: %s"
      (String.concat ", " (List.map string_of_int ids)));
  Format.fprintf ppf " (%d comparisons total)@]" t.total_comparisons
