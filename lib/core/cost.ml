module Tree = Genas_filter.Tree
module Decomp = Genas_filter.Decomp
module Order = Genas_filter.Order
module Overlay = Genas_interval.Overlay

module Ph = Hashtbl.Make (struct
  type t = Tree.node

  let equal a b = Tree.id a = Tree.id b

  let hash = Tree.id
end)

type report = {
  per_event : float;
  per_level : float array;
  match_prob : float;
  expected_matches : float;
  ops_times_matches : float;
  per_match : float;
}

type profile_report = {
  id : int;
  match_prob_p : float;
  ops_given_match : float;
}

(* For one inner node, enumerate the outcome of every global cell of
   its attribute: (cell probability, comparisons, next node option). *)
let node_outcomes tree cell_probs = function
  | Tree.Leaf _ -> []
  | Tree.Node { attr; edge_positions; children; rest; _ } ->
    let positions = tree.Tree.tables.(attr).Order.positions in
    let probs = cell_probs.(attr) in
    let outcomes = ref [] in
    Array.iteri
      (fun g p_g ->
        if p_g > 0.0 then begin
          let cost, hit =
            Tree.scan
              tree.Tree.config.strategies.(attr)
              ~edge_positions ~target:positions.(g)
          in
          let next =
            match hit with Some i -> Some children.(i) | None -> rest
          in
          outcomes := (p_g, cost, next) :: !outcomes
        end)
      probs;
    !outcomes

let check_dims tree cell_probs =
  let decomp = tree.Tree.decomp in
  let n = Decomp.arity decomp in
  if Array.length cell_probs <> n then
    invalid_arg "Cost: cell_probs arity mismatch";
  Array.iteri
    (fun attr probs ->
      let ncells = Array.length decomp.Decomp.overlays.(attr).Overlay.cells in
      if Array.length probs <> ncells then
        invalid_arg "Cost: cell_probs cell-count mismatch")
    cell_probs

let evaluate tree ~cell_probs =
  check_dims tree cell_probs;
  let n = Decomp.arity tree.Tree.decomp in
  let empty =
    {
      per_event = 0.0;
      per_level = Array.make n 0.0;
      match_prob = 0.0;
      expected_matches = 0.0;
      ops_times_matches = 0.0;
      per_match = Float.nan;
    }
  in
  match tree.Tree.root with
  | None -> empty
  | Some root ->
    (* Backward DP: expected cost C, leaf-reach probability T, expected
       matches M, and the joint J = E[cost × matches] from each node. *)
    let memo : (float * float * float * float) Ph.t = Ph.create 256 in
    let rec dp node =
      match Ph.find_opt memo node with
      | Some r -> r
      | None ->
        let r =
          match node with
          | Tree.Leaf { ids; _ } ->
            (0.0, 1.0, float_of_int (Array.length ids), 0.0)
          | Tree.Node _ ->
            List.fold_left
              (fun (c, t, m, j) (p_g, cost, next) ->
                let cn, tn, mn, jn =
                  match next with
                  | Some nd -> dp nd
                  | None -> (0.0, 0.0, 0.0, 0.0)
                in
                let cost = float_of_int cost in
                ( c +. (p_g *. (cost +. cn)),
                  t +. (p_g *. tn),
                  m +. (p_g *. mn),
                  j +. (p_g *. ((cost *. mn) +. jn)) ))
              (0.0, 0.0, 0.0, 0.0)
              (node_outcomes tree cell_probs node)
        in
        Ph.replace memo node r;
        r
    in
    let c, t, m, j = dp root in
    (* Forward pass for the per-level breakdown: accumulate reach
       probabilities level by level (every parent of a level-L node
       sits at level L−1, so one sweep suffices). *)
    let per_level = Array.make n 0.0 in
    let current = Ph.create 64 in
    Ph.replace current root 1.0;
    let current = ref current in
    for level = 0 to n - 1 do
      let next_level = Ph.create 64 in
      Ph.iter
        (fun node p_reach ->
          let local_cost = ref 0.0 in
          List.iter
            (fun (p_g, cost, next) ->
              local_cost := !local_cost +. (p_g *. float_of_int cost);
              match next with
              | None -> ()
              | Some nd ->
                Ph.replace next_level nd
                  ((p_reach *. p_g)
                  +. Option.value ~default:0.0 (Ph.find_opt next_level nd)))
            (node_outcomes tree cell_probs node);
          per_level.(level) <- per_level.(level) +. (p_reach *. !local_cost))
        !current;
      current := next_level
    done;
    {
      per_event = c;
      per_level;
      match_prob = t;
      expected_matches = m;
      ops_times_matches = j;
      per_match = (if m > 0.0 then j /. m else Float.nan);
    }

let evaluate_with_stats tree stats =
  let n = Decomp.arity tree.Tree.decomp in
  let cell_probs = Array.init n (fun attr -> Stats.event_cell_probs stats ~attr) in
  evaluate tree ~cell_probs

let evaluate_joint tree joint =
  let decomp = tree.Tree.decomp in
  let n = Decomp.arity decomp in
  if Genas_dist.Joint.arity joint <> n then
    invalid_arg "Cost.evaluate_joint: joint arity mismatch";
  let overlays = decomp.Decomp.overlays in
  let per_comp =
    Array.init n (fun attr ->
        Genas_dist.Joint.component_cell_probs joint ~overlays ~attr)
  in
  let ncomp = Genas_dist.Joint.components joint in
  let per_level = Array.make n 0.0 in
  (* All returned quantities are weighted by the path's reach mass:
     (expected cost, leaf-reach mass, expected matches, joint E[c·m]). *)
  let rec go node level (weights : float array) =
    let wsum = Array.fold_left ( +. ) 0.0 weights in
    if wsum < 1e-14 then (0.0, 0.0, 0.0, 0.0)
    else
      match node with
      | Tree.Leaf { ids; _ } ->
        (0.0, wsum, wsum *. float_of_int (Array.length ids), 0.0)
      | Tree.Node { attr; edge_positions; children; rest; _ } ->
        let positions = tree.Tree.tables.(attr).Order.positions in
        let q = per_comp.(attr) in
        let ncells = Array.length overlays.(attr).Overlay.cells in
        let c_acc = ref 0.0 and t_acc = ref 0.0 in
        let m_acc = ref 0.0 and j_acc = ref 0.0 in
        for g = 0 to ncells - 1 do
          let w' = Array.init ncomp (fun k -> weights.(k) *. q.(k).(g)) in
          let p_g = Array.fold_left ( +. ) 0.0 w' in
          if p_g >= 1e-14 then begin
            let cost, hit =
              Tree.scan
                tree.Tree.config.strategies.(attr)
                ~edge_positions ~target:positions.(g)
            in
            let cost = float_of_int cost in
            per_level.(level) <- per_level.(level) +. (p_g *. cost);
            c_acc := !c_acc +. (p_g *. cost);
            let next = match hit with Some i -> Some children.(i) | None -> rest in
            match next with
            | None -> ()
            | Some nd ->
              let cn, tn, mn, jn = go nd (level + 1) w' in
              c_acc := !c_acc +. cn;
              t_acc := !t_acc +. tn;
              m_acc := !m_acc +. mn;
              j_acc := !j_acc +. ((cost *. mn) +. jn)
          end
        done;
        (!c_acc, !t_acc, !m_acc, !j_acc)
  in
  match tree.Tree.root with
  | None ->
    {
      per_event = 0.0;
      per_level;
      match_prob = 0.0;
      expected_matches = 0.0;
      ops_times_matches = 0.0;
      per_match = Float.nan;
    }
  | Some root ->
    let c, t, m, j = go root 0 (Genas_dist.Joint.initial_weights joint) in
    {
      per_event = c;
      per_level;
      match_prob = t;
      expected_matches = m;
      ops_times_matches = j;
      per_match = (if m > 0.0 then j /. m else Float.nan);
    }

let per_profile tree ~cell_probs =
  check_dims tree cell_probs;
  let ids = tree.Tree.decomp.Decomp.ids in
  let p = Array.length ids in
  let idx_of = Hashtbl.create p in
  Array.iteri (fun i id -> Hashtbl.replace idx_of id i) ids;
  match tree.Tree.root with
  | None -> []
  | Some root ->
    (* Vector DP: per profile, match probability and E[cost × matched]. *)
    let memo : (float array * float array) Ph.t = Ph.create 256 in
    let rec dp node =
      match Ph.find_opt memo node with
      | Some r -> r
      | None ->
        let r =
          match node with
          | Tree.Leaf { ids = leaf_ids; _ } ->
            let m = Array.make p 0.0 in
            Array.iter
              (fun id -> m.(Hashtbl.find idx_of id) <- 1.0)
              leaf_ids;
            (m, Array.make p 0.0)
          | Tree.Node _ ->
            let m = Array.make p 0.0 and j = Array.make p 0.0 in
            List.iter
              (fun (p_g, cost, next) ->
                match next with
                | None -> ()
                | Some nd ->
                  let mn, jn = dp nd in
                  let cost = float_of_int cost in
                  for i = 0 to p - 1 do
                    m.(i) <- m.(i) +. (p_g *. mn.(i));
                    j.(i) <- j.(i) +. (p_g *. ((cost *. mn.(i)) +. jn.(i)))
                  done)
              (node_outcomes tree cell_probs node);
            (m, j)
        in
        Ph.replace memo node r;
        r
    in
    let m, j = dp root in
    Array.to_list
      (Array.mapi
         (fun i id ->
           {
             id;
             match_prob_p = m.(i);
             ops_given_match =
               (if m.(i) > 0.0 then j.(i) /. m.(i) else Float.nan);
           })
         ids)
