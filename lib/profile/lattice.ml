module Iset = Genas_interval.Iset
module Interval = Genas_interval.Interval
module Schema = Genas_model.Schema
module Axis = Genas_model.Axis
module Id_table = Profile_set.Id_table

(* Per-node summary signature: [mask] has bit [i] set iff attribute [i]
   is constrained (axis-normalized: a full-axis denotation counts as
   unconstrained), [lo]/[hi] hold the bounding hull of each constrained
   denotation. [a] can only cover [b] if [a] constrains a subset of
   [b]'s attributes and each of [a]'s hulls contains [b]'s — both are
   necessary conditions checked with integer/float compares before any
   interval-set walk. Attributes beyond the mask width (unheard-of
   arities) simply fall through to the exact check. *)
let mask_width = 62

type node = {
  nid : int;  (** dense node id, unique per lattice *)
  mutable members : int list;  (** ascending; head = representative *)
  profile : Profile.t;  (** canonical (first-inserted) member *)
  denots : Iset.t option array;  (** axis-normalized denotations *)
  mask : int;
  lo : float array;
  hi : float array;
  exact : bool;
      (** every constrained denotation is one closed interval inside the
          mask width, so the hull test alone decides a match *)
  mutable parents : node list;
  mutable children : node list;
  mutable stamp : int;
  mutable covers_probe : bool;  (** memo of the probe test at [stamp] *)
}

type t = {
  schema : Schema.t;
  arity : int;
  fulls : Iset.t array;  (** full axis per attribute, for normalization *)
  by_id : node Id_table.t;
  mutable roots : node list;
  mutable size : int;
  mutable nnodes : int;
  mutable nroots : int;
  mutable next_nid : int;
  mutable stamp : int;
  mutable cover_tests : int;
}

let create schema =
  let fulls =
    Array.map
      (fun a -> Iset.full (Axis.of_domain a.Schema.domain))
      (Schema.attributes schema)
  in
  {
    schema;
    arity = Schema.arity schema;
    fulls;
    by_id = Id_table.create 256;
    roots = [];
    size = 0;
    nnodes = 0;
    nroots = 0;
    next_nid = 0;
    stamp = 0;
    cover_tests = 0;
  }

(* A probe: the signature of a profile not (yet) in the lattice. *)
type key = {
  k_denots : Iset.t option array;
  k_mask : int;
  k_lo : float array;
  k_hi : float array;
}

let hull iset =
  match Iset.intervals iset with
  | [] -> (0.0, 0.0)
  | first :: _ as l ->
    let rec last = function [ x ] -> x | _ :: r -> last r | [] -> first in
    (first.Interval.lo, (last l).Interval.hi)

let make_key t profile =
  let n = t.arity in
  let denots = Array.make n None in
  let lo = Array.make n 0.0 and hi = Array.make n 0.0 in
  let mask = ref 0 in
  for i = 0 to n - 1 do
    match profile.Profile.denots.(i) with
    | None -> ()
    | Some s ->
      if not (Iset.equal s t.fulls.(i)) then begin
        denots.(i) <- Some s;
        if i < mask_width then mask := !mask lor (1 lsl i);
        let l, h = hull s in
        lo.(i) <- l;
        hi.(i) <- h
      end
  done;
  { k_denots = denots; k_mask = !mask; k_lo = lo; k_hi = hi }

(* Exact covering over normalized denotations, signature-pruned. *)
let node_covers_key t (n : node) (k : key) =
  t.cover_tests <- t.cover_tests + 1;
  n.mask land lnot k.k_mask = 0
  &&
  let rec go i =
    i = t.arity
    ||
    match (n.denots.(i), k.k_denots.(i)) with
    | None, _ -> go (i + 1)
    | Some _, None -> false
    | Some sa, Some sb ->
      n.lo.(i) <= k.k_lo.(i)
      && k.k_hi.(i) <= n.hi.(i)
      && Iset.subset sb sa
      && go (i + 1)
  in
  go 0

let key_covers_node t (k : key) (n : node) =
  t.cover_tests <- t.cover_tests + 1;
  k.k_mask land lnot n.mask = 0
  &&
  let rec go i =
    i = t.arity
    ||
    match (k.k_denots.(i), n.denots.(i)) with
    | None, _ -> go (i + 1)
    | Some _, None -> false
    | Some sa, Some sb ->
      k.k_lo.(i) <= n.lo.(i)
      && n.hi.(i) <= k.k_hi.(i)
      && Iset.subset sb sa
      && go (i + 1)
  in
  go 0

(* Find the deepest nodes covering [k] (its direct coverers), and the
   equivalence host if one exists. Every coverer's ancestors also
   cover [k], so all coverers are reachable from the roots through
   chains of covering nodes; the walk memoizes the per-node test in
   the node's stamp so shared ancestry is tested once. *)
let find_coverers t k =
  t.stamp <- t.stamp + 1;
  let round = t.stamp in
  let covers_memo (n : node) =
    if n.stamp = round then n.covers_probe
    else begin
      n.stamp <- round;
      n.covers_probe <- node_covers_key t n k;
      n.covers_probe
    end
  in
  let explored = Hashtbl.create 16 in
  let preds = ref [] and equiv = ref None in
  let rec explore (n : node) =
    (* [n] is known to cover [k]. *)
    if Option.is_none !equiv && not (Hashtbl.mem explored n.nid) then begin
      Hashtbl.add explored n.nid ();
      if key_covers_node t k n then equiv := Some n
      else begin
        let deeper = List.filter covers_memo n.children in
        match deeper with
        | [] -> preds := n :: !preds
        | _ -> List.iter explore deeper
      end
    end
  in
  List.iter
    (fun r -> if Option.is_none !equiv && covers_memo r then explore r)
    t.roots;
  (!equiv, !preds)

let rec insert_sorted id = function
  | [] -> [ id ]
  | x :: _ as l when id < x -> id :: l
  | x :: rest -> x :: insert_sorted id rest

let hull_is_exact (k : key) =
  let ok = ref true in
  Array.iteri
    (fun i d ->
      match d with
      | None -> ()
      | Some s -> (
        match Iset.intervals s with
        | [ iv ] when i < mask_width && iv.Interval.lo_closed && iv.Interval.hi_closed
          ->
          ()
        | _ -> ok := false))
    k.k_denots;
  !ok

let fresh_node t ~id ~profile k =
  let nid = t.next_nid in
  t.next_nid <- nid + 1;
  t.nnodes <- t.nnodes + 1;
  {
    nid;
    members = [ id ];
    profile;
    denots = k.k_denots;
    mask = k.k_mask;
    lo = k.k_lo;
    hi = k.k_hi;
    exact = hull_is_exact k;
    parents = [];
    children = [];
    stamp = 0;
    covers_probe = false;
  }

type add_result =
  | Absorbed of { coverer : int }
  | Rooted of { demoted : int list list }

let add t ~id profile =
  if Id_table.mem t.by_id id then
    invalid_arg "Lattice.add: id already present";
  let k = make_key t profile in
  match find_coverers t k with
  | Some host, _ ->
    (* Equivalent class exists: join it. *)
    host.members <- insert_sorted id host.members;
    Id_table.replace t.by_id id host;
    t.size <- t.size + 1;
    Absorbed { coverer = List.hd host.members }
  | None, (_ :: _ as preds) ->
    let node = fresh_node t ~id ~profile k in
    node.parents <- preds;
    List.iter (fun p -> p.children <- node :: p.children) preds;
    Id_table.replace t.by_id id node;
    t.size <- t.size + 1;
    Absorbed { coverer = List.hd (List.hd preds).members }
  | None, [] ->
    (* New root; former roots it covers move underneath it. *)
    let node = fresh_node t ~id ~profile k in
    let covered, kept =
      List.partition (fun r -> key_covers_node t k r) t.roots
    in
    node.children <- covered;
    List.iter (fun r -> r.parents <- [ node ]) covered;
    t.roots <- node :: kept;
    t.nroots <- t.nroots - List.length covered + 1;
    Id_table.replace t.by_id id node;
    t.size <- t.size + 1;
    Rooted { demoted = List.map (fun r -> r.members) covered }

type remove_result =
  | Shrunk of { root : bool; members : int list }
  | Dissolved of { root : bool; promoted : int list list }

(* Re-place a node that lost its last parent: link it under its
   remaining coverers if any survive, otherwise promote it to a root
   (demoting any root it covers — only other just-promoted orphans can
   qualify, since a profile covered by the dissolved node cannot cover
   a pre-existing root). *)
let replace_orphan t (orphan : node) =
  let k =
    {
      k_denots = orphan.denots;
      k_mask = orphan.mask;
      k_lo = orphan.lo;
      k_hi = orphan.hi;
    }
  in
  match find_coverers t k with
  | Some _, _ ->
    (* An equivalent node elsewhere would have been this node. *)
    assert false
  | None, (_ :: _ as preds) ->
    orphan.parents <- preds;
    List.iter (fun p -> p.children <- orphan :: p.children) preds
  | None, [] ->
    let covered, kept =
      List.partition (fun r -> key_covers_node t k r) t.roots
    in
    orphan.children <- List.rev_append covered orphan.children;
    List.iter (fun r -> r.parents <- [ orphan ]) covered;
    t.roots <- orphan :: kept;
    t.nroots <- t.nroots - List.length covered + 1

let remove t id =
  match Id_table.find_opt t.by_id id with
  | None -> None
  | Some n ->
    Id_table.remove t.by_id id;
    t.size <- t.size - 1;
    n.members <- List.filter (fun m -> m <> id) n.members;
    if n.members <> [] then
      Some (Shrunk { root = (n.parents = []); members = n.members })
    else begin
      let was_root = n.parents = [] in
      t.nnodes <- t.nnodes - 1;
      if was_root then begin
        t.roots <- List.filter (fun r -> r.nid <> n.nid) t.roots;
        t.nroots <- t.nroots - 1
      end
      else
        List.iter
          (fun p ->
            p.children <- List.filter (fun c -> c.nid <> n.nid) p.children)
          n.parents;
      let orphans =
        List.filter
          (fun c ->
            c.parents <- List.filter (fun p -> p.nid <> n.nid) c.parents;
            c.parents = [])
          n.children
      in
      List.iter (replace_orphan t) orphans;
      let promoted =
        List.filter_map
          (fun c -> if c.parents = [] then Some c.members else None)
          orphans
      in
      Some (Dissolved { root = was_root; promoted })
    end

let mem t id = Id_table.mem t.by_id id

let size t = t.size

let node_count t = t.nnodes

let root_count t = t.nroots

let absorbed t = t.size - t.nroots

let minimal_cover t =
  List.sort
    (fun (a, _) (b, _) -> Int.compare a b)
    (List.map (fun r -> (List.hd r.members, r.profile)) t.roots)

let covered_by t profile =
  let k = make_key t profile in
  let rec scan = function
    | [] -> None
    | r :: rest ->
      if node_covers_key t r k then Some (List.hd r.members) else scan rest
  in
  scan t.roots

let entries t =
  Id_table.fold (fun id n acc -> (id, n.profile) :: acc) t.by_id []
  |> List.sort (fun (a, _) (b, _) -> Int.compare a b)

let find t id = Option.map (fun n -> n.profile) (Id_table.find_opt t.by_id id)

let cover_tests t = t.cover_tests

(* ------------------------------------------------------------------ *)
(* Traversal *)

let node_of t id = Id_table.find_opt t.by_id id

let begin_visit t = t.stamp <- t.stamp + 1

let seen t (n : node) =
  if n.stamp = t.stamp then true
  else begin
    n.stamp <- t.stamp;
    false
  end

(* Does [n] match the event whose axis coordinates are [coords]? The
   hull test over the constrained-attribute mask is a necessary
   condition everywhere and the whole answer on exact nodes; the rest
   (open bounds, gaps, attributes past the mask) also take the
   interval-set walk. A NaN coordinate (a value outside its domain)
   fails every hull and every interval set, as
   [Profile.matches] fails it. *)
let rec in_hull (n : node) coords i m =
  m = 0
  || (m land 1 = 0
     ||
     let c = Float.Array.get coords i in
     n.lo.(i) <= c && c <= n.hi.(i))
     && in_hull n coords (i + 1) (m lsr 1)

let rec in_sets (n : node) coords i =
  i = Array.length n.denots
  || (match n.denots.(i) with
     | None -> true
     | Some s -> Iset.mem s (Float.Array.get coords i))
     && in_sets n coords (i + 1)

let node_matches (n : node) coords =
  in_hull n coords 0 n.mask && (n.exact || in_sets n coords 0)

let expand t ~coords ~verified node ~on_check ~emit =
  let rec visit verified (n : node) =
    if not (seen t n) then
      if verified || (on_check (); node_matches n coords) then begin
        List.iter emit n.members;
        children n.children
      end
  and children = function
    | [] -> ()
    | c :: rest ->
      visit false c;
      children rest
  in
  visit verified node

let descendant_count t id =
  match Id_table.find_opt t.by_id id with
  | None -> 0
  | Some n ->
    begin_visit t;
    ignore (seen t n);
    let rec walk acc c =
      if seen t c then acc
      else List.fold_left walk (acc + List.length c.members) c.children
    in
    List.fold_left walk 0 n.children
