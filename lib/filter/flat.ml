module Axis = Genas_model.Axis
module Image = Genas_model.Image

(* Strategy codes, dispatched with plain int compares in the hot loop. *)
let code_linear = 0
let code_binary = 1
let code_hashed = 2

let code_of_strategy = function
  | Order.Linear _ -> code_linear
  | Order.Binary -> code_binary
  | Order.Hashed -> code_hashed

(* Doubled-rank encoding: referenced rank q -> 2q, half-rank q - 0.5 ->
   2q - 1, out-of-domain -> max_int. Strictly monotonic and
   equality-preserving w.r.t. the float encoding, so every three-way
   comparison has the same outcome as in the pointer tree. *)
let out_of_domain = max_int

let pos2_of_float p = int_of_float (2.0 *. p)

type t = {
  decomp : Decomp.t;
  arity : int;
  strategy : int array;  (* per natural attribute: strategy code *)
  pos2 : int array array;  (* per attribute, per global cell *)
  slot_target : int array array;
      (* per attribute: target of image slot [s] at [s + 1], slot 0
         holding out_of_domain; empty for an untabled attribute *)
  (* Node table: one slot per flat node, leaves marked by attr = -1. *)
  node_attr : int array;
  edge_first : int array;  (* per node: first slot in the edge arrays *)
  edge_count : int array;
  rest : int array;  (* per node: rest-node index, or -1 *)
  leaf_first : int array;  (* per leaf: first slot in [postings] *)
  leaf_count : int array;
  (* Shared edge arrays (CSR payload). *)
  edge_pos : int array;  (* doubled rank per edge, ascending per node *)
  edge_child : int array;  (* flat node index per edge *)
  postings : int array;  (* all leaf id lists, ascending per leaf *)
  root : int;  (* -1 when no profiles are registered *)
  seen_size : int;  (* max live profile id + 1 *)
  out_size : int;  (* live profile count: worst-case match set *)
}

type cursor = {
  image : Image.t;  (* resolves events passed without an image *)
  targets : int array;
  seen : int array;  (* epoch stamps, by profile id *)
  out : int array;
  mutable len : int;
  mutable epoch : int;
}

(* [nan], an out-of-domain coordinate, is in no cell. *)
let target_of_coord decomp pos2 attr c =
  match Decomp.cell_of_coord decomp ~attr c with
  | Some cell -> pos2.(attr).(cell)
  | None -> out_of_domain

(* Slot [s] of a tabled axis stands for the coordinate [lo + s]. *)
let slot_table decomp pos2 attr (axis : Axis.t) =
  match Image.table_size axis with
  | None -> [||]
  | Some n ->
    Array.init (n + 1) (fun s ->
        if s = 0 then out_of_domain
        else target_of_coord decomp pos2 attr (axis.Axis.lo +. float_of_int (s - 1)))

let compile (tree : Tree.t) =
  let decomp = tree.Tree.decomp in
  let arity = Decomp.arity decomp in
  let strategy =
    Array.map code_of_strategy tree.Tree.config.Tree.strategies
  in
  let pos2 =
    Array.map
      (fun (tb : Order.table) -> Array.map pos2_of_float tb.Order.positions)
      tree.Tree.tables
  in
  let slot_target = Array.mapi (slot_table decomp pos2) decomp.Decomp.axes in
  (* Construction ids are dense over the unique nodes, so the memo is
     an int array and every table has its final size up front. *)
  let s = tree.Tree.stats in
  let n = s.Tree.nodes + s.Tree.leaves in
  let node_attr = Array.make n 0 and edge_first = Array.make n 0 in
  let edge_count = Array.make n 0 and rest = Array.make n 0 in
  let leaf_first = Array.make n 0 and leaf_count = Array.make n 0 in
  let edge_pos = Array.make s.Tree.edges 0 in
  let edge_child = Array.make s.Tree.edges 0 in
  let postings = Array.make s.Tree.postings 0 in
  let memo = Array.make n (-1) in
  let next = ref 0 and nedges = ref 0 and nposts = ref 0 in
  (* Unset slots keep 0: leaves have no edges, inner nodes no postings. *)
  let rec go node =
    let cid = Tree.id node in
    if memo.(cid) < 0 then begin
      (match node with
      | Tree.Leaf { ids; _ } ->
        node_attr.(!next) <- -1;
        rest.(!next) <- -1;
        leaf_first.(!next) <- !nposts;
        leaf_count.(!next) <- Array.length ids;
        Array.blit ids 0 postings !nposts (Array.length ids);
        nposts := !nposts + Array.length ids
      | Tree.Node { attr; edge_positions; children; rest = r; _ } ->
        (* Children first so this node's edge slots stay contiguous. *)
        let child_ids = Array.map go children in
        let rest_id = match r with Some c -> go c | None -> -1 in
        let efirst = !nedges in
        Array.iteri
          (fun j p ->
            edge_pos.(efirst + j) <- pos2_of_float p;
            edge_child.(efirst + j) <- child_ids.(j))
          edge_positions;
        nedges := efirst + Array.length edge_positions;
        node_attr.(!next) <- attr;
        edge_first.(!next) <- efirst;
        edge_count.(!next) <- Array.length edge_positions;
        rest.(!next) <- rest_id);
      memo.(cid) <- !next;
      incr next
    end;
    memo.(cid)
  in
  let root = match tree.Tree.root with Some r -> go r | None -> -1 in
  let ids = decomp.Decomp.ids in
  let nlive = Array.length ids in
  {
    decomp;
    arity;
    strategy;
    pos2;
    slot_target;
    node_attr;
    edge_first;
    edge_count;
    rest;
    leaf_first;
    leaf_count;
    edge_pos;
    edge_child;
    postings;
    root;
    seen_size = (if nlive = 0 then 0 else ids.(nlive - 1) + 1);
    out_size = nlive;
  }

let node_count t = Array.length t.node_attr

let edge_count t = Array.length t.edge_pos

let posting_count t = Array.length t.postings

(* The output buffer carries one slack slot past the worst-case match
   count: the branchless leaf-dedup below writes the candidate id
   unconditionally at [len] and advances [len] only when the id was
   fresh, so a duplicate arriving with the buffer already full touches
   the slack slot instead of falling off the end. *)
let cursor t =
  {
    image = Image.create t.decomp.Decomp.schema;
    targets = Array.make t.arity 0;
    seen = Array.make t.seen_size 0;
    out = Array.make (t.out_size + 1) 0;
    len = 0;
    epoch = 0;
  }

(* The traversal core: follows the single deterministic path from the
   root, mirroring Tree.match_targets edge for edge. Comparison and
   node-visit counts are bit-identical to the pointer tree (the scan
   branches replicate Tree.scan over the doubled-rank encoding).

   The interval tests are branchless where the charged comparison
   count allows: the leaf dedup stores unconditionally and advances
   [len] by a comparison-derived 0/1, and the linear scan's deciding
   edge resolves its hit slot with int arithmetic instead of a taken/
   not-taken branch. The charged counts are computed arithmetically
   from the stopping index, so they cannot drift from the pointer
   tree's accounting. *)
let run ?ops t cur =
  cur.epoch <- cur.epoch + 1;
  cur.len <- 0;
  let comparisons = ref 0 and node_visits = ref 0 in
  if t.root >= 0 then begin
    let node = ref t.root and live = ref true in
    while !live do
      let i = !node in
      let a = Array.unsafe_get t.node_attr i in
      if a < 0 then begin
        (* Leaf: publish the postings slice, deduped by epoch stamp
           (ids are ascending per leaf, so the output stays sorted).
           Branchless: always store at [len], advance by freshness. *)
        let first = t.leaf_first.(i) in
        let epoch = cur.epoch in
        for k = first to first + t.leaf_count.(i) - 1 do
          let id = Array.unsafe_get t.postings k in
          let fresh = Bool.to_int (Array.unsafe_get cur.seen id <> epoch) in
          Array.unsafe_set cur.seen id epoch;
          Array.unsafe_set cur.out cur.len id;
          cur.len <- cur.len + fresh
        done;
        live := false
      end
      else begin
        incr node_visits;
        let target = Array.unsafe_get cur.targets a in
        let first = t.edge_first.(i) and n = t.edge_count.(i) in
        let hit = ref (-1) in
        if n > 0 then begin
          let code = Array.unsafe_get t.strategy a in
          if code = code_linear then begin
            (* Early-stopping scan: cost j+1 on the deciding edge, n on
               exhaustion — exactly Tree.scan's Linear branch. The scan
               itself is a single-test loop; the deciding edge resolves
               hit/miss without a branch (eq = 1 selects j, eq = 0
               selects -1). *)
            let j = ref 0 in
            while
              !j < n && Array.unsafe_get t.edge_pos (first + !j) < target
            do
              incr j
            done;
            if !j < n then begin
              comparisons := !comparisons + !j + 1;
              let eq =
                Bool.to_int
                  (Array.unsafe_get t.edge_pos (first + !j) = target)
              in
              hit := (!j * eq) lor (eq - 1)
            end
            else comparisons := !comparisons + n
          end
          else begin
            (* Binary and hashed both locate by bisection (the int
               mirror of Order.bisect); binary charges the probes,
               hashed charges one comparison. *)
            let lo = ref 0 and hi = ref (n - 1) in
            let probes = ref 0 in
            while !hit < 0 && !lo <= !hi do
              let mid = (!lo + !hi) / 2 in
              incr probes;
              let p = Array.unsafe_get t.edge_pos (first + mid) in
              if p = target then hit := mid
              else if p < target then lo := mid + 1
              else hi := mid - 1
            done;
            comparisons :=
              !comparisons + (if code = code_binary then !probes else 1)
          end
        end;
        if !hit >= 0 then node := t.edge_child.(first + !hit)
        else begin
          let r = t.rest.(i) in
          if r >= 0 then node := r else live := false
        end
      end
    done
  end;
  (match ops with
  | Some o ->
    o.Ops.comparisons <- o.Ops.comparisons + !comparisons;
    o.Ops.node_visits <- o.Ops.node_visits + !node_visits;
    o.Ops.events <- o.Ops.events + 1;
    o.Ops.matches <- o.Ops.matches + cur.len
  | None -> ());
  cur.len

let match_into ?ops ?image t cur event =
  if
    Array.length cur.targets <> t.arity
    || Array.length cur.seen < t.seen_size
    || Array.length cur.out < t.out_size + 1
  then invalid_arg "Flat.match_into: cursor built for a different matcher";
  let img =
    match image with
    | Some img -> img
    | None ->
      Image.resolve cur.image event;
      cur.image
  in
  let slots = Image.slots img and coords = Image.coords img in
  if Array.length slots <> t.arity then
    invalid_arg "Flat.match_into: image of a different schema";
  for attr = 0 to t.arity - 1 do
    let tbl = Array.unsafe_get t.slot_target attr in
    cur.targets.(attr) <-
      (if Array.length tbl > 0 then tbl.(Array.unsafe_get slots attr + 1)
       else target_of_coord t.decomp t.pos2 attr (Float.Array.get coords attr))
  done;
  run ?ops t cur

let matches cur = cur.out
