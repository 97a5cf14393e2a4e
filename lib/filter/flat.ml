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

(* Dense-rank encoding: per attribute, the distinct lookup positions of
   its cells (ranks and half-ranks, Order.table) are numbered 0, 1, ...
   ascending, and an out-of-domain value takes the next number, the
   attribute's sentinel. Strictly monotonic and equality-preserving
   w.r.t. the float positions (out-of-domain standing for +inf), so
   every three-way comparison has the same outcome as in the pointer
   tree, and the targets of an attribute are exactly 0 .. sentinel. *)
let rank_table (tb : Order.table) =
  let sorted = Array.copy tb.Order.positions in
  Array.sort Float.compare sorted;
  let d = ref 0 in
  Array.iter
    (fun p ->
      if !d = 0 || p <> sorted.(!d - 1) then begin
        sorted.(!d) <- p;
        incr d
      end)
    sorted;
  let rank p =
    let lo = ref 0 and hi = ref (!d - 1) in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if sorted.(mid) < p then lo := mid + 1 else hi := mid
    done;
    !lo
  in
  (Array.map rank tb.Order.positions, !d)

(* A node step through a row is one 32-bit slot: the next flat node
   index in the high 24 bits (-1: stop) and the step's charged
   comparisons in the low 8. *)
let charge_bits = 8

let max_charge = (1 lsl charge_bits) - 1

let max_next = (1 lsl (31 - charge_bits)) - 1

(* An inner node gets a row only when the row has at most this many
   slots per (edge + 1), so a row costs at most 32 bytes per (edge + 1)
   against the 16 bytes per edge of the edges it replaces. Sparser
   nodes (few edges over a many-celled attribute) keep the edge
   search. *)
let row_ratio = 8

(* A row is a byte string of native-endian 32-bit slots; [no_row]
   marks a node that searches its edges. *)
external get32 : Bytes.t -> int -> int32 = "%caml_bytes_get32u"

external set32 : Bytes.t -> int -> int32 -> unit = "%caml_bytes_set32u"

let no_row = Bytes.empty

type t = {
  decomp : Decomp.t;
  arity : int;
  strategy : int array;  (* per natural attribute: strategy code *)
  rank : int array array;  (* per attribute, per global cell *)
  sentinel : int array;  (* per attribute: the out-of-domain target *)
  slot_target : int array array;
      (* per attribute: target of image slot [s] at [s + 1], slot 0
         holding the sentinel; empty for an untabled attribute *)
  (* Node table: one slot per flat node, leaves marked by attr = -1. *)
  node_attr : int array;
  rows : Bytes.t array;  (* per node: its row, [sentinel + 1] slots *)
  edge_first : int array;  (* per searching node: first edge slot *)
  edge_count : int array;
  rest : int array;  (* per node: rest-node index, or -1 *)
  leaf_first : int array;  (* per leaf: first slot in [postings] *)
  leaf_count : int array;
  (* Shared edge arrays (CSR payload) of the nodes without a row. *)
  edge_pos : int array;  (* dense rank per edge, ascending per node *)
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
let target_of_coord decomp rank sentinel attr c =
  match Decomp.cell_of_coord decomp ~attr c with
  | Some cell -> rank.(attr).(cell)
  | None -> sentinel.(attr)

(* Slot [s] of a tabled axis stands for the coordinate [lo + s]. *)
let slot_table decomp rank sentinel attr (axis : Axis.t) =
  match Image.table_size axis with
  | None -> [||]
  | Some n ->
    Array.init (n + 1) (fun s ->
        if s = 0 then sentinel.(attr)
        else
          target_of_coord decomp rank sentinel attr
            (axis.Axis.lo +. float_of_int (s - 1)))

let entry next charge = Int32.of_int ((next lsl charge_bits) lor charge)

(* A node's row, filled gap by gap. A search for a target strictly
   between two consecutive edges (or below the first, or above the
   last) takes the same branches whatever the target, so each gap has
   one charge, and a target on an edge one more. The early-stopping
   linear scan stops on the first edge at or past the target: edge [j]
   or the gap below it costs [j + 1], a target past every edge [n]
   (Tree.scan's Linear branch). Binary and hashed run [Tree.scan]
   itself on the node's positions once per gap and edge, with a
   representative target, so their charges are the pointer tree's by
   construction. *)
let make_row ~strategy ~rank ~width ~edge_positions ~cells ~child_ids ~miss =
  let n = Array.length cells in
  let row = Bytes.create (4 * width) in
  let linear = match strategy with Order.Linear _ -> true | _ -> false in
  let scan target = fst (Tree.scan strategy ~edge_positions ~target) in
  let r = ref 0 in
  for j = 0 to n - 1 do
    let p = edge_positions.(j) in
    let gap =
      if linear then j + 1
      else scan (if j = 0 then p -. 1.0 else (edge_positions.(j - 1) +. p) /. 2.0)
    in
    let gap = entry miss gap in
    let rj = rank.(cells.(j)) in
    for s = !r to rj - 1 do
      set32 row (4 * s) gap
    done;
    set32 row (4 * rj) (entry child_ids.(j) (if linear then j + 1 else scan p));
    r := rj + 1
  done;
  let above = entry miss (if linear then n else scan Float.infinity) in
  for s = !r to width - 1 do
    set32 row (4 * s) above
  done;
  row

let trim a len = if len = Array.length a then a else Array.sub a 0 len

let compile (tree : Tree.t) =
  let decomp = tree.Tree.decomp in
  let arity = Decomp.arity decomp in
  let strategies = tree.Tree.config.Tree.strategies in
  let ranked = Array.map rank_table tree.Tree.tables in
  let rank = Array.map fst ranked in
  let sentinel = Array.map snd ranked in
  let slot_target =
    Array.mapi (slot_table decomp rank sentinel) decomp.Decomp.axes
  in
  (* Construction ids are dense over the unique nodes, so the memo is
     an int array and every node table has its final size up front. *)
  let s = tree.Tree.stats in
  let n = s.Tree.nodes + s.Tree.leaves in
  let node_attr = Array.make n 0 and rows = Array.make n no_row in
  let edge_first = Array.make n 0 and edge_count = Array.make n 0 in
  let rest = Array.make n 0 in
  let leaf_first = Array.make n 0 and leaf_count = Array.make n 0 in
  (* Rows replace most nodes' edges: the edge arrays are made on the
     first node that searches, and trimmed to the searching nodes'. *)
  let edge_pos = ref [||] and edge_child = ref [||] in
  let postings = Array.make s.Tree.postings 0 in
  let memo = Array.make n (-1) in
  (* Rows need every flat node index to fit a slot's next field. *)
  let rows_fit = n - 1 <= max_next in
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
      | Tree.Node { attr; cells; edge_positions; children; rest = r; _ } ->
        (* Children first so this node's edge slots stay contiguous. *)
        let child_ids = Array.map go children in
        let rest_id = match r with Some c -> go c | None -> -1 in
        let k = Array.length cells and width = sentinel.(attr) + 1 in
        (* No strategy charges more than the node's edge count. *)
        if rows_fit && width <= row_ratio * (k + 1) && k <= max_charge then
          rows.(!next) <-
            make_row ~strategy:strategies.(attr) ~rank:rank.(attr) ~width
              ~edge_positions ~cells ~child_ids ~miss:rest_id
        else begin
          if Array.length !edge_pos = 0 then begin
            edge_pos := Array.make s.Tree.edges 0;
            edge_child := Array.make s.Tree.edges 0
          end;
          let efirst = !nedges in
          let rank = rank.(attr) in
          Array.iteri
            (fun j c ->
              !edge_pos.(efirst + j) <- rank.(c);
              !edge_child.(efirst + j) <- child_ids.(j))
            cells;
          nedges := efirst + k;
          edge_first.(!next) <- efirst
        end;
        node_attr.(!next) <- attr;
        edge_count.(!next) <- k;
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
    strategy = Array.map code_of_strategy strategies;
    rank;
    sentinel;
    slot_target;
    node_attr;
    rows;
    edge_first;
    edge_count;
    rest;
    leaf_first;
    leaf_count;
    edge_pos = trim !edge_pos !nedges;
    edge_child = trim !edge_child !nedges;
    postings;
    root;
    seen_size = (if nlive = 0 then 0 else ids.(nlive - 1) + 1);
    out_size = nlive;
  }

let node_count t = Array.length t.node_attr

let edge_count t = Array.fold_left ( + ) 0 t.edge_count

let posting_count t = Array.length t.postings

let row_slots t =
  Array.fold_left (fun acc row -> acc + (Bytes.length row / 4)) 0 t.rows

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

(* The edge search of a node without a row: returns the next node
   (-1: stop) in the high bits and the charged comparisons in the low
   32, the row entry's fields at a width any edge count fits. The scan
   branches replicate Tree.scan over the dense-rank encoding; the
   charges are computed arithmetically from the stopping index, so they
   cannot drift from the pointer tree's accounting. The linear scan's
   deciding edge resolves its hit slot with int arithmetic instead of
   a taken/not-taken branch. *)
let search t i a target =
  let first = t.edge_first.(i) and n = t.edge_count.(i) in
  let hit = ref (-1) and charge = ref 0 in
  if n > 0 then begin
    let code = Array.unsafe_get t.strategy a in
    if code = code_linear then begin
      (* Early-stopping scan: cost j+1 on the deciding edge, n on
         exhaustion — exactly Tree.scan's Linear branch. The scan
         itself is a single-test loop; the deciding edge resolves
         hit/miss without a branch (eq = 1 selects j, eq = 0 selects
         -1). *)
      let j = ref 0 in
      while !j < n && Array.unsafe_get t.edge_pos (first + !j) < target do
        incr j
      done;
      if !j < n then begin
        charge := !j + 1;
        let eq =
          Bool.to_int (Array.unsafe_get t.edge_pos (first + !j) = target)
        in
        hit := (!j * eq) lor (eq - 1)
      end
      else charge := n
    end
    else begin
      (* Binary and hashed both locate by bisection (the int mirror of
         Order.bisect); binary charges the probes, hashed charges one
         comparison. *)
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
      charge := if code = code_binary then !probes else 1
    end
  end;
  let next = if !hit >= 0 then t.edge_child.(first + !hit) else t.rest.(i) in
  (next lsl 32) lor !charge

(* The traversal core: follows the single deterministic path from the
   root, mirroring Tree.match_targets edge for edge, so comparison and
   node-visit counts are bit-identical to the pointer tree. A node with
   a row steps by one slot load; the leaf dedup stores unconditionally
   and advances [len] by a comparison-derived 0/1. *)
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
           (ids are ascending per leaf, so the output stays sorted). *)
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
        let row = Array.unsafe_get t.rows i in
        if row != no_row then begin
          let e = Int32.to_int (get32 row (4 * target)) in
          comparisons := !comparisons + (e land max_charge);
          if e >= 0 then node := e asr charge_bits else live := false
        end
        else begin
          let e = search t i a target in
          comparisons := !comparisons + (e land 0xFFFF_FFFF);
          if e >= 0 then node := e asr 32 else live := false
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
       else target_of_coord t.decomp t.rank t.sentinel attr (Float.Array.get coords attr))
  done;
  run ?ops t cur

let matches cur = cur.out
