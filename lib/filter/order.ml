module Overlay = Genas_interval.Overlay

type value_order =
  | Natural_asc
  | Natural_desc
  | By_key_desc of float array
  | By_key_asc of float array

type strategy = Linear of value_order | Binary | Hashed

type table = { m : int; positions : float array; scan_order : int array }

(* Sort key per global cell: smaller = earlier in the defined order.
   Ties break by natural (ascending cell index) order, as the paper
   allows ("the order of values with equal selectivity is arbitrary,
   such as the natural order"). *)
let sort_key order cell =
  match order with
  | Natural_asc -> float_of_int cell
  | Natural_desc -> -.float_of_int cell
  | By_key_desc keys -> -.keys.(cell)
  | By_key_asc keys -> keys.(cell)

let compile overlay order =
  let ncells = Array.length overlay.Overlay.cells in
  (match order with
  | By_key_desc keys | By_key_asc keys ->
    if Array.length keys <> ncells then
      invalid_arg "Order.compile: key array length mismatch"
  | Natural_asc | Natural_desc -> ());
  let referenced = Overlay.referenced overlay in
  let m = Array.length referenced in
  (* Rank referenced cells by (key, natural index). *)
  let ranked = Array.copy referenced in
  Array.sort
    (fun a b ->
      match Float.compare (sort_key order a) (sort_key order b) with
      | 0 -> Int.compare a b
      | c -> c)
    ranked;
  let positions = Array.make ncells 0.0 in
  Array.iteri (fun rank cell -> positions.(cell) <- float_of_int (rank + 1)) ranked;
  (* D0 cells: would-be half-rank = (#referenced with strictly smaller
     key) + 0.5. Ties against referenced cells count as smaller so the
     natural-order tie-break stays consistent. *)
  Array.iter
    (fun (zc : int) ->
      let kz = sort_key order zc in
      let better = ref 0 in
      Array.iter
        (fun rc ->
          let kr = sort_key order rc in
          if kr < kz || (kr = kz && rc < zc) then incr better)
        referenced;
      positions.(zc) <- float_of_int !better +. 0.5)
    (Overlay.zero_cells overlay);
  { m; positions; scan_order = ranked }

let strategy_order = function
  | Linear o -> o
  | Binary | Hashed -> Natural_asc

let pp_strategy ppf = function
  | Linear Natural_asc -> Format.pp_print_string ppf "linear:natural"
  | Linear Natural_desc -> Format.pp_print_string ppf "linear:natural-desc"
  | Linear (By_key_desc _) -> Format.pp_print_string ppf "linear:key-desc"
  | Linear (By_key_asc _) -> Format.pp_print_string ppf "linear:key-asc"
  | Binary -> Format.pp_print_string ppf "binary"
  | Hashed -> Format.pp_print_string ppf "hashed"

let linear_cost ~edge_positions ~target =
  let n = Array.length edge_positions in
  let rec scan i =
    if i = n then (n, false)
    else
      let p = edge_positions.(i) in
      if p = target then (i + 1, true)
      else if p > target then (i + 1, false)
      else scan (i + 1)
  in
  if n = 0 then (0, false) else scan 0

(* The one float bisection loop: [binary_cost] and the tree's Binary
   and Hashed scans delegate here, and the flat matcher charges its
   direct-indexed rows by running the tree's scan once per gap between
   edges, so the probe sequence (and therefore the charged comparison
   count) cannot drift between the analytic and runtime paths. The flat
   matcher's edge search, for nodes without a row, is its int mirror. *)
let bisect ~edge_positions ~target =
  let n = Array.length edge_positions in
  let lo = ref 0 and hi = ref (n - 1) in
  let probes = ref 0 and found = ref (-1) in
  while !found < 0 && !lo <= !hi do
    let mid = (!lo + !hi) / 2 in
    incr probes;
    let p = edge_positions.(mid) in
    if p = target then found := mid
    else if p < target then lo := mid + 1
    else hi := mid - 1
  done;
  (!probes, if !found < 0 then None else Some !found)

let binary_cost ~edge_positions ~target =
  let probes, hit = bisect ~edge_positions ~target in
  (probes, hit <> None)
