(** Value orders and search strategies within one attribute (§4.1/§4.2).

    A *value order* arranges the referenced cells of an attribute; the
    tree stores each node's edges in that order, and a per-attribute
    lookup table maps every global cell to its *position* so the linear
    scan can stop early (Example 5 of the paper): a node cannot contain
    the searched value once an edge with a greater position is seen.

    Zero-subdomain cells are assigned the position they *would* occupy
    in the order (the paper's prototype discovers a non-match "after
    the number of steps that would have been needed to identify the
    requested value"); they are encoded as half-ranks (q − 0.5) so
    binary search can three-way-compare against them without ever
    reporting equality. *)

type value_order =
  | Natural_asc  (** natural order of the domain, ascending *)
  | Natural_desc
  | By_key_desc of float array
      (** descending by a per-cell key (indexed by global cell); ties
          break by natural order — used for measures V1–V3 *)
  | By_key_asc of float array

type strategy =
  | Linear of value_order
      (** table-based scan in the defined order with early stop *)
  | Binary
      (** binary search over the natural order *)
  | Hashed
      (** hash-based location (the paper's outlook, §5): one comparison
          resolves the cell, found or not. The in-memory implementation
          locates the edge by bisection over the (small) edge array —
          equivalent work in practice — but the *comparison-count*
          model charges O(1), which is what hash-based search buys. *)

type table = private {
  m : int;  (** number of referenced cells *)
  positions : float array;
      (** per global cell: rank 1.0 … m.0 for referenced cells, or the
          would-be half-rank (q − 0.5) for D0 cells *)
  scan_order : int array;
      (** referenced global cells, best-position first *)
}

val compile : Genas_interval.Overlay.t -> value_order -> table
(** Build the lookup table for one attribute.

    @raise Invalid_argument if a [By_key_*] array's length differs from
    the overlay's cell count. *)

val strategy_order : strategy -> value_order
(** The order a strategy stores edges in ([Binary] → [Natural_asc]). *)

val pp_strategy : Format.formatter -> strategy -> unit
(** Short human-readable form: ["linear:natural"], ["linear:key-desc"],
    ["binary"], ["hashed"]. *)

val bisect : edge_positions:float array -> target:float -> int * int option
(** The shared three-way bisection probe over ascending positions:
    [(probes, matched index)]. Every binary/hashed search in the
    pointer tree and the cost model runs this one loop, and the flat
    matcher's direct-indexed rows are charged by it at compile time, so
    probe counts cannot drift between the analytic and runtime paths.
    An empty array costs 0 probes. *)

val linear_cost : edge_positions:float array -> target:float -> int * bool
(** Cost and success of the early-stopping linear scan over a node
    whose edges have the given sorted-ascending positions, searching
    for a cell with position [target]: [(edges examined, found)]. *)

val binary_cost : edge_positions:float array -> target:float -> int * bool
(** Probe count and success of binary search over the same encoding. *)
