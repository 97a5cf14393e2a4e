module Axis = Genas_model.Axis
module Event = Genas_model.Event
module Schema = Genas_model.Schema
module Profile_set = Genas_profile.Profile_set
module Lattice = Genas_profile.Lattice
module Decomp = Genas_filter.Decomp
module Tree = Genas_filter.Tree
module Flat = Genas_filter.Flat
module Pool = Genas_filter.Pool
module Ops = Genas_filter.Ops
module Metrics = Genas_obs.Metrics

(* Instrument handles are resolved once at engine construction so the
   per-event updates are plain stores; with [?metrics:None] the match
   path never touches the observability layer at all. *)
type instruments = {
  match_ns : Metrics.histogram;
  match_comparisons : Metrics.histogram;
  events_total : Metrics.counter;
  matches_total : Metrics.counter;
  comparisons_total : Metrics.counter;
  rebuilds_total : Metrics.counter;
  tree_nodes : Metrics.gauge;
  tree_leaves : Metrics.gauge;
  tree_edges : Metrics.gauge;
}

let make_instruments registry =
  {
    match_ns =
      Metrics.histogram registry "genas_engine_match_duration_ns"
        ~help:"Wall-clock latency of Engine.match_event (ns, monotonic)";
    match_comparisons =
      Metrics.histogram registry "genas_engine_match_comparisons"
        ~help:"Comparison steps (the paper's #operations) per event"
        ~buckets:[| 1.; 2.; 5.; 10.; 20.; 50.; 100.; 200.; 500.; 1e3; 1e4 |];
    events_total =
      Metrics.counter registry "genas_engine_events_total"
        ~help:"Events filtered";
    matches_total =
      Metrics.counter registry "genas_engine_matches_total"
        ~help:"(event, profile) match pairs produced";
    comparisons_total =
      Metrics.counter registry "genas_engine_comparisons_total"
        ~help:"Total comparison steps";
    rebuilds_total =
      Metrics.counter registry "genas_engine_rebuilds_total"
        ~help:"Tree re-plans (explicit rebuilds and profile-set refreshes)";
    tree_nodes =
      Metrics.gauge registry "genas_engine_tree_nodes"
        ~help:"Unique inner nodes of the current profile tree";
    tree_leaves =
      Metrics.gauge registry "genas_engine_tree_leaves"
        ~help:"Unique leaves of the current profile tree";
    tree_edges =
      Metrics.gauge registry "genas_engine_tree_edges"
        ~help:"Edges over unique nodes of the current profile tree";
  }

(* Aggregation gauges exist only on aggregated engines, so plain
   engines export exactly the metric set they always did. *)
type agg_instruments = {
  absorbed_profiles : Metrics.gauge;
  lattice_entries : Metrics.gauge;
  lattice_roots : Metrics.gauge;
  pending_rebuild : Metrics.gauge;
  epoch_swaps_total : Metrics.counter;
}

let make_agg_instruments registry =
  {
    absorbed_profiles =
      Metrics.gauge registry "genas_engine_absorbed_profiles"
        ~help:"Live profiles absorbed by the covering lattice (not part \
               of the covering-minimal set the matcher compiles)";
    lattice_entries =
      Metrics.gauge registry "genas_engine_lattice_entries"
        ~help:"Live profiles indexed by the covering lattice";
    lattice_roots =
      Metrics.gauge registry "genas_engine_lattice_roots"
        ~help:"Covering-lattice roots (the covering-minimal set)";
    pending_rebuild =
      Metrics.gauge registry "genas_engine_pending_rebuild"
        ~help:"Structural changes accumulated since the last epoch swap \
               (uncompiled new roots + retired compiled entries)";
    epoch_swaps_total =
      Metrics.counter registry "genas_engine_epoch_swaps_total"
        ~help:"Epoch swaps: atomic installs of a recompiled root matcher";
  }

(* Aggregated mode: the flat matcher is compiled over the covering
   lattice's roots only, and churn between epoch swaps is tracked as
   deltas against that compiled snapshot. Invariant: every root
   equivalence class has at least one live member id in
   [compiled \ dead ∪ delta], so every live profile stays reachable
   from the match path (roots directly, absorbed profiles through
   covering-link expansion). *)
(* A background recompile in flight: the compile-heavy phase (decompose,
   restat, reorder, flat-compile) runs on its own domain over an
   immutable snapshot of the lattice roots; [ps_ready] flips once the
   result is complete, and the owning thread installs it at its next
   churn or match entry point. *)
type pending_swap = {
  ps_cset : Profile_set.t;  (* root snapshot the domain compiled *)
  ps_job : (Stats.t * Tree.t * Flat.t) Domain.t;
  ps_ready : bool Atomic.t;
}

type agg = {
  lat : Lattice.t;
  mutable cset : Profile_set.t;
      (** root representatives compiled into the current flat matcher *)
  compiled : (int, unit) Hashtbl.t;  (** ids present in the flat form *)
  dead : (int, unit) Hashtbl.t;  (** compiled ids removed since the swap *)
  delta : (int, unit) Hashtbl.t;  (** uncompiled root member ids *)
  mutable epoch : int;
  delta_cap : int;
  mutable scratch : int array;  (** reusable sorted-match buffer *)
  mutable fill : int;  (** ids written to [scratch] for the current event *)
  domains : Genas_model.Domain.t array;  (** per attribute, for [coords] *)
  coords : Float.Array.t;  (** the current event's axis coordinates *)
  mutable async : bool;  (** recompile on a background domain *)
  mutable pending : pending_swap option;
  agg_ins : agg_instruments option;
}

type t = {
  pset : Profile_set.t;
  bins : int;
  mutable spec : Reorder.spec;
  mutable stats : Stats.t;
  mutable tree : Tree.t;
  (* The pointer tree stays authoritative for pp/explain and the
     analytic cost model; every (re)build also compiles it into the
     flat form the match paths execute, with a reusable cursor so the
     steady-state path allocates no per-event match lists. *)
  mutable flat : Flat.t;
  mutable cursor : Flat.cursor;
  (* Hotness profiling: [None] dispatches the plain traversal loop
     (provably zero profiling cost); [Some r] dispatches the recording
     twin. Rebuilds allocate a fresh recorder — counters are per
     compiled tree, since node ids change shape. *)
  mutable recorder : Flat.recorder option;
  (* An attached persistent pool: [match_batch] without an explicit
     [?pool] argument fans out through it. The engine borrows the pool
     — the caller owns its lifetime and [Pool.shutdown]. *)
  mutable pool : Pool.t option;
  ops : Ops.t;
  instruments : instruments option;
  agg : agg option;
}

let observe_tree t =
  match t.instruments with
  | None -> ()
  | Some ins ->
    let s = t.tree.Tree.stats in
    Metrics.Gauge.set ins.tree_nodes (float_of_int s.Tree.nodes);
    Metrics.Gauge.set ins.tree_leaves (float_of_int s.Tree.leaves);
    Metrics.Gauge.set ins.tree_edges (float_of_int s.Tree.edges)

let pending_of agg = Hashtbl.length agg.delta + Hashtbl.length agg.dead

let observe_agg agg =
  match agg.agg_ins with
  | None -> ()
  | Some ins ->
    Metrics.Gauge.set ins.absorbed_profiles
      (float_of_int (Lattice.absorbed agg.lat));
    Metrics.Gauge.set ins.lattice_entries
      (float_of_int (Lattice.size agg.lat));
    Metrics.Gauge.set ins.lattice_roots
      (float_of_int (Lattice.root_count agg.lat));
    Metrics.Gauge.set ins.pending_rebuild (float_of_int (pending_of agg))

let plan ~bins ~old_stats pset spec =
  let decomp = Decomp.build pset in
  let stats =
    match old_stats with
    | Some s when (Stats.decomp s).Decomp.revision = decomp.Decomp.revision ->
      s
    | Some _ | None -> Stats.create ~bins decomp
  in
  let tree = Reorder.build stats spec in
  (stats, tree)

let install_tree t tree =
  t.tree <- tree;
  t.flat <- Flat.compile tree;
  t.cursor <- Flat.cursor t.flat;
  match t.recorder with
  | None -> ()
  | Some _ -> t.recorder <- Some (Flat.recorder t.flat)

(* Snapshot the lattice roots into a registry under their own ids; the
   flat matcher compiled from it reports root representatives. *)
let root_snapshot agg schema =
  let cset = Profile_set.create schema in
  List.iter
    (fun (id, p) -> Profile_set.add_with_id cset ~id p)
    (Lattice.minimal_cover agg.lat);
  cset

let create ?(spec = Reorder.default_spec) ?(bins = 64) ?metrics
    ?(aggregate = false) ?(delta_cap = 512) pset =
  let agg =
    if not aggregate then None
    else begin
      let schema = Profile_set.schema pset in
      let lat = Lattice.create schema in
      Profile_set.iter pset (fun id p -> ignore (Lattice.add lat ~id p));
      let agg =
        {
          lat;
          cset = Profile_set.create schema;
          compiled = Hashtbl.create 256;
          dead = Hashtbl.create 64;
          delta = Hashtbl.create 64;
          epoch = 0;
          delta_cap = Stdlib.max 1 delta_cap;
          scratch = Array.make 64 0;
          fill = 0;
          domains =
            Array.map (fun a -> a.Schema.domain) (Schema.attributes schema);
          coords = Float.Array.make (Schema.arity schema) 0.0;
          async = false;
          pending = None;
          agg_ins = Option.map make_agg_instruments metrics;
        }
      in
      agg.cset <- root_snapshot agg (Profile_set.schema pset);
      Profile_set.iter agg.cset (fun id _ ->
          Hashtbl.replace agg.compiled id ());
      Some agg
    end
  in
  let planning_set =
    match agg with Some a -> a.cset | None -> pset
  in
  let stats, tree = plan ~bins ~old_stats:None planning_set spec in
  let flat = Flat.compile tree in
  let t =
    {
      pset;
      bins;
      spec;
      stats;
      tree;
      flat;
      cursor = Flat.cursor flat;
      recorder = None;
      pool = None;
      ops = Ops.create ();
      instruments = Option.map make_instruments metrics;
      agg;
    }
  in
  observe_tree t;
  Option.iter observe_agg agg;
  t

let spec t = t.spec

let profiles t = t.pset

let tree t = t.tree

let flat t = t.flat

let stats t = t.stats

let ops t = t.ops

let aggregated t = Option.is_some t.agg

let epoch t = match t.agg with Some a -> a.epoch | None -> 0

let pending_rebuild t =
  match t.agg with Some a -> pending_of a | None -> 0

let swap_due t =
  match t.agg with Some a -> pending_of a > a.delta_cap | None -> false

let absorbed_profiles t =
  match t.agg with Some a -> Lattice.absorbed a.lat | None -> 0

let lattice_roots t =
  match t.agg with
  | Some a -> Lattice.root_count a.lat
  | None -> Profile_set.size t.pset

let lattice t = Option.map (fun a -> a.lat) t.agg

let swap_metrics t agg =
  agg.epoch <- agg.epoch + 1;
  (match t.instruments with
  | None -> ()
  | Some ins ->
    Metrics.Counter.incr ins.rebuilds_total;
    observe_tree t);
  (match agg.agg_ins with
  | None -> ()
  | Some ins -> Metrics.Counter.incr ins.epoch_swaps_total);
  observe_agg agg

(* Drop an in-flight background compile (joining its domain): the
   caller is about to recompile synchronously over fresher state, so
   the stale result would only be discarded on install anyway. *)
let discard_pending agg =
  match agg.pending with
  | None -> ()
  | Some ps ->
    ignore (Domain.join ps.ps_job);
    agg.pending <- None

(* Epoch swap: recompile the flat matcher over the current lattice
   roots and install it atomically (single field stores — the publish
   path between two swaps always sees one coherent compiled snapshot
   plus the delta tables). The retired statistics' learned history is
   absorbed so distribution-based reordering survives the swap. *)
let swap_agg t agg =
  discard_pending agg;
  let cset = root_snapshot agg (Profile_set.schema t.pset) in
  let old = t.stats in
  let decomp = Decomp.build cset in
  let stats = Stats.create ~bins:t.bins decomp in
  Stats.absorb stats ~from:old;
  t.stats <- stats;
  agg.cset <- cset;
  install_tree t (Reorder.build t.stats t.spec);
  Hashtbl.reset agg.compiled;
  Hashtbl.reset agg.dead;
  Hashtbl.reset agg.delta;
  Profile_set.iter cset (fun id _ -> Hashtbl.replace agg.compiled id ());
  swap_metrics t agg

(* Keep the reachability invariant for one root equivalence class:
   some member must sit in the compiled-live or delta set. *)
let ensure_reachable agg members =
  let live m =
    (Hashtbl.mem agg.compiled m && not (Hashtbl.mem agg.dead m))
    || Hashtbl.mem agg.delta m
  in
  if not (List.exists live members) then
    match members with
    | [] -> ()
    | m :: _ -> Hashtbl.replace agg.delta m ()

(* Launch the compile-heavy phase on a background domain. Everything
   the domain touches is private to it: the root snapshot is built
   here on the owning thread, and the statistics history crosses over
   as an immutable {!Stats.Export.t} value — the live [t.stats] keeps
   absorbing events concurrently without being shared. *)
let start_async_swap t agg =
  let cset = root_snapshot agg (Profile_set.schema t.pset) in
  let history = Stats.export t.stats in
  let bins = t.bins and spec = t.spec in
  let ready = Atomic.make false in
  let job =
    Domain.spawn (fun () ->
        let decomp = Decomp.build cset in
        let stats = Stats.create ~bins decomp in
        (* Same-schema arity always matches; a failure would only mean
           the reorder runs from cold statistics, never a wrong match. *)
        (match Stats.import stats history with Ok () | Error _ -> ());
        let tree = Reorder.build stats spec in
        let flat = Flat.compile tree in
        Atomic.set ready true;
        (stats, tree, flat))
  in
  agg.pending <- Some { ps_cset = cset; ps_job = job; ps_ready = ready }

(* Install a finished background compile. The snapshot may be slightly
   stale — churn kept landing while the domain compiled — so reconcile:
   compiled ids whose profile has since been removed become [dead], and
   every current root class gets a delta slot unless it is already
   reachable. The reachability invariant therefore holds for the {e
   current} lattice, and matching over the freshly installed form is
   exact for the current population. *)
let install_pending t agg ps =
  let stats, tree, flat = Domain.join ps.ps_job in
  agg.pending <- None;
  t.stats <- stats;
  agg.cset <- ps.ps_cset;
  t.tree <- tree;
  t.flat <- flat;
  t.cursor <- Flat.cursor flat;
  (match t.recorder with
  | None -> ()
  | Some _ -> t.recorder <- Some (Flat.recorder flat));
  Hashtbl.reset agg.compiled;
  Hashtbl.reset agg.dead;
  Hashtbl.reset agg.delta;
  Profile_set.iter ps.ps_cset (fun id _ -> Hashtbl.replace agg.compiled id ());
  Hashtbl.iter
    (fun id () ->
      if not (Lattice.mem agg.lat id) then Hashtbl.replace agg.dead id ())
    agg.compiled;
  List.iter
    (fun (id, _) ->
      match Lattice.node_of agg.lat id with
      | Some node -> ensure_reachable agg (Lattice.node_members node)
      | None -> ())
    (Lattice.minimal_cover agg.lat);
  swap_metrics t agg

(* Opportunistic install point, polled from churn and match entries:
   one atomic load when a compile is in flight, nothing otherwise. *)
let poll_pending t agg =
  match agg.pending with
  | Some ps when Atomic.get ps.ps_ready -> install_pending t agg ps
  | Some _ | None -> ()

let rebuild t =
  match t.agg with
  | Some agg -> swap_agg t agg
  | None ->
    (* Keep the statistics when the profile set is unchanged (the
       normal re-optimization path); refresh the decomposition
       otherwise. *)
    let stats, tree =
      plan ~bins:t.bins ~old_stats:(Some t.stats) t.pset t.spec
    in
    t.stats <- stats;
    install_tree t tree;
    (match t.instruments with
    | None -> ()
    | Some ins ->
      Metrics.Counter.incr ins.rebuilds_total;
      observe_tree t)

let swap_now t =
  match t.agg with Some agg -> swap_agg t agg | None -> rebuild t

(* -- Background (asynchronous) epoch swaps ------------------------- *)

let set_async_swaps t on =
  match t.agg with
  | None -> ()
  | Some agg ->
    if not on then (
      match agg.pending with
      | Some ps -> install_pending t agg ps
      | None -> ());
    agg.async <- on

let async_swaps t = match t.agg with Some a -> a.async | None -> false

let await_swap t =
  match t.agg with
  | None -> ()
  | Some agg -> (
    match agg.pending with
    | Some ps -> install_pending t agg ps
    | None -> ())

let set_spec t spec =
  t.spec <- spec;
  rebuild t

let refresh_if_stale t =
  match t.agg with
  | Some _ -> ()  (* churn goes through add/remove_profile; never stale *)
  | None ->
    if Tree.revision t.tree <> Profile_set.revision t.pset then begin
      (* Profiles changed: rebuild decomposition and statistics. The
         observed history refers to stale cells, so it is restarted. *)
      let decomp = Decomp.build t.pset in
      t.stats <- Stats.create ~bins:t.bins decomp;
      install_tree t (Reorder.build t.stats t.spec);
      match t.instruments with
      | None -> ()
      | Some ins ->
        Metrics.Counter.incr ins.rebuilds_total;
        observe_tree t
    end

let refresh_keeping_history t =
  match t.agg with
  | Some agg -> if pending_of agg > 0 then swap_agg t agg
  | None ->
    if Tree.revision t.tree <> Profile_set.revision t.pset then begin
      let old = t.stats in
      let decomp = Decomp.build t.pset in
      let stats = Stats.create ~bins:t.bins decomp in
      Stats.absorb stats ~from:old;
      t.stats <- stats;
      install_tree t (Reorder.build t.stats t.spec);
      match t.instruments with
      | None -> ()
      | Some ins ->
        Metrics.Counter.incr ins.rebuilds_total;
        observe_tree t
    end

(* -- Aggregated registry churn ------------------------------------- *)

let maybe_swap t agg =
  poll_pending t agg;
  if agg.pending = None && pending_of agg > agg.delta_cap then
    if agg.async then start_async_swap t agg else swap_agg t agg

let agg_added t agg id profile =
  (match Lattice.add agg.lat ~id profile with
  | Lattice.Absorbed _ ->
    (* Covered (or equivalent) region: the lattice alone absorbs it;
       the compiled matcher is untouched. *)
    ()
  | Lattice.Rooted { demoted } ->
    (* Former roots now live under the new one: their members no
       longer need a delta slot of their own. *)
    List.iter
      (List.iter (fun m -> Hashtbl.remove agg.delta m))
      demoted;
    Hashtbl.replace agg.delta id ());
  maybe_swap t agg;
  observe_agg agg

let agg_removed t agg id =
  (match Lattice.remove agg.lat id with
  | None -> ()
  | Some r ->
    if Hashtbl.mem agg.compiled id then Hashtbl.replace agg.dead id ();
    Hashtbl.remove agg.delta id;
    (match r with
    | Lattice.Shrunk { root = true; members } -> ensure_reachable agg members
    | Lattice.Shrunk { root = false; _ } -> ()
    | Lattice.Dissolved { promoted; _ } ->
      List.iter (ensure_reachable agg) promoted));
  maybe_swap t agg;
  observe_agg agg

let add_profile t profile =
  let id = Profile_set.add t.pset profile in
  (match t.agg with None -> () | Some agg -> agg_added t agg id profile);
  id

let add_profile_with_id t ~id profile =
  Profile_set.add_with_id t.pset ~id profile;
  match t.agg with None -> () | Some agg -> agg_added t agg id profile

let remove_profile t id =
  let present = Profile_set.remove t.pset id in
  (if present then
     match t.agg with None -> () | Some agg -> agg_removed t agg id);
  present

(* -- Matching ------------------------------------------------------ *)

(* Match one event through the flat cursor; returns the match count,
   ids borrowed from the cursor. Counter semantics are bit-identical to
   the former Tree.match_event path. *)
let match_flat t event =
  match t.recorder with
  | None -> Flat.match_into ~ops:t.ops t.flat t.cursor event
  | Some r -> Flat.match_into_recorded ~ops:t.ops t.flat t.cursor r event

(* Append one matched id, doubling the buffer (filled prefix kept) when
   it is full. *)
let push_scratch agg id =
  let n = agg.fill in
  if n = Array.length agg.scratch then begin
    let bigger = Array.make (2 * n) 0 in
    Array.blit agg.scratch 0 bigger 0 n;
    agg.scratch <- bigger
  end;
  agg.scratch.(n) <- id;
  agg.fill <- n + 1

let swap_ints (a : int array) i j =
  let x = a.(i) in
  a.(i) <- a.(j);
  a.(j) <- x

(* In-place ascending sort of [a.(lo..hi)], specialised to ints: the
   library sort calls a comparison closure per step, which costs more
   than the rest of a typical aggregated match. Quicksort with a
   median-of-three pivot, insertion sort below 16 slots, and the larger
   side sorted by a tail call, so the stack stays logarithmic. *)
let rec sort_ints (a : int array) lo hi =
  if hi - lo < 16 then
    for i = lo + 1 to hi do
      let x = a.(i) in
      let j = ref (i - 1) in
      while !j >= lo && a.(!j) > x do
        a.(!j + 1) <- a.(!j);
        decr j
      done;
      a.(!j + 1) <- x
    done
  else begin
    let mid = lo + ((hi - lo) / 2) in
    if a.(mid) < a.(lo) then swap_ints a mid lo;
    if a.(hi) < a.(lo) then swap_ints a hi lo;
    if a.(hi) < a.(mid) then swap_ints a hi mid;
    let pivot = a.(mid) in
    let i = ref lo and j = ref hi in
    while !i <= !j do
      while a.(!i) < pivot do incr i done;
      while a.(!j) > pivot do decr j done;
      if !i <= !j then begin
        swap_ints a !i !j;
        incr i;
        decr j
      end
    done;
    if !j - lo < hi - !i then begin
      sort_ints a lo !j;
      sort_ints a !i hi
    end
    else begin
      sort_ints a !i hi;
      sort_ints a lo !j
    end
  end

(* Resolve the event once into axis coordinates; the lattice checks
   every candidate node against these. +infinity stands for a value
   outside its domain, which no constrained attribute accepts. *)
let resolve agg event =
  Array.iteri
    (fun i dom ->
      Float.Array.set agg.coords i
        (match Axis.coord dom (Event.value event i) with
        | Some c -> c
        | None -> Float.infinity))
    agg.domains

(* Aggregated match: the compiled flat form decides the root
   representatives exactly; covered profiles are then collected by
   descending covering links from each matched root (plus the delta
   roots, verified directly), pruning any subtree whose node rejects
   the event — a coverer's rejection implies rejection of everything
   it covers. Each candidate-node verification counts one
   comparison. *)
let match_agg t agg event =
  poll_pending t agg;
  let nflat = match_flat t event in
  let out = Flat.matches t.cursor in
  resolve agg event;
  agg.fill <- 0;
  Lattice.begin_visit agg.lat;
  let on_check () = t.ops.Ops.comparisons <- t.ops.Ops.comparisons + 1 in
  let emit id = push_scratch agg id in
  let expand ~verified node =
    Lattice.expand agg.lat ~coords:agg.coords ~verified node ~on_check ~emit
  in
  for i = 0 to nflat - 1 do
    let id = out.(i) in
    if not (Hashtbl.mem agg.dead id) then
      match Lattice.node_of agg.lat id with
      | Some node -> expand ~verified:true node
      | None -> ()
  done;
  Hashtbl.iter
    (fun id () ->
      match Lattice.node_of agg.lat id with
      | Some node -> expand ~verified:false node
      | None -> ())
    agg.delta;
  let n = agg.fill in
  sort_ints agg.scratch 0 (n - 1);
  (* The flat form counted its own matches (the root hits); align the
     cumulative pair counter with what the caller actually receives. *)
  t.ops.Ops.matches <- t.ops.Ops.matches + (n - nflat);
  n

let match_dispatch t event =
  match t.agg with
  | None -> match_flat t event
  | Some agg -> match_agg t agg event

(* The buffer holding the current match ids (first [len] slots). *)
let result_buffer t =
  match t.agg with
  | None -> Flat.matches t.cursor
  | Some agg -> agg.scratch

let match_core t event =
  refresh_if_stale t;
  Stats.observe_event t.stats event;
  match t.instruments with
  | None -> match_dispatch t event
  | Some ins ->
    let c0 = t.ops.Ops.comparisons in
    let t0 = Genas_obs.Clock.now_ns () in
    let n = match_dispatch t event in
    let dt = Int64.to_float (Int64.sub (Genas_obs.Clock.now_ns ()) t0) in
    let dc = t.ops.Ops.comparisons - c0 in
    Metrics.Histogram.observe ins.match_ns (Float.max 0.0 dt);
    Metrics.Histogram.observe ins.match_comparisons (float_of_int dc);
    Metrics.Counter.incr ins.events_total;
    Metrics.Counter.add ins.comparisons_total dc;
    Metrics.Counter.add ins.matches_total n;
    n

let match_event t event =
  let n = match_core t event in
  let out = result_buffer t in
  let rec build i acc =
    if i < 0 then acc else build (i - 1) (out.(i) :: acc)
  in
  build (n - 1) []

let match_with t event ~f =
  let n = match_core t event in
  f ~ids:(result_buffer t) ~len:n

let match_batch ?pool t events =
  match t.agg with
  | Some agg ->
    (* Aggregated engines match batches sequentially: the pool workers
       only execute the compiled flat form, which no longer holds the
       full profile population. *)
    ignore pool;
    Array.iter (fun e -> Stats.observe_event t.stats e) events;
    let c0 = t.ops.Ops.comparisons and m0 = t.ops.Ops.matches in
    let results =
      Array.map
        (fun e ->
          let n = match_agg t agg e in
          Array.sub agg.scratch 0 n)
        events
    in
    (match t.instruments with
    | None -> ()
    | Some ins ->
      Metrics.Counter.add ins.events_total (Array.length events);
      Metrics.Counter.add ins.comparisons_total (t.ops.Ops.comparisons - c0);
      Metrics.Counter.add ins.matches_total (t.ops.Ops.matches - m0));
    results
  | None ->
    refresh_if_stale t;
    Array.iter (fun e -> Stats.observe_event t.stats e) events;
    let c0 = t.ops.Ops.comparisons and m0 = t.ops.Ops.matches in
    let pool = match pool with Some _ -> pool | None -> t.pool in
    let results =
      match pool with
      | Some p when Pool.domains p > 1 && Array.length events > 1 ->
        Pool.match_batch ~ops:t.ops p t.flat events
      | Some _ | None ->
        let out = Array.make (Array.length events) [||] in
        (match t.recorder with
        | None ->
          Flat.match_batch ~ops:t.ops t.flat t.cursor events
            ~f:(fun i ~ids ~len -> out.(i) <- Array.sub ids 0 len)
        | Some r ->
          Array.iteri
            (fun i e ->
              let len =
                Flat.match_into_recorded ~ops:t.ops t.flat t.cursor r e
              in
              out.(i) <- Array.sub (Flat.matches t.cursor) 0 len)
            events);
        out
    in
    (match t.instruments with
    | None -> ()
    | Some ins ->
      Metrics.Counter.add ins.events_total (Array.length events);
      Metrics.Counter.add ins.comparisons_total (t.ops.Ops.comparisons - c0);
      Metrics.Counter.add ins.matches_total (t.ops.Ops.matches - m0));
    results

let replay_observe t event =
  (* Journal replay: feed the statistics exactly as [match_core] would —
     including the history reset a stale profile set triggers — without
     matching or delivering anything. *)
  refresh_if_stale t;
  Stats.observe_event t.stats event

let restore_ops t (o : Ops.t) =
  (match t.instruments with
  | None -> ()
  | Some ins ->
    Metrics.Counter.add ins.events_total
      (Stdlib.max 0 (o.Ops.events - t.ops.Ops.events));
    Metrics.Counter.add ins.comparisons_total
      (Stdlib.max 0 (o.Ops.comparisons - t.ops.Ops.comparisons));
    Metrics.Counter.add ins.matches_total
      (Stdlib.max 0 (o.Ops.matches - t.ops.Ops.matches)));
  t.ops.Ops.events <- o.Ops.events;
  t.ops.Ops.comparisons <- o.Ops.comparisons;
  t.ops.Ops.node_visits <- o.Ops.node_visits;
  t.ops.Ops.matches <- o.Ops.matches

let report t = Cost.evaluate_with_stats t.tree t.stats

(* -- Pool attachment ----------------------------------------------- *)

let set_pool t p = t.pool <- p

let pool t = t.pool

(* -- Hotness-guided relayout --------------------------------------- *)

(* Reorder the compiled flat form by the recorder's observed per-node
   visit counts (the "odds-on" layout) and install it with the same
   single-field-store discipline the epoch swap uses: flat, then
   cursor, then a fresh recorder keyed to the new node ids. Matching
   behaviour and counters are bit-identical — only memory order moves —
   so neither the pointer tree, the statistics, nor the aggregation
   delta tables are touched. *)
let relayout_now t =
  match t.recorder with
  | Some r when Flat.recorded_events r > 0 ->
    let flat = Flat.relayout t.flat (Flat.node_visits r) in
    t.flat <- flat;
    t.cursor <- Flat.cursor flat;
    t.recorder <- Some (Flat.recorder flat);
    true
  | Some _ | None -> false

(* ------------------------------------------------------------------ *)
(* Hotness profiling *)

let set_profiling t on =
  match (on, t.recorder) with
  | true, None -> t.recorder <- Some (Flat.recorder t.flat)
  | false, Some _ -> t.recorder <- None
  | true, Some _ | false, None -> ()

let profiling t = Option.is_some t.recorder

let recorder t = t.recorder

let last_path t =
  match t.recorder with None -> [] | Some r -> Flat.last_path r

let advisory ?tolerance t =
  match t.recorder with
  | None -> None
  | Some r ->
    Some
      (Explain.advisory ?tolerance t.tree
         ~level_visits:(Flat.level_visits r)
         ~events:(Flat.recorded_events r))
