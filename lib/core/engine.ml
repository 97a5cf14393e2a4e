module Axis = Genas_model.Axis
module Event = Genas_model.Event
module Schema = Genas_model.Schema
module Profile_set = Genas_profile.Profile_set
module Lattice = Genas_profile.Lattice
module Profile = Genas_profile.Profile
module Decomp = Genas_filter.Decomp
module Tree = Genas_filter.Tree
module Flat = Genas_filter.Flat
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
  pending_rebuild : Metrics.gauge;
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
    pending_rebuild =
      Metrics.gauge registry "genas_engine_pending_rebuild"
        ~help:"Registry changes not yet compiled into the matcher \
               (uncompiled new profiles or roots + retired compiled \
               entries)";
  }

(* Lattice gauges exist only on aggregated engines; plain engines do
   not register them at all. *)
type agg_instruments = {
  absorbed_profiles : Metrics.gauge;
  lattice_entries : Metrics.gauge;
  lattice_roots : Metrics.gauge;
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
    epoch_swaps_total =
      Metrics.counter registry "genas_engine_epoch_swaps_total"
        ~help:"Epoch swaps: atomic installs of a recompiled root matcher";
  }

(* Aggregated mode: the flat matcher is compiled over the covering
   lattice's roots only, and churn between epoch swaps is tracked in
   the engine's delta/dead tables against that compiled snapshot.
   Invariant: every root equivalence class has at least one live member
   id in [compiled \ dead ∪ delta], so every live profile stays
   reachable from the match path (roots directly, absorbed profiles
   through covering-link expansion). *)
type agg = {
  lat : Lattice.t;
  mutable cset : Profile_set.t;
      (** root representatives compiled into the current flat matcher *)
  compiled : (int, unit) Hashtbl.t;  (** ids present in the flat form *)
  mutable epoch : int;
  delta_cap : int;
  domains : Genas_model.Domain.t array;  (** per attribute, for [coords] *)
  coords : Float.Array.t;  (** the current event's axis coordinates *)
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
  (* Pending churn, shared by both modes: profiles registered since the
     matcher was compiled ([delta]; plain engines verify them directly,
     aggregated ones hold uncompiled root members) and compiled ids
     removed since, with the profile compiled for each ([dead], filtered
     from the flat hits). A plain
     engine folds them into a full re-plan once the rent they cost the
     match path, [rent] — the sum over the events observed since churn
     last became pending of [|delta| + |dead|] — exceeds [rent_limit],
     the compiled tree's size times [fold_rent]. [synced] is the
     registry revision the compiled form plus pending churn accounts
     for; any other revision means the registry was edited behind the
     engine's back. *)
  delta : (int, unit) Hashtbl.t;
  dead : (int, Profile.t) Hashtbl.t;
  mutable synced : int;
  mutable rent : int;
  mutable rent_limit : int;
  mutable scratch : int array;  (** reusable sorted-match buffer *)
  mutable fill : int;  (** ids written to [scratch] for the current event *)
  ops : Ops.t;
  instruments : instruments option;
  agg : agg option;
  adaptive : Adaptive.t option;  (** the drift clock *)
}

let observe_tree t =
  match t.instruments with
  | None -> ()
  | Some ins ->
    let s = t.tree.Tree.stats in
    Metrics.Gauge.set ins.tree_nodes (float_of_int s.Tree.nodes);
    Metrics.Gauge.set ins.tree_leaves (float_of_int s.Tree.leaves);
    Metrics.Gauge.set ins.tree_edges (float_of_int s.Tree.edges)

let pending_of t = Hashtbl.length t.delta + Hashtbl.length t.dead

let observe_pending t =
  match t.instruments with
  | None -> ()
  | Some ins ->
    Metrics.Gauge.set ins.pending_rebuild (float_of_int (pending_of t))

let observe_agg t agg =
  observe_pending t;
  match agg.agg_ins with
  | None -> ()
  | Some ins ->
    Metrics.Gauge.set ins.absorbed_profiles
      (float_of_int (Lattice.absorbed agg.lat));
    Metrics.Gauge.set ins.lattice_entries
      (float_of_int (Lattice.size agg.lat));
    Metrics.Gauge.set ins.lattice_roots
      (float_of_int (Lattice.root_count agg.lat))

let install t tree flat =
  t.tree <- tree;
  t.flat <- flat;
  t.cursor <- Flat.cursor flat

let count_rebuild t =
  match t.instruments with
  | None -> ()
  | Some ins ->
    Metrics.Counter.incr ins.rebuilds_total;
    observe_tree t

(* What a re-plan does with the observed event history: [Keep] the live
   statistics while they describe the same profile-set revision (else
   restart), [Absorb] them into fresh statistics over the new cells, or
   [Restart] from fresh statistics. *)
type history = Keep | Absorb | Restart

(* Rent a plain engine's pending churn may accrue, per node and edge of
   the compiled tree, before it is folded into a re-plan: the measured
   cost of one re-plan per node + edge over the cost of one pending
   check on the match path (docs/PERFORMANCE.md). Folding then costs
   about as much as the checks it ends, the ski-rental break-even. *)
let fold_rent = 3

(* Forget pending churn: the matcher just compiled accounts for it. *)
let reset_pending t =
  Hashtbl.reset t.delta;
  Hashtbl.reset t.dead;
  t.rent <- 0;
  let s = t.tree.Tree.stats in
  t.rent_limit <- fold_rent * (s.Tree.nodes + s.Tree.edges)

(* The one re-plan path: decompose [pset], build statistics, reorder,
   compile and install. *)
let replan t pset history =
  let decomp = Decomp.build pset in
  let stats =
    match history with
    | Keep
      when (Stats.decomp t.stats).Decomp.revision = decomp.Decomp.revision ->
      t.stats
    | Absorb ->
      let stats = Stats.create ~bins:t.bins decomp in
      Stats.absorb stats ~from:t.stats;
      stats
    | Keep | Restart -> Stats.create ~bins:t.bins decomp
  in
  t.stats <- stats;
  Option.iter (fun a -> Adaptive.replanned a stats) t.adaptive;
  let tree = Reorder.build stats t.spec in
  (* Drop the old tree before compiling: it would widen the peak. *)
  t.tree <- tree;
  install t tree (Flat.compile tree);
  reset_pending t

(* Plain engines: re-plan over the whole registry, which leaves nothing
   pending. *)
let replan_plain t history =
  replan t t.pset history;
  t.synced <- Profile_set.revision t.pset;
  count_rebuild t;
  observe_pending t

(* Snapshot the lattice roots into a registry under their own ids; the
   flat matcher compiled from it reports root representatives. *)
let root_snapshot agg schema =
  let cset = Profile_set.create schema in
  List.iter
    (fun (id, p) -> Profile_set.add_with_id cset ~id p)
    (Lattice.minimal_cover agg.lat);
  cset

let create ?(spec = Reorder.default_spec) ?(bins = 64) ?metrics ?adaptive
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
          epoch = 0;
          delta_cap = Stdlib.max 1 delta_cap;
          domains =
            Array.map (fun a -> a.Schema.domain) (Schema.attributes schema);
          coords = Float.Array.make (Schema.arity schema) 0.0;
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
  let stats = Stats.create ~bins (Decomp.build planning_set) in
  let tree = Reorder.build stats spec in
  let flat = Flat.compile tree in
  (* Exporters list series in registration order: engine's, then clock's. *)
  let instruments = Option.map make_instruments metrics in
  let adaptive = Option.map (Adaptive.create ?metrics) adaptive in
  let t =
    {
      pset;
      bins;
      spec;
      stats;
      tree;
      flat;
      cursor = Flat.cursor flat;
      (* A plain engine walks [delta] on every event while churn is
         pending; fewer buckets keep that walk short. *)
      delta = Hashtbl.create (if aggregate then 64 else 16);
      dead = Hashtbl.create 64;
      synced = Profile_set.revision pset;
      rent = 0;
      rent_limit = 0;
      scratch = Array.make 64 0;
      fill = 0;
      ops = Ops.create ();
      instruments;
      agg;
      adaptive;
    }
  in
  reset_pending t;
  observe_tree t;
  (match agg with Some a -> observe_agg t a | None -> observe_pending t);
  t

let spec t = t.spec

let profiles t = t.pset

let tree t = t.tree

let flat t = t.flat

let stats t = t.stats

let ops t = t.ops

let aggregated t = Option.is_some t.agg

let epoch t = match t.agg with Some a -> a.epoch | None -> 0

let pending_rebuild t = pending_of t

let absorbed_profiles t =
  match t.agg with Some a -> Lattice.absorbed a.lat | None -> 0

let lattice_roots t =
  match t.agg with
  | Some a -> Lattice.root_count a.lat
  | None -> Profile_set.size t.pset

let lattice t = Option.map (fun a -> a.lat) t.agg

let adaptive t = t.adaptive

let swap_metrics t agg =
  agg.epoch <- agg.epoch + 1;
  (match agg.agg_ins with
  | None -> ()
  | Some ins -> Metrics.Counter.incr ins.epoch_swaps_total);
  observe_agg t agg

(* Epoch swap: recompile the flat matcher over the current lattice
   roots and install it atomically (single field stores — the publish
   path between two swaps always sees one coherent compiled snapshot
   plus the delta tables). The retired statistics' learned history is
   absorbed so distribution-based reordering survives the swap. *)
let swap_agg t agg =
  let cset = root_snapshot agg (Profile_set.schema t.pset) in
  agg.cset <- cset;
  replan t cset Absorb;
  count_rebuild t;
  Hashtbl.reset agg.compiled;
  Profile_set.iter cset (fun id _ -> Hashtbl.replace agg.compiled id ());
  swap_metrics t agg

(* Fold pending churn into a re-plan over the full population, keeping
   the learned history: an epoch swap on aggregated engines. *)
let fold t =
  match t.agg with
  | Some agg -> swap_agg t agg
  | None -> replan_plain t Absorb

(* Keep the reachability invariant for one root equivalence class:
   some member must sit in the compiled-live or delta set. *)
let ensure_reachable t agg members =
  let live m =
    (Hashtbl.mem agg.compiled m && not (Hashtbl.mem t.dead m))
    || Hashtbl.mem t.delta m
  in
  if not (List.exists live members) then
    match members with
    | [] -> ()
    | m :: _ -> Hashtbl.replace t.delta m ()

let in_sync t = Profile_set.revision t.pset = t.synced

let swap_now t =
  match t.agg with
  | Some agg -> swap_agg t agg
  | None ->
    (* Keep the statistics when they describe the current registry (the
       normal re-optimization path); absorb them across engine-mediated
       churn, pending or drained; restart them after an edit behind the
       engine's back. *)
    let churned =
      (Stats.decomp t.stats).Decomp.revision <> Profile_set.revision t.pset
    in
    replan_plain t (if in_sync t && churned then Absorb else Keep)

let set_spec t spec =
  t.spec <- spec;
  swap_now t

let refresh_keeping_history t =
  match t.agg with
  | Some _ -> if pending_of t > 0 then fold t
  | None -> if pending_of t > 0 || not (in_sync t) then fold t

(* Before a plain engine observes an event: a registry edited behind
   its back restarts the plan (the observed history refers to stale
   cells); otherwise pending churn pays one unit of rent per entry and
   is folded once the rent crosses the limit. Journal replay runs the
   same step, so fold points are identical live and on replay. *)
let prepare t =
  match t.agg with
  | Some _ -> ()
  | None ->
    if not (in_sync t) then replan_plain t Restart
    else
      let p = pending_of t in
      if p > 0 then begin
        t.rent <- t.rent + p;
        if t.rent > t.rent_limit then fold t
      end

(* -- Registry churn ------------------------------------------------ *)

let maybe_swap t agg = if pending_of t > agg.delta_cap then swap_agg t agg

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
      (List.iter (fun m -> Hashtbl.remove t.delta m))
      demoted;
    Hashtbl.replace t.delta id ());
  maybe_swap t agg;
  observe_agg t agg

let agg_removed t agg id profile =
  (match Lattice.remove agg.lat id with
  | None -> ()
  | Some r ->
    if Hashtbl.mem agg.compiled id then Hashtbl.replace t.dead id profile;
    Hashtbl.remove t.delta id;
    (match r with
    | Lattice.Shrunk { root = true; members } ->
      ensure_reachable t agg members
    | Lattice.Shrunk { root = false; _ } -> ()
    | Lattice.Dissolved { promoted; _ } ->
      List.iter (ensure_reachable t agg) promoted));
  maybe_swap t agg;
  observe_agg t agg

(* Plain churn joins the pending tables only while the engine is in
   sync with its registry; after an edit behind its back, the next
   match re-plans everything anyway. Rent is charged per pending
   window: once unsubscribes drain the tables, a fold would buy
   nothing, and the next window starts from zero. So a state with
   nothing pending carries no rent. *)
let plain_churn t ~was_synced f =
  if was_synced then begin
    f ();
    t.synced <- Profile_set.revision t.pset;
    if pending_of t = 0 then t.rent <- 0;
    observe_pending t
  end

let added t ~was_synced id profile =
  match t.agg with
  | Some agg -> agg_added t agg id profile
  | None -> plain_churn t ~was_synced (fun () -> Hashtbl.replace t.delta id ())

let add_profile t profile =
  let was_synced = in_sync t in
  let id = Profile_set.add t.pset profile in
  added t ~was_synced id profile;
  id

let add_profile_with_id t ~id profile =
  let was_synced = in_sync t in
  Profile_set.add_with_id t.pset ~id profile;
  added t ~was_synced id profile

let remove_profile t id =
  let was_synced = in_sync t in
  match Profile_set.find t.pset id with
  | None -> false
  | Some profile ->
    ignore (Profile_set.remove t.pset id);
    (match t.agg with
    | Some agg -> agg_removed t agg id profile
    | None ->
      plain_churn t ~was_synced (fun () ->
          if Hashtbl.mem t.delta id then Hashtbl.remove t.delta id
          else Hashtbl.replace t.dead id profile));
    true

(* -- Matching ------------------------------------------------------ *)

(* Match one event through the flat cursor; returns the match count,
   ids borrowed from the cursor. Counter semantics are bit-identical to
   the former Tree.match_event path. *)
let match_flat t event = Flat.match_into ~ops:t.ops t.flat t.cursor event

(* Append one matched id, doubling the buffer (filled prefix kept) when
   it is full. *)
let push_scratch t id =
  let n = t.fill in
  if n = Array.length t.scratch then begin
    let bigger = Array.make (2 * n) 0 in
    Array.blit t.scratch 0 bigger 0 n;
    t.scratch <- bigger
  end;
  t.scratch.(n) <- id;
  t.fill <- n + 1

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
   every candidate node against these. NaN stands for a value outside
   its domain, which no constrained attribute accepts. *)
let resolve agg event =
  for i = 0 to Array.length agg.domains - 1 do
    Axis.coord_into agg.domains.(i) (Event.value event i) agg.coords i
  done

(* Aggregated match: the compiled flat form decides the root
   representatives exactly; covered profiles are then collected by
   descending covering links from each matched root (plus the delta
   roots, verified directly), pruning any subtree whose node rejects
   the event — a coverer's rejection implies rejection of everything
   it covers. Each candidate-node verification counts one
   comparison. *)
let match_agg t agg event =
  let nflat = match_flat t event in
  let out = Flat.matches t.cursor in
  resolve agg event;
  t.fill <- 0;
  Lattice.begin_visit agg.lat;
  let on_check () = t.ops.Ops.comparisons <- t.ops.Ops.comparisons + 1 in
  let emit id = push_scratch t id in
  let expand ~verified node =
    Lattice.expand agg.lat ~coords:agg.coords ~verified node ~on_check ~emit
  in
  for i = 0 to nflat - 1 do
    let id = out.(i) in
    if not (Hashtbl.mem t.dead id) then
      match Lattice.node_of agg.lat id with
      | Some node -> expand ~verified:true node
      | None -> ()
  done;
  Hashtbl.iter
    (fun id () ->
      match Lattice.node_of agg.lat id with
      | Some node -> expand ~verified:false node
      | None -> ())
    t.delta;
  let n = t.fill in
  sort_ints t.scratch 0 (n - 1);
  (* The flat form counted its own matches (the root hits); align the
     cumulative pair counter with what the caller actually receives. *)
  t.ops.Ops.matches <- t.ops.Ops.matches + (n - nflat);
  n

(* Plain match with churn pending: the flat hits minus [dead], plus
   every [delta] profile verified directly — one comparison per check,
   the aggregated engine's accounting rule. *)
let match_pending t event =
  let nflat = match_flat t event in
  let out = Flat.matches t.cursor in
  t.fill <- 0;
  for i = 0 to nflat - 1 do
    let id = out.(i) in
    if not (Hashtbl.mem t.dead id) then push_scratch t id
  done;
  let schema = Profile_set.schema t.pset in
  Hashtbl.iter
    (fun id () ->
      t.ops.Ops.comparisons <- t.ops.Ops.comparisons + 1;
      if Profile.matches schema (Profile_set.find_exn t.pset id) event then
        push_scratch t id)
    t.delta;
  let n = t.fill in
  (* Flat hits arrive ascending; only verified delta ids break order. *)
  if Hashtbl.length t.delta > 0 then sort_ints t.scratch 0 (n - 1);
  t.ops.Ops.matches <- t.ops.Ops.matches + (n - nflat);
  n

let match_dispatch t event =
  match t.agg with
  | None when pending_of t = 0 -> match_flat t event
  | None -> match_pending t event
  | Some agg -> match_agg t agg event

(* The buffer holding the current match ids (first [len] slots); the
   flat path and the pending path are told apart after the fact,
   because nothing between a match and this call edits the tables. *)
let result_buffer t =
  match t.agg with
  | None when pending_of t = 0 -> Flat.matches t.cursor
  | None | Some _ -> t.scratch

let match_core t event =
  prepare t;
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

(* -- Drift clock ---------------------------------------------------- *)

(* Advance the drift clock by [n] observed events. It runs after their
   results were handed out, so a re-plan never moves the matcher under
   a caller still reading them, and a batch gets one check at most: a
   re-plan mid-batch would buy nothing measurable. *)
let tick t n =
  match t.adaptive with
  | Some a when Adaptive.tick a n ->
    ignore
      (Adaptive.check a t.stats ~replan:(fun () ->
           swap_now t;
           t.stats))
  | Some _ | None -> ()

let match_with t event ~f =
  let n = match_core t event in
  let r = f ~ids:(result_buffer t) ~len:n in
  tick t 1;
  r

let match_event t event =
  match_with t event ~f:(fun ~ids ~len -> List.init len (fun i -> ids.(i)))

let match_batch t events =
  let results =
    Array.map
      (fun e ->
        let n = match_core t e in
        Array.sub (result_buffer t) 0 n)
      events
  in
  tick t (Array.length events);
  results

(* Journal replay: feed the statistics exactly as [match_core] would —
   including a stale registry's history reset and a pending-churn
   fold — without matching or delivering anything. *)
let replay_one t event =
  prepare t;
  Stats.observe_event t.stats event

let replay_observe t event =
  replay_one t event;
  tick t 1

let replay_batch t events =
  Array.iter (replay_one t) events;
  tick t (Array.length events)

type churn = {
  delta : int list;
  dead : (int * Profile.t) list;
  rent : int;
}

let sorted_bindings tbl =
  Hashtbl.fold (fun id v acc -> (id, v) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> Int.compare a b)

let pending_churn t =
  match t.agg with
  | None when in_sync t ->
    {
      delta = List.map fst (sorted_bindings t.delta);
      dead = sorted_bindings t.dead;
      rent = t.rent;
    }
  | None | Some _ -> { delta = []; dead = []; rent = 0 }

(* Recompile the set the churn was recorded against — the live profiles
   without [delta], plus [dead] — then record the churn against it
   through the ordinary churn calls. *)
let restore_churn t c =
  if t.agg = None && (c.delta <> [] || c.dead <> []) then begin
    let delta = List.map (fun id -> (id, Profile_set.find_exn t.pset id)) c.delta in
    List.iter (fun (id, _) -> ignore (Profile_set.remove t.pset id)) delta;
    List.iter (fun (id, p) -> Profile_set.add_with_id t.pset ~id p) c.dead;
    replan t t.pset Restart;
    t.synced <- Profile_set.revision t.pset;
    observe_tree t;
    List.iter (fun (id, _) -> ignore (remove_profile t id)) c.dead;
    List.iter (fun (id, p) -> add_profile_with_id t ~id p) delta;
    t.rent <- c.rent
  end

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
