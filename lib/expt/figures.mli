(** Reproduction of every figure and test scenario of the paper's
    evaluation (§4.3).

    Each function regenerates one artifact as a plain-text table; the
    benchmark executable prints them all and EXPERIMENTS.md records the
    paper-vs-measured comparison. Absolute operation counts depend on
    the synthesized stand-ins for the authors' unpublished
    distributions (see DESIGN.md §3); the comparisons the paper draws —
    which strategy wins for which distribution class, and by what
    rough factor — are the reproduction target. *)

val fig3 : unit -> Report.table
(** Fig. 3: the exemplary distributions, as sparklines over the
    normalized attribute domain. *)

val fig4a : ?seed:int -> ?p:int -> unit -> Report.table
(** Fig. 4(a): natural vs event-order (V1) vs binary search on selected
    Pe/Pp combinations; average operations per event, scenario TV4
    (analytic, Eq. 2). [p] defaults to 50 profiles. *)

val fig4b : ?seed:int -> ?p:int -> unit -> Report.table
(** Fig. 4(b): measures V1–V3 vs binary search on the second set of
    combinations. *)

val fig5 : ?seed:int -> ?p:int -> unit -> Report.table list
(** Fig. 5(a,b,c): per-event, per-profile, and per-event-and-profile
    operation averages for the peaked profile distributions. *)

val fig6a : ?seed:int -> ?p:int -> unit -> Report.table
(** Fig. 6(a), experiment TA1: attribute reordering with wide
    differences in attribute selectivities (peak widths 10–80 %). *)

val fig6b : ?seed:int -> ?p:int -> unit -> Report.table
(** Fig. 6(b), experiment TA2: small differences (peak widths
    45–65 %). *)

val tv_scenarios : ?seed:int -> unit -> Report.table
(** The TV1–TV4 protocol table: tree construction at 10,000 profiles,
    full-tree simulation to 95 % precision, the 4000-event
    single-attribute run, and its analytic counterpart. *)

val ablation_sharing : ?seed:int -> unit -> Report.table
(** Beyond the paper: subtree-sharing ablation — node/edge counts and
    build effort with hash-consing on and off. *)

val baseline_comparison : ?seed:int -> unit -> Report.table
(** Beyond the paper: naive vs counting vs tree matchers, simulated
    comparisons per event as the profile count grows. *)

val outlook_strategies : ?seed:int -> ?p:int -> unit -> Report.table
(** Beyond the paper (§5 outlook): hash-based search and per-attribute
    automatic strategy selection, against the paper's strategies, on
    the Fig. 4(a) combinations. *)

val ablation_quench : ?seed:int -> unit -> Report.table
(** Beyond the paper: Elvin-style quenching — suppression rate at the
    publisher as subscription concentration varies. *)

val ablation_routing : ?seed:int -> unit -> Report.table
(** Beyond the paper: covering-based subscription propagation vs the
    flooding bound on a broker line, as subscription overlap grows. *)

val ablation_adaptive : ?seed:int -> unit -> Report.table
(** Beyond the paper: filter cost before/after a distribution shift,
    with and without the adaptive component. *)

val correlated : ?seed:int -> unit -> Report.table
(** Beyond the paper's tests (but within its model, §3): correlated
    events via a two-regime mixture; shows the independence assumption
    mispredicting cost and match rate while the conditional evaluator
    ({!Genas_core.Cost.evaluate_joint}) agrees with simulation. *)

val dontcare_influence : ?seed:int -> unit -> Report.table
(** The paper's final outlook item: the influence of don't-care edges
    (determinization blow-up and scan cost) and of operator types
    (equality vs ranges) on tree size and filter performance. *)

val queueing : ?seed:int -> unit -> Report.table
(** §4.3's queueing argument: sojourn time (waiting + filtering) of
    notifications under a fixed arrival rate, per strategy — the
    "optimal working point" trade-off between per-event and
    per-profile optimization. *)

val orderings8 : ?seed:int -> ?p:int -> unit -> Report.table
(** §4.3's full protocol: all eight value orderings (natural, Pe, Pp,
    Pe·Pp — each ascending and descending) plus binary search. *)

val fragility : ?seed:int -> ?p:int -> unit -> Report.table
(** §4.3's stability caveat: a V1 tree planned for one event
    distribution, evaluated under increasing drift, against binary
    search (insensitive) and an adaptively re-planned V1 tree. *)

val all : (string * (unit -> Report.table list)) list
(** Every figure above by command-line name, with default arguments. *)
