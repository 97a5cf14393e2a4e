(** Statistics objects (§4.2).

    The prototype keeps "statistic objects with counters for events,
    attributes, operators, and values"; the distribution-based measures
    read event and profile distributions from them. Two sources feed
    each attribute's event distribution:

    - {e observed}: a streaming histogram over the events actually
      filtered (the history of §5), and
    - {e assumed}: an explicit distribution installed by the caller —
      the paper's tests "manipulate the counters in order to simulate a
      distribution" and this is the equivalent hook.

    An assumed distribution, when present, takes precedence over the
    observed histogram. The profile distribution Pp defaults to the
    reference counts in the decomposition (the fraction of profiles
    referencing each cell) and can likewise be overridden. *)

type t

val create : ?bins:int -> Genas_filter.Decomp.t -> t
(** Estimator bin count defaults to 64 per attribute. *)

val decomp : t -> Genas_filter.Decomp.t

val observe : t -> Genas_model.Image.t -> unit
(** Record one event, resolved over the decomposition's schema, in
    every attribute's histogram ({!Genas_dist.Estimator.observe}). *)

val events_seen : t -> int

val assume_event_dist : t -> attr:int -> Genas_dist.Dist.t -> unit
(** Install/replace the assumed event distribution of one attribute.

    @raise Invalid_argument if the distribution's axis differs from the
    attribute's. *)

val clear_assumed : t -> attr:int -> unit

val event_dist : t -> attr:int -> Genas_dist.Dist.t
(** Assumed distribution if installed; otherwise the smoothed observed
    histogram; otherwise (no observations at all) uniform. *)

val observed_dist : Genas_dist.Estimator.t -> Genas_dist.Dist.t
(** {!event_dist} of a histogram: smoothed by 0.5 per bin, or uniform. *)

val grid_drift : t -> attr:int -> float array -> float
(** [l1 g (grid (event_dist t ~attr))] ({!Genas_dist.Estimator.l1}),
    read from the counts without allocating unless the distribution is
    assumed or the histogram empty. *)

val event_cell_probs : t -> attr:int -> float array
(** [event_dist] quantized onto the attribute's global cells: the
    Pe(x_i) of §3. *)

val profile_cell_weights : t -> attr:int -> float array
(** Pp(x_i): per global cell, the fraction of profiles whose predicate
    references it (0 for D0 cells); overridden weights if installed.
    All-zero when no profile constrains the attribute. *)

val assume_profile_weights : t -> attr:int -> float array -> unit
(** Override Pp for one attribute (length must equal the cell count).
    The paper's tests simulate profile distributions the same way. *)

val set_priority : t -> id:int -> float -> unit
(** Give one profile a weight in the profile distribution (default
    1.0). V2/V3 then order values by priority-weighted reference mass,
    sharpening the paper's observation that profile-dependent measures
    yield "faster notifications for profiles with high priority" into
    an explicit knob. Ignored for ids not in the decomposition.

    @raise Invalid_argument on negative priorities. *)

val priority : t -> id:int -> float

val d0_event_prob : t -> attr:int -> float
(** Pe(D0): probability that an event's value falls in the
    zero-subdomain — the second factor of measure A2. *)

val reset_observations : t -> unit

(** {1 Serialization}

    The durable subset of a statistics object: per-attribute observed
    histograms, the events-seen count, and profile priorities. Assumed
    (caller-installed) event distributions and profile-weight overrides
    are runtime configuration and are deliberately {e not} part of an
    export — a recovered broker's caller re-installs them if wanted. *)

module Export : sig
  type t = {
    hists : Genas_dist.Estimator.Export.t array;
    events_seen : int;
    priorities : (int * float) list;  (** sorted by profile id *)
  }
end

val export : t -> Export.t

val import : t -> Export.t -> (unit, string) result
(** Replace the observed history and priorities with the exported
    ones. Fails on attribute-arity or histogram-layout mismatch; on
    failure the target may have been partially updated and should be
    discarded. *)

val absorb : t -> from:t -> unit
(** [absorb t ~from] merges [from]'s observed event history (the
    per-attribute streaming histograms and the events-seen count, plus
    any assumed event distributions [t] lacks) into [t]. The two
    statistics objects must describe the same schema — attribute axes
    are schema-derived, so any two decomposition snapshots of the same
    schema qualify even when their profile sets differ. Physical
    identity is a no-op, so absorbing a statistics object into itself
    never double-counts.

    This is how learned distributions survive a profile-set change: a
    fresh statistics object built for the new decomposition absorbs the
    retired one ({!Engine.refresh_keeping_history}).

    @raise Invalid_argument if the attribute axes disagree. *)
