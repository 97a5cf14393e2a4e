(** Multicore publish fan-out: a persistent pool of OCaml 5 domains.

    A persistent pool keeps [domains - 1] long-lived workers parked on
    a condition turnstile (spawned lazily on the first parallel batch —
    parked domains still take part in every stop-the-world section, so
    an idle pool must cost the process nothing); each {!match_batch}
    posts one job and the workers wake, drain their contiguous share of
    the batch through
    per-worker atomic chunk cursors, then {e steal} leftover chunks
    from slower participants' cursors. Spawn cost is paid once per pool
    instead of once per batch, and stealing keeps every domain busy
    when per-event cost is skewed.

    Determinism: every event index is claimed by exactly one
    [fetch_and_add] winner and its matches land in that index's own
    result slot, so pool output is positionally bit-identical to a
    sequential run regardless of how chunks are stolen. The compiled
    {!Flat.t} and the packed event image are immutable, so workers
    share them with zero coordination; per-worker {!Ops.t} counters
    are commutative sums merged after the completion barrier, so the
    totals also match a single-domain run bit for bit.

    Pools own domains: call {!shutdown} when done (tests especially —
    the runtime caps live domains). An [at_exit] hook shuts multi-domain
    pools down automatically at process exit. *)

type t

val create : ?domains:int -> unit -> t
(** [domains] defaults to [Domain.recommended_domain_count ()] and
    bounds the parallelism of a batch. Values above the host's
    recommended count are allowed — useful for determinism tests — but
    buy no speedup. The [domains - 1] workers are spawned on the first
    multi-event batch.

    @raise Invalid_argument if [domains < 1]. *)

val domains : t -> int

val live_workers : t -> int
(** Long-lived worker domains currently alive: [0] before the first
    parallel batch, [domains - 1] once a multi-domain pool has fanned
    out, [0] again after {!shutdown} (and always [0] for single-domain
    pools). *)

val last_steals : t -> int
(** Chunks stolen (claimed from another participant's cursor) during
    the most recent {!match_batch} on this pool. [0] for sequential
    runs. *)

val shutdown : t -> unit
(** Stop and join the worker domains. Idempotent. Subsequent
    [match_batch] calls raise [Invalid_argument].
    Also removes the pool from the process-exit cleanup registry, so
    cycled pools are not retained for the life of the process. *)

val registered_cleanups : unit -> int
(** Pools currently registered for automatic shutdown at process exit
    (multi-domain pools not yet {!shutdown}). A single [at_exit] hook
    walks this registry; creating and shutting down pools in a loop
    must leave it — and the at_exit list — flat. *)

val match_batch :
  ?ops:Ops.t -> t -> Flat.t -> Genas_model.Event.t array ->
  Genas_profile.Profile_set.id array array
(** Match every event of the batch, returning one ascending id array
    per event (index-aligned with the input). On the multi-domain path
    the batch is first resolved once into a packed int image
    ({!Flat.pack_batch}), then distributed as chunked ranges with
    work-stealing. With one domain (or a batch of [<= 1] events)
    everything runs on the calling domain and no hand-off happens.

    @raise Invalid_argument after {!shutdown}. *)
