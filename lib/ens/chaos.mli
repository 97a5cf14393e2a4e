(** Deterministic chaos scenario plans for mesh tests.

    Extends the {!Fault} discipline — all randomness through seeded
    {!Genas_prng.Prng} substreams, one per decision category — from
    single-delivery faults up to whole-topology scenarios: server
    kill/restart cycles, link partitions, and stalled-consumer
    backpressure trips. A plan is pregenerated, so the harness can
    print it, replay it, and bisect on it; the same [(seed, spec,
    clients)] triple always yields the same action sequence.

    The plan decides, the harness executes: see
    [test/test_mesh.ml]'s chaos differential, which interleaves a
    plan's actions with publish traffic over a relay chain and asserts
    every client converges to the reference (flat-Router) delivery
    set with no operator intervention. *)

type action =
  | Calm  (** no fault this step *)
  | Kill_restart  (** kill the serving process mid-run, then restart it *)
  | Partition of int  (** sever client [i]'s link (it must self-heal) *)
  | Stall of int
      (** pause client [i]'s receiver until the server's bounded
          queue trips its slow-consumer policy *)

type spec = {
  steps : int;
  kill : float;  (** per-step probability of [Kill_restart] *)
  partition : float;  (** … of [Partition] *)
  stall : float;  (** … of [Stall]; remainder is [Calm] *)
}

val plan : seed:int -> clients:int -> spec -> action array
(** Pregenerate the scenario. Targets are uniform over
    [[0, clients-1]], drawn from their own substream so category
    probabilities never perturb target choice.

    @raise Invalid_argument on probabilities outside [[0,1]], a sum
    above 1, negative [steps], or targeted probabilities with
    [clients < 1]. *)

val counts : action array -> int * int * int * int
(** [(calm, kill, partition, stall)] totals. *)

val action_name : action -> string

val to_string : action array -> string
(** Space-separated action names — stable, printable plan identity. *)
