(* Workload inputs, generated from the seed alone. The program under
   test only ever sees the profiles and events built here. *)

module Prng = Genas_prng.Prng
module Schema = Genas_model.Schema
module Axis = Genas_model.Axis
module Value = Genas_model.Value
module Event = Genas_model.Event
module Dist = Genas_dist.Dist
module Shape = Genas_dist.Shape
module Profile = Genas_profile.Profile
module Profile_set = Genas_profile.Profile_set
module Lang = Genas_profile.Lang
module Naive = Genas_filter.Naive
module Workload = Genas_expt.Workload

(* The paper's table workload: 3 integer attributes over 100 points. *)
let schema = Workload.normalized_schema ~attrs:3 ~points:100 ()

let axes =
  Array.init (Schema.arity schema) (fun i ->
      Axis.of_domain (Schema.attribute schema i).Schema.domain)

(* Power of two, so the wraparound index is a mask. *)
let pool_size = 1024

let mask = pool_size - 1

type t = {
  seed : int;
  profiles : Profile.t array;  (** the live population, in subscribe order *)
  fresh : Profile.t array;  (** never-subscribed profiles for churn *)
  values : Value.t array array;  (** the event pool's value vectors *)
  pool : Event.t array;  (** [values] as events, [seq] = pool index *)
}

let to_array pset =
  Profile_set.fold pset ~init:[] ~f:(fun acc _ p -> p :: acc)
  |> List.rev |> Array.of_list

(* The population [Perfbench.run] times: Gaussian equality profiles
   with 0.3 don't-care per attribute. *)
let paper_profiles rng n =
  to_array
    (Workload.gen_profiles rng schema
       {
         Workload.p = n;
         dontcare = Array.make (Schema.arity schema) 0.3;
         value_dists = Array.map (fun ax -> Shape.gauss () ax) axes;
         range_width = None;
       })

let covering_profiles ?roots rng n =
  to_array (Workload.gen_covering_profiles rng schema ~p:n ?roots ())

let uniform_values rng =
  let dists = Array.map Dist.uniform axes in
  Array.init pool_size (fun _ ->
      let coords = Workload.event_coords rng dists in
      Array.mapi
        (fun i c -> Axis.value (Schema.attribute schema i).Schema.domain c)
        coords)

let event ~seq values = Event.of_values_exn ~seq schema values

(* Independent streams per input kind, so changing how many profiles
   one workload draws never shifts another input. *)
let make ~seed ~population ~fresh =
  let root = Prng.create ~seed in
  let rp = Prng.split root in
  let rf = Prng.split root in
  let re = Prng.split root in
  let profiles = population rp in
  let fresh = fresh rf in
  let values = uniform_values re in
  { seed; profiles; fresh; values; pool = Array.mapi (fun i v -> event ~seq:i v) values }

(* The seed of deployment [d] of a run with seed [seed]. *)
let sub_seed ~seed d = (seed * 64) + d

let paper ~seed =
  make ~seed ~population:(fun r -> paper_profiles r 500)
    ~fresh:(fun r -> paper_profiles r 1024)

(* 10^4 covering profiles under 64 broad roots; the churn stream is a
   second covering population (its own broad windows, shuffled in), so
   about one fresh profile in eight is a new covering root and churn
   reaches the lattice's structural path and the epoch swap. The
   generator's default of 512 roots is not used: the flat matcher the
   engine compiles over them grows superlinearly with the root count
   (about 650 MB and 3 s per swap at 512, 17 MB and 0.1 s at 64). *)
let agg_roots = 64

let agg ~seed =
  make ~seed ~population:(fun r -> covering_profiles ~roots:agg_roots r 10_000)
    ~fresh:(fun r ->
      let a = covering_profiles r 4096 in
      Prng.shuffle r a;
      a)

let body p = Lang.body_to_string schema p

(* The reference: profile indices [Naive] matches for [e] over
   [profiles], ascending. *)
let reference profiles =
  let pset = Profile_set.create schema in
  Array.iteri (fun i p -> Profile_set.add_with_id pset ~id:i p) profiles;
  let naive = Naive.build pset in
  fun e -> Naive.match_event naive e

let expected_counts inp =
  let r = reference inp.profiles in
  Array.map (fun e -> List.length (r e)) inp.pool
