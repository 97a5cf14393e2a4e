module Value = Genas_model.Value
module Schema = Genas_model.Schema
module Event = Genas_model.Event
module Axis = Genas_model.Axis
module Prng = Genas_prng.Prng
module Shape = Genas_dist.Shape
module Workload = Genas_expt.Workload

let table () =
  let s = Workload.normalized_schema ~attrs:3 ~points:100 () in
  let axes =
    Array.init 3 (fun i -> Axis.of_domain (Schema.attribute s i).Schema.domain)
  in
  let rng = Prng.create ~seed:1 in
  let pset =
    Workload.gen_profiles rng s
      {
        Workload.p = 500;
        dontcare = Array.make 3 0.3;
        value_dists = Array.map (fun ax -> Shape.gauss () ax) axes;
        range_width = None;
      }
  in
  let events =
    Array.init 1024 (fun _ ->
        Event.create_exn s
          (List.init 3 (fun i ->
               (Printf.sprintf "a%d" i, Value.Int (Prng.int_in rng ~lo:0 ~hi:99)))))
  in
  (pset, events)

let minor_words f =
  let w0 = Gc.minor_words () in
  f ();
  Gc.minor_words () -. w0
