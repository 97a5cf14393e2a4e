module Axis = Genas_model.Axis
module Schema = Genas_model.Schema
module Event = Genas_model.Event
module Iset = Genas_interval.Iset
module Profile = Genas_profile.Profile
module Profile_set = Genas_profile.Profile_set

type t = {
  schema : Schema.t;
  axes : Axis.t array;
  wanted : [ `All | `Region of Iset.t ] array;  (** per attribute *)
  mutable suppressed : int;
}

let build pset =
  let schema = Profile_set.schema pset in
  let n = Schema.arity schema in
  let axes =
    Array.init n (fun i -> Axis.of_domain (Schema.attribute schema i).Schema.domain)
  in
  let wanted =
    Array.init n (fun attr ->
        let dont_care = ref false in
        let union =
          Profile_set.fold pset ~init:Iset.empty ~f:(fun acc _ p ->
              match Profile.denotation p attr with
              | None ->
                dont_care := true;
                acc
              | Some iset -> Iset.union acc iset)
        in
        if !dont_care then `All else `Region union)
  in
  { schema; axes; wanted; suppressed = 0 }

let wanted_coord t ~attr c =
  match t.wanted.(attr) with `All -> true | `Region r -> Iset.mem r c

let wanted_event t event =
  let n = Array.length t.axes in
  let rec check attr =
    if attr = n then true
    else
      let dom = (Schema.attribute t.schema attr).Schema.domain in
      match Axis.coord dom (Event.value event attr) with
      | None -> false
      | Some c -> wanted_coord t ~attr c && check (attr + 1)
  in
  let ok = check 0 in
  if not ok then t.suppressed <- t.suppressed + 1;
  ok

let wanted_region t ~attr region =
  match t.wanted.(attr) with
  | `All -> not (Iset.is_empty region)
  | `Region r -> not (Iset.is_empty (Iset.inter r region))

let suppressed t = t.suppressed

let coverage_share t ~attr =
  match t.wanted.(attr) with
  | `All -> 1.0
  | `Region r ->
    let axis = t.axes.(attr) in
    let total = Axis.size axis in
    if total <= 0.0 then 1.0
    else Iset.measure ~discrete:axis.Axis.discrete r /. total
