module Schema = Genas_model.Schema
module Event = Genas_model.Event
module Axis = Genas_model.Axis
module Iset = Genas_interval.Iset
module Profile = Genas_profile.Profile
module Profile_set = Genas_profile.Profile_set

type t = {
  schema : Schema.t;
  profiles : (int * Profile.t) array;  (** ascending id *)
}

let build pset =
  let profiles =
    Profile_set.fold pset ~init:[] ~f:(fun acc id p -> (id, p) :: acc)
    |> List.rev |> Array.of_list
  in
  { schema = Profile_set.schema pset; profiles }

let match_event ?ops t event =
  let n = Schema.arity t.schema in
  let count c = match ops with Some o -> o.Ops.comparisons <- o.Ops.comparisons + c | None -> () in
  let matched = ref [] in
  Array.iter
    (fun (id, p) ->
      let rec check i =
        if i = n then true
        else
          match Profile.denotation p i with
          | None -> check (i + 1)
          | Some iset -> (
            count 1;
            let dom = (Schema.attribute t.schema i).Schema.domain in
            match Axis.coord dom (Event.value event i) with
            | None -> false
            | Some c -> Iset.mem iset c && check (i + 1))
      in
      if check 0 then matched := id :: !matched)
    t.profiles;
  (match ops with
  | Some o ->
    o.Ops.events <- o.Ops.events + 1;
    o.Ops.matches <- o.Ops.matches + List.length !matched
  | None -> ());
  List.rev !matched
