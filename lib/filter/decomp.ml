module Schema = Genas_model.Schema
module Event = Genas_model.Event
module Axis = Genas_model.Axis
module Iset = Genas_interval.Iset
module Interval = Genas_interval.Interval
module Overlay = Genas_interval.Overlay
module Profile = Genas_profile.Profile
module Profile_set = Genas_profile.Profile_set

type t = {
  schema : Schema.t;
  axes : Axis.t array;
  overlays : Overlay.t array;
  cell_first : int array array;
  cell_list : int array array;
  ids : int array;
}

let build pset =
  let schema = Profile_set.schema pset in
  let n = Schema.arity schema in
  let axes =
    Array.init n (fun i -> Axis.of_domain (Schema.attribute schema i).Schema.domain)
  in
  let overlays =
    Array.init n (fun i -> Overlay.build axes.(i) (Profile_set.denotations pset i))
  in
  let ids = Array.of_list (Profile_set.ids pset) in
  let bound = if ids = [||] then 0 else ids.(Array.length ids - 1) + 1 in
  (* Counting sort of (id, cell) pairs by id; visiting the cells in
     order leaves each id's cells ascending. *)
  let cell_first = Array.init n (fun _ -> Array.make (bound + 1) 0) in
  let cell_list =
    Array.mapi
      (fun i (ov : Overlay.t) ->
        let first = cell_first.(i) in
        Array.iter
          (fun (c : Overlay.cell) ->
            List.iter (fun id -> first.(id + 1) <- first.(id + 1) + 1) c.ids)
          ov.cells;
        for id = 1 to bound do
          first.(id) <- first.(id) + first.(id - 1)
        done;
        let list = Array.make first.(bound) 0 in
        let fill = Array.sub first 0 bound in
        Array.iteri
          (fun ci (c : Overlay.cell) ->
            List.iter
              (fun id ->
                list.(fill.(id)) <- ci;
                fill.(id) <- fill.(id) + 1)
              c.ids)
          ov.cells;
        list)
      overlays
  in
  {
    schema;
    axes;
    overlays;
    cell_first;
    cell_list;
    ids;
  }

let arity t = Array.length t.axes

let cell_of_coord t ~attr c = Overlay.locate t.overlays.(attr) c

let cell_of_event t ~attr event =
  let dom = (Schema.attribute t.schema attr).Schema.domain in
  match Axis.coord dom (Event.value event attr) with
  | None -> None
  | Some c -> cell_of_coord t ~attr c

let cells_of_profile t ~attr ~id =
  let first = t.cell_first.(attr) in
  if id < 0 || id + 1 >= Array.length first || first.(id) = first.(id + 1)
  then None
  else Some (Array.sub t.cell_list.(attr) first.(id) (first.(id + 1) - first.(id)))

let referenced_count t ~attr = Array.length (Overlay.referenced t.overlays.(attr))

let dont_care_count t ~attr =
  let first = t.cell_first.(attr) in
  Array.fold_left
    (fun acc id -> if first.(id) = first.(id + 1) then acc + 1 else acc)
    0 t.ids

let d0_share t ~attr =
  if dont_care_count t ~attr > 0 then 0.0
  else
    let total = Axis.size t.axes.(attr) in
    if total <= 0.0 then 0.0 else Overlay.d0_size t.overlays.(attr) /. total
