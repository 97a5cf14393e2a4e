module Event = Genas_model.Event
module Overlay = Genas_interval.Overlay
module Profile = Genas_profile.Profile
module Profile_set = Genas_profile.Profile_set

type t = {
  decomp : Decomp.t;
  cell_profiles : int array array array;
      (** [attr].[cell] → profile ids credited by that cell *)
  needed : int array;  (** per profile id: #constrained attrs (0 = none) *)
  all_dont_care : int array;  (** profiles with no constraint at all *)
  max_id : int;
  (* Per-event scratch, preallocated once and reset in O(1) by epoch
     stamping: [credits.(id)] is only meaningful when [stamp.(id)]
     equals the current epoch, so no per-event table or clearing pass
     is needed. One matcher therefore serves one thread of control. *)
  credits : int array;
  stamp : int array;
  touched : int array;  (** ids credited by the current event *)
  mutable epoch : int;
}

let build pset =
  let decomp = Decomp.build pset in
  let n = Decomp.arity decomp in
  let cell_profiles =
    Array.init n (fun attr ->
        Array.map
          (fun (c : Overlay.cell) -> Array.of_list c.Overlay.ids)
          decomp.Decomp.overlays.(attr).Overlay.cells)
  in
  let max_id = ref (-1) in
  Profile_set.iter pset (fun id _ -> if id > !max_id then max_id := id);
  let slots = !max_id + 1 in
  let needed = Array.make slots 0 in
  let all_dont_care = ref [] in
  Profile_set.iter pset (fun id p ->
      match Profile.arity_used p with
      | 0 -> all_dont_care := id :: !all_dont_care
      | k -> needed.(id) <- k);
  {
    decomp;
    cell_profiles;
    needed;
    all_dont_care = Array.of_list (List.rev !all_dont_care);
    max_id = !max_id;
    credits = Array.make slots 0;
    stamp = Array.make slots 0;
    touched = Array.make slots 0;
    epoch = 0;
  }

let ceil_log2 m =
  if m <= 1 then if m = 1 then 1 else 0
  else
    let rec go acc v = if v >= m then acc else go (acc + 1) (v * 2) in
    go 0 1

let match_event ?ops t event =
  let n = Decomp.arity t.decomp in
  t.epoch <- t.epoch + 1;
  let epoch = t.epoch in
  let ntouched = ref 0 in
  let comparisons = ref 0 in
  for attr = 0 to n - 1 do
    let ncells = Array.length t.cell_profiles.(attr) in
    comparisons := !comparisons + ceil_log2 ncells;
    match Decomp.cell_of_event t.decomp ~attr event with
    | None -> ()
    | Some cell ->
      Array.iter
        (fun id ->
          incr comparisons;
          if t.stamp.(id) = epoch then t.credits.(id) <- t.credits.(id) + 1
          else begin
            t.stamp.(id) <- epoch;
            t.credits.(id) <- 1;
            t.touched.(!ntouched) <- id;
            incr ntouched
          end)
        t.cell_profiles.(attr).(cell)
  done;
  let matched = ref (Array.to_list t.all_dont_care) in
  for k = 0 to !ntouched - 1 do
    let id = t.touched.(k) in
    if t.credits.(id) = t.needed.(id) then matched := id :: !matched
  done;
  let matched = List.sort Int.compare !matched in
  (match ops with
  | Some o ->
    o.Ops.comparisons <- o.Ops.comparisons + !comparisons;
    o.Ops.events <- o.Ops.events + 1;
    o.Ops.matches <- o.Ops.matches + List.length matched
  | None -> ());
  matched
