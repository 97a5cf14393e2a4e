module Axis = Genas_model.Axis
module Image = Genas_model.Image
module Interval = Genas_interval.Interval

type t = {
  axis : Axis.t;
  exact : bool;  (** one bin per inhabited discrete point *)
  bins : int;
  counts : float array;
  slot_bin : int array;  (** per image slot: its bin; empty if untabled *)
  mutable total : int;
  mutable dropped : int;
}

(* The bin of an in-axis coordinate (an integer on a discrete axis). *)
let[@inline] bin_of axis ~exact ~bins x =
  let lo = axis.Axis.lo and hi = axis.Axis.hi in
  if exact then int_of_float (x -. lo)
  else if hi <= lo then 0
  else
    Stdlib.min (bins - 1)
      (int_of_float ((x -. lo) /. (hi -. lo) *. float_of_int bins))

(* Statistics are rebuilt on every re-plan, so a wider axis keeps the
   coordinate arithmetic instead of building a table of up to 2^16. *)
let max_slot_table = 4096

let create ?(bins = 64) axis =
  if bins <= 0 then invalid_arg "Estimator.create: bins must be positive";
  let exact = axis.Axis.discrete && Axis.size axis <= float_of_int bins in
  let bins = if exact then int_of_float (Axis.size axis) else bins in
  let slot_bin =
    match Image.table_size axis with
    | Some n when n <= max_slot_table ->
      Array.init n (fun s ->
          bin_of axis ~exact ~bins (axis.Axis.lo +. float_of_int s))
    | Some _ | None -> [||]
  in
  let counts = Array.make bins 0.0 in
  { axis; exact; bins; counts; slot_bin; total = 0; dropped = 0 }

let axis t = t.axis

let[@inline] count_bin t b =
  t.counts.(b) <- t.counts.(b) +. 1.0;
  t.total <- t.total + 1

(* Inlined into [observe]: a float passed from another module comes
   boxed, one read from the image's coordinates does not. NaN fails
   both bound tests. *)
let[@inline] record t x =
  let lo = t.axis.Axis.lo and hi = t.axis.Axis.hi in
  if
    (not (lo <= x && x <= hi))
    || (t.axis.Axis.discrete && Float.rem x 1.0 <> 0.0)
  then t.dropped <- t.dropped + 1
  else count_bin t (bin_of t.axis ~exact:t.exact ~bins:t.bins x)

let add = record

let observe t (img : Image.t) attr =
  if Array.length t.slot_bin > 0 then begin
    let s = (Image.slots img).(attr) in
    if s < 0 then t.dropped <- t.dropped + 1 else count_bin t t.slot_bin.(s)
  end
  else record t (Float.Array.get (Image.coords img) attr)

let count t = t.total

let dropped t = t.dropped

let reset t =
  Array.fill t.counts 0 t.bins 0.0;
  t.total <- 0;
  t.dropped <- 0

let merge_into ~from t =
  if not (Axis.equal from.axis t.axis) then
    invalid_arg "Estimator.merge_into: mismatched axes";
  if from.bins <> t.bins || from.exact <> t.exact then
    invalid_arg "Estimator.merge_into: mismatched bin layout";
  Array.iteri (fun i c -> t.counts.(i) <- t.counts.(i) +. c) from.counts;
  t.total <- t.total + from.total;
  t.dropped <- t.dropped + from.dropped

(* Cell [i] of [bins] equal cells, the last closed. It ends where the
   next begins: [a +. width] can round past that and overlap it. *)
let cell ax bins i =
  let lo = ax.Axis.lo and hi = ax.Axis.hi in
  let width = (hi -. lo) /. float_of_int bins in
  let edge i = lo +. (float_of_int i *. width) in
  let b = if i = bins - 1 then hi else edge (i + 1) in
  Interval.make_exn ~hi_closed:(i = bins - 1) ~lo:(edge i) ~hi:b ()

let estimate ?(smoothing = 0.0) t =
  if smoothing < 0.0 then invalid_arg "Estimator.estimate: negative smoothing";
  if t.total = 0 && smoothing = 0.0 then
    invalid_arg "Estimator.estimate: no observations";
  if t.exact then
    Dist.of_atoms t.axis
      (List.init t.bins (fun i ->
           (t.axis.Axis.lo +. float_of_int i, t.counts.(i) +. smoothing)))
  else
    Dist.of_pieces t.axis
      (List.init t.bins (fun i ->
           (cell t.axis t.bins i, t.counts.(i) +. smoothing)))

module Export = struct
  type nonrec t = {
    exact : bool;
    bins : int;
    counts : float array;
    total : int;
    dropped : int;
  }
end

let export t =
  {
    Export.exact = t.exact;
    bins = t.bins;
    counts = Array.copy t.counts;
    total = t.total;
    dropped = t.dropped;
  }

let import t (e : Export.t) =
  if e.Export.bins <> t.bins || e.Export.exact <> t.exact then
    Error "Estimator.import: mismatched bin layout"
  else if Array.length e.Export.counts <> t.bins then
    Error "Estimator.import: counts length disagrees with bins"
  else begin
    Array.blit e.Export.counts 0 t.counts 0 t.bins;
    t.total <- e.Export.total;
    t.dropped <- e.Export.dropped;
    Ok ()
  end

let of_export axis e =
  let fresh = create ~bins:(Stdlib.max 1 e.Export.bins) axis in
  match import fresh e with
  | Ok () -> Ok fresh
  | Error _ -> Error "Estimator.of_export: layout does not fit the axis"

let default_grid = 64

let grid ?(bins = default_grid) d =
  let ax = Dist.axis d in
  if ax.Axis.discrete && Axis.size ax <= float_of_int bins then
    Array.init (int_of_float (Axis.size ax)) (fun i ->
        Dist.prob_interval d (Interval.point (ax.Axis.lo +. float_of_int i)))
  else Array.init bins (fun i -> Dist.prob_interval d (cell ax bins i))

let l1 a b =
  let acc = ref 0.0 in
  for i = 0 to Array.length a - 1 do
    acc := !acc +. Float.abs (a.(i) -. b.(i))
  done;
  !acc

let l1_on_grid ?bins a b =
  if not (Axis.equal (Dist.axis a) (Dist.axis b)) then
    invalid_arg "Estimator.l1_on_grid: mismatched axes";
  l1 (grid ?bins a) (grid ?bins b)

(* When the bins are the default grid's cells, cell [i] of
   [estimate ~smoothing t] holds exactly (c_i + smoothing) / z, z the
   sum of all (c_j + smoothing) in bin order, as [Dist.normalize]
   computes it. *)
let l1_to_estimate ~smoothing g t =
  let on_grid =
    if t.exact then Axis.size t.axis <= float_of_int default_grid
    else t.bins = default_grid
  in
  if not on_grid then l1 g (grid (estimate ~smoothing t))
  else begin
    let z = ref 0.0 and acc = ref 0.0 in
    for i = 0 to t.bins - 1 do z := !z +. (t.counts.(i) +. smoothing) done;
    for i = 0 to t.bins - 1 do
      acc := !acc +. Float.abs (g.(i) -. ((t.counts.(i) +. smoothing) /. !z))
    done;
    !acc
  end
