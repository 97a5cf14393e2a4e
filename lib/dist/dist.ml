module Axis = Genas_model.Axis
module Interval = Genas_interval.Interval
module Iset = Genas_interval.Iset
module Overlay = Genas_interval.Overlay
module Prng = Genas_prng.Prng

type piece = { itv : Interval.t; mass : float }

type t = { axis : Axis.t; pieces : piece list; atoms : (float * float) list }

let axis t = t.axis

let total_mass pieces atoms =
  List.fold_left (fun a p -> a +. p.mass) 0.0 pieces
  +. List.fold_left (fun a (_, m) -> a +. m) 0.0 atoms

let normalize t =
  let z = total_mass t.pieces t.atoms in
  if z <= 0.0 then invalid_arg "Dist: total mass must be positive";
  {
    t with
    pieces = List.map (fun p -> { p with mass = p.mass /. z }) t.pieces;
    atoms = List.map (fun (c, m) -> (c, m /. z)) t.atoms;
  }

let uniform axis =
  normalize
    {
      axis;
      pieces =
        [ { itv = Interval.make_exn ~lo:axis.Axis.lo ~hi:axis.Axis.hi (); mass = 1.0 } ];
      atoms = [];
    }

let of_atoms axis weighted =
  if weighted = [] then invalid_arg "Dist.of_atoms: empty";
  List.iter
    (fun (c, w) ->
      if w < 0.0 then invalid_arg "Dist.of_atoms: negative weight";
      if c < axis.Axis.lo || c > axis.Axis.hi then
        invalid_arg "Dist.of_atoms: coordinate outside axis";
      if axis.Axis.discrete && Float.rem c 1.0 <> 0.0 then
        invalid_arg "Dist.of_atoms: non-integer coordinate on discrete axis")
    weighted;
  let atoms =
    List.filter (fun (_, w) -> w > 0.0) weighted
    |> List.sort (fun (a, _) (b, _) -> Float.compare a b)
  in
  normalize { axis; pieces = []; atoms }

let of_pieces axis weighted =
  if weighted = [] then invalid_arg "Dist.of_pieces: empty";
  let pieces =
    List.filter_map
      (fun ((itv : Interval.t), w) ->
        if w < 0.0 then invalid_arg "Dist.of_pieces: negative weight";
        if itv.Interval.lo < axis.Axis.lo || itv.Interval.hi > axis.Axis.hi then
          invalid_arg "Dist.of_pieces: interval outside axis";
        if Interval.measure ~discrete:axis.Axis.discrete itv <= 0.0 then
          invalid_arg "Dist.of_pieces: piece of zero measure";
        if w = 0.0 then None else Some { itv; mass = w })
      weighted
    |> List.sort (fun a b -> Interval.compare_disjoint a.itv b.itv)
  in
  let rec disjoint = function
    | a :: (b :: _ as rest) ->
      (match Interval.inter a.itv b.itv with
      | Some _ -> invalid_arg "Dist.of_pieces: overlapping pieces"
      | None -> ());
      disjoint rest
    | [ _ ] | [] -> ()
  in
  disjoint pieces;
  normalize { axis; pieces; atoms = [] }

let of_blocks axis blocks =
  let n = List.length blocks in
  let pieces =
    List.mapi
      (fun i (lo, hi, w) ->
        let hi_closed = i = n - 1 && hi >= axis.Axis.hi in
        (Interval.make_exn ~hi_closed ~lo ~hi (), w))
      blocks
  in
  of_pieces axis pieces

let of_density ?(bins = 256) axis f =
  if axis.Axis.discrete && Axis.size axis <= float_of_int bins then begin
    let n = int_of_float (Axis.size axis) in
    let atoms =
      List.init n (fun i ->
          let c = axis.Axis.lo +. float_of_int i in
          (c, Float.max 0.0 (f c)))
    in
    of_atoms axis atoms
  end
  else begin
    let lo = axis.Axis.lo and hi = axis.Axis.hi in
    let width = (hi -. lo) /. float_of_int bins in
    let pieces =
      List.init bins (fun i ->
          let a = lo +. (float_of_int i *. width) in
          let b = if i = bins - 1 then hi else a +. width in
          let mid = (a +. b) /. 2.0 in
          let itv =
            Interval.make_exn ~hi_closed:(i = bins - 1) ~lo:a ~hi:b ()
          in
          (itv, Float.max 0.0 (f mid)))
    in
    (* Guard: an all-zero density (e.g. a Gauss far outside the axis)
       degenerates to uniform rather than failing normalization. *)
    let total = List.fold_left (fun acc (_, w) -> acc +. w) 0.0 pieces in
    if total <= 0.0 then uniform axis else of_pieces axis pieces
  end

let mix weighted =
  match weighted with
  | [] -> invalid_arg "Dist.mix: empty"
  | (_, first) :: _ ->
    let ax = first.axis in
    List.iter
      (fun (w, d) ->
        if w < 0.0 then invalid_arg "Dist.mix: negative weight";
        if not (Axis.equal d.axis ax) then
          invalid_arg "Dist.mix: mismatched axes")
      weighted;
    let pieces =
      List.concat_map
        (fun (w, d) ->
          List.map (fun p -> { p with mass = p.mass *. w }) d.pieces)
        weighted
    in
    let atoms =
      List.concat_map
        (fun (w, d) -> List.map (fun (c, m) -> (c, m *. w)) d.atoms)
        weighted
    in
    (* Atoms at equal coordinates merge; pieces may overlap across
       components, which is fine for probability queries but must be
       resolved for the disjointness invariant: split via interval-set
       refinement is overkill — instead keep components and rely on
       queries summing over pieces. Overlapping pieces from a mixture
       are legal here because every query (prob, sample) sums piece
       contributions independently. *)
    let atoms =
      let tbl = Hashtbl.create 16 in
      List.iter
        (fun (c, m) ->
          Hashtbl.replace tbl c (m +. Option.value ~default:0.0 (Hashtbl.find_opt tbl c)))
        atoms;
      Hashtbl.fold (fun c m acc -> (c, m) :: acc) tbl []
      |> List.sort (fun (a, _) (b, _) -> Float.compare a b)
    in
    normalize { axis = ax; pieces; atoms }

let piece_fraction ~discrete (p : piece) (itv : Interval.t) =
  match Interval.inter p.itv itv with
  | None -> 0.0
  | Some overlap ->
    let whole = Interval.measure ~discrete p.itv in
    if whole <= 0.0 then 0.0
    else Interval.measure ~discrete overlap /. whole

let prob_interval t itv =
  let discrete = t.axis.Axis.discrete in
  let from_pieces =
    List.fold_left
      (fun acc p -> acc +. (p.mass *. piece_fraction ~discrete p itv))
      0.0 t.pieces
  in
  let from_atoms =
    List.fold_left
      (fun acc (c, m) -> if Interval.mem itv c then acc +. m else acc)
      0.0 t.atoms
  in
  from_pieces +. from_atoms

let cell_probs t overlay =
  Array.map (fun (c : Overlay.cell) -> prob_interval t c.Overlay.itv)
    overlay.Overlay.cells

let mean t =
  let discrete = t.axis.Axis.discrete in
  let piece_mean (p : piece) =
    if discrete then
      (* Uniform over the integers of the piece: mean of first/last. *)
      let lo = Float.ceil p.itv.Interval.lo and hi = Float.floor p.itv.Interval.hi in
      (lo +. hi) /. 2.0
    else (p.itv.Interval.lo +. p.itv.Interval.hi) /. 2.0
  in
  List.fold_left (fun acc p -> acc +. (p.mass *. piece_mean p)) 0.0 t.pieces
  +. List.fold_left (fun acc (c, m) -> acc +. (c *. m)) 0.0 t.atoms

let cdf t x =
  if x < t.axis.Axis.lo then 0.0
  else if x >= t.axis.Axis.hi then 1.0
  else
    prob_interval t (Interval.make_exn ~lo:t.axis.Axis.lo ~hi:x ())

let quantile t q =
  if q < 0.0 || q > 1.0 then invalid_arg "Dist.quantile: q not in [0,1]";
  let lo = ref t.axis.Axis.lo and hi = ref t.axis.Axis.hi in
  (* cdf is monotone; bisect to tolerance. *)
  while !hi -. !lo > 1e-9 *. Float.max 1.0 (Float.abs !hi) do
    let mid = ( !lo +. !hi ) /. 2.0 in
    if cdf t mid >= q then hi := mid else lo := mid
  done;
  if t.axis.Axis.discrete then Float.round !hi else !hi

let sample rng t =
  let n_pieces = List.length t.pieces and n_atoms = List.length t.atoms in
  let weights = Array.make (n_pieces + n_atoms) 0.0 in
  List.iteri (fun i p -> weights.(i) <- p.mass) t.pieces;
  List.iteri (fun i (_, m) -> weights.(n_pieces + i) <- m) t.atoms;
  let k = Prng.weighted_index rng weights in
  if k < n_pieces then begin
    let p = List.nth t.pieces k in
    if t.axis.Axis.discrete then
      let lo = int_of_float (Float.ceil p.itv.Interval.lo) in
      let hi = int_of_float (Float.floor p.itv.Interval.hi) in
      float_of_int (Prng.int_in rng ~lo ~hi)
    else Prng.float_in rng ~lo:p.itv.Interval.lo ~hi:p.itv.Interval.hi
  end
  else fst (List.nth t.atoms (k - n_pieces))

let sampler t =
  (* Precompile the tables; component choice bisects the cumulative
     weights with the same uniform draw weighted_index consumes, so the
     sampled stream is bit-identical to [sample]'s. *)
  let pieces = Array.of_list t.pieces in
  let atoms = Array.of_list t.atoms in
  let n_pieces = Array.length pieces and n_atoms = Array.length atoms in
  let n = n_pieces + n_atoms in
  let weight k =
    if k < n_pieces then pieces.(k).mass else snd atoms.(k - n_pieces)
  in
  let cum = Array.make n 0.0 in
  let acc = ref 0.0 in
  for k = 0 to n - 1 do
    acc := !acc +. weight k;
    cum.(k) <- !acc
  done;
  let total = !acc in
  let discrete = t.axis.Axis.discrete in
  fun rng ->
    let target = Prng.float rng ~bound:total in
    (* Smallest k with target < cum.(k); weighted_index's scan picks the
       same k (its last bucket soaks up rounding, as does ours). *)
    let k =
      if n = 1 then 0
      else begin
        let lo = ref 0 and hi = ref (n - 1) in
        while !lo < !hi do
          let mid = (!lo + !hi) / 2 in
          if target < cum.(mid) then hi := mid else lo := mid + 1
        done;
        !lo
      end
    in
    if k < n_pieces then begin
      let p = pieces.(k) in
      if discrete then
        let lo = int_of_float (Float.ceil p.itv.Interval.lo) in
        let hi = int_of_float (Float.floor p.itv.Interval.hi) in
        float_of_int (Prng.int_in rng ~lo ~hi)
      else Prng.float_in rng ~lo:p.itv.Interval.lo ~hi:p.itv.Interval.hi
    end
    else fst atoms.(k - n_pieces)

let is_normalized t = Float.abs (total_mass t.pieces t.atoms -. 1.0) < 1e-9

let pp ppf t =
  Format.fprintf ppf "@[<hv 2>dist on %a:" Axis.pp t.axis;
  List.iter
    (fun p -> Format.fprintf ppf "@ %a:%.4f" Interval.pp p.itv p.mass)
    t.pieces;
  List.iter (fun (c, m) -> Format.fprintf ppf "@ {%g}:%.4f" c m) t.atoms;
  Format.fprintf ppf "@]"
