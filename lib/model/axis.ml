type t = { discrete : bool; lo : float; hi : float }

let make ~discrete ~lo ~hi =
  if not (Float.is_finite lo && Float.is_finite hi) then
    invalid_arg "Axis.make: bounds must be finite";
  if hi < lo then invalid_arg "Axis.make: hi < lo";
  if discrete && (Float.rem lo 1.0 <> 0.0 || Float.rem hi 1.0 <> 0.0) then
    invalid_arg "Axis.make: discrete axis needs integer bounds";
  let exact = float_of_int Domain.exact_bound in
  if discrete && not (-.exact < lo && hi < exact) then
    invalid_arg "Axis.make: discrete bounds outside (-2^53, 2^53)";
  { discrete; lo; hi }

let of_domain = function
  | Domain.Int_range { lo; hi } ->
    { discrete = true; lo = float_of_int lo; hi = float_of_int hi }
  | Domain.Float_range { lo; hi } -> { discrete = false; lo; hi }
  | Domain.Enum vs ->
    { discrete = true; lo = 0.0; hi = float_of_int (Array.length vs - 1) }
  | Domain.Bool_dom -> { discrete = true; lo = 0.0; hi = 1.0 }

(* Inlined, so [coord_into] stores an unboxed float: allocation-free. *)
let[@inline] coord_nan dom v =
  match (dom, v) with
  | Domain.Int_range { lo; hi }, Value.Int x ->
    if lo <= x && x <= hi then float_of_int x else Float.nan
  | Domain.Float_range { lo; hi }, Value.Float x ->
    if lo <= x && x <= hi then x else Float.nan
  | Domain.Float_range { lo; hi }, Value.Int x ->
    let x = float_of_int x in
    if lo <= x && x <= hi then x else Float.nan
  | (Domain.Enum _ | Domain.Bool_dom), _ ->
    let r = Domain.rank dom v in
    if r < 0 then Float.nan else float_of_int r
  | (Domain.Int_range _ | Domain.Float_range _), _ -> Float.nan

let coord_into dom v dst i = Float.Array.unsafe_set dst i (coord_nan dom v)

(* Not inlined here: a float value's coordinate keeps its own box. *)
let coord dom v =
  let c = (coord_nan [@inlined never]) dom v in
  if Float.is_nan c then None else Some c

let coord_exn dom v =
  match coord dom v with
  | Some c -> c
  | None ->
    invalid_arg
      (Printf.sprintf "Axis.coord_exn: %s not in domain" (Value.to_string v))

let value dom c =
  match dom with
  | Domain.Int_range { lo; hi } ->
    let x = int_of_float (Float.round c) in
    Value.Int (max lo (min hi x))
  | Domain.Float_range { lo; hi } -> Value.Float (Float.max lo (Float.min hi c))
  | Domain.Enum vs ->
    let r = int_of_float (Float.round c) in
    if r < 0 || r >= Array.length vs then
      invalid_arg (Printf.sprintf "Axis.value: rank %d out of range" r);
    Value.Str vs.(r)
  | Domain.Bool_dom -> Value.Bool (Float.round c >= 0.5)

let size t = if t.discrete then t.hi -. t.lo +. 1.0 else t.hi -. t.lo

let equal a b = a.discrete = b.discrete && a.lo = b.lo && a.hi = b.hi

let pp ppf t =
  Format.fprintf ppf "%s[%g,%g]"
    (if t.discrete then "discrete" else "continuous")
    t.lo t.hi
