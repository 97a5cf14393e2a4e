type t = {
  slots : int array;
  coords : Float.Array.t;
  domains : Domain.t array;
  lo : Float.Array.t;  (** axis low end of a tabled attribute, else nan *)
}

let max_table = 1 lsl 16

(* Discrete axes have bounds within ±2^53 ([Domain.exact_bound]), so
   [lo + s] and the axis size are exact. *)
let table_size (axis : Axis.t) =
  let n = Axis.size axis in
  if axis.Axis.discrete && n <= float_of_int max_table then
    Some (int_of_float n)
  else None

let create schema =
  let domains = Array.map (fun a -> a.Schema.domain) (Schema.attributes schema) in
  let lo dom =
    let axis = Axis.of_domain dom in
    if table_size axis = None then Float.nan else axis.Axis.lo
  in
  let n = Array.length domains in
  { slots = Array.make n (-1); coords = Float.Array.make n Float.nan; domains;
    lo = Float.Array.map_from_array lo domains }

let resolve t (event : Event.t) =
  let values = event.Event.values in
  if Array.length values < Array.length t.slots then
    invalid_arg "Image.resolve: event has fewer values than the schema";
  for i = 0 to Array.length t.slots - 1 do
    let dom = Array.unsafe_get t.domains i and v = Array.unsafe_get values i in
    let lo = Float.Array.unsafe_get t.lo i in
    if Float.is_nan lo then Axis.coord_into dom v t.coords i
    else begin
      let r = Domain.rank dom v in
      Array.unsafe_set t.slots i r;
      Float.Array.unsafe_set t.coords i
        (if r < 0 then Float.nan else lo +. float_of_int r)
    end
  done

let slots t = t.slots

let coords t = t.coords
