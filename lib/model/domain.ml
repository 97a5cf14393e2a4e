type t =
  | Int_range of { lo : int; hi : int }
  | Float_range of { lo : float; hi : float }
  | Enum of string array
  | Bool_dom

let exact_bound = 1 lsl 53

let int_range ~lo ~hi =
  if hi < lo then invalid_arg "Domain.int_range: hi < lo";
  if not (-exact_bound < lo && hi < exact_bound) then
    invalid_arg "Domain.int_range: bounds outside (-2^53, 2^53)";
  Int_range { lo; hi }

let float_range ~lo ~hi =
  if not (Float.is_finite lo && Float.is_finite hi) then
    invalid_arg "Domain.float_range: bounds must be finite";
  if hi < lo then invalid_arg "Domain.float_range: hi < lo";
  Float_range { lo; hi }

let enum names =
  if names = [] then invalid_arg "Domain.enum: empty";
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun n ->
      if Hashtbl.mem tbl n then
        invalid_arg (Printf.sprintf "Domain.enum: duplicate value %S" n);
      Hashtbl.add tbl n ())
    names;
  Enum (Array.of_list names)

let bool_dom = Bool_dom

let size = function
  | Int_range { lo; hi } -> float_of_int (hi - lo + 1)
  | Float_range { lo; hi } -> hi -. lo
  | Enum vs -> float_of_int (Array.length vs)
  | Bool_dom -> 2.0

let kind = function
  | Int_range _ -> Value.Kint
  | Float_range _ -> Value.Kfloat
  | Enum _ -> Value.Kstr
  | Bool_dom -> Value.Kbool

let mem t v =
  match (t, v) with
  | Int_range { lo; hi }, Value.Int x -> lo <= x && x <= hi
  | Float_range { lo; hi }, Value.Float x -> lo <= x && x <= hi
  | Float_range { lo; hi }, Value.Int x ->
    let x = float_of_int x in
    lo <= x && x <= hi
  | Enum vs, Value.Str s -> Array.exists (String.equal s) vs
  | Bool_dom, Value.Bool _ -> true
  | (Int_range _ | Float_range _ | Enum _ | Bool_dom), _ -> false

let materialize_limit = 100_000

let values = function
  | Int_range { lo; hi } ->
    if hi - lo + 1 > materialize_limit then None
    else Some (List.init (hi - lo + 1) (fun i -> Value.Int (lo + i)))
  | Enum vs -> Some (Array.to_list (Array.map (fun s -> Value.Str s) vs))
  | Bool_dom -> Some [ Value.Bool false; Value.Bool true ]
  | Float_range _ -> None

let rec find_rank vs s i =
  if i = Array.length vs then -1
  else if String.equal vs.(i) s then i
  else find_rank vs s (i + 1)

let rank t v =
  match (t, v) with
  | Int_range { lo; hi }, Value.Int x when lo <= x && x <= hi -> x - lo
  | Enum vs, Value.Str s -> find_rank vs s 0
  | Bool_dom, Value.Bool b -> if b then 1 else 0
  | (Int_range _ | Float_range _ | Enum _ | Bool_dom), _ -> -1

let bounds = function
  | Int_range { lo; hi } -> Some (float_of_int lo, float_of_int hi)
  | Float_range { lo; hi } -> Some (lo, hi)
  | Enum _ | Bool_dom -> None

let equal a b =
  match (a, b) with
  | Int_range x, Int_range y -> x.lo = y.lo && x.hi = y.hi
  | Float_range x, Float_range y -> x.lo = y.lo && x.hi = y.hi
  | Enum x, Enum y -> Array.length x = Array.length y && Array.for_all2 String.equal x y
  | Bool_dom, Bool_dom -> true
  | (Int_range _ | Float_range _ | Enum _ | Bool_dom), _ -> false

let of_string s =
  let s = String.trim s in
  let fail () = Error (Printf.sprintf "cannot parse domain %S" s) in
  let bracketed prefix =
    let pl = String.length prefix and n = String.length s in
    if n > pl + 2 && String.sub s 0 pl = prefix && s.[pl] = '[' && s.[n - 1] = ']'
    then Some (String.sub s (pl + 1) (n - pl - 2))
    else None
  in
  if s = "bool" then Ok Bool_dom
  else
    match bracketed "int" with
    | Some body -> (
      match String.split_on_char ',' body with
      | [ lo; hi ] -> (
        match (int_of_string_opt (String.trim lo), int_of_string_opt (String.trim hi)) with
        | Some lo, Some hi -> (
          match int_range ~lo ~hi with
          | d -> Ok d
          | exception Invalid_argument msg -> Error msg)
        | _ -> fail ())
      | _ -> fail ())
    | None -> (
      match bracketed "float" with
      | Some body -> (
        match String.split_on_char ',' body with
        | [ lo; hi ] -> (
          match
            (float_of_string_opt (String.trim lo), float_of_string_opt (String.trim hi))
          with
          | Some lo, Some hi when lo <= hi && Float.is_finite lo && Float.is_finite hi
            ->
            Ok (float_range ~lo ~hi)
          | _ -> fail ())
        | _ -> fail ())
      | None ->
        let n = String.length s in
        if n > 6 && String.sub s 0 5 = "enum{" && s.[n - 1] = '}' then begin
          let body = String.sub s 5 (n - 6) in
          let names =
            List.filter (fun x -> x <> "")
              (List.map String.trim (String.split_on_char ',' body))
          in
          if names = [] then fail ()
          else
            match enum names with
            | d -> Ok d
            | exception Invalid_argument msg -> Error msg
        end
        else fail ())

let pp ppf = function
  | Int_range { lo; hi } -> Format.fprintf ppf "int[%d,%d]" lo hi
  | Float_range { lo; hi } ->
    Format.fprintf ppf "float[%s,%s]" (Value.float_to_string lo)
      (Value.float_to_string hi)
  | Enum vs ->
    Format.fprintf ppf "enum{%a}"
      (Format.pp_print_list
         ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ",")
         Format.pp_print_string)
      (Array.to_list vs)
  | Bool_dom -> Format.pp_print_string ppf "bool"
