type t =
  | Int of int
  | Float of float
  | Str of string
  | Bool of bool

type kind = Kint | Kfloat | Kstr | Kbool

let kind = function
  | Int _ -> Kint
  | Float _ -> Kfloat
  | Str _ -> Kstr
  | Bool _ -> Kbool

let kind_name = function
  | Kint -> "int"
  | Kfloat -> "float"
  | Kstr -> "string"
  | Kbool -> "bool"

let tag = function Int _ -> 0 | Float _ -> 1 | Str _ -> 2 | Bool _ -> 3

let compare a b =
  match (a, b) with
  | Int x, Int y -> Stdlib.compare x y
  | Float x, Float y -> Float.compare x y
  | Str x, Str y -> String.compare x y
  | Bool x, Bool y -> Bool.compare x y
  | (Int _ | Float _ | Str _ | Bool _), _ -> Stdlib.compare (tag a) (tag b)

let equal a b = compare a b = 0

let hash = function
  | Int x -> Hashtbl.hash (0, x)
  | Float x -> Hashtbl.hash (1, x)
  | Str x -> Hashtbl.hash (2, x)
  | Bool x -> Hashtbl.hash (3, x)

(* Shortest decimal form that parses back to the same float, with a
   decimal marker so the literal stays visibly a float. *)
let float_to_string x =
  let rec try_prec p =
    if p > 17 then Printf.sprintf "%.17g" x
    else
      let s = Printf.sprintf "%.*g" p x in
      if float_of_string s = x then s else try_prec (p + 1)
  in
  let s = try_prec 12 in
  if String.exists (fun c -> c = '.' || c = 'e' || c = 'n' || c = 'i') s then s
  else s ^ "."

let to_string = function
  | Int x -> string_of_int x
  | Float x -> float_to_string x
  | Str x -> Printf.sprintf "%S" x
  | Bool x -> string_of_bool x

let pp ppf v = Format.pp_print_string ppf (to_string v)

let of_string k s =
  let s = String.trim s in
  match k with
  | Kint -> (
    match int_of_string_opt s with
    | Some x -> Ok (Int x)
    | None -> Error (Printf.sprintf "%S is not an int literal" s))
  | Kfloat -> (
    match float_of_string_opt s with
    | Some x -> Ok (Float x)
    | None -> Error (Printf.sprintf "%S is not a float literal" s))
  | Kbool -> (
    match bool_of_string_opt s with
    | Some x -> Ok (Bool x)
    | None -> Error (Printf.sprintf "%S is not a bool literal" s))
  | Kstr ->
    let n = String.length s in
    if n >= 2 && s.[0] = '"' && s.[n - 1] = '"' then
      match Scanf.unescaped (String.sub s 1 (n - 2)) with
      | u -> Ok (Str u)
      | exception Scanf.Scan_failure _ ->
        Error (Printf.sprintf "%s contains a bad escape" s)
    else Ok (Str s)
