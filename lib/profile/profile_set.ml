module Schema = Genas_model.Schema

type id = int

module Id_table = Hashtbl.Make (struct
  type t = id

  let equal = Int.equal
  let hash (id : id) = id
end)

type t = {
  schema : Schema.t;
  profiles : Profile.t Id_table.t;
  mutable next_id : id;
  mutable revision : int;
}

let create schema =
  { schema; profiles = Id_table.create 64; next_id = 0; revision = 0 }

let schema t = t.schema

let add t profile =
  let id = t.next_id in
  t.next_id <- id + 1;
  t.revision <- t.revision + 1;
  Id_table.replace t.profiles id profile;
  id

let add_with_id t ~id profile =
  if id < 0 then invalid_arg "Profile_set.add_with_id: negative id";
  if Id_table.mem t.profiles id then
    invalid_arg (Printf.sprintf "Profile_set.add_with_id: id %d in use" id);
  Id_table.replace t.profiles id profile;
  if id >= t.next_id then t.next_id <- id + 1;
  t.revision <- t.revision + 1

let reserve_ids t next =
  if next > t.next_id then t.next_id <- next

let next_id t = t.next_id

let add_spec t ?name specs =
  match Profile.create ?name t.schema specs with
  | Error e -> Error e
  | Ok p -> Ok (add t p)

let remove t id =
  if Id_table.mem t.profiles id then begin
    Id_table.remove t.profiles id;
    t.revision <- t.revision + 1;
    true
  end
  else false

let find t id = Id_table.find_opt t.profiles id

let find_exn t id =
  match find t id with
  | Some p -> p
  | None -> invalid_arg (Printf.sprintf "Profile_set.find_exn: no profile %d" id)

let mem t id = Id_table.mem t.profiles id

let size t = Id_table.length t.profiles

let revision t = t.revision

let ids t =
  Id_table.fold (fun id _ acc -> id :: acc) t.profiles []
  |> List.sort Int.compare

let iter t f = List.iter (fun id -> f id (Id_table.find t.profiles id)) (ids t)

let fold t ~init ~f =
  List.fold_left
    (fun acc id -> f acc id (Id_table.find t.profiles id))
    init (ids t)

let denotations t attr_index =
  fold t ~init:[] ~f:(fun acc id p ->
      match Profile.denotation p attr_index with
      | None -> acc
      | Some iset -> (id, iset) :: acc)
  |> List.rev
