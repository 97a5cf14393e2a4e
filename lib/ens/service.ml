module Domain = Genas_model.Domain
module Schema = Genas_model.Schema
module Lang = Genas_profile.Lang
module Ops = Genas_filter.Ops

type t = {
  schemas : (string, Schema.t) Hashtbl.t;
  brokers : (string, string * Broker.t) Hashtbl.t;  (** name → (schema, broker) *)
}

let create () = { schemas = Hashtbl.create 8; brokers = Hashtbl.create 8 }

let define_schema t ~name specs =
  if Hashtbl.mem t.schemas name then
    Error (Printf.sprintf "schema %S already defined" name)
  else
    match Schema.create specs with
    | Error e -> Error e
    | Ok schema ->
      Hashtbl.replace t.schemas name schema;
      Ok ()

let ( let* ) = Result.bind

let define_schema_text t ~name lines =
  let* specs =
    List.fold_left
      (fun acc line ->
        let* acc = acc in
        match String.index_opt line ':' with
        | None -> Error (Printf.sprintf "missing ':' in %S" line)
        | Some i ->
          let attr = String.trim (String.sub line 0 i) in
          let dom_src =
            String.trim (String.sub line (i + 1) (String.length line - i - 1))
          in
          let* dom = Domain.of_string dom_src in
          Ok ((attr, dom) :: acc))
      (Ok []) lines
  in
  define_schema t ~name (List.rev specs)

let find_schema t name = Hashtbl.find_opt t.schemas name

let schemas t =
  Hashtbl.fold (fun k _ acc -> k :: acc) t.schemas [] |> List.sort String.compare

let create_broker t ~name ~schema ?spec ?adaptive () =
  if Hashtbl.mem t.brokers name then
    Error (Printf.sprintf "broker %S already defined" name)
  else
    match find_schema t schema with
    | None -> Error (Printf.sprintf "unknown schema %S" schema)
    | Some s ->
      Hashtbl.replace t.brokers name (schema, Broker.create ?spec ?adaptive s);
      Ok ()

let find_broker t name = Option.map snd (Hashtbl.find_opt t.brokers name)

let brokers t =
  Hashtbl.fold (fun k _ acc -> k :: acc) t.brokers [] |> List.sort String.compare

let with_broker t name f =
  match Hashtbl.find_opt t.brokers name with
  | None -> Error (Printf.sprintf "unknown broker %S" name)
  | Some (_, b) -> f b

let subscribe t ~broker ~subscriber src handler =
  with_broker t broker (fun b -> Broker.subscribe_text b ~subscriber src handler)

let publish t ~broker src =
  with_broker t broker (fun b ->
      let* event = Lang.parse_event (Broker.schema b) src in
      Ok (Broker.publish b event))

let report t ~broker =
  with_broker t broker (fun b ->
      let ops = Broker.ops b in
      Ok
        (Printf.sprintf
           "%d subscription(s), %d event(s) filtered, %.2f comparisons/event, \
            %d notification(s), %d adaptive rebuild(s)"
           (Broker.subscription_count b)
           (Broker.published b)
           (Ops.per_event ops)
           (Broker.notifications b)
           (Broker.rebuilds b)))
