(* Generic event model: values, domains, schemas, events, axes. *)

module Value = Genas_model.Value
module Domain = Genas_model.Domain
module Schema = Genas_model.Schema
module Event = Genas_model.Event
module Axis = Genas_model.Axis
module Gen = Genas_testlib.Gen

(* ---------------------------- values ------------------------------ *)

let test_value_compare () =
  Alcotest.(check bool) "ints" true (Value.compare (Value.Int 1) (Value.Int 2) < 0);
  Alcotest.(check bool) "floats" true
    (Value.compare (Value.Float 1.5) (Value.Float 1.5) = 0);
  Alcotest.(check bool) "strings" true
    (Value.compare (Value.Str "a") (Value.Str "b") < 0);
  Alcotest.(check bool) "bools" true
    (Value.compare (Value.Bool false) (Value.Bool true) < 0);
  (* Cross-kind ordering is by tag and total. *)
  Alcotest.(check bool) "cross-kind antisymmetric" true
    (Value.compare (Value.Int 0) (Value.Str "x")
     = -Value.compare (Value.Str "x") (Value.Int 0))

let test_value_parse () =
  let ok = function Ok v -> v | Error e -> Alcotest.fail e in
  Alcotest.(check bool) "int" true
    (Value.equal (Value.Int (-3)) (ok (Value.of_string Value.Kint "-3")));
  Alcotest.(check bool) "float" true
    (Value.equal (Value.Float 2.5) (ok (Value.of_string Value.Kfloat "2.5")));
  Alcotest.(check bool) "bool" true
    (Value.equal (Value.Bool true) (ok (Value.of_string Value.Kbool "true")));
  Alcotest.(check bool) "bare string" true
    (Value.equal (Value.Str "abc") (ok (Value.of_string Value.Kstr "abc")));
  Alcotest.(check bool) "quoted string" true
    (Value.equal (Value.Str "a b") (ok (Value.of_string Value.Kstr "\"a b\"")));
  (match Value.of_string Value.Kint "nope" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected parse error")

let prop_value_roundtrip =
  QCheck.Test.make ~name:"to_string/of_string roundtrip" ~count:300
    (QCheck.make Gen.domain)
    (fun dom ->
      let v = QCheck.Gen.generate1 (Gen.value_in dom) in
      match Value.of_string (Value.kind v) (Value.to_string v) with
      | Ok v' -> Value.equal v v'
      | Error _ -> false)

(* ---------------------------- domains ----------------------------- *)

let test_domain_size () =
  Alcotest.(check (float 1e-9)) "int size" 11.0
    (Domain.size (Domain.int_range ~lo:0 ~hi:10));
  Alcotest.(check (float 1e-9)) "float size" 80.0
    (Domain.size (Domain.float_range ~lo:(-30.0) ~hi:50.0));
  Alcotest.(check (float 1e-9)) "enum size" 3.0
    (Domain.size (Domain.enum [ "a"; "b"; "c" ]));
  Alcotest.(check (float 1e-9)) "bool size" 2.0 (Domain.size Domain.bool_dom)

let test_domain_mem () =
  let d = Domain.int_range ~lo:0 ~hi:10 in
  Alcotest.(check bool) "in" true (Domain.mem d (Value.Int 5));
  Alcotest.(check bool) "out" false (Domain.mem d (Value.Int 11));
  Alcotest.(check bool) "wrong kind" false (Domain.mem d (Value.Str "5"));
  let f = Domain.float_range ~lo:0.0 ~hi:1.0 in
  Alcotest.(check bool) "int into float domain" true (Domain.mem f (Value.Int 1))

let test_domain_guards () =
  Alcotest.check_raises "int hi<lo" (Invalid_argument "Domain.int_range: hi < lo")
    (fun () -> ignore (Domain.int_range ~lo:1 ~hi:0));
  Alcotest.check_raises "enum dup"
    (Invalid_argument "Domain.enum: duplicate value \"a\"") (fun () ->
      ignore (Domain.enum [ "a"; "a" ]));
  Alcotest.check_raises "enum empty" (Invalid_argument "Domain.enum: empty")
    (fun () -> ignore (Domain.enum []))

let test_domain_rank_values () =
  let e = Domain.enum [ "x"; "y"; "z" ] in
  Alcotest.(check int) "rank y" 1 (Domain.rank e (Value.Str "y"));
  Alcotest.(check int) "rank absent" (-1) (Domain.rank e (Value.Str "q"));
  (match Domain.values e with
  | Some [ Value.Str "x"; Value.Str "y"; Value.Str "z" ] -> ()
  | _ -> Alcotest.fail "enum values");
  (match Domain.values (Domain.int_range ~lo:0 ~hi:500_000) with
  | None -> ()
  | Some _ -> Alcotest.fail "should refuse huge materialization")

let test_domain_of_string () =
  let check src expected =
    match Domain.of_string src with
    | Ok d ->
      if not (Domain.equal d expected) then Alcotest.failf "parsed %S wrong" src
    | Error e -> Alcotest.failf "%S: %s" src e
  in
  check "int[0,10]" (Domain.int_range ~lo:0 ~hi:10);
  check "float[-30,50]" (Domain.float_range ~lo:(-30.0) ~hi:50.0);
  check "enum{a, b, c}" (Domain.enum [ "a"; "b"; "c" ]);
  check "bool" Domain.bool_dom;
  (match Domain.of_string "int[5,1]" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected error on inverted range")

let prop_domain_pp_roundtrip =
  QCheck.Test.make ~name:"Domain pp/of_string roundtrip" ~count:200
    (QCheck.make Gen.domain)
    (fun d ->
      match Domain.of_string (Format.asprintf "%a" Domain.pp d) with
      | Ok d' -> Domain.equal d d'
      | Error _ -> false)

(* ---------------------------- schemas ----------------------------- *)

let test_schema_create () =
  let s =
    Schema.create_exn
      [ ("t", Domain.int_range ~lo:0 ~hi:9); ("h", Domain.bool_dom) ]
  in
  Alcotest.(check int) "arity" 2 (Schema.arity s);
  Alcotest.(check int) "index" 1 (Schema.find_exn s "h").Schema.index;
  Alcotest.(check bool) "mem" false (Schema.mem s "x");
  (match Schema.create [ ("t", Domain.bool_dom); ("t", Domain.bool_dom) ] with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "duplicate accepted");
  match Schema.create [] with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "empty accepted"

(* ---------------------------- events ------------------------------ *)

let schema2 () =
  Schema.create_exn
    [ ("t", Domain.int_range ~lo:0 ~hi:9); ("s", Domain.enum [ "a"; "b" ]) ]

let test_event_create () =
  let s = schema2 () in
  let e = Event.create_exn s [ ("s", Value.Str "b"); ("t", Value.Int 3) ] in
  Alcotest.(check bool) "t value" true (Value.equal (Value.Int 3) (Event.value e 0));
  Alcotest.(check bool) "by name" true
    (Value.equal (Value.Str "b")
       (Option.get (Event.value_by_name s e "s")))

let test_event_errors () =
  let s = schema2 () in
  let expect_error bindings =
    match Event.create s bindings with
    | Error _ -> ()
    | Ok _ -> Alcotest.fail "expected validation error"
  in
  expect_error [ ("t", Value.Int 3) ];  (* missing s *)
  expect_error [ ("t", Value.Int 3); ("s", Value.Str "a"); ("t", Value.Int 4) ];
  expect_error [ ("t", Value.Int 99); ("s", Value.Str "a") ];  (* out of domain *)
  expect_error [ ("t", Value.Int 3); ("s", Value.Str "zz") ];
  expect_error [ ("t", Value.Int 3); ("nope", Value.Str "a") ]

let prop_event_roundtrip =
  QCheck.Test.make ~name:"event to_alist/create roundtrip" ~count:200
    (QCheck.make QCheck.Gen.(Gen.schema () >>= fun s -> Gen.event s >|= fun e -> (s, e)))
    (fun (s, e) ->
      match Event.create s (Event.to_alist s e) with
      | Ok e' -> Event.equal e e'
      | Error _ -> false)

(* ----------------------------- axes ------------------------------- *)

let test_axis_of_domain () =
  let a = Axis.of_domain (Domain.int_range ~lo:(-3) ~hi:7) in
  Alcotest.(check bool) "discrete" true a.Axis.discrete;
  Alcotest.(check (float 1e-9)) "size" 11.0 (Axis.size a);
  let b = Axis.of_domain (Domain.enum [ "x"; "y"; "z" ]) in
  Alcotest.(check (float 1e-9)) "enum hi" 2.0 b.Axis.hi

let prop_axis_roundtrip =
  QCheck.Test.make ~name:"axis coord/value roundtrip" ~count:300
    (QCheck.make QCheck.Gen.(Gen.domain >>= fun d -> Gen.value_in d >|= fun v -> (d, v)))
    (fun (d, v) ->
      match Axis.coord d v with
      | None -> false
      | Some c -> (
        match d with
        | Genas_model.Domain.Float_range _ ->
          (* Continuous: roundtrip within numeric noise. *)
          Float.abs (c -. Axis.coord_exn d (Axis.value d c)) < 1e-9
        | Genas_model.Domain.Int_range _ | Genas_model.Domain.Enum _
        | Genas_model.Domain.Bool_dom ->
          (* Int coord of Int value roundtrips to the same value, except
             Float values in float domains (handled above). *)
          Value.equal (Axis.value d c)
            (match v with Value.Int _ | Value.Str _ | Value.Bool _ -> v | Value.Float _ -> v)))

let () =
  Alcotest.run "model"
    [
      ( "value",
        [
          Alcotest.test_case "compare" `Quick test_value_compare;
          Alcotest.test_case "parse" `Quick test_value_parse;
          QCheck_alcotest.to_alcotest prop_value_roundtrip;
        ] );
      ( "domain",
        [
          Alcotest.test_case "size" `Quick test_domain_size;
          Alcotest.test_case "mem" `Quick test_domain_mem;
          Alcotest.test_case "guards" `Quick test_domain_guards;
          Alcotest.test_case "rank/values" `Quick test_domain_rank_values;
          Alcotest.test_case "of_string" `Quick test_domain_of_string;
          QCheck_alcotest.to_alcotest prop_domain_pp_roundtrip;
        ] );
      ("schema", [ Alcotest.test_case "create" `Quick test_schema_create ]);
      ( "event",
        [
          Alcotest.test_case "create" `Quick test_event_create;
          Alcotest.test_case "validation errors" `Quick test_event_errors;
          QCheck_alcotest.to_alcotest prop_event_roundtrip;
        ] );
      ( "axis",
        [
          Alcotest.test_case "of_domain" `Quick test_axis_of_domain;
          QCheck_alcotest.to_alcotest prop_axis_roundtrip;
        ] );
    ]
