(* Crash-recovery differential suite (the `make recovercheck` payload).

   One scripted workload runs twice: once on a plain broker (the
   reference), once on a journaled broker that dies at a seeded crash
   point. The dead broker is recovered from its journal directory, the
   remaining script is replayed from the first non-durable operation,
   and the two final states must agree exactly: published /
   notification counters, matcher operation counts, the full supervisor
   export (including circuit states and jitter-stream position), the
   dead-letter queue entry by entry, and the matching decisions on a
   probe batch published after recovery.

   Handlers fail deterministically (on the event's value), never
   probabilistically: the recovered process re-binds the same handlers
   and must reproduce the same outcomes without sharing a fault
   stream. *)

module Value = Genas_model.Value
module Domain = Genas_model.Domain
module Schema = Genas_model.Schema
module Event = Genas_model.Event
module Ops = Genas_filter.Ops
module Profile = Genas_profile.Profile
module Lang = Genas_profile.Lang
module Adaptive = Genas_core.Adaptive
module Broker = Genas_ens.Broker
module Journal = Genas_ens.Journal
module Snapshot = Genas_ens.Snapshot
module Engine = Genas_core.Engine
module Fault = Genas_ens.Fault
module Supervise = Genas_ens.Supervise
module Deadletter = Genas_ens.Deadletter
module Composite = Genas_ens.Composite
module Notification = Genas_ens.Notification

let schema () =
  Schema.create_exn
    [ ("x", Domain.int_range ~lo:0 ~hi:9); ("k", Domain.enum [ "a"; "b" ]) ]

let profile_of s src = Result.get_ok (Lang.parse_profile s src)

(* Event [i] is a pure function of its index, so a resumed script
   regenerates exactly the traffic the dead process would have seen. *)
let ev s i =
  Event.create_exn
    ~time:(10.0 *. float_of_int i)
    s
    [
      ("x", Value.Int (((i * 7) + 3) mod 10));
      ("k", Value.Str (if i mod 3 = 0 then "a" else "b"));
    ]

(* "flaky" raises on x = 7, everyone else accepts. *)
let handler_for subscriber =
  if String.equal subscriber "flaky" then fun (n : Notification.t) ->
    match n.Notification.event.Event.values.(0) with
    | Value.Int 7 -> failwith "flaky: refusing x = 7"
    | _ -> ()
  else fun (_ : Notification.t) -> ()

type op =
  | Sub of string * string
  | SubC of string * (Schema.t -> Composite.expr)
  | Unsub of string
  | Pub of int
  | Batch of int list

(* Every script op journals exactly one operation, so the number of
   durably logged ops is the resume index. *)
let apply s b = function
  | Sub (who, src) ->
    ignore
      (Result.get_ok
         (Broker.subscribe_text b ~subscriber:who src (handler_for who)))
  | SubC (who, mk) ->
    ignore
      (Result.get_ok
         (Broker.subscribe_composite b ~subscriber:who (mk s) (handler_for who)))
  | Unsub who -> (
    match
      List.find_opt (fun (_, name) -> String.equal name who)
        (Broker.subscriptions b)
    with
    | Some (id, _) -> ignore (Broker.unsubscribe b id)
    | None -> Alcotest.fail ("no subscription to remove: " ^ who))
  | Pub i -> ignore (Broker.publish b (ev s i))
  | Batch is ->
    ignore (Broker.publish_batch b (Array.of_list (List.map (ev s) is)))

let run_script s b script ~from =
  let n = Array.length script in
  let rec go i =
    if i >= n then `Done
    else
      match apply s b script.(i) with
      | () -> go (i + 1)
      | exception Fault.Crashed _ -> `Crashed i
  in
  go from

(* Primitive-only script: crosses several snapshot boundaries. *)
let script_a =
  Array.of_list
    ([ Sub ("ops", "k = a"); Sub ("flaky", "x >= 5") ]
    @ List.init 15 (fun i -> Pub i)
    @ [ Sub ("late", "x <= 3") ]
    @ List.init 5 (fun i -> Pub (15 + i))
    @ [ Batch [ 20; 21; 22; 23 ]; Unsub "late" ]
    @ List.init 10 (fun i -> Pub (24 + i)))

(* Composite script: run with a huge snapshot cadence (pure journal
   replay), because composite detector state spanning a snapshot
   boundary is not captured — the documented durability caveat. *)
let script_b =
  Array.of_list
    ([
       Sub ("ops", "k = a");
       SubC
         ( "watch",
           fun s ->
             Composite.Seq
               ( Composite.Prim (profile_of s "x >= 8"),
                 Composite.Prim (profile_of s "k = b"),
                 15.0 ) );
       Sub ("flaky", "x >= 5");
     ]
    @ List.init 25 (fun i -> Pub i))

(* Plain-engine churn script: subscribes and unsubscribes land between
   snapshots, so a crash inside a window of pending (not yet compiled)
   churn must recover to the same fold points — the rent that drives a
   fold advances on replay exactly as on the live match path. *)
let script_c =
  Array.of_list
    ([ Sub ("ops", "k = a"); Sub ("flaky", "x >= 5"); Pub 0; Pub 1 ]
    @ [ Sub ("late", "x <= 3"); Pub 2; Pub 3; Pub 4; Unsub "late" ]
    @ [ Pub 5; Pub 6; Sub ("mid", "x = 4"); Pub 7; Unsub "flaky" ]
    @ [ Pub 8; Pub 9; Batch [ 10; 11; 12 ]; Pub 13; Pub 14; Pub 15 ]
    @ [ Sub ("late", "x <= 3"); Pub 16; Sub ("flaky", "x >= 5") ]
    @ [ Pub 17; Unsub "late"; Pub 18; Pub 19; Unsub "mid"; Unsub "ops" ]
    @ List.init 6 (fun i -> Pub (20 + i))
    @ [ Sub ("ops", "k = a"); Batch [ 26; 27 ]; Pub 28; Unsub "ops" ]
    @ List.init 4 (fun i -> Pub (29 + i)))

(* A pending window far longer than the snapshot cadence: snapshots
   land inside it and must record the churn rather than fold it, and a
   crash mid-snapshot must recover to the same fold points. *)
let script_d =
  Array.of_list
    ([ Sub ("ops", "k = a"); Sub ("flaky", "x >= 5"); Pub 0; Pub 1 ]
    @ [ Sub ("late", "x <= 3") ]
    @ List.init 10 (fun i -> Pub (2 + i))
    @ [ Unsub "flaky" ]
    @ List.init 10 (fun i -> Pub (12 + i))
    @ [ Batch [ 22; 23; 24 ]; Unsub "late" ]
    @ List.init 4 (fun i -> Pub (25 + i)))

let retry () =
  Supervise.retry_policy ~max_attempts:2 ~jitter_seed:1 ~trip_after:3
    ~cooldown:4 ()

let adaptive = { Adaptive.warmup = 10; check_every = 8; drift_threshold = 0.2 }

let circuit_name = function
  | Supervise.Closed -> "closed"
  | Supervise.Open -> "open"
  | Supervise.Half_open -> "half-open"

let fingerprint s b =
  let buf = Buffer.create 512 in
  Printf.bprintf buf "published=%d notifications=%d rebuilds=%d subs=%d\n"
    (Broker.published b) (Broker.notifications b) (Broker.rebuilds b)
    (Broker.subscription_count b);
  let o = Broker.ops b in
  Printf.bprintf buf "ops: ev=%d cmp=%d visits=%d matches=%d\n" o.Ops.events
    o.Ops.comparisons o.Ops.node_visits o.Ops.matches;
  let e = Supervise.export (Broker.supervisor b) in
  Printf.bprintf buf
    "sup: deliveries=%d delivered=%d failures=%d retries=%d dead=%d short=%d \
     trips=%d jitter=%d\n"
    e.Supervise.Export.deliveries e.Supervise.Export.delivered
    e.Supervise.Export.failures e.Supervise.Export.retries
    e.Supervise.Export.deadlettered e.Supervise.Export.short_circuited
    e.Supervise.Export.trips e.Supervise.Export.jitter_draws;
  List.iter
    (fun (who, state, count) ->
      Printf.bprintf buf "circuit %s: %s/%d\n" who (circuit_name state) count)
    e.Supervise.Export.circuits;
  let dlq = Broker.deadletter b in
  Printf.bprintf buf "dlq: total=%d dropped=%d\n" (Deadletter.total dlq)
    (Deadletter.dropped dlq);
  List.iter
    (fun (entry : Deadletter.entry) ->
      Printf.bprintf buf "  #%d %s after %d: %s on %s\n" entry.Deadletter.seq
        entry.Deadletter.notification.Notification.subscriber
        entry.Deadletter.attempts entry.Deadletter.error
        (Format.asprintf "%a" (Event.pp s) entry.Deadletter.notification.Notification.event))
    (Deadletter.entries dlq);
  Buffer.contents buf

(* Matching decisions after recovery: publish a fresh probe batch to
   both brokers and compare the per-event notification counts. *)
let probe s b = List.init 8 (fun i -> Broker.publish b (ev s (100 + i)))

let fresh_dir () =
  let path = Filename.temp_file "genas_recover" ".d" in
  Sys.remove path;
  path

let run_case ?(expect_pending = false) ?(expect_snapshot_churn = false)
    ~script ~snapshot_every ~spec ~seed ~expect_crash () =
  let s = schema () in
  let reference = Broker.create ~retry:(retry ()) ~adaptive s in
  (match run_script s reference script ~from:0 with
  | `Done -> ()
  | `Crashed _ -> Alcotest.fail "reference run must not crash");
  let dir = fresh_dir () in
  let faults = Fault.plan ~seed spec in
  let b =
    Broker.create ~retry:(retry ()) ~adaptive ~faults
      ~journal:(Journal.config ~snapshot_every dir)
      s
  in
  let outcome = run_script s b script ~from:0 in
  (match outcome with `Done -> Broker.close b | `Crashed _ -> ());
  if expect_pending then
    Alcotest.(check bool) "crashed with churn pending" true
      (Engine.pending_rebuild (Broker.engine b) > 0);
  if expect_snapshot_churn then begin
    let cfg = Journal.config ~snapshot_every dir in
    match Snapshot.read ~dir ~seed:cfg.Journal.seed s with
    | Ok (Some snap) ->
      let c = snap.Snapshot.churn in
      Alcotest.(check bool) "snapshot records pending churn" true
        (c.Engine.delta <> [] || c.Engine.dead <> [])
    | Ok None -> Alcotest.fail "no snapshot written"
    | Error e -> Alcotest.fail ("snapshot: " ^ e)
  end;
  Alcotest.(check bool)
    (Printf.sprintf "crash fired as scheduled (seed %d)" seed)
    expect_crash (Fault.crashed faults);
  match
    Broker.recover ~retry:(retry ()) ~adaptive
      ~handlers:(fun ~subscriber -> handler_for subscriber)
      ~journal:(Journal.config ~snapshot_every dir)
      s
  with
  | Error e -> Alcotest.fail ("recover: " ^ e)
  | Ok recovered ->
    let resume_from =
      Journal.ops_logged (Option.get (Broker.wal recovered))
    in
    (match outcome with
    | `Crashed i ->
      Alcotest.(check bool) "durable prefix ends at or before the crash" true
        (resume_from <= i + 1)
    | `Done ->
      Alcotest.(check int) "clean shutdown lost nothing"
        (Array.length script) resume_from);
    (match run_script s recovered script ~from:resume_from with
    | `Done -> ()
    | `Crashed _ -> Alcotest.fail "resumed run must not crash");
    Alcotest.(check string) "final state identical to the no-crash run"
      (fingerprint s reference) (fingerprint s recovered);
    Alcotest.(check (list int)) "probe matching identical"
      (probe s reference) (probe s recovered);
    Broker.close recovered

let before_fsync p = { Fault.none with Fault.crash_before_fsync = p }

let after_journal p = { Fault.none with Fault.crash_after_journal = p }

let mid_snapshot p = { Fault.none with Fault.crash_mid_snapshot = p }

(* Fault seeds whose crash lands inside a pending window of script_c;
   each case asserts that it does. *)
let pending_seeds_before_fsync = [ 4; 5; 6; 8; 11; 14 ]

let pending_seeds_after_journal = [ 16; 18; 21; 23; 24; 26 ]

let cases =
  let a ~name ~spec ~seed ~expect_crash =
    Alcotest.test_case (Printf.sprintf "%s seed %d" name seed) `Quick
      (run_case ~script:script_a ~snapshot_every:8 ~spec ~seed ~expect_crash)
  and c ~name ~spec ~seed ~expect_crash =
    Alcotest.test_case (Printf.sprintf "pending churn %s seed %d" name seed)
      `Quick
      (run_case ~expect_pending:expect_crash ~script:script_c
         ~snapshot_every:8 ~spec ~seed ~expect_crash)
  and d ~name ~spec ~seed ~expect_crash =
    Alcotest.test_case
      (Printf.sprintf "long pending window %s seed %d" name seed)
      `Quick
      (run_case ~expect_pending:expect_crash ~expect_snapshot_churn:true
         ~script:script_d ~snapshot_every:8 ~spec ~seed ~expect_crash)
  and b ~name ~spec ~seed ~expect_crash =
    Alcotest.test_case (Printf.sprintf "composite %s seed %d" name seed) `Quick
      (run_case ~script:script_b ~snapshot_every:10_000 ~spec ~seed
         ~expect_crash)
  in
  [
    a ~name:"before-fsync" ~spec:(before_fsync 0.08) ~seed:3 ~expect_crash:true;
    a ~name:"before-fsync" ~spec:(before_fsync 0.08) ~seed:11 ~expect_crash:true;
    a ~name:"before-fsync" ~spec:(before_fsync 0.08) ~seed:29 ~expect_crash:true;
    a ~name:"after-journal" ~spec:(after_journal 0.08) ~seed:3 ~expect_crash:true;
    a ~name:"after-journal" ~spec:(after_journal 0.08) ~seed:11
      ~expect_crash:true;
    a ~name:"after-journal" ~spec:(after_journal 0.08) ~seed:29
      ~expect_crash:true;
    a ~name:"mid-snapshot" ~spec:(mid_snapshot 1.0) ~seed:3 ~expect_crash:true;
    a ~name:"mid-snapshot" ~spec:(mid_snapshot 0.5) ~seed:11 ~expect_crash:true;
    (* A plan whose crash never fires doubles as the clean-shutdown
       differential: recovery of a completed journal is also exact. *)
    a ~name:"clean shutdown" ~spec:(before_fsync 0.0) ~seed:3
      ~expect_crash:false;
    b ~name:"before-fsync" ~spec:(before_fsync 0.08) ~seed:3 ~expect_crash:true;
    b ~name:"before-fsync" ~spec:(before_fsync 0.08) ~seed:11
      ~expect_crash:true;
    b ~name:"after-journal" ~spec:(after_journal 0.08) ~seed:3
      ~expect_crash:true;
    b ~name:"after-journal" ~spec:(after_journal 0.08) ~seed:11
      ~expect_crash:true;
  ]
  @ [ c ~name:"clean shutdown" ~spec:(before_fsync 0.0) ~seed:3 ~expect_crash:false ]
  @ List.map
      (fun seed ->
        c ~name:"before-fsync" ~spec:(before_fsync 0.08) ~seed ~expect_crash:true)
      pending_seeds_before_fsync
  @ List.map
      (fun seed ->
        c ~name:"after-journal" ~spec:(after_journal 0.08) ~seed
          ~expect_crash:true)
      pending_seeds_after_journal
  @ [
      d ~name:"clean shutdown" ~spec:(before_fsync 0.0) ~seed:3
        ~expect_crash:false;
      (* Seeds whose crash hits a later snapshot: recovery starts from
         an earlier one that recorded pending churn. *)
      d ~name:"mid-snapshot" ~spec:(mid_snapshot 0.5) ~seed:2
        ~expect_crash:true;
      d ~name:"mid-snapshot" ~spec:(mid_snapshot 0.5) ~seed:3
        ~expect_crash:true;
    ]

let () = Alcotest.run "recover" [ ("differential", cases) ]
