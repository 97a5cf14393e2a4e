(* Determinism, stealing, and teardown suite for the persistent
   work-stealing domain pool, the one way to run a batch on several
   domains.

   The pool contract is positional bit-identity: whatever the domain
   count, chunk boundaries, or steal interleaving, [Pool.match_batch]
   must return exactly what a sequential loop over one cursor returns,
   and the merged Ops counters must match a single-domain run bit for
   bit. GENAS_TEST_DOMAINS forces the pool width (the CI multi-domain
   leg sets it to 2). *)

module Schema = Genas_model.Schema
module Event = Genas_model.Event
module Value = Genas_model.Value
module Domain_ = Genas_model.Domain
module Predicate = Genas_profile.Predicate
module Profile = Genas_profile.Profile
module Profile_set = Genas_profile.Profile_set
module Decomp = Genas_filter.Decomp
module Tree = Genas_filter.Tree
module Flat = Genas_filter.Flat
module Pool = Genas_filter.Pool
module Ops = Genas_filter.Ops
module Gen = Genas_testlib.Gen

let test_domains =
  match Sys.getenv_opt "GENAS_TEST_DOMAINS" with
  | Some s -> (try max 2 (int_of_string s) with _ -> 4)
  | None -> 4

(* One shared persistent pool per suite run: pools own live domains
   and the runtime caps them, so per-iteration creation is exactly the
   leak this suite exists to rule out. *)
let shared = lazy (Pool.create ~domains:test_domains ())

let flat_of pset =
  let decomp = Decomp.build pset in
  Flat.compile (Tree.build decomp (Tree.default_config decomp))

let ops_eq a b =
  a.Ops.comparisons = b.Ops.comparisons
  && a.Ops.node_visits = b.Ops.node_visits
  && a.Ops.events = b.Ops.events
  && a.Ops.matches = b.Ops.matches

let sequential flat events =
  let cur = Flat.cursor flat in
  let ops = Ops.create () in
  let r =
    Array.map (fun e -> Array.of_list (Flat.match_list ~ops flat cur e)) events
  in
  (r, ops)

(* Batch sizes crossing every partition edge case: empty, singleton,
   fewer events than domains, exact chunk multiples, and odd sizes
   straddling chunk boundaries. *)
let probe_sizes = [ 0; 1; 2; 3; 5; 7; 16; 31; 32; 33; 63; 64; 65; 100 ]

let prop_pool_equals_sequential =
  QCheck.Test.make
    ~name:"pool(dN) = sequential across batch sizes 0/1/odd-chunk" ~count:15
    (QCheck.make (Gen.scenario ~max_attrs:3 ~max_p:12 ~n_events:20 ()))
    (fun (_, pset, events) ->
      let flat = flat_of pset in
      let evs = Array.of_list events in
      QCheck.assume (Array.length evs > 0);
      let pool = Lazy.force shared in
      List.for_all
        (fun n ->
          let batch = Array.init n (fun i -> evs.(i mod Array.length evs)) in
          let expect, seq_ops = sequential flat batch in
          let got_ops = Ops.create () in
          let got = Pool.match_batch ~ops:got_ops pool flat batch in
          got = expect && ops_eq seq_ops got_ops)
        probe_sizes)

(* Skewed per-event cost: profiles concentrated on a narrow region so
   events inside it walk (and match) far more than events outside, and
   the batch sorted so all the expensive events land in the trailing
   chunks — the shape that starves a static partition and exercises
   stealing. Results must still be positionally identical. *)
let between lo hi =
  Predicate.Between
    { lo = Value.Int lo; lo_closed = true; hi = Value.Int hi; hi_closed = true }

let skewed_scenario () =
  let schema = Schema.create_exn [ ("x", Domain_.int_range ~lo:0 ~hi:999) ] in
  let pset = Profile_set.create schema in
  for i = 0 to 199 do
    let lo = 900 + (i mod 50) and width = 2 + (i mod 7) in
    Profile_set.add pset
      (Profile.create_exn schema [ ("x", between lo (min 999 (lo + width))) ])
    |> ignore
  done;
  let events =
    Array.init 512 (fun i ->
        (* First 7/8 of the batch miss the hot region entirely; the
           last chunk carries all the expensive events. *)
        let x = if i < 448 then i mod 800 else 900 + (i mod 100) in
        Event.create_exn schema [ ("x", Value.Int x) ])
  in
  (flat_of pset, events)

let test_stealing_under_skew () =
  let flat, events = skewed_scenario () in
  let pool = Lazy.force shared in
  let expect, seq_ops = sequential flat events in
  let got_ops = Ops.create () in
  let got = Pool.match_batch ~ops:got_ops pool flat events in
  Alcotest.(check bool) "skewed batch matches sequential" true (got = expect);
  Alcotest.(check bool) "skewed batch ops identical" true
    (ops_eq seq_ops got_ops);
  Alcotest.(check bool) "steal counter readable" true
    (Pool.last_steals pool >= 0)

let test_shutdown_no_leak () =
  (* Shutdown joins the workers: repeated create/shutdown cycles far
     past the runtime's live-domain cap prove nothing leaks. *)
  let flat, events = skewed_scenario () in
  let small = Array.sub events 0 32 in
  let expect, _ = sequential flat small in
  let cleanups_before = Pool.registered_cleanups () in
  for _ = 1 to 150 do
    let p = Pool.create ~domains:3 () in
    (* Workers spawn lazily: none before the first batch, all of them
       after, zero once shutdown has joined them. *)
    assert (Pool.live_workers p = 0);
    let got = Pool.match_batch p flat small in
    assert (got = expect);
    assert (Pool.live_workers p = 2);
    assert (Pool.registered_cleanups () = cleanups_before + 1);
    Pool.shutdown p;
    assert (Pool.live_workers p = 0);
    assert (Pool.registered_cleanups () = cleanups_before)
  done;
  (* Shutdown deregisters the at_exit entry, so 150 cycles leave the
     registry exactly where it started — no closure accumulation. *)
  Alcotest.(check int) "cleanup registry drained" cleanups_before
    (Pool.registered_cleanups ());
  let p = Pool.create ~domains:3 () in
  Pool.shutdown p;
  Pool.shutdown p (* idempotent *);
  Alcotest.(check int) "workers joined" 0 (Pool.live_workers p);
  try
    ignore (Pool.match_batch p flat small);
    Alcotest.fail "match_batch accepted after shutdown"
  with Invalid_argument _ -> ()

let test_single_domain_pool () =
  let flat, events = skewed_scenario () in
  let p = Pool.create ~domains:1 () in
  Alcotest.(check int) "d1 spawns nothing" 0 (Pool.live_workers p);
  let expect, _ = sequential flat events in
  Alcotest.(check bool) "d1 matches sequential" true
    (Pool.match_batch p flat events = expect);
  Pool.shutdown p;
  try
    ignore (Pool.create ~domains:0 ());
    Alcotest.fail "domains:0 accepted"
  with Invalid_argument _ -> ()

let () =
  let qt = QCheck_alcotest.to_alcotest in
  Alcotest.run "pool"
    [
      ("determinism", [ qt prop_pool_equals_sequential ]);
      ( "runtime",
        [
          Alcotest.test_case "stealing under skewed cost" `Quick
            test_stealing_under_skew;
          Alcotest.test_case "shutdown joins workers (no leak)" `Quick
            test_shutdown_no_leak;
          Alcotest.test_case "single-domain pool" `Quick
            test_single_domain_pool;
        ] );
    ]
