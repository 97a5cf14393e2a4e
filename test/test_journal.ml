(* The write-ahead journal: framing and checksum detection, torn-tail
   truncation, snapshot cadence, and dead-letter replay through the
   supervised delivery path. *)

module Value = Genas_model.Value
module Domain = Genas_model.Domain
module Schema = Genas_model.Schema
module Event = Genas_model.Event
module Profile = Genas_profile.Profile
module Predicate = Genas_profile.Predicate
module Broker = Genas_ens.Broker
module Journal = Genas_ens.Journal
module Codec = Genas_ens.Codec
module Deadletter = Genas_ens.Deadletter
module Supervise = Genas_ens.Supervise
module Notification = Genas_ens.Notification

let schema () =
  Schema.create_exn
    [ ("x", Domain.int_range ~lo:0 ~hi:9); ("k", Domain.enum [ "a"; "b" ]) ]

let event ?(time = 0.0) s x k =
  Event.create_exn ~time s [ ("x", Value.Int x); ("k", Value.Str k) ]

let fresh_dir () =
  let path = Filename.temp_file "genas_journal" ".d" in
  Sys.remove path;
  path

(* --- frames --------------------------------------------------------- *)

let test_frame_roundtrip () =
  let seed = 0x1234 in
  let payloads = [ "alpha"; ""; "a longer payload with \x00 bytes \xff" ] in
  let buf = String.concat "" (List.map (Codec.frame ~seed) payloads) in
  let decoded, valid_end, corrupt = Codec.parse_frames ~seed buf ~pos:0 in
  Alcotest.(check (list string)) "payloads" payloads decoded;
  Alcotest.(check int) "consumed everything" (String.length buf) valid_end;
  Alcotest.(check bool) "no corruption" false corrupt

let test_frame_torn_tail () =
  let seed = 0x1234 in
  let whole = Codec.frame ~seed "first" ^ Codec.frame ~seed "second" in
  (* Tear the last frame: any strict prefix of it must be rejected
     while the first frame still decodes. *)
  let first_len = String.length (Codec.frame ~seed "first") in
  for cut = first_len to String.length whole - 1 do
    let torn = String.sub whole 0 cut in
    let decoded, valid_end, corrupt = Codec.parse_frames ~seed torn ~pos:0 in
    let expect_corrupt = cut > first_len in
    Alcotest.(check (list string)) "only the first frame" [ "first" ] decoded;
    Alcotest.(check int) "valid end at the first frame" first_len valid_end;
    Alcotest.(check bool) "tail flagged iff bytes remain" expect_corrupt corrupt
  done

let test_frame_bitflip () =
  let seed = 0x1234 in
  let buf = Bytes.of_string (Codec.frame ~seed "payload") in
  (* Flip one payload bit: the checksum must catch it. *)
  let i = Codec.frame_header_len + 2 in
  Bytes.set buf i (Char.chr (Char.code (Bytes.get buf i) lxor 1));
  let decoded, valid_end, corrupt =
    Codec.parse_frames ~seed (Bytes.to_string buf) ~pos:0
  in
  Alcotest.(check (list string)) "nothing decodes" [] decoded;
  Alcotest.(check int) "no valid bytes" 0 valid_end;
  Alcotest.(check bool) "corruption flagged" true corrupt;
  (* The unflipped frame fails under a different checksum seed too. *)
  let decoded, _, corrupt =
    Codec.parse_frames ~seed:(seed + 1) (Codec.frame ~seed "payload") ~pos:0
  in
  Alcotest.(check (list string)) "wrong seed decodes nothing" [] decoded;
  Alcotest.(check bool) "wrong seed flags corruption" true corrupt

(* --- checksum --------------------------------------------------------- *)

(* Values pinned from the original [String.iter] implementation: the
   checksum is part of the on-disk format, so any rewrite must compute
   the same function. The empty string yields the seeded offset basis;
   "a" and "foobar" under seed 0 are the published FNV-1a 64 vectors. *)
let checksum_answers =
  [
    (0, "", 0xcbf29ce484222325L);
    (0x6a6c5eed, "", 0xcbf29ce4ee4e7dc8L);
    (0, "a", 0xaf63dc4c8601ec8cL);
    (0, "foobar", 0x85944171f73967e8L);
    (0x6a6c5eed, "hello, world", 0x27d37d6bb7181a68L);
    (7, "The quick brown fox jumps over the lazy dog", 0x0c8f6cffb25b6be5L);
  ]

let random_bytes ~seed n =
  let g = Genas_prng.Prng.create ~seed in
  String.init n (fun _ -> Char.chr (Genas_prng.Prng.int g ~bound:256))

let test_checksum_known_answers () =
  List.iter
    (fun (seed, s, want) ->
      Alcotest.(check int64) (Printf.sprintf "seed %d %S" seed s) want
        (Codec.checksum ~seed s))
    checksum_answers;
  Alcotest.(check int64) "1 MiB pseudo-random" 0x1e7b5a6718612ec1L
    (Codec.checksum ~seed:0x6a6c5eed (random_bytes ~seed:42 (1 lsl 20)))

let prop_checksum_incremental =
  QCheck.Test.make ~name:"incremental checksum = one-shot" ~count:500
    QCheck.(triple small_int string (small_list small_nat))
    (fun (seed, s, cuts) ->
      let n = String.length s in
      let cuts =
        List.sort Int.compare (List.map (fun c -> c mod (n + 1)) cuts)
      in
      let piece pos cut = String.sub s pos (cut - pos) in
      let h, last =
        List.fold_left
          (fun (h, pos) cut -> (Codec.checksum_continue h (piece pos cut), cut))
          (Codec.checksum ~seed "", 0)
          cuts
      in
      Int64.equal
        (Codec.checksum_continue h (piece last n))
        (Codec.checksum ~seed s))

(* --- journal append / recover --------------------------------------- *)

let profile_of s src = Result.get_ok (Genas_profile.Lang.parse_profile s src)

let test_journal_roundtrip () =
  let s = schema () in
  let dir = fresh_dir () in
  let cfg = Journal.config dir in
  let j = Journal.create s cfg in
  Journal.append j
    (Journal.Subscribe
       (Codec.prim s ~id:0 ~subscriber:"alice" (profile_of s "x >= 5")));
  Journal.append j (Journal.Unsubscribe_prim { id = 0 });
  Journal.close j;
  match Journal.recover s cfg with
  | Error e -> Alcotest.fail e
  | Ok (recovered, j2) ->
    Alcotest.(check int) "no snapshot yet" 0
      (match recovered.Journal.snapshot with None -> 0 | Some _ -> 1);
    Alcotest.(check int) "both ops replayable" 2
      (List.length recovered.Journal.tail);
    Alcotest.(check int) "nothing truncated" 0 recovered.Journal.truncated;
    (match recovered.Journal.tail with
    | [ Journal.Subscribe { id = 0; subscriber = "alice"; profile; _ };
        Journal.Unsubscribe_prim { id = 0 } ] ->
      Alcotest.(check bool) "profile semantics survive" true
        (Profile.matches s profile (event s 7 "a")
        && not (Profile.matches s profile (event s 3 "a")))
    | _ -> Alcotest.fail "unexpected tail shape");
    Alcotest.(check int) "op indices continue" 2 (Journal.ops_logged j2);
    Journal.close j2

let test_journal_truncates_torn_tail () =
  let s = schema () in
  let dir = fresh_dir () in
  let cfg = Journal.config dir in
  let j = Journal.create s cfg in
  Journal.append j
    (Journal.Subscribe
       (Codec.prim s ~id:0 ~subscriber:"a" (profile_of s "x >= 5")));
  Journal.append j
    (Journal.Subscribe
       (Codec.prim s ~id:1 ~subscriber:"b" (profile_of s "k = a")));
  Journal.close j;
  (* Tear the last record by rewriting the file a few bytes short. *)
  let path = Filename.concat dir "journal.wal" in
  let contents =
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  let oc = open_out_bin path in
  output_string oc (String.sub contents 0 (String.length contents - 3));
  close_out oc;
  (match Journal.recover s cfg with
  | Error e -> Alcotest.fail e
  | Ok (recovered, j2) ->
    Alcotest.(check int) "tail truncated" 1 recovered.Journal.truncated;
    Alcotest.(check int) "first record survives" 1
      (List.length recovered.Journal.tail);
    Journal.close j2);
  (* The truncation was physical: recovering again is clean. *)
  match Journal.recover s cfg with
  | Error e -> Alcotest.fail e
  | Ok (recovered, j2) ->
    Alcotest.(check int) "second recovery sees no corruption" 0
      recovered.Journal.truncated;
    Alcotest.(check int) "still one record" 1
      (List.length recovered.Journal.tail);
    Journal.close j2

(* Disk frames are bounded by the file, not the wire's 16 MiB: a record
   past that size is still an acknowledged op, never a torn tail. *)
let big_name = String.make (17 lsl 20) 'n'

(* Run [f] on a fresh journal directory, then delete it: these files
   are tens of MiB. *)
let with_big_dir f =
  let dir = fresh_dir () in
  Fun.protect
    ~finally:(fun () ->
      Array.iter (fun n -> Sys.remove (Filename.concat dir n)) (Sys.readdir dir);
      Sys.rmdir dir)
    (fun () -> f (Journal.config ~fsync:false dir))

let test_journal_large_record () =
  with_big_dir @@ fun cfg ->
  let s = schema () in
  let j = Journal.create s cfg in
  Journal.append j
    (Journal.Subscribe
       (Codec.prim s ~id:0 ~subscriber:big_name (profile_of s "x >= 5")));
  let on_disk = (Unix.stat (Filename.concat cfg.Journal.dir "journal.wal")).Unix.st_size in
  Alcotest.(check bool) "zeros extended past the record" true
    (on_disk > Journal.size_bytes j);
  Journal.close j;
  match Journal.recover s cfg with
  | Error e -> Alcotest.fail e
  | Ok (recovered, j2) ->
    Alcotest.(check int) "nothing truncated" 0 recovered.Journal.truncated;
    (match recovered.Journal.tail with
    | [ Journal.Subscribe { subscriber; _ } ] ->
      Alcotest.(check bool) "subscriber survives" true
        (String.equal subscriber big_name)
    | _ -> Alcotest.fail "the 17 MiB record was lost");
    Journal.close j2

let test_refuses_missing_dir () =
  match Journal.recover (schema ()) (Journal.config (fresh_dir ())) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "recovering a nonexistent journal must fail"

(* --- the preallocated region ----------------------------------------- *)

module Fault = Genas_ens.Fault
module Metrics = Genas_obs.Metrics

let wal_length dir = (Unix.stat (Filename.concat dir "journal.wal")).Unix.st_size

let sub s id who src = Journal.Subscribe (Codec.prim s ~id ~subscriber:who (profile_of s src))

let subscribers tail =
  List.filter_map
    (function Journal.Subscribe { subscriber; _ } -> Some subscriber | _ -> None)
    tail

(* Recover [cfg], returning the subscribers replayed and the handle. *)
let recover_ok s cfg =
  match Journal.recover s cfg with
  | Error e -> Alcotest.fail e
  | Ok (r, j) -> (r, subscribers r.Journal.tail, j)

let test_close_trims () =
  let s = schema () in
  let dir = fresh_dir () in
  let j = Journal.create s (Journal.config dir) in
  Journal.append j (sub s 0 "a" "x >= 5");
  Journal.append j (sub s 1 "b" "k = a");
  let logical = Journal.size_bytes j in
  Alcotest.(check bool) "zeros preallocated past the records" true
    (wal_length dir > logical);
  Journal.close j;
  Alcotest.(check int) "close trims to the logical size" logical (wal_length dir);
  Journal.close j

(* A crash after the fsync leaves records followed by zeros: a clean
   end, so nothing is truncated, and the next record lands after the
   last one. A crashed process never closes its handle. *)
let test_zero_tail_is_clean () =
  let s = schema () in
  let dir = fresh_dir () in
  let cfg = Journal.config dir in
  let j = Journal.create s cfg in
  Journal.append j (sub s 0 "a" "x >= 5");
  Journal.append j (sub s 1 "b" "k = a");
  let on_disk = wal_length dir in
  let r, who, j2 = recover_ok s cfg in
  Alcotest.(check int) "zero tail not truncated" 0 r.Journal.truncated;
  Alcotest.(check (list string)) "every op replayed" [ "a"; "b" ] who;
  Alcotest.(check int) "the region stays" on_disk (wal_length dir);
  Alcotest.(check int) "logical size" (Journal.size_bytes j) (Journal.size_bytes j2);
  Journal.append j2 (sub s 2 "c" "x = 7");
  let r, who, j3 = recover_ok s cfg in
  Alcotest.(check int) "still clean" 0 r.Journal.truncated;
  Alcotest.(check (list string)) "the later append replays too" [ "a"; "b"; "c" ] who;
  Alcotest.(check int) "op indices continue" 3 (Journal.ops_logged j3);
  Journal.close j3

(* A torn record inside the zero region is a torn tail: truncated and
   counted, and what is appended after that recovery reads back. *)
let test_torn_in_region () =
  let s = schema () in
  let dir = fresh_dir () in
  let cfg = Journal.config dir in
  let j = Journal.create s cfg in
  Journal.append j (sub s 0 "a" "x >= 5");
  let faults = Fault.plan ~seed:7 { Fault.none with crash_before_fsync = 1.0 } in
  (try
     Journal.append j ~faults (sub s 1 "b" "k = a");
     Alcotest.fail "crash point did not fire"
   with Fault.Crashed Fault.Crash_before_fsync -> ());
  let r, who, j2 = recover_ok s cfg in
  Alcotest.(check int) "torn tail truncated" 1 r.Journal.truncated;
  Alcotest.(check (list string)) "the durable op survives" [ "a" ] who;
  Alcotest.(check int) "physically" (Journal.size_bytes j2) (wal_length dir);
  Journal.append j2 (sub s 1 "c" "x = 7");
  let r, who, j3 = recover_ok s cfg in
  Alcotest.(check int) "clean after the append" 0 r.Journal.truncated;
  Alcotest.(check (list string)) "the append reads back" [ "a"; "c" ] who;
  Journal.close j3

let key e =
  match (Event.value e 0, Event.value e 1) with
  | Value.Int x, Value.Str k -> (x, k)
  | _ -> Alcotest.fail "event shape"

let batches_of (batches, complete) =
  (List.map (fun (opi, evs) -> (opi, Array.to_list (Array.map key evs))) batches, complete)

(* The catch-up cursor reads the logical bytes: the same batches and
   flag from the live handle and from one recovered over a zero tail. *)
let test_events_since_region () =
  let s = schema () in
  let dir = fresh_dir () in
  let cfg = Journal.config ~snapshot_every:1000 dir in
  let b = Broker.create ~journal:cfg s in
  ignore (Broker.subscribe b ~subscriber:"a" ~profile:(profile_of s "x >= 0") (fun _ -> ()));
  for x = 0 to 4 do
    ignore (Broker.publish b (event s x (if x mod 2 = 0 then "a" else "b")))
  done;
  let live = Journal.events_since (Option.get (Broker.wal b)) ~since:1 in
  let t = Alcotest.(pair (list (pair int (list (pair int string)))) bool) in
  Alcotest.check t "ops 2..5"
    ([ (2, [ (1, "b") ]); (3, [ (2, "a") ]); (4, [ (3, "b") ]); (5, [ (4, "a") ]) ], true)
    (batches_of live);
  match Broker.recover ~journal:cfg s with
  | Error e -> Alcotest.fail e
  | Ok b2 ->
    let j2 = Option.get (Broker.wal b2) in
    Alcotest.check t "same after recovery" (batches_of live)
      (batches_of (Journal.events_since j2 ~since:1));
    Broker.close b2

(* A restart rewrites the old generation with zeros in place; a crash
   before its fsync can leave a prefix of old records, a zeroed page and
   more old records. Recovery truncates the tail and must not report
   the cut-off records as retained. *)
let test_restart_cut_short () =
  let s = schema () in
  let dir = fresh_dir () in
  let cfg = Journal.config ~snapshot_every:1000 dir in
  let b = Broker.create ~journal:cfg s in
  ignore (Broker.subscribe b ~subscriber:"a" ~profile:(profile_of s "x >= 0") (fun _ -> ()));
  let j = Option.get (Broker.wal b) in
  let ends =
    List.init 4 (fun x ->
        ignore (Broker.publish b (event s x "a"));
        Journal.size_bytes j)
  in
  let path = Filename.concat dir "journal.wal" in
  let old = In_channel.with_open_bin path In_channel.input_all in
  Broker.snapshot_now b;
  (* Ops 0..4 are covered; op 3's record reads back as zeros. *)
  let cut = List.nth ends 1 and resume = List.nth ends 2 in
  Out_channel.with_open_bin path (fun oc ->
      output_string oc (String.sub old 0 cut);
      output_string oc (String.make (resume - cut) '\000');
      output_string oc (String.sub old resume (String.length old - resume)));
  match Broker.recover ~journal:cfg s with
  | Error e -> Alcotest.fail e
  | Ok b2 ->
    let j2 = Option.get (Broker.wal b2) in
    Alcotest.(check int) "old records past the zeros truncated" 1 (Journal.truncations j2);
    Alcotest.(check int) "nothing to replay" 0 (Journal.replayed_ops j2);
    Alcotest.(check int) "retained from the next op" 5 (Journal.base_op j2);
    Alcotest.(check bool) "the gap is reported" false
      (snd (Journal.events_since j2 ~since:1));
    Broker.close b2

(* Every journaled op syncs once before it returns; the only other
   fsyncs are the restarts (creation and each snapshot), since these
   small records never outgrow the first region. *)
let test_fsync_per_op () =
  let s = schema () in
  let reg = Metrics.create () in
  let b =
    Broker.create ~metrics:reg ~journal:(Journal.config ~snapshot_every:8 (fresh_dir ())) s
  in
  let j = Option.get (Broker.wal b) in
  let fsyncs () =
    Option.get (List.assoc_opt "genas_journal_fsyncs_total" (Metrics.counters reg))
  in
  let op f =
    let f0 = fsyncs () and a0 = Journal.appends j in
    f ();
    Alcotest.(check bool) "the op appended" true (Journal.appends j > a0);
    Alcotest.(check bool) "and synced it" true (fsyncs () - f0 >= Journal.appends j - a0)
  in
  for i = 0 to 39 do
    if i mod 5 = 0 then
      op (fun () ->
          let id =
            Broker.subscribe b ~subscriber:"c" ~profile:(profile_of s "x = 3") (fun _ -> ())
          in
          ignore (Broker.publish b (event s 3 "a"));
          ignore (Broker.unsubscribe b id))
    else op (fun () -> ignore (Broker.publish b (event s (i mod 10) "a")))
  done;
  Alcotest.(check bool) "snapshots taken" true (Journal.snapshots_written j > 0);
  Alcotest.(check int) "one fsync per append, plus the restarts"
    (Journal.appends j + 1 + Journal.snapshots_written j)
    (fsyncs ());
  Broker.close b

(* --- snapshot cadence ----------------------------------------------- *)

let test_snapshot_cadence () =
  let s = schema () in
  let dir = fresh_dir () in
  let b = Broker.create ~journal:(Journal.config ~snapshot_every:4 dir) s in
  ignore (Broker.subscribe b ~subscriber:"a" ~profile:(profile_of s "x >= 5")
            (fun _ -> ()));
  for i = 0 to 6 do
    ignore (Broker.publish b (event ~time:(float_of_int i) s (i mod 10) "a"))
  done;
  let j = Option.get (Broker.wal b) in
  (* 8 ops (1 subscribe + 7 publishes) at one snapshot per 4. *)
  Alcotest.(check int) "ops logged" 8 (Journal.ops_logged j);
  Alcotest.(check int) "two snapshots" 2 (Journal.snapshots_written j);
  Alcotest.(check bool) "snapshot installed" true
    (Sys.file_exists (Filename.concat dir "snapshot.bin"));
  Broker.close b;
  (* Recovery starts from the snapshot and replays only the tail not
     covered by it. *)
  match Broker.recover ~journal:(Journal.config dir) s with
  | Error e -> Alcotest.fail e
  | Ok b2 ->
    let j2 = Option.get (Broker.wal b2) in
    Alcotest.(check int) "published restored" 7 (Broker.published b2);
    Alcotest.(check bool) "short tail" true (Journal.replayed_ops j2 < 8);
    Alcotest.(check int) "op counter continues" 8 (Journal.ops_logged j2);
    Broker.close b2

let test_snapshot_large_frame () =
  with_big_dir @@ fun cfg ->
  let s = schema () in
  let b = Broker.create ~journal:cfg s in
  ignore
    (Broker.subscribe b ~subscriber:big_name ~profile:(profile_of s "x >= 5")
       (fun _ -> ()));
  Broker.snapshot_now b;
  Broker.close b;
  match Broker.recover ~journal:cfg s with
  | Error e -> Alcotest.fail e
  | Ok b2 ->
    Alcotest.(check int) "restored from the snapshot alone" 0
      (Journal.replayed_ops (Option.get (Broker.wal b2)));
    (match Broker.subscriptions b2 with
    | [ (_, subscriber) ] ->
      Alcotest.(check bool) "subscriber survives" true
        (String.equal subscriber big_name)
    | _ -> Alcotest.fail "subscription lost");
    Broker.close b2

(* A version-1 snapshot (written before snapshots recorded pending
   churn) is the version-2 payload without the trailing churn section,
   which is three zero ints when nothing is pending; it still loads. *)
let test_snapshot_v1_loads () =
  let s = schema () in
  let dir = fresh_dir () in
  let cfg = Journal.config ~snapshot_every:4 dir in
  let b = Broker.create ~journal:cfg s in
  ignore (Broker.subscribe b ~subscriber:"a" ~profile:(profile_of s "x >= 5")
            (fun _ -> ()));
  for i = 0 to 4 do
    ignore (Broker.publish b (event ~time:(float_of_int i) s (i mod 10) "a"))
  done;
  Broker.close b;
  let path = Filename.concat dir "snapshot.bin" in
  let contents = In_channel.with_open_bin path In_channel.input_all in
  let seed = cfg.Journal.seed in
  let payload =
    match Codec.parse_frames ~seed contents ~pos:16 with
    | [ p ], _, false -> p
    | _ -> Alcotest.fail "snapshot frame"
  in
  let n = String.length payload - 24 in
  Alcotest.(check string) "nothing pending" (String.make 24 '\000')
    (String.sub payload n 24);
  Out_channel.with_open_bin path (fun oc ->
      output_string oc "GSNAP01\n";
      output_string oc (String.sub contents 8 8);
      output_string oc (Codec.frame ~seed (String.sub payload 0 n)));
  match Broker.recover ~journal:cfg s with
  | Error e -> Alcotest.fail e
  | Ok b2 ->
    Alcotest.(check int) "published restored" 5 (Broker.published b2);
    Alcotest.(check int) "still matching" 1 (Broker.publish b2 (event s 7 "a"));
    Broker.close b2

(* --- dead-letter replay (supervised path) --------------------------- *)

let test_deadletter_replay_exactly_once () =
  let s = schema () in
  let b = Broker.create s in
  let broken = ref true in
  let accepted = ref 0 in
  ignore
    (Broker.subscribe b ~subscriber:"flaky" ~profile:(profile_of s "x >= 5")
       (fun _ ->
         if !broken then failwith "down";
         incr accepted));
  Alcotest.(check int) "delivery fails" 0 (Broker.publish b (event s 7 "a"));
  Alcotest.(check int) "dead-lettered" 1
    (Deadletter.length (Broker.deadletter b));
  Alcotest.(check int) "nothing counted" 0 (Broker.notifications b);
  (* The subscriber recovers; the drained letter is redelivered through
     the supervised path and counted exactly once. *)
  broken := false;
  let redelivered, failed = Broker.replay_deadletters b in
  Alcotest.(check (pair int int)) "one redelivered" (1, 0)
    (redelivered, failed);
  Alcotest.(check int) "handler ran once" 1 !accepted;
  Alcotest.(check int) "notifications incremented exactly once" 1
    (Broker.notifications b);
  Alcotest.(check int) "queue drained" 0
    (Deadletter.length (Broker.deadletter b));
  (* A second pass has nothing to do. *)
  Alcotest.(check (pair int int)) "idempotent" (0, 0)
    (Broker.replay_deadletters b);
  Alcotest.(check int) "count unchanged" 1 (Broker.notifications b)

let test_deadletter_replay_refailure () =
  let s = schema () in
  let b = Broker.create s in
  ignore
    (Broker.subscribe b ~subscriber:"dead" ~profile:(profile_of s "x >= 5")
       (fun _ -> failwith "still down"));
  ignore (Broker.publish b (event s 9 "a"));
  Alcotest.(check int) "dead-lettered" 1
    (Deadletter.length (Broker.deadletter b));
  (* Redelivery fails again: the letter is dead-lettered anew by the
     supervisor, not lost, and not picked up twice in one pass. *)
  let redelivered, failed = Broker.replay_deadletters b in
  Alcotest.(check (pair int int)) "one failure" (0, 1) (redelivered, failed);
  Alcotest.(check int) "re-queued" 1 (Deadletter.length (Broker.deadletter b));
  Alcotest.(check int) "no notification" 0 (Broker.notifications b)

let () =
  Alcotest.run "journal"
    [
      ( "frames",
        [
          Alcotest.test_case "roundtrip" `Quick test_frame_roundtrip;
          Alcotest.test_case "torn tail" `Quick test_frame_torn_tail;
          Alcotest.test_case "bit flip" `Quick test_frame_bitflip;
        ] );
      ( "checksum",
        [
          Alcotest.test_case "known answers" `Quick test_checksum_known_answers;
          QCheck_alcotest.to_alcotest prop_checksum_incremental;
        ] );
      ( "journal",
        [
          Alcotest.test_case "roundtrip" `Quick test_journal_roundtrip;
          Alcotest.test_case "truncates torn tail" `Quick
            test_journal_truncates_torn_tail;
          Alcotest.test_case "17 MiB record" `Quick test_journal_large_record;
          Alcotest.test_case "missing dir" `Quick test_refuses_missing_dir;
        ] );
      ( "preallocation",
        [
          Alcotest.test_case "close trims" `Quick test_close_trims;
          Alcotest.test_case "zero tail is a clean end" `Quick test_zero_tail_is_clean;
          Alcotest.test_case "torn record in the region" `Quick test_torn_in_region;
          Alcotest.test_case "events_since over the region" `Quick
            test_events_since_region;
          Alcotest.test_case "restart cut short" `Quick test_restart_cut_short;
          Alcotest.test_case "one fsync per op" `Quick test_fsync_per_op;
        ] );
      ( "snapshots",
        [
          Alcotest.test_case "cadence" `Quick test_snapshot_cadence;
          Alcotest.test_case "version-1 snapshot loads" `Quick
            test_snapshot_v1_loads;
          Alcotest.test_case "17 MiB frame" `Quick test_snapshot_large_frame;
        ] );
      ( "deadletter-replay",
        [
          Alcotest.test_case "exactly once" `Quick
            test_deadletter_replay_exactly_once;
          Alcotest.test_case "refailure" `Quick test_deadletter_replay_refailure;
        ] );
    ]
