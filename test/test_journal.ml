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

(* --- journal append / recover --------------------------------------- *)

let profile_of s src = Result.get_ok (Genas_profile.Lang.parse_profile s src)

let test_journal_roundtrip () =
  let s = schema () in
  let dir = fresh_dir () in
  let cfg = Journal.config dir in
  let j = Journal.create s cfg in
  Journal.append j
    (Journal.Subscribe { id = 0; subscriber = "alice"; profile = profile_of s "x >= 5" });
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
    | [ Journal.Subscribe { id = 0; subscriber = "alice"; profile };
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
    (Journal.Subscribe { id = 0; subscriber = "a"; profile = profile_of s "x >= 5" });
  Journal.append j
    (Journal.Subscribe { id = 1; subscriber = "b"; profile = profile_of s "k = a" });
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

let test_refuses_missing_dir () =
  match Journal.recover (schema ()) (Journal.config (fresh_dir ())) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "recovering a nonexistent journal must fail"

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
      ( "journal",
        [
          Alcotest.test_case "roundtrip" `Quick test_journal_roundtrip;
          Alcotest.test_case "truncates torn tail" `Quick
            test_journal_truncates_torn_tail;
          Alcotest.test_case "missing dir" `Quick test_refuses_missing_dir;
        ] );
      ( "snapshots",
        [
          Alcotest.test_case "cadence" `Quick test_snapshot_cadence;
          Alcotest.test_case "version-1 snapshot loads" `Quick
            test_snapshot_v1_loads;
        ] );
      ( "deadletter-replay",
        [
          Alcotest.test_case "exactly once" `Quick
            test_deadletter_replay_exactly_once;
          Alcotest.test_case "refailure" `Quick test_deadletter_replay_refailure;
        ] );
    ]
