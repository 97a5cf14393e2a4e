(* The networked broker stack: wire codec hardening, socket round
   trips, covering-gated forwarding, fault-driven reconnect + WAL
   catch-up, a fork-based two-process exchange, and the differential
   against the in-process Router. *)

module Value = Genas_model.Value
module Domain = Genas_model.Domain
module Schema = Genas_model.Schema
module Event = Genas_model.Event
module Profile = Genas_profile.Profile
module Codec = Genas_ens.Codec
module Journal = Genas_ens.Journal
module Fault = Genas_ens.Fault
module Broker = Genas_ens.Broker
module Router = Genas_ens.Router
module Notification = Genas_ens.Notification
module Transport = Genas_ens.Transport
module Broker_server = Genas_ens.Broker_server
module Broker_client = Genas_ens.Broker_client

let schema () =
  Schema.create_exn
    [ ("x", Domain.int_range ~lo:0 ~hi:9); ("y", Domain.int_range ~lo:0 ~hi:9) ]

let event ?(time = 0.0) s x y =
  Event.create_exn ~time s [ ("x", Value.Int x); ("y", Value.Int y) ]

let fresh_path prefix =
  let path = Filename.temp_file prefix ".sock" in
  Sys.remove path;
  path

let fresh_dir () =
  let path = Filename.temp_file "genas_net" ".d" in
  Sys.remove path;
  path

let addr () = Transport.Unix_sock (fresh_path "genas_srv")

let or_fail = function Ok v -> v | Error e -> Alcotest.fail e

(* Values of an event, as a comparable key. *)
let key (e : Event.t) =
  match (e.Event.values.(0), e.Event.values.(1)) with
  | Value.Int x, Value.Int y -> (x, y)
  | _ -> Alcotest.fail "unexpected value shape"

let sorted_keys l = List.sort compare (List.map key l)

(* --- addresses ------------------------------------------------------ *)

let test_addr_parse () =
  (match Transport.addr_of_string "unix:/tmp/x.sock" with
  | Ok (Transport.Unix_sock "/tmp/x.sock") -> ()
  | _ -> Alcotest.fail "unix addr");
  (match Transport.addr_of_string "tcp:127.0.0.1:7001" with
  | Ok (Transport.Tcp ("127.0.0.1", 7001)) -> ()
  | _ -> Alcotest.fail "tcp addr");
  List.iter
    (fun s ->
      match Transport.addr_of_string s with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "expected parse error for %S" s)
    [ "http:x"; "unix:"; "tcp:host"; "tcp:host:notaport"; "tcp::99"; "plain" ]

(* --- message codec -------------------------------------------------- *)

let test_message_roundtrip () =
  let s = schema () in
  let msgs =
    [
      Transport.Hello
        { version = 1; fingerprint = Codec.schema_fingerprint s; name = "a" };
      Transport.Welcome
        { version = 1; fingerprint = "fp"; cursor = 42; name = "hub" };
      Transport.Reject { reason = "no" };
      Transport.Subscribe { token = 7; subscriber = "alice"; body = "x >= 5" };
      Transport.Unsubscribe { token = 7 };
      Transport.Publish
        {
          token = 9;
          origin = "node-a";
          events = [| event s 3 4; event s 5 6 |];
          ctx = None;
        };
      Transport.Publish
        { token = 10; origin = "node-a"; events = [| event s 3 4 |];
          ctx = Some (77, 3) };
      Transport.Ack { token = 9; cursor = 17; count = 2 };
      Transport.Nack { token = 9; reason = "bad" };
      Transport.Deliver
        {
          cursor = 17;
          idx = 1;
          replay = true;
          origin = "node-a";
          event = event s 1 2;
          ctx = None;
        };
      Transport.Deliver
        {
          cursor = 18;
          idx = 0;
          replay = false;
          origin = "node-b";
          event = event s 2 2;
          ctx = Some (1234, 0);
        };
      Transport.Replay { since = 12; ctx = None };
      Transport.Replay { since = 12; ctx = Some (5, 1) };
      Transport.Replay_done { cursor = 20; complete = false };
      Transport.Bye;
      Transport.Ping { token = 3 };
      Transport.Pong { token = 3 };
      Transport.Status_req { token = 4 };
      Transport.Status
        {
          token = 4;
          nodes =
            [
              {
                Transport.ns_node = "leaf";
                ns_role = "client";
                ns_cursor = -1;
                ns_connections = 1;
                ns_uptime_s = 1.5;
                ns_peers =
                  [
                    {
                      Transport.ps_name = "mid";
                      ps_state = "up";
                      ps_queue = 3;
                      ps_last_rx_s = 0.25;
                    };
                  ];
                ns_counters = [ ("genas_events_total", 12) ];
              };
              {
                Transport.ns_node = "root";
                ns_role = "server";
                ns_cursor = 42;
                ns_connections = 2;
                ns_uptime_s = 9.0;
                ns_peers = [];
                ns_counters = [];
              };
            ];
        };
    ]
  in
  List.iter
    (fun m ->
      let m' = Transport.decode_message s (Transport.encode_message m) in
      Alcotest.(check string)
        ("roundtrip " ^ Transport.message_name m)
        (Transport.message_name m)
        (Transport.message_name m');
      if Transport.encode_message m <> Transport.encode_message m' then
        Alcotest.failf "unstable encoding for %s" (Transport.message_name m))
    msgs

(* --- frame-length hardening (satellite 1) --------------------------- *)

let with_frames_channel frames f =
  let path = Filename.temp_file "genas_frames" ".bin" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      let oc = open_out_bin path in
      List.iter (output_string oc) frames;
      close_out oc;
      let ic = open_in_bin path in
      Fun.protect ~finally:(fun () -> close_in ic) (fun () -> f ic))

let test_read_frame_bounds () =
  let seed = 0x99 in
  (* Clean round trip through a channel. *)
  with_frames_channel
    [ Codec.frame ~seed "one"; Codec.frame ~seed "two" ]
    (fun ic ->
      (match Codec.read_frame ~seed ic with
      | Ok "one" -> ()
      | _ -> Alcotest.fail "first frame");
      (match Codec.read_frame ~seed ic with
      | Ok "two" -> ()
      | _ -> Alcotest.fail "second frame");
      match Codec.read_frame ~seed ic with
      | Error `Eof -> ()
      | _ -> Alcotest.fail "clean eof");
  (* A header whose length field demands a multi-GiB allocation must
     fail BEFORE the payload buffer is sized from it. *)
  let hostile plen =
    let b = Buffer.create 12 in
    Buffer.add_int32_le b plen;
    Buffer.add_int64_le b 0L;
    Buffer.contents b
  in
  with_frames_channel
    [ hostile 0x7fff_ff00l ]
    (fun ic ->
      match Codec.read_frame ~seed ic with
      | Error (`Corrupt msg) ->
        Alcotest.(check bool) "names the limit" true
          (String.length msg > 0)
      | _ -> Alcotest.fail "oversized length accepted");
  (* Negative length. *)
  with_frames_channel
    [ hostile (-5l) ]
    (fun ic ->
      match Codec.read_frame ~seed ic with
      | Error (`Corrupt _) -> ()
      | _ -> Alcotest.fail "negative length accepted");
  (* Torn payload. *)
  let whole = Codec.frame ~seed "payload" in
  with_frames_channel
    [ String.sub whole 0 (String.length whole - 3) ]
    (fun ic ->
      match Codec.read_frame ~seed ic with
      | Error (`Corrupt _) -> ()
      | _ -> Alcotest.fail "torn payload accepted");
  (* Checksum mismatch (wrong seed). *)
  with_frames_channel
    [ Codec.frame ~seed:(seed + 1) "payload" ]
    (fun ic ->
      match Codec.read_frame ~seed ic with
      | Error (`Corrupt _) -> ()
      | _ -> Alcotest.fail "checksum mismatch accepted");
  (* A configurable max-frame bound applies to well-formed frames too,
     and the same bound gates parse_frames. *)
  let big = Codec.frame ~seed (String.make 64 'x') in
  with_frames_channel [ big ]
    (fun ic ->
      match Codec.read_frame ~max_frame:16 ~seed ic with
      | Error (`Corrupt _) -> ()
      | _ -> Alcotest.fail "max_frame not enforced");
  let decoded, _, corrupt = Codec.parse_frames ~max_frame:16 ~seed big ~pos:0 in
  Alcotest.(check (list string)) "parse_frames bounded" [] decoded;
  Alcotest.(check bool) "parse_frames flags it" true corrupt

(* --- journal fsync ordering + cursor API (satellite 2) --------------- *)

let test_journal_events_since () =
  let s = schema () in
  let dir = fresh_dir () in
  let cfg = Journal.config ~snapshot_every:1000 dir in
  let b = Broker.create ~journal:cfg s in
  ignore
    (Broker.subscribe b ~subscriber:"sink"
       ~profile:(Result.get_ok (Genas_profile.Lang.parse_profile s "x >= 0"))
       (fun _ -> ()));
  for i = 0 to 4 do
    ignore (Broker.publish b (event s i i))
  done;
  let j = Option.get (Broker.wal b) in
  Alcotest.(check int) "base op" 0 (Journal.base_op j);
  (* since = -1: everything; the subscribe consumed op 0, publishes
     are ops 1..5. *)
  let batches, complete = Journal.events_since j ~since:(-1) in
  Alcotest.(check bool) "complete from the start" true complete;
  Alcotest.(check int) "all five publishes" 5 (List.length batches);
  Alcotest.(check (list (pair int int)))
    "events in op order"
    [ (0, 0); (1, 1); (2, 2); (3, 3); (4, 4) ]
    (List.concat_map (fun (_, evs) -> Array.to_list evs |> List.map key) batches);
  (* A mid-stream cursor filters strictly-after. *)
  let later, complete = Journal.events_since j ~since:3 in
  Alcotest.(check bool) "still complete" true complete;
  Alcotest.(check int) "ops 4..5 remain" 2 (List.length later);
  (* A snapshot restarts the WAL: the range before it is gone and the
     cursor API must say so rather than silently return a gap. *)
  Broker.snapshot_now b;
  Alcotest.(check int) "base op advanced" (Journal.ops_logged j) (Journal.base_op j);
  ignore (Broker.publish b (event s 9 9));
  let after, complete = Journal.events_since j ~since:2 in
  Alcotest.(check bool) "gap reported" false complete;
  Alcotest.(check int) "only the retained tail" 1 (List.length after);
  let _, complete = Journal.events_since j ~since:(Journal.base_op j - 1) in
  Alcotest.(check bool) "contiguous from base" true complete;
  Broker.close b

(* Crash-point regression for the flush-before-fsync ordering: a
   [Crash_before_fsync] mid-append leaves a torn record that recovery
   truncates, and the record never appears in the catch-up cursor;
   every record acknowledged before the crash does. *)
let test_journal_crash_regression () =
  let s = schema () in
  let dir = fresh_dir () in
  let cfg = Journal.config ~snapshot_every:1000 dir in
  let faults =
    Fault.plan ~seed:7 { Fault.none with crash_before_fsync = 1.0 }
  in
  let b = Broker.create ~journal:cfg s in
  ignore
    (Broker.subscribe b ~subscriber:"sink"
       ~profile:(Result.get_ok (Genas_profile.Lang.parse_profile s "x >= 0"))
       (fun _ -> ()));
  ignore (Broker.publish b (event s 1 1));
  ignore (Broker.publish b (event s 2 2));
  (* Crash the next append through the journal's own fault hook. *)
  let j = Option.get (Broker.wal b) in
  (try
     Journal.append j ~faults (Journal.Unsubscribe_prim { id = 999 });
     Alcotest.fail "crash point did not fire"
   with Fault.Crashed Fault.Crash_before_fsync -> ());
  Broker.close b;
  match Broker.recover ~journal:cfg s with
  | Error e -> Alcotest.fail e
  | Ok b2 ->
    let j2 = Option.get (Broker.wal b2) in
    let batches, complete = Journal.events_since j2 ~since:(-1) in
    Alcotest.(check bool) "complete" true complete;
    Alcotest.(check (list (pair int int)))
      "both durable publishes survive, the torn record is gone"
      [ (1, 1); (2, 2) ]
      (List.concat_map (fun (_, evs) -> Array.to_list evs |> List.map key) batches);
    Broker.close b2

(* --- in-process socket round trip ----------------------------------- *)

let with_server f =
  let s = schema () in
  let b = Broker.create s in
  let a = addr () in
  let srv = Broker_server.create ~broker:b a in
  Broker_server.start srv;
  Fun.protect
    ~finally:(fun () ->
      Broker_server.stop srv;
      Broker.close b)
    (fun () -> f s srv a)

let test_socket_roundtrip () =
  with_server (fun s srv a ->
      let alice = or_fail (Broker_client.connect ~name:"alice" s a) in
      let bob = or_fail (Broker_client.connect ~name:"bob" s a) in
      Fun.protect
        ~finally:(fun () ->
          Broker_client.close alice;
          Broker_client.close bob)
        (fun () ->
          let got = ref [] in
          let _tok =
            or_fail
              (Broker_client.subscribe alice "x >= 5" (fun n ->
                   got := n.Notification.event :: !got))
          in
          (* Bob publishes: one miss, one hit. *)
          Alcotest.(check int) "no local subs at bob" 0
            (or_fail (Broker_client.publish bob (event s 2 0)));
          ignore (or_fail (Broker_client.publish bob (event s 7 1)));
          let applied = Broker_client.await_deliveries alice 1 in
          Alcotest.(check int) "one delivery" 1 applied;
          Alcotest.(check (list (pair int int))) "the matching event"
            [ (7, 1) ] (sorted_keys !got);
          Alcotest.(check int) "server saw a live conn pair" 2
            (Broker_server.connections srv)))

(* The originating connection is never echoed its own publish: its
   local broker already delivered (exactly once). *)
let test_no_echo () =
  with_server (fun s _srv a ->
      let c = or_fail (Broker_client.connect ~name:"self" s a) in
      Fun.protect
        ~finally:(fun () -> Broker_client.close c)
        (fun () ->
          let count = ref 0 in
          ignore (or_fail (Broker_client.subscribe c "x >= 0" (fun _ -> incr count)));
          Alcotest.(check int) "local delivery" 1
            (or_fail (Broker_client.publish c (event s 3 3)));
          (* Any echo would arrive promptly; give it a moment. *)
          ignore (Broker_client.await_deliveries ~timeout:0.2 c 1);
          Alcotest.(check int) "exactly once" 1 !count))

(* Covering-based propagation on the wire: covered subscriptions send
   nothing; a broader profile retires the narrower forward. *)
let test_covering_on_the_wire () =
  with_server (fun s _srv a ->
      let c = or_fail (Broker_client.connect ~name:"cov" s a) in
      Fun.protect
        ~finally:(fun () -> Broker_client.close c)
        (fun () ->
          let hits = ref [] in
          let sub body tag =
            or_fail
              (Broker_client.subscribe c body (fun n ->
                   hits := (tag, key n.Notification.event) :: !hits))
          in
          let t_mid = sub "x >= 2" "mid" in
          Alcotest.(check int) "first root forwarded" 1
            (Broker_client.wire_subscribes c);
          let _t_narrow = sub "x >= 6" "narrow" in
          Alcotest.(check int) "covered: no wire traffic" 1
            (Broker_client.wire_subscribes c);
          Alcotest.(check (list int)) "only the root is forwarded"
            [ t_mid ] (Broker_client.forwarded_tokens c);
          let t_broad = sub "x >= 0" "broad" in
          Alcotest.(check int) "broader profile forwarded" 2
            (Broker_client.wire_subscribes c);
          Alcotest.(check int) "narrower forward retired" 1
            (Broker_client.wire_unsubscribes c);
          Alcotest.(check (list int)) "single covering root"
            [ t_broad ] (Broker_client.forwarded_tokens c);
          (* A remote publish matching only the broad profile still
             reaches exactly the right local subscriptions. *)
          let p = or_fail (Broker_client.connect ~name:"pub" s a) in
          Fun.protect
            ~finally:(fun () -> Broker_client.close p)
            (fun () ->
              ignore (or_fail (Broker_client.publish p (event s 1 0)));
              ignore (or_fail (Broker_client.publish p (event s 7 0)));
              ignore (Broker_client.await_deliveries c 2);
              let got = List.sort compare !hits in
              Alcotest.(check (list (pair string (pair int int))))
                "absorbed subscriptions still match locally"
                [ ("broad", (1, 0)); ("broad", (7, 0)); ("mid", (7, 0));
                  ("narrow", (7, 0)) ]
                got)))

(* Unsubscribing on the wire: an unknown token is an error, an absorbed
   profile leaves sends nothing, and the last forwarded root leaves
   with one wire unsubscribe, after which nothing is delivered. *)
let test_unsubscribe_on_the_wire () =
  with_server (fun s _srv a ->
      let c = or_fail (Broker_client.connect ~name:"unsub" s a) in
      let p = or_fail (Broker_client.connect ~name:"pub" s a) in
      Fun.protect
        ~finally:(fun () ->
          Broker_client.close p;
          Broker_client.close c)
        (fun () ->
          Alcotest.(check bool) "unknown token" true
            (Result.is_error (Broker_client.unsubscribe c 999));
          let hits = ref 0 in
          let sub body =
            or_fail (Broker_client.subscribe c body (fun _ -> incr hits))
          in
          let t_root = sub "x >= 2" in
          let t_narrow = sub "x >= 6" in
          or_fail (Broker_client.unsubscribe c t_narrow);
          Alcotest.(check int) "absorbed: no wire unsubscribe" 0
            (Broker_client.wire_unsubscribes c);
          Alcotest.(check (list int)) "root still forwarded" [ t_root ]
            (Broker_client.forwarded_tokens c);
          ignore (or_fail (Broker_client.publish p (event s 7 0)));
          Alcotest.(check int) "root delivers" 1
            (Broker_client.await_deliveries c 1);
          Alcotest.(check int) "one hit" 1 !hits;
          or_fail (Broker_client.unsubscribe c t_root);
          Alcotest.(check int) "root: one wire unsubscribe" 1
            (Broker_client.wire_unsubscribes c);
          Alcotest.(check (list int)) "nothing forwarded" []
            (Broker_client.forwarded_tokens c);
          Alcotest.(check bool) "token gone" true
            (Result.is_error (Broker_client.unsubscribe c t_root));
          ignore (or_fail (Broker_client.publish p (event s 7 0)));
          Alcotest.(check int) "no delivery after unsubscribe" 0
            (Broker_client.await_deliveries ~timeout:0.2 c 1);
          Alcotest.(check int) "still one hit" 1 !hits))

(* A peer that sends garbage mid-session kills only its own
   connection; the server keeps serving others. *)
let test_torn_frame_on_socket () =
  with_server (fun s _srv a ->
      (* Raw connection that handshakes, then writes a torn frame. *)
      let evil = Transport.dial a in
      Transport.send evil
        (Transport.Hello
           {
             version = Transport.protocol_version;
             fingerprint = Codec.schema_fingerprint s;
             name = "evil";
           });
      (match Transport.recv evil s with
      | Ok (Transport.Welcome _) -> ()
      | _ -> Alcotest.fail "handshake failed");
      let whole =
        Codec.frame ~seed:Transport.default_seed
          (Transport.encode_message (Transport.Replay { since = 0; ctx = None }))
      in
      let torn = String.sub whole 0 (String.length whole - 2) in
      let fd = Transport.conn_fd evil in
      ignore (Unix.write_substring fd torn 0 (String.length torn));
      Unix.shutdown fd Unix.SHUTDOWN_SEND;
      (* Server answers Reject (or just closes) — never crashes. *)
      (match Transport.recv evil s with
      | Ok (Transport.Reject _) | Error _ -> ()
      | Ok m ->
        Alcotest.failf "unexpected %s" (Transport.message_name m));
      Transport.close_conn evil;
      (* A hostile length prefix on a fresh connection dies pre-hello. *)
      let hostile = Transport.dial a in
      let b = Buffer.create 12 in
      Buffer.add_int32_le b 0x7fff0000l;
      Buffer.add_int64_le b 0L;
      let hd = Buffer.contents b in
      ignore (Unix.write_substring (Transport.conn_fd hostile) hd 0 (String.length hd));
      Unix.shutdown (Transport.conn_fd hostile) Unix.SHUTDOWN_SEND;
      (match Transport.recv hostile s with
      | Ok (Transport.Reject _) | Error _ -> ()
      | Ok m -> Alcotest.failf "unexpected %s" (Transport.message_name m));
      Transport.close_conn hostile;
      (* The server still works. *)
      let c = or_fail (Broker_client.connect ~name:"good" s a) in
      Fun.protect
        ~finally:(fun () -> Broker_client.close c)
        (fun () ->
          ignore (or_fail (Broker_client.subscribe c "x >= 0" (fun _ -> ())));
          Alcotest.(check int) "server survives" 1
            (or_fail (Broker_client.publish c (event s 5 5)))))

(* A client under a version or schema mismatch is rejected cleanly. *)
let test_handshake_reject () =
  with_server (fun s _srv a ->
      let c = Transport.dial a in
      Transport.send c
        (Transport.Hello { version = 999; fingerprint = "x"; name = "old" });
      (match Transport.recv c s with
      | Ok (Transport.Reject _) -> ()
      | _ -> Alcotest.fail "version mismatch not rejected");
      Transport.close_conn c;
      let other =
        Schema.create_exn [ ("z", Domain.int_range ~lo:0 ~hi:1) ]
      in
      match Broker_client.connect other a with
      | Error _ -> ()
      | Ok c ->
        Broker_client.close c;
        Alcotest.fail "schema mismatch not rejected")

(* --- faults, reconnect, and WAL catch-up ----------------------------- *)

(* Run one scripted exchange and return the subscriber's delivered key
   list: subscribe at one client, publish [n] events at another,
   optionally under link faults, optionally with a mid-stream
   reconnect + replay. *)
let run_exchange ?faults ~reconnect n =
  let dir = fresh_dir () in
  let cfg = Journal.config ~snapshot_every:1000 dir in
  let s = schema () in
  let b = Broker.create ~journal:cfg s in
  let a = addr () in
  let srv = Broker_server.create ?faults ~broker:b a in
  Broker_server.start srv;
  Fun.protect
    ~finally:(fun () ->
      Broker_server.stop srv;
      Broker.close b)
    (fun () ->
      let sub = or_fail (Broker_client.connect ~name:"sub" s a) in
      let pub = or_fail (Broker_client.connect ~name:"pub" s a) in
      Fun.protect
        ~finally:(fun () ->
          Broker_client.close sub;
          Broker_client.close pub)
        (fun () ->
          let got = ref [] in
          ignore
            (or_fail
               (Broker_client.subscribe sub "x >= 1" (fun n ->
                    got := n.Notification.event :: !got)));
          for i = 1 to n do
            ignore (or_fail (Broker_client.publish pub (event s (1 + (i mod 9)) (i mod 10))))
          done;
          ignore (Broker_client.await_deliveries ~timeout:1.0 sub n);
          if reconnect then begin
            or_fail (Broker_client.reconnect sub);
            let _applied, complete = or_fail (Broker_client.replay sub) in
            Alcotest.(check bool) "replay complete" true complete
          end;
          ignore (Broker_client.await_deliveries ~timeout:0.2 sub 0);
          (sorted_keys !got, Broker_client.duplicates_dropped sub)))

let test_reconnect_catchup () =
  (* Reference: fault-free, no reconnect. *)
  let reference, _ = run_exchange ~reconnect:false 12 in
  Alcotest.(check int) "reference complete" 12 (List.length reference);
  (* Same exchange with every live delivery to the subscriber's link
     dropped: nothing arrives live, everything arrives via replay. *)
  let faults =
    Fault.plan ~seed:42 { Fault.none with link_drop = 1.0 }
  in
  let after_faults, _ = run_exchange ~faults ~reconnect:true 12 in
  Alcotest.(check (list (pair int int)))
    "delivered set bit-identical to the uninterrupted run" reference
    after_faults

let test_duplicate_dedup () =
  let faults =
    Fault.plan ~seed:43 { Fault.none with link_duplicate = 1.0 }
  in
  let reference, _ = run_exchange ~reconnect:false 10 in
  let dup, dropped = run_exchange ~faults ~reconnect:false 10 in
  Alcotest.(check (list (pair int int)))
    "duplicates never double-deliver" reference dup;
  Alcotest.(check bool) "dedup actually fired" true (dropped > 0)

let test_replay_idempotent () =
  (* Fault-free exchange followed by a redundant replay: the applied
     set must drop every redelivery. *)
  let got, dropped = run_exchange ~reconnect:true 8 in
  Alcotest.(check int) "exactly once" 8 (List.length got);
  Alcotest.(check bool) "overlap deduplicated" true (dropped >= 8)

(* --- two OS processes ------------------------------------------------ *)

let test_two_process_exchange () =
  let s = schema () in
  let a = addr () in
  let dir = fresh_dir () in
  match Unix.fork () with
  | 0 ->
    (* Child: the server broker process. Serves exactly one
       connection, then exits. Any exception is a nonzero exit. *)
    let code =
      try
        let cfg = Journal.config ~snapshot_every:1000 dir in
        let b = Broker.create ~journal:cfg s in
        let srv = Broker_server.create ~broker:b a in
        Broker_server.serve ~connections:1 srv;
        Broker.close b;
        0
      with _ -> 1
    in
    Unix._exit code
  | pid ->
    let cleanup () =
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ())
    in
    Fun.protect ~finally:cleanup (fun () ->
        (* Parent: dial with retries while the child binds. *)
        let rec dial tries =
          match Broker_client.connect ~name:"peer" s a with
          | Ok c -> c
          | Error e ->
            if tries = 0 then Alcotest.failf "connect: %s" e
            else begin
              ignore (Unix.select [] [] [] 0.05);
              dial (tries - 1)
            end
          | exception Unix.Unix_error _ ->
            if tries = 0 then Alcotest.fail "server never came up"
            else begin
              ignore (Unix.select [] [] [] 0.05);
              dial (tries - 1)
            end
        in
        let c = dial 100 in
        let got = ref [] in
        ignore
          (or_fail
             (Broker_client.subscribe c "x >= 5" (fun n ->
                  got := n.Notification.event :: !got)));
        (* Publishing through a real socket to a real second process;
           the acknowledged cursor proves the server journaled it. *)
        ignore (or_fail (Broker_client.publish c (event s 8 1)));
        ignore (or_fail (Broker_client.publish c (event s 2 1)));
        Alcotest.(check int) "own events delivered locally once" 1
          (List.length !got);
        Broker_client.close c;
        match Unix.waitpid [] pid with
        | _, Unix.WEXITED 0 -> ()
        | _, Unix.WEXITED n -> Alcotest.failf "server exited with %d" n
        | _ -> Alcotest.fail "server killed")

(* --- differential: networked star ≡ in-process Router ---------------- *)

let test_router_differential () =
  let s = schema () in
  let profiles = [ "x >= 5"; "y >= 7"; "x >= 2" ] in
  let events = [ (1, 8); (5, 5); (7, 9); (2, 0); (9, 9); (0, 7); (3, 3) ] in
  (* In-process reference: a 3-node star, hub 0; subscriber node 1,
     publisher node 2. *)
  let net = Router.star s ~leaves:2 in
  let router_got = ref [] in
  List.iteri
    (fun i body ->
      ignore
        (Router.subscribe net ~at:1
           ~subscriber:(Printf.sprintf "s%d" i)
           ~profile:(Result.get_ok (Genas_profile.Lang.parse_profile s body))
           (fun n ->
             router_got :=
               (n.Notification.subscriber, key n.Notification.event)
               :: !router_got)))
    profiles;
  List.iter
    (fun (x, y) -> ignore (Router.publish net ~at:2 (event s x y)))
    events;
  (* Networked: server hub + subscriber client + publisher client. *)
  with_server (fun s _srv a ->
      let subc = or_fail (Broker_client.connect ~name:"node1" s a) in
      let pubc = or_fail (Broker_client.connect ~name:"node2" s a) in
      Fun.protect
        ~finally:(fun () ->
          Broker_client.close subc;
          Broker_client.close pubc)
        (fun () ->
          let net_got = ref [] in
          List.iteri
            (fun i body ->
              ignore
                (or_fail
                   (Broker_client.subscribe subc
                      ~subscriber:(Printf.sprintf "s%d" i) body (fun n ->
                        net_got :=
                          (n.Notification.subscriber, key n.Notification.event)
                          :: !net_got))))
            profiles;
          let expected_deliveries =
            List.length (List.filter (fun (x, y) -> x >= 2 || y >= 7) events)
          in
          List.iter
            (fun (x, y) -> ignore (or_fail (Broker_client.publish pubc (event s x y))))
            events;
          ignore
            (Broker_client.await_deliveries ~timeout:2.0 subc expected_deliveries);
          let norm l = List.sort compare l in
          Alcotest.(check (list (pair string (pair int int))))
            "networked delivery ≡ Router delivery"
            (norm !router_got) (norm !net_got)))

let () =
  Alcotest.run "transport"
    [
      ( "codec",
        [
          Alcotest.test_case "addresses" `Quick test_addr_parse;
          Alcotest.test_case "message roundtrip" `Quick test_message_roundtrip;
          Alcotest.test_case "frame bounds" `Quick test_read_frame_bounds;
        ] );
      ( "journal",
        [
          Alcotest.test_case "events_since cursor" `Quick test_journal_events_since;
          Alcotest.test_case "crash regression" `Quick test_journal_crash_regression;
        ] );
      ( "socket",
        [
          Alcotest.test_case "roundtrip" `Quick test_socket_roundtrip;
          Alcotest.test_case "no echo" `Quick test_no_echo;
          Alcotest.test_case "covering on the wire" `Quick test_covering_on_the_wire;
          Alcotest.test_case "unsubscribe on the wire" `Quick
            test_unsubscribe_on_the_wire;
          Alcotest.test_case "torn frame on socket" `Quick test_torn_frame_on_socket;
          Alcotest.test_case "handshake reject" `Quick test_handshake_reject;
        ] );
      ( "recovery",
        [
          Alcotest.test_case "reconnect catch-up" `Quick test_reconnect_catchup;
          Alcotest.test_case "duplicate dedup" `Quick test_duplicate_dedup;
          Alcotest.test_case "replay idempotent" `Quick test_replay_idempotent;
        ] );
      ( "processes",
        [ Alcotest.test_case "two-process exchange" `Quick test_two_process_exchange ] );
      ( "differential",
        [
          Alcotest.test_case "networked ≡ router" `Quick test_router_differential;
        ] );
    ]
