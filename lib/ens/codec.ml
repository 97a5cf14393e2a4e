(* Seeded-deterministic binary codec for the write-ahead journal and
   snapshots. Little-endian throughout; every frame is length-prefixed
   and carries a seeded FNV-1a 64 checksum of its payload, so a torn or
   bit-flipped tail is detected (and truncated) rather than decoded. *)

module Value = Genas_model.Value
module Event = Genas_model.Event
module Schema = Genas_model.Schema
module Profile = Genas_profile.Profile
module Lang = Genas_profile.Lang
module Estimator = Genas_dist.Estimator
module Stats = Genas_core.Stats
module Adaptive = Genas_core.Adaptive
module Ops = Genas_filter.Ops

exception Corrupt of string

let corrupt fmt = Printf.ksprintf (fun s -> raise (Corrupt s)) fmt

(* {1 Checksum} *)

let fnv_offset = 0xcbf29ce484222325L
let fnv_prime = 0x100000001b3L

(* An indexed loop over a local [ref]: the compiler keeps the running
   state unboxed, where a [String.iter] closure would box it per byte. *)
let checksum_continue h s =
  let h = ref h in
  for i = 0 to String.length s - 1 do
    h :=
      Int64.mul
        (Int64.logxor !h (Int64.of_int (Char.code (String.unsafe_get s i))))
        fnv_prime
  done;
  !h

let checksum ~seed s =
  checksum_continue (Int64.logxor fnv_offset (Int64.of_int seed)) s

(* {1 Primitive writers (into a Buffer)} *)

let w_u8 b n = Buffer.add_char b (Char.chr (n land 0xff))
let w_i64 b n = Buffer.add_int64_le b n
let w_int b n = w_i64 b (Int64.of_int n)
let w_bool b v = w_u8 b (if v then 1 else 0)
let w_float b f = w_i64 b (Int64.bits_of_float f)

let w_string b s =
  w_int b (String.length s);
  Buffer.add_string b s

let w_option w b = function
  | None -> w_u8 b 0
  | Some v ->
    w_u8 b 1;
    w b v

let w_list w b xs =
  w_int b (List.length xs);
  List.iter (w b) xs

let w_array w b xs =
  w_int b (Array.length xs);
  Array.iter (w b) xs

(* {1 Primitive readers (over a string)} *)

type reader = { buf : string; mutable pos : int }

let reader buf = { buf; pos = 0 }

let need r n =
  if n < 0 || r.pos + n > String.length r.buf then corrupt "truncated payload"

let r_u8 r =
  need r 1;
  let c = Char.code r.buf.[r.pos] in
  r.pos <- r.pos + 1;
  c

let r_i64 r =
  need r 8;
  let v = String.get_int64_le r.buf r.pos in
  r.pos <- r.pos + 8;
  v

let r_int r = Int64.to_int (r_i64 r)

let r_bool r = r_u8 r <> 0
let r_float r = Int64.float_of_bits (r_i64 r)

let r_string r =
  let n = r_int r in
  need r n;
  let s = String.sub r.buf r.pos n in
  r.pos <- r.pos + n;
  s

let r_option rd r =
  match r_u8 r with
  | 0 -> None
  | 1 -> Some (rd r)
  | t -> corrupt "bad option tag %d" t

let r_list rd r =
  let n = r_int r in
  if n < 0 then corrupt "negative list length";
  List.init n (fun _ -> rd r)

let r_array rd r =
  let n = r_int r in
  if n < 0 then corrupt "negative array length";
  Array.init n (fun _ -> rd r)

let r_end r =
  if r.pos <> String.length r.buf then corrupt "trailing bytes in payload"

(* {1 Frames}

   A frame is [u32 LE payload-length | i64 LE checksum | payload]. *)

let frame_header_len = 12

(* A frame's length prefix is attacker-controlled on a socket (and
   bit-rot-controlled on disk): it must be bounds-checked *before* any
   allocation is sized from it. 16 MiB comfortably holds every wire
   message while keeping a hostile header from demanding a multi-GiB
   buffer. *)
let default_max_frame = 1 lsl 24

let frame_header ~len sum =
  if len > 0x7fff_ffff then
    invalid_arg "Codec.frame: payload exceeds the u32 length prefix";
  let b = Bytes.create frame_header_len in
  Bytes.set_int32_le b 0 (Int32.of_int len);
  Bytes.set_int64_le b 4 sum;
  Bytes.unsafe_to_string b

let frame ~seed payload =
  frame_header ~len:(String.length payload) (checksum ~seed payload) ^ payload

(* Decode a header's length field defensively: [Error] rather than
   trusting a negative or oversized value. *)
let frame_length ~max_frame header ~pos =
  let plen = Int32.to_int (String.get_int32_le header pos) in
  if plen < 0 then Error (Printf.sprintf "negative frame length %d" plen)
  else if plen > max_frame then
    Error
      (Printf.sprintf "frame length %d exceeds the %d-byte limit" plen
         max_frame)
  else Ok plen

(* Parse consecutive frames from [buf] starting at [pos]; stops at the
   first torn or corrupt frame. Returns the payloads, the byte offset
   of the valid prefix's end, and whether bytes were left over (a
   truncation-worthy tail). By default only [buf]'s length bounds a
   frame: a durable record past the wire's limit is not a torn tail. *)
let parse_frames ?(max_frame = max_int) ~seed buf ~pos =
  let len = String.length buf in
  let payloads = ref [] in
  let ok_end = ref pos in
  let cursor = ref pos in
  let stop = ref false in
  while not !stop do
    if !cursor + frame_header_len > len then stop := true
    else begin
      match frame_length ~max_frame buf ~pos:!cursor with
      | Error _ -> stop := true
      | Ok plen ->
        let sum = String.get_int64_le buf (!cursor + 4) in
        if !cursor + frame_header_len + plen > len then stop := true
        else begin
          let payload = String.sub buf (!cursor + frame_header_len) plen in
          if Int64.equal (checksum ~seed payload) sum then begin
            payloads := payload :: !payloads;
            cursor := !cursor + frame_header_len + plen;
            ok_end := !cursor
          end
          else stop := true
        end
    end
  done;
  (List.rev !payloads, !ok_end, !ok_end < len)

(* Streaming frame reader for sockets. The header is read first and its
   length field validated against [max_frame] {e before} the payload
   buffer is allocated, so a corrupt or hostile peer cannot force a
   negative or multi-GiB allocation. *)
let read_frame ?(max_frame = default_max_frame) ~seed ic =
  let header = Bytes.create frame_header_len in
  match really_input ic header 0 frame_header_len with
  | exception End_of_file -> Error `Eof
  | exception Sys_error _ -> Error `Eof
  | () -> (
    let header = Bytes.unsafe_to_string header in
    match frame_length ~max_frame header ~pos:0 with
    | Error msg -> Error (`Corrupt msg)
    | Ok plen -> (
      let sum = String.get_int64_le header 4 in
      let payload = Bytes.create plen in
      match really_input ic payload 0 plen with
      | exception End_of_file -> Error (`Corrupt "truncated frame payload")
      | exception Sys_error _ -> Error (`Corrupt "truncated frame payload")
      | () ->
        let payload = Bytes.unsafe_to_string payload in
        if Int64.equal (checksum ~seed payload) sum then Ok payload
        else Error (`Corrupt "frame checksum mismatch")))

(* {1 Domain encodings} *)

let w_value b = function
  | Value.Int n ->
    w_u8 b 0;
    w_int b n
  | Value.Float f ->
    w_u8 b 1;
    w_float b f
  | Value.Str s ->
    w_u8 b 2;
    w_string b s
  | Value.Bool v ->
    w_u8 b 3;
    w_bool b v

let r_value r =
  match r_u8 r with
  | 0 -> Value.Int (r_int r)
  | 1 -> Value.Float (r_float r)
  | 2 -> Value.Str (r_string r)
  | 3 -> Value.Bool (r_bool r)
  | t -> corrupt "bad value tag %d" t

let w_event b (e : Event.t) =
  w_int b e.Event.seq;
  w_float b e.Event.time;
  w_array w_value b e.Event.values

let r_event schema r =
  let seq = r_int r in
  let time = r_float r in
  let values = r_array r_value r in
  match Event.of_values ~seq ~time schema values with
  | Ok e -> e
  | Error msg -> corrupt "event: %s" msg

let w_origin b = function
  | Notification.Primitive id ->
    w_u8 b 0;
    w_int b id
  | Notification.Composite id ->
    w_u8 b 1;
    w_int b id

let r_origin r =
  match r_u8 r with
  | 0 -> Notification.Primitive (r_int r)
  | 1 -> Notification.Composite (r_int r)
  | t -> corrupt "bad origin tag %d" t

let w_notification b (n : Notification.t) =
  w_event b n.Notification.event;
  w_origin b n.Notification.origin;
  w_string b n.Notification.subscriber;
  w_option w_int b n.Notification.broker

let r_notification schema r =
  let event = r_event schema r in
  let origin = r_origin r in
  let subscriber = r_string r in
  let broker = r_option r_int r in
  Notification.make ?broker ~event ~origin ~subscriber ()

let w_deadletter b (e : Deadletter.entry) =
  w_notification b e.Deadletter.notification;
  w_int b e.Deadletter.attempts;
  w_string b e.Deadletter.error;
  w_int b e.Deadletter.seq

let r_deadletter schema r =
  let notification = r_notification schema r in
  let attempts = r_int r in
  let error = r_string r in
  let seq = r_int r in
  { Deadletter.notification; attempts; error; seq }

(* Profiles travel as their profile-language body — [Lang.body_to_string]
   re-parses to an equivalent profile (the persistence contract shared
   with {!Store}). *)

let w_profile schema b (p : Profile.t) =
  w_option w_string b p.Profile.name;
  w_string b (Lang.body_to_string schema p)

let r_profile schema r =
  let name = r_option r_string r in
  let body = r_string r in
  match Lang.parse_profile ?name schema body with
  | Ok p -> p
  | Error msg -> corrupt "profile: %s" msg

type prim = { id : int; subscriber : string; profile : Profile.t; record : string }

let prim schema ~id ~subscriber profile =
  let b = Buffer.create 64 in
  w_int b id;
  w_string b subscriber;
  w_profile schema b profile;
  { id; subscriber; profile; record = Buffer.contents b }

(* The record is the slice just decoded, not a re-rendering of it. *)
let r_prim schema r =
  let start = r.pos in
  let id = r_int r in
  let subscriber = r_string r in
  let profile = r_profile schema r in
  { id; subscriber; profile; record = String.sub r.buf start (r.pos - start) }

let rec w_expr schema b = function
  | Composite.Prim p ->
    w_u8 b 0;
    w_profile schema b p
  | Composite.Seq (a, c, w) ->
    w_u8 b 1;
    w_expr schema b a;
    w_expr schema b c;
    w_float b w
  | Composite.Both (a, c, w) ->
    w_u8 b 2;
    w_expr schema b a;
    w_expr schema b c;
    w_float b w
  | Composite.Either (a, c) ->
    w_u8 b 3;
    w_expr schema b a;
    w_expr schema b c
  | Composite.Without (a, c, w) ->
    w_u8 b 4;
    w_expr schema b a;
    w_expr schema b c;
    w_float b w
  | Composite.Repeat (a, k, w) ->
    w_u8 b 5;
    w_expr schema b a;
    w_int b k;
    w_float b w

let rec r_expr schema r =
  match r_u8 r with
  | 0 -> Composite.Prim (r_profile schema r)
  | 1 ->
    let a = r_expr schema r in
    let c = r_expr schema r in
    let w = r_float r in
    Composite.Seq (a, c, w)
  | 2 ->
    let a = r_expr schema r in
    let c = r_expr schema r in
    let w = r_float r in
    Composite.Both (a, c, w)
  | 3 ->
    let a = r_expr schema r in
    let c = r_expr schema r in
    Composite.Either (a, c)
  | 4 ->
    let a = r_expr schema r in
    let c = r_expr schema r in
    let w = r_float r in
    Composite.Without (a, c, w)
  | 5 ->
    let a = r_expr schema r in
    let k = r_int r in
    let w = r_float r in
    Composite.Repeat (a, k, w)
  | t -> corrupt "bad composite tag %d" t

let w_ops b (o : Ops.t) =
  w_int b o.Ops.comparisons;
  w_int b o.Ops.node_visits;
  w_int b o.Ops.events;
  w_int b o.Ops.matches

let r_ops r =
  let comparisons = r_int r in
  let node_visits = r_int r in
  let events = r_int r in
  let matches = r_int r in
  { Ops.comparisons; node_visits; events; matches }

let w_estimator b (e : Estimator.Export.t) =
  w_bool b e.Estimator.Export.exact;
  w_int b e.Estimator.Export.bins;
  w_array w_float b e.Estimator.Export.counts;
  w_int b e.Estimator.Export.total;
  w_int b e.Estimator.Export.dropped

let r_estimator r =
  let exact = r_bool r in
  let bins = r_int r in
  let counts = r_array r_float r in
  let total = r_int r in
  let dropped = r_int r in
  { Estimator.Export.exact; bins; counts; total; dropped }

let w_stats b (e : Stats.Export.t) =
  w_array w_estimator b e.Stats.Export.hists;
  w_int b e.Stats.Export.events_seen;
  w_list
    (fun b (id, w) ->
      w_int b id;
      w_float b w)
    b e.Stats.Export.priorities

let r_stats r =
  let hists = r_array r_estimator r in
  let events_seen = r_int r in
  let priorities =
    r_list
      (fun r ->
        let id = r_int r in
        let w = r_float r in
        (id, w))
      r
  in
  { Stats.Export.hists; events_seen; priorities }

let w_adaptive b (e : Adaptive.Export.t) =
  w_int b e.Adaptive.Export.seen;
  w_int b e.Adaptive.Export.since_check;
  w_int b e.Adaptive.Export.checks;
  w_int b e.Adaptive.Export.rebuilds;
  w_float b e.Adaptive.Export.last_drift;
  w_option (w_array w_estimator) b e.Adaptive.Export.planned

let r_adaptive r =
  let seen = r_int r in
  let since_check = r_int r in
  let checks = r_int r in
  let rebuilds = r_int r in
  let last_drift = r_float r in
  let planned = r_option (r_array r_estimator) r in
  { Adaptive.Export.seen; since_check; checks; rebuilds; last_drift; planned }

let w_circuit_state b = function
  | Supervise.Closed -> w_u8 b 0
  | Supervise.Open -> w_u8 b 1
  | Supervise.Half_open -> w_u8 b 2

let r_circuit_state r =
  match r_u8 r with
  | 0 -> Supervise.Closed
  | 1 -> Supervise.Open
  | 2 -> Supervise.Half_open
  | t -> corrupt "bad circuit-state tag %d" t

let w_supervise b (e : Supervise.Export.t) =
  w_int b e.Supervise.Export.deliveries;
  w_int b e.Supervise.Export.delivered;
  w_int b e.Supervise.Export.failures;
  w_int b e.Supervise.Export.retries;
  w_int b e.Supervise.Export.deadlettered;
  w_int b e.Supervise.Export.short_circuited;
  w_int b e.Supervise.Export.trips;
  w_int b e.Supervise.Export.jitter_draws;
  w_list
    (fun b (s, state, count) ->
      w_string b s;
      w_circuit_state b state;
      w_int b count)
    b e.Supervise.Export.circuits

let r_supervise r =
  let deliveries = r_int r in
  let delivered = r_int r in
  let failures = r_int r in
  let retries = r_int r in
  let deadlettered = r_int r in
  let short_circuited = r_int r in
  let trips = r_int r in
  let jitter_draws = r_int r in
  let circuits =
    r_list
      (fun r ->
        let s = r_string r in
        let state = r_circuit_state r in
        let count = r_int r in
        (s, state, count))
      r
  in
  {
    Supervise.Export.deliveries;
    delivered;
    failures;
    retries;
    deadlettered;
    short_circuited;
    trips;
    jitter_draws;
    circuits;
  }

(* A schema fingerprint pins a journal directory to the schema it was
   written against; recovery under a different schema must fail loudly,
   not decode garbage. *)
let schema_fingerprint schema = Format.asprintf "%a" Schema.pp schema
