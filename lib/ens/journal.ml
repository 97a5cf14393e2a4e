module Schema = Genas_model.Schema
module Event = Genas_model.Event
module Ops = Genas_filter.Ops
module Metrics = Genas_obs.Metrics

let log_src = Logs.Src.create "genas.journal" ~doc:"GENAS write-ahead journal"

module Log = (val Logs.src_log log_src)

type config = { dir : string; snapshot_every : int; fsync : bool; seed : int }

let default_seed = 0x6a6c5eed

let config ?(snapshot_every = 512) ?(fsync = true) ?(seed = default_seed) dir =
  if snapshot_every < 1 then
    invalid_arg "Journal.config: snapshot_every must be positive";
  { dir; snapshot_every; fsync; seed }

type op =
  | Subscribe of Codec.prim
  | Subscribe_composite of {
      id : int;
      subscriber : string;
      expr : Composite.expr;
    }
  | Unsubscribe_prim of { id : int }
  | Unsubscribe_comp of { id : int }
  | Publish of {
      events : Event.t array;
      batch : bool;
      published : int;
      notifications : int;
      ops : Ops.t;
      supervise : Supervise.Export.t;
      new_deadletters : Deadletter.entry list;
      dlq_total : int;
      dlq_dropped : int;
    }
  | Deadletter_replay of {
      published : int;
      notifications : int;
      supervise : Supervise.Export.t;
      dlq_entries : Deadletter.entry list;
      dlq_total : int;
      dlq_dropped : int;
    }

type instruments = {
  fsync_ns : Metrics.histogram;
  snapshot_install_ns : Metrics.histogram;
  recoveries_total : Metrics.counter;
  size_bytes : Metrics.gauge;
}

let make_instruments registry =
  {
    fsync_ns =
      Metrics.histogram registry "genas_journal_fsync_duration_ns"
        ~help:"Latency of one journal fsync (ns, monotonic)";
    snapshot_install_ns =
      Metrics.histogram registry "genas_journal_snapshot_install_duration_ns"
        ~help:"Latency of one atomic snapshot install (ns, monotonic)";
    recoveries_total =
      Metrics.counter registry "genas_journal_recoveries_total"
        ~help:"Successful Broker.recover completions";
    size_bytes =
      Metrics.gauge registry "genas_journal_size_bytes"
        ~help:"Logical size of the journal: header plus records (bytes)";
  }

type t = {
  config : config;
  schema : Schema.t;
  oc : out_channel;
  mutable next_op : int;
  mutable base_op : int;  (* lowest op index retained in journal.wal *)
  mutable since_snapshot : int;
  mutable file_bytes : int;  (* logical end: header plus records *)
  mutable capacity : int;  (* bytes written to the file, zeros included *)
  mutable appends : int;
  mutable bytes : int;
  mutable fsyncs : int;
  mutable snapshots : int;
  mutable truncations : int;
  mutable replayed : int;
  instruments : instruments option;
}

(* The journal's own tallies, read at export. *)
let read_counters t metrics =
  Option.iter
    (fun r ->
      Metrics.counters_of r
        [ ("genas_journal_appends_total",
           "Operations appended to the write-ahead journal", fun () -> t.appends);
          ("genas_journal_bytes_total", "Framed bytes appended to the journal",
           fun () -> t.bytes);
          ("genas_journal_fsyncs_total", "fsync calls issued by the journal",
           fun () -> t.fsyncs);
          ("genas_journal_snapshots_total",
           "Snapshots installed (journal truncations after snapshot)",
           fun () -> t.snapshots);
          ("genas_journal_truncations_total",
           "Corrupt or torn journal tails truncated during recovery",
           fun () -> t.truncations);
          ("genas_journal_replayed_ops_total",
           "Journal operations replayed by recovery", fun () -> t.replayed) ])
    metrics

let magic = "GWAL001\n"

let header seed =
  let b = Buffer.create 16 in
  Buffer.add_string b magic;
  Codec.w_int b seed;
  Buffer.contents b

let header_len = 16

let wal_file cfg = Filename.concat cfg.dir "journal.wal"

(* Records overwrite a region of zeros that was written and fsynced
   ahead of them. On ext4 the fsync after an overwrite only flushes the
   data, where the fsync after an append must also commit the new file
   size through the filesystem's journal: ≈50 against ≈75-95 µs per
   225-byte record on one ext4 disk. The region grows by this much
   whenever a record would not fit; at the default cadence of 512 ops
   one generation of ~225-byte records fits in the first. *)
let region_bytes = 1 lsl 18

(* The one source of zeros for every fill. *)
let zeros = String.make (1 lsl 16) '\000'

let rec output_zeros oc n =
  if n > 0 then begin
    let k = Stdlib.min n (String.length zeros) in
    output_substring oc zeros 0 k;
    output_zeros oc (n - k)
  end

let rec all_zero s i = i >= String.length s || (s.[i] = '\000' && all_zero s (i + 1))

let with_ins t f = match t.instruments with None -> () | Some ins -> f ins

let set_size t n =
  t.file_bytes <- n;
  with_ins t (fun ins -> Metrics.Gauge.set ins.size_bytes (float_of_int n))

(* fsync only makes kernel buffers durable: channel-buffered bytes that
   were never flushed are silently excluded from the barrier. Flushing
   here — unconditionally, before the descriptor sync — means no append
   path can reorder the two and report durability for data still
   sitting in the [out_channel] buffer. *)
let do_fsync t =
  flush t.oc;
  if t.config.fsync then begin
    t.fsyncs <- t.fsyncs + 1;
    match t.instruments with
    | None -> Unix.fsync (Unix.descr_of_out_channel t.oc)
    | Some ins ->
      let t0 = Genas_obs.Clock.now_ns () in
      Unix.fsync (Unix.descr_of_out_channel t.oc);
      let dt = Int64.to_float (Int64.sub (Genas_obs.Clock.now_ns ()) t0) in
      Metrics.Histogram.observe ins.fsync_ns (Float.max 0.0 dt)
  end

let observe_snapshot_install t ~ns =
  with_ins t (fun ins ->
      Metrics.Histogram.observe ins.snapshot_install_ns (Float.max 0.0 ns))

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end
  else if not (Sys.is_directory dir) then
    invalid_arg (Printf.sprintf "Journal: %s exists and is not a directory" dir)

(* The one constructor: [create] starts a fresh log, [recover] resumes
   one after [replayed] ops were read back from it. [oc] is positioned
   at [file_bytes]. *)
let make ?metrics schema cfg oc ~next_op ~base_op ~file_bytes ~capacity
    ~truncations ~replayed =
  let t =
    { config = cfg; schema; oc; next_op; base_op; since_snapshot = replayed;
      file_bytes; capacity; appends = 0; bytes = 0; fsyncs = 0; snapshots = 0;
      truncations; replayed; instruments = Option.map make_instruments metrics }
  in
  read_counters t metrics;
  set_size t file_bytes;
  t

(* Start a generation: the header, then zeros over every byte written
   so far and at least one region, under one fsync. The old records are
   wiped in place, so the file keeps its blocks and size. *)
let restart t =
  let upto = Stdlib.max (pos_out t.oc) (header_len + region_bytes) in
  seek_out t.oc 0;
  output_string t.oc (header t.config.seed);
  output_zeros t.oc (upto - header_len);
  do_fsync t;
  seek_out t.oc header_len;
  t.capacity <- Stdlib.max t.capacity upto;
  set_size t header_len

(* Zero-fill and fsync whole regions past [capacity] until [need] bytes
   fit, then return to the logical end. *)
let extend t need =
  let regions = (need - t.capacity + region_bytes - 1) / region_bytes in
  let upto = t.capacity + (regions * region_bytes) in
  seek_out t.oc t.capacity;
  output_zeros t.oc (upto - t.capacity);
  do_fsync t;
  seek_out t.oc t.file_bytes;
  t.capacity <- upto

let create ?metrics schema cfg =
  mkdir_p cfg.dir;
  Snapshot.remove ~dir:cfg.dir;
  let t =
    make ?metrics schema cfg (open_out_bin (wal_file cfg)) ~next_op:0 ~base_op:0
      ~file_bytes:0 ~capacity:0 ~truncations:0 ~replayed:0
  in
  restart t;
  t

let configuration t = t.config

let ops_logged t = t.next_op

let base_op t = t.base_op

let appends t = t.appends

let snapshots_written t = t.snapshots

let truncations t = t.truncations

let replayed_ops t = t.replayed

let size_bytes t = t.file_bytes

(* {1 Record encoding} — payload is [op index | tag | fields]. *)

let encode_op schema opi op =
  let b = Buffer.create 256 in
  Codec.w_int b opi;
  (match op with
  | Subscribe prim ->
    Codec.w_u8 b 0;
    Buffer.add_string b prim.Codec.record
  | Subscribe_composite { id; subscriber; expr } ->
    Codec.w_u8 b 1;
    Codec.w_int b id;
    Codec.w_string b subscriber;
    Codec.w_expr schema b expr
  | Unsubscribe_prim { id } ->
    Codec.w_u8 b 2;
    Codec.w_int b id
  | Unsubscribe_comp { id } ->
    Codec.w_u8 b 3;
    Codec.w_int b id
  | Publish
      {
        events;
        batch;
        published;
        notifications;
        ops;
        supervise;
        new_deadletters;
        dlq_total;
        dlq_dropped;
      } ->
    Codec.w_u8 b 4;
    Codec.w_array Codec.w_event b events;
    Codec.w_bool b batch;
    Codec.w_int b published;
    Codec.w_int b notifications;
    Codec.w_ops b ops;
    Codec.w_supervise b supervise;
    Codec.w_list Codec.w_deadletter b new_deadletters;
    Codec.w_int b dlq_total;
    Codec.w_int b dlq_dropped
  | Deadletter_replay
      { published; notifications; supervise; dlq_entries; dlq_total; dlq_dropped }
    ->
    Codec.w_u8 b 5;
    Codec.w_int b published;
    Codec.w_int b notifications;
    Codec.w_supervise b supervise;
    Codec.w_list Codec.w_deadletter b dlq_entries;
    Codec.w_int b dlq_total;
    Codec.w_int b dlq_dropped);
  Buffer.contents b

let decode_op schema payload =
  let r = Codec.reader payload in
  let opi = Codec.r_int r in
  let op =
    match Codec.r_u8 r with
    | 0 -> Subscribe (Codec.r_prim schema r)
    | 1 ->
      let id = Codec.r_int r in
      let subscriber = Codec.r_string r in
      let expr = Codec.r_expr schema r in
      Subscribe_composite { id; subscriber; expr }
    | 2 -> Unsubscribe_prim { id = Codec.r_int r }
    | 3 -> Unsubscribe_comp { id = Codec.r_int r }
    | 4 ->
      let events = Codec.r_array (Codec.r_event schema) r in
      let batch = Codec.r_bool r in
      let published = Codec.r_int r in
      let notifications = Codec.r_int r in
      let ops = Codec.r_ops r in
      let supervise = Codec.r_supervise r in
      let new_deadletters = Codec.r_list (Codec.r_deadletter schema) r in
      let dlq_total = Codec.r_int r in
      let dlq_dropped = Codec.r_int r in
      Publish
        {
          events;
          batch;
          published;
          notifications;
          ops;
          supervise;
          new_deadletters;
          dlq_total;
          dlq_dropped;
        }
    | 5 ->
      let published = Codec.r_int r in
      let notifications = Codec.r_int r in
      let supervise = Codec.r_supervise r in
      let dlq_entries = Codec.r_list (Codec.r_deadletter schema) r in
      let dlq_total = Codec.r_int r in
      let dlq_dropped = Codec.r_int r in
      Deadletter_replay
        { published; notifications; supervise; dlq_entries; dlq_total; dlq_dropped }
    | tag -> raise (Codec.Corrupt (Printf.sprintf "bad op tag %d" tag))
  in
  Codec.r_end r;
  (opi, op)

let append t ?faults op =
  let opi = t.next_op in
  let framed =
    Codec.frame ~seed:t.config.seed (encode_op t.schema opi op)
  in
  let crash =
    match faults with Some f -> Fault.journal_crash f ~op:opi | None -> None
  in
  let need = t.file_bytes + String.length framed in
  if need > t.capacity then extend t need;
  match crash with
  | Some Fault.Crash_before_fsync ->
    (* Torn write: a prefix of the frame reaches the disk, the record
       is not durable. Recovery detects it by length/checksum and
       truncates. *)
    output_string t.oc (String.sub framed 0 ((String.length framed / 2) + 1));
    flush t.oc;
    raise (Fault.Crashed Fault.Crash_before_fsync)
  | Some Fault.Crash_mid_snapshot | Some Fault.Crash_after_journal | None -> (
    output_string t.oc framed;
    (* [do_fsync] flushes before syncing — the channel buffer is on
       disk before durability is claimed, on every append path. The
       record overwrites zeros, so the sync commits no size change. *)
    do_fsync t;
    t.next_op <- opi + 1;
    t.since_snapshot <- t.since_snapshot + 1;
    t.appends <- t.appends + 1;
    t.bytes <- t.bytes + String.length framed;
    set_size t (t.file_bytes + String.length framed);
    match crash with
    | Some Fault.Crash_after_journal ->
      (* The record is durable; the simulated process dies before the
         caller sees the acknowledgement. *)
      raise (Fault.Crashed Fault.Crash_after_journal)
    | _ -> ())

let snapshot_due t = t.since_snapshot >= t.config.snapshot_every

let wrote_snapshot t =
  (* The snapshot now covers every journaled op: restart the log. The
     old journal is only zeroed after the snapshot's atomic rename,
     and records carry op indices, so a crash between the two steps
     merely replays ops the snapshot already covers (skipped by
     [last_op]). *)
  restart t;
  t.base_op <- t.next_op;
  t.since_snapshot <- 0;
  t.snapshots <- t.snapshots + 1

(* Trim the zero region away: a cleanly closed journal holds exactly
   its header and records. A second close does nothing. *)
let close t =
  match Unix.descr_of_out_channel t.oc with
  | exception Sys_error _ -> ()
  | fd ->
    let written = pos_out t.oc in
    flush t.oc;
    Unix.ftruncate fd written;
    close_out t.oc

(* {1 Recovery} *)

type recovered = {
  snapshot : Snapshot.data option;
  tail : op list;
  truncated : int;
}

let read_file ?len path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      really_input_string ic (Option.value len ~default:(in_channel_length ic)))

(* Catch-up cursor for the transport layer: re-read the live WAL and
   return every published event batch recorded after op [since],
   oldest first. [complete] is false when a snapshot has restarted the
   log past the cursor — the retained tail no longer reaches back to
   [since + 1], so the caller must fall back to full state transfer. *)
let events_since t ~since =
  flush t.oc;
  let contents = read_file ~len:t.file_bytes (wal_file t.config) in
  let payloads, _, _ =
    if String.length contents < header_len then ([], 0, false)
    else Codec.parse_frames ~seed:t.config.seed contents ~pos:header_len
  in
  let batches =
    List.filter_map
      (fun payload ->
        match decode_op t.schema payload with
        | opi, Publish { events; _ } when opi > since -> Some (opi, events)
        | _ -> None
        | exception Codec.Corrupt _ -> None)
      payloads
  in
  (batches, t.base_op <= since + 1)

let recover ?metrics schema cfg =
  let path = wal_file cfg in
  if not (Sys.file_exists path) then
    Error (Printf.sprintf "no journal at %s" path)
  else
    match Snapshot.read ~dir:cfg.dir ~seed:cfg.seed schema with
    | Error e -> Error e
    | Ok snapshot -> (
      let contents = read_file path in
      if
        String.length contents < header_len
        || not (String.equal (String.sub contents 0 8) magic)
      then Error "journal: bad header"
      else if
        Int64.to_int (String.get_int64_le contents (String.length magic))
        <> cfg.seed
      then Error "journal: checksum seed mismatch"
      else
        let payloads, valid_end, tail_corrupt =
          Codec.parse_frames ~seed:cfg.seed contents ~pos:header_len
        in
        match List.map (decode_op schema) payloads with
        | exception Codec.Corrupt msg -> Error ("journal: " ^ msg)
        | records ->
          (* Frames stop at the first zero length field; zeros alone
             after them are the unused region, a clean end. *)
          let torn = tail_corrupt && not (all_zero contents valid_end) in
          let truncated =
            if torn then begin
              (* Torn or corrupt tail: drop it physically so the next
                 append starts at a clean frame boundary. Never fatal. *)
              Log.warn (fun m ->
                  m "truncating %d corrupt byte(s) at the tail of %s"
                    (String.length contents - valid_end)
                    path);
              Unix.truncate path valid_end;
              1
            end
            else 0
          in
          let last_covered =
            match snapshot with Some s -> s.Snapshot.last_op | None -> -1
          in
          let tail =
            List.filter_map
              (fun (opi, op) -> if opi > last_covered then Some op else None)
              records
          in
          let next_op =
            List.fold_left
              (fun acc (opi, _) -> Stdlib.max acc (opi + 1))
              (last_covered + 1) records
          in
          (* Only a run of records that reaches [next_op] is retained:
             a restart that a crash cut short can leave a prefix of the
             old generation, ending short of the snapshot's last op. *)
          let base_op =
            List.fold_left
              (fun base (opi, _) -> if opi + 1 = base then opi else base)
              next_op (List.rev records)
          in
          let oc = open_out_gen [ Open_wronly; Open_binary ] 0o644 path in
          seek_out oc valid_end;
          let capacity = if torn then valid_end else String.length contents in
          let t =
            make ?metrics schema cfg oc ~next_op ~base_op ~file_bytes:valid_end
              ~capacity ~truncations:truncated ~replayed:(List.length tail)
          in
          with_ins t (fun ins -> Metrics.Counter.incr ins.recoveries_total);
          Ok ({ snapshot; tail; truncated }, t))
