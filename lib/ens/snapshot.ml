module Ops = Genas_filter.Ops
module Stats = Genas_core.Stats
module Adaptive = Genas_core.Adaptive
module Engine = Genas_core.Engine

type 'profiles contents = {
  last_op : int;
  fingerprint : string;
  profiles : 'profiles;
  next_profile_id : int;
  composites : (int * string * Composite.expr) list;
  next_comp : int;
  published : int;
  notifications : int;
  ops : Ops.t;
  stats : Stats.Export.t;
  churn : Engine.churn;
  adaptive : Adaptive.Export.t option;
  supervise : Supervise.Export.t;
  dlq_entries : Deadletter.entry list;
  dlq_total : int;
  dlq_dropped : int;
}

type data = Codec.prim list contents

type records = { count : int; iter : (string -> unit) -> unit }

(* Version 2 appended the engine's pending churn; a version-1 snapshot
   was always taken with nothing pending. *)
let magic = "GSNAP02\n"

let magic_v1 = "GSNAP01\n"

let no_churn = { Engine.delta = []; dead = []; rent = 0 }

let file dir = Filename.concat dir "snapshot.bin"

let tmp_file dir = Filename.concat dir "snapshot.tmp"

let decode ~version schema payload =
  let r = Codec.reader payload in
  let last_op = Codec.r_int r in
  let fingerprint = Codec.r_string r in
  let profiles = Codec.r_list (Codec.r_prim schema) r in
  let next_profile_id = Codec.r_int r in
  let composites =
    Codec.r_list
      (fun r ->
        let id = Codec.r_int r in
        let sub = Codec.r_string r in
        let e = Codec.r_expr schema r in
        (id, sub, e))
      r
  in
  let next_comp = Codec.r_int r in
  let published = Codec.r_int r in
  let notifications = Codec.r_int r in
  let ops = Codec.r_ops r in
  let stats = Codec.r_stats r in
  let adaptive = Codec.r_option Codec.r_adaptive r in
  let supervise = Codec.r_supervise r in
  let dlq_entries = Codec.r_list (Codec.r_deadletter schema) r in
  let dlq_total = Codec.r_int r in
  let dlq_dropped = Codec.r_int r in
  let churn =
    if version = 1 then no_churn
    else
      let delta = Codec.r_list Codec.r_int r in
      let dead =
        Codec.r_list
          (fun r ->
            let id = Codec.r_int r in
            let p = Codec.r_profile schema r in
            (id, p))
          r
      in
      let rent = Codec.r_int r in
      { Engine.delta; dead; rent }
  in
  Codec.r_end r;
  {
    last_op;
    fingerprint;
    profiles;
    next_profile_id;
    composites;
    next_comp;
    published;
    notifications;
    ops;
    stats;
    churn;
    adaptive;
    supervise;
    dlq_entries;
    dlq_total;
    dlq_dropped;
  }

let header seed =
  let b = Buffer.create 16 in
  Buffer.add_string b magic;
  Codec.w_int b seed;
  Buffer.contents b

let fsync_dir dir =
  (* Make the rename itself durable. Best-effort: some filesystems
     refuse fsync on a directory fd. *)
  match Unix.openfile dir [ Unix.O_RDONLY ] 0 with
  | exception Unix.Unix_error _ -> ()
  | fd ->
    Fun.protect
      ~finally:(fun () -> Unix.close fd)
      (fun () -> try Unix.fsync fd with Unix.Unix_error _ -> ())

(* Stream [header | frame header | payload], checksumming as bytes go
   out; the frame header is filled in last. The records are copied as
   cached: [w_list]'s layout is a count, then the elements. *)
let write_core ?faults ~dir ~seed ~op schema d =
  let crash =
    match faults with Some f -> Fault.snapshot_crash f ~op | None -> false
  in
  let hdr = header seed in
  let oc = open_out_bin (tmp_file dir) in
  Fun.protect ~finally:(fun () -> close_out_noerr oc) (fun () ->
      output_string oc hdr;
      output_string oc (String.make Codec.frame_header_len '\000');
      let sum = ref (Codec.checksum ~seed "") and len = ref 0 in
      let emit s =
        output_string oc s;
        sum := Codec.checksum_continue !sum s;
        len := !len + String.length s
      in
      let b = Buffer.create 4096 in
      Codec.w_int b d.last_op;
      Codec.w_string b d.fingerprint;
      Codec.w_int b d.profiles.count;
      emit (Buffer.contents b);
      d.profiles.iter emit;
      Buffer.clear b;
      Codec.w_int b d.next_profile_id;
      Codec.w_list
        (fun b (id, sub, e) ->
          Codec.w_int b id;
          Codec.w_string b sub;
          Codec.w_expr schema b e)
        b d.composites;
      Codec.w_int b d.next_comp;
      Codec.w_int b d.published;
      Codec.w_int b d.notifications;
      Codec.w_ops b d.ops;
      Codec.w_stats b d.stats;
      Codec.w_option Codec.w_adaptive b d.adaptive;
      Codec.w_supervise b d.supervise;
      Codec.w_list Codec.w_deadletter b d.dlq_entries;
      Codec.w_int b d.dlq_total;
      Codec.w_int b d.dlq_dropped;
      Codec.w_list Codec.w_int b d.churn.Engine.delta;
      Codec.w_list
        (fun b (id, p) ->
          Codec.w_int b id;
          Codec.w_profile schema b p)
        b d.churn.Engine.dead;
      Codec.w_int b d.churn.Engine.rent;
      emit (Buffer.contents b);
      seek_out oc (String.length hdr);
      output_string oc (Codec.frame_header ~len:!len !sum);
      flush oc;
      let fd = Unix.descr_of_out_channel oc in
      if crash then begin
        (* Simulated death mid-write: a prefix of the temp file reaches
           the disk, the rename never happens. The previous snapshot
           (if any) and the journal are untouched. *)
        Unix.ftruncate fd ((String.length hdr + Codec.frame_header_len + !len) / 2);
        raise (Fault.Crashed Fault.Crash_mid_snapshot)
      end;
      Unix.fsync fd);
  Sys.rename (tmp_file dir) (file dir);
  fsync_dir dir

let write ?faults ?tracer ~dir ~seed ~op schema data =
  let go () = write_core ?faults ~dir ~seed ~op schema data in
  match tracer with
  | None -> go ()
  | Some tr -> Genas_obs.Trace.with_span tr ~name:"snapshot.install" go

let read ~dir ~seed schema =
  let path = file dir in
  if not (Sys.file_exists path) then Ok None
  else begin
    let contents =
      let ic = open_in_bin path in
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () -> really_input_string ic (in_channel_length ic))
    in
    let hlen = String.length (header seed) in
    let version () =
      match String.sub contents 0 8 with
      | m when String.equal m magic -> 2
      | m when String.equal m magic_v1 -> 1
      | _ -> 0
    in
    if String.length contents < hlen then Error "snapshot: truncated header"
    else if version () = 0 then Error "snapshot: bad magic"
    else begin
      let stored_seed =
        Int64.to_int (String.get_int64_le contents (String.length magic))
      in
      if stored_seed <> seed then
        Error
          (Printf.sprintf "snapshot: checksum seed mismatch (file %d, config %d)"
             stored_seed seed)
      else
        match Codec.parse_frames ~seed contents ~pos:hlen with
        | [ payload ], _, false -> (
          match decode ~version:(version ()) schema payload with
          | exception Codec.Corrupt msg -> Error ("snapshot: " ^ msg)
          | data ->
            if
              not (String.equal data.fingerprint (Codec.schema_fingerprint schema))
            then Error "snapshot: written against a different schema"
            else Ok (Some data))
        | _, _, _ ->
          (* The snapshot is installed by an atomic rename after fsync;
             a malformed file means it was not written by us. *)
          Error "snapshot: corrupt frame"
    end
  end

let remove ~dir =
  List.iter
    (fun p -> if Sys.file_exists p then Sys.remove p)
    [ file dir; tmp_file dir ]
