module Prng = Genas_prng.Prng

type status = Ok | Error of string

type span = {
  span_id : int;
  parent : int;  (** -1 for the root span *)
  span_name : string;
  depth : int;
  start_ns : int64;
  mutable end_ns : int64;  (** [Int64.min_int] while the span is open *)
  mutable status : status;
  mutable attrs : (string * string) list;  (** reverse insertion order *)
}

type path = {
  path_nodes : int array;
  path_levels : int array;
  path_edges : int array;
  path_comparisons : int array;
  path_matched : int array;
}

type trace = {
  trace_id : int;
  root_name : string;
  mutable spans : span list;  (** reverse start order *)
  mutable span_count : int;
  mutable path : path option;
  remote : (string * int) option;
      (** [(origin node, parent span id)] when the trace id was adopted
          from a wire context rather than drawn locally *)
}

type instruments = {
  traces_total : Metrics.counter;
  spans_total : Metrics.counter;
  span_errors_total : Metrics.counter;
  evicted_total : Metrics.counter;
  dropped_spans_total : Metrics.counter;
  registry : Metrics.t;
  by_name : (string, Metrics.histogram) Hashtbl.t;
}

type t = {
  sample : float;
  rng : Prng.t;
  capacity : int;
  clock : unit -> int64;
  ring : trace option array;
  mutable ring_next : int;
  started : int Atomic.t;  (** bumped outside [mu] by the skip path *)
  mutable sampled : int;
  mutable completed : int;
  mutable evicted : int;
  mutable dropped : int;
  mutable current : trace option;
  mutable stack : span list;
  mutable next_trace_id : int;
  mutable last_dump : string option;
  on_dump : (string -> unit) option;
  instruments : instruments option;
  (* Serializes every state transition (never held across a user
     callback, so nested with_span re-entry cannot deadlock): one
     tracer may be shared by a server's connection threads, the
     monitor, and a client ticker. *)
  mu : Mutex.t;
}

let create ?(sample = 1.0) ?(capacity = 16) ?metrics ?on_dump ?clock ~seed () =
  if capacity < 1 then invalid_arg "Trace.create: capacity must be positive";
  if not (Float.is_finite sample) || sample < 0.0 || sample > 1.0 then
    invalid_arg "Trace.create: sample must be in [0,1]";
  let instruments =
    match metrics with
    | None -> None
    | Some registry ->
      Some
        {
          traces_total =
            Metrics.counter registry "genas_trace_traces_total"
              ~help:"sampled traces completed";
          spans_total =
            Metrics.counter registry "genas_trace_spans_total"
              ~help:"spans recorded across all sampled traces";
          span_errors_total =
            Metrics.counter registry "genas_trace_span_errors_total"
              ~help:"spans closed with an error status";
          evicted_total =
            Metrics.counter registry "genas_trace_evicted_total"
              ~help:"traces evicted from the flight-recorder ring";
          dropped_spans_total =
            Metrics.counter registry "genas_trace_dropped_spans_total"
              ~help:
                "spans overwritten unexported when the flight-recorder ring \
                 evicted their trace";
          registry;
          by_name = Hashtbl.create 16;
        }
  in
  {
    sample;
    rng = Prng.create ~seed;
    capacity;
    clock = (match clock with Some c -> c | None -> Clock.now_ns);
    ring = Array.make capacity None;
    ring_next = 0;
    started = Atomic.make 0;
    sampled = 0;
    completed = 0;
    evicted = 0;
    dropped = 0;
    current = None;
    stack = [];
    next_trace_id = 0;
    last_dump = None;
    on_dump;
    instruments;
    mu = Mutex.create ();
  }

let with_mu t f = Mutex.protect t.mu f

let active t = t.current <> None

let depth t = with_mu t (fun () -> List.length t.stack)

let started t = Atomic.get t.started

let sampled t = t.sampled

let completed t = t.completed

let evicted t = t.evicted

let dropped_spans t = t.dropped

(* ------------------------------------------------------------------ *)
(* Span lifecycle *)

let valid_span_name name =
  name <> ""
  && String.for_all
       (function
         | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '.' | '-' -> true
         | _ -> false)
       name

let start_span_locked t ~name =
  match t.current with
  | None -> None
  | Some tr ->
    if not (valid_span_name name) then
      invalid_arg (Printf.sprintf "Trace: malformed span name %S" name);
    let parent = match t.stack with [] -> -1 | s :: _ -> s.span_id in
    let span =
      {
        span_id = tr.span_count;
        parent;
        span_name = name;
        depth = List.length t.stack;
        start_ns = t.clock ();
        end_ns = Int64.min_int;
        status = Ok;
        attrs = [];
      }
    in
    tr.spans <- span :: tr.spans;
    tr.span_count <- tr.span_count + 1;
    t.stack <- span :: t.stack;
    Some span

let start_span t ~name = with_mu t (fun () -> start_span_locked t ~name)

let span_duration_buckets =
  (* 100 ns .. 10 s; traces time whole publishes including journal
     fsyncs, so the range extends past the metrics default. *)
  [|
    100.; 250.; 500.; 1e3; 2.5e3; 5e3; 1e4; 2.5e4; 5e4; 1e5; 2.5e5; 5e5; 1e6;
    2.5e6; 5e6; 1e7; 1e8; 1e9; 1e10;
  |]

let observe_span t span =
  match t.instruments with
  | None -> ()
  | Some i ->
    Metrics.Counter.incr i.spans_total;
    (match span.status with
    | Ok -> ()
    | Error _ -> Metrics.Counter.incr i.span_errors_total);
    let h =
      match Hashtbl.find_opt i.by_name span.span_name with
      | Some h -> h
      | None ->
        let h =
          Metrics.histogram i.registry "genas_trace_span_duration_ns"
            ~help:"span durations by span name"
            ~labels:[ ("span", span.span_name) ]
            ~buckets:span_duration_buckets
        in
        Hashtbl.replace i.by_name span.span_name h;
        h
    in
    Metrics.Histogram.observe h
      (Int64.to_float (Int64.sub span.end_ns span.start_ns))

let finish_span_locked t ?error = function
  | None -> ()
  | Some span ->
    if span.end_ns = Int64.min_int then begin
      span.end_ns <- t.clock ();
      (match error with None -> () | Some e -> span.status <- Error e);
      (* Pop down to (and including) this span; any deeper spans left
         open by a non-local exit are closed with the same moment and
         an error status so nesting depth always returns to zero. *)
      let rec pop = function
        | [] -> []
        | s :: rest when s == span -> rest
        | s :: rest ->
          s.end_ns <- span.end_ns;
          (if s.status = Ok then
             s.status <- Error "parent span closed first");
          observe_span t s;
          pop rest
      in
      t.stack <- pop t.stack;
      observe_span t span
    end

(* A span never opened (tracing off or unsampled) needs no lock. *)
let finish_span t ?error = function
  | None -> ()
  | s -> with_mu t (fun () -> finish_span_locked t ?error s)

let add_attr t k v =
  with_mu t (fun () ->
      match t.stack with [] -> () | s :: _ -> s.attrs <- (k, v) :: s.attrs)

let attach_path t p =
  with_mu t (fun () ->
      match t.current with None -> () | Some tr -> tr.path <- Some p)

let current_trace_id t =
  match t.current with None -> None | Some tr -> Some tr.trace_id

let context t =
  with_mu t (fun () ->
      match t.current with
      | None -> None
      | Some tr ->
        let span_id = match t.stack with [] -> -1 | s :: _ -> s.span_id in
        Some (tr.trace_id, span_id))

(* ------------------------------------------------------------------ *)
(* Trace lifecycle *)

let complete_trace_locked t tr =
  (match t.ring.(t.ring_next) with
  | None -> ()
  | Some old ->
    t.evicted <- t.evicted + 1;
    t.dropped <- t.dropped + old.span_count;
    (match t.instruments with
    | None -> ()
    | Some i ->
      Metrics.Counter.incr i.evicted_total;
      Metrics.Counter.add i.dropped_spans_total old.span_count));
  t.ring.(t.ring_next) <- Some tr;
  t.ring_next <- (t.ring_next + 1) mod t.capacity;
  t.completed <- t.completed + 1;
  (match t.instruments with
  | None -> ()
  | Some i -> Metrics.Counter.incr i.traces_total);
  t.current <- None;
  t.stack <- []

let with_span t ~name f =
  match start_span t ~name with
  | None -> f ()
  | Some _ as s -> (
    match f () with
    | v ->
      finish_span t s;
      v
    | exception exn ->
      finish_span t ~error:(Printexc.to_string exn) s;
      raise exn)

let sample_decision t =
  Atomic.incr t.started;
  if t.sample >= 1.0 then true
  else if t.sample <= 0.0 then false
  else Prng.float t.rng ~bound:1.0 < t.sample

(* Close a root opened by with_trace/with_remote_trace: finish + land
   in the ring as one locked transition. *)
let run_root t root tr f =
  match f () with
  | v ->
    with_mu t (fun () ->
        finish_span_locked t root;
        complete_trace_locked t tr);
    v
  | exception exn ->
    with_mu t (fun () ->
        finish_span_locked t ~error:(Printexc.to_string exn) root;
        complete_trace_locked t tr);
    raise exn

let with_trace_locked t ~name f =
  let action =
    with_mu t (fun () ->
        if t.current <> None then
          (* A trace is already open (e.g. a broker publish inside a
             routed hop): nest instead of starting a second root. *)
          `Nest
        else if not (sample_decision t) then `Skip
        else begin
          t.sampled <- t.sampled + 1;
          let tr =
            {
              trace_id = t.next_trace_id;
              root_name = name;
              spans = [];
              span_count = 0;
              path = None;
              remote = None;
            }
          in
          t.next_trace_id <- t.next_trace_id + 1;
          t.current <- Some tr;
          `Root (start_span_locked t ~name, tr)
        end)
  in
  match action with
  | `Nest -> with_span t ~name f
  | `Skip -> f ()
  | `Root (root, tr) -> run_root t root tr f

let with_trace t ~name f =
  (* A never-sampling tracer with no trace open skips without the lock:
     the locked path reaches [`Skip] too, and neither draws from the PRNG. *)
  if t.sample <= 0.0 && Option.is_none t.current then begin
    Atomic.incr t.started;
    f ()
  end
  else with_trace_locked t ~name f

let with_remote_trace t ~name ~origin ctx f =
  match ctx with
  | None -> with_trace t ~name f
  | Some (trace_id, parent_span) ->
    let action =
      with_mu t (fun () ->
          if t.current <> None then `Nest
          else begin
            (* The upstream tracer already took the sampling decision
               when it attached the context; adopting never consumes a
               local PRNG draw, so the decision stream stays aligned
               with purely local traffic. *)
            Atomic.incr t.started;
            t.sampled <- t.sampled + 1;
            let tr =
              {
                trace_id;
                root_name = name;
                spans = [];
                span_count = 0;
                path = None;
                remote = Some (origin, parent_span);
              }
            in
            t.current <- Some tr;
            `Root (start_span_locked t ~name, tr)
          end)
    in
    (match action with
    | `Nest -> with_span t ~name f
    | `Root (root, tr) -> run_root t root tr f)

(* Ring contents, oldest first. *)
let traces_locked t =
  let grab i =
    t.ring.((t.ring_next + i) mod t.capacity)
  in
  List.filter_map grab (List.init t.capacity Fun.id)

let traces t = with_mu t (fun () -> traces_locked t)

(* ------------------------------------------------------------------ *)
(* Chrome trace-event export *)

let span_list tr = List.rev tr.spans

let chrome_base traces =
  List.fold_left
    (fun acc tr ->
      List.fold_left
        (fun acc s -> if s.start_ns < acc then s.start_ns else acc)
        acc (span_list tr))
    Int64.max_int traces

let span_args ?node tr s =
  [ ("trace_id", Json.Int tr.trace_id); ("span_id", Json.Int s.span_id);
    ("parent", Json.Int s.parent) ]
  @ (match node with None -> [] | Some n -> [ ("node", Json.Str n) ])
  @ (match tr.remote with
    | Some (rnode, rspan) when s.parent = -1 ->
      [ ("remote_node", Json.Str rnode); ("remote_parent", Json.Int rspan) ]
    | _ -> [])
  @ (match s.status with Ok -> [] | Error e -> [ ("error", Json.Str e) ])
  @ List.rev_map (fun (k, v) -> (k, Json.Str v)) s.attrs

let span_event ?node ~pid ~us tr s =
  let dur =
    if s.end_ns = Int64.min_int then 0.0
    else Int64.to_float (Int64.sub s.end_ns s.start_ns) /. 1000.0
  in
  Json.Obj
    [
      ("name", Json.Str s.span_name);
      ("cat", Json.Str "genas");
      ("ph", Json.Str "X");
      ("ts", Json.number (us s.start_ns));
      ("dur", Json.number dur);
      ("pid", Json.Int pid);
      ("tid", Json.Int (tr.trace_id + 1));
      ("args", Json.Obj (span_args ?node tr s));
    ]

let edge_label = function
  | -3 -> "leaf"
  | -2 -> "reject"
  | -1 -> "rest"
  | e -> "e" ^ string_of_int e

let path_event ~pid ~us tr p =
  let ints a = String.concat ">" (List.map string_of_int (Array.to_list a)) in
  let root_ts = match span_list tr with [] -> 0.0 | s :: _ -> us s.start_ns in
  Json.Obj
    [
      ("name", Json.Str "matcher.path");
      ("cat", Json.Str "genas");
      ("ph", Json.Str "i");
      ("s", Json.Str "t");
      ("ts", Json.number root_ts);
      ("pid", Json.Int pid);
      ("tid", Json.Int (tr.trace_id + 1));
      ( "args",
        Json.Obj
          [
            ("trace_id", Json.Int tr.trace_id);
            ("nodes", Json.Str (ints p.path_nodes));
            ("levels", Json.Str (ints p.path_levels));
            ( "edges",
              Json.Str
                (String.concat ">"
                   (List.map edge_label (Array.to_list p.path_edges))) );
            ("comparisons", Json.Str (ints p.path_comparisons));
            ("matched", Json.Str (ints p.path_matched));
          ] );
    ]

let chrome_events ?base traces =
  (* Normalize timestamps to the earliest span start so same-seed runs
     under a deterministic clock are byte-identical. *)
  let base = match base with Some b -> b | None -> chrome_base traces in
  let us ns = Int64.to_float (Int64.sub ns base) /. 1000.0 in
  List.concat_map
    (fun tr ->
      let spans = List.map (span_event ~pid:1 ~us tr) (span_list tr) in
      match tr.path with
      | None -> spans
      | Some p -> spans @ [ path_event ~pid:1 ~us tr p ])
    traces

let to_chrome t =
  Json.to_string
    (Json.Obj
       [
         ("traceEvents", Json.List (chrome_events (traces t)));
         ("displayTimeUnit", Json.Str "ns");
       ])
  ^ "\n"

(* ------------------------------------------------------------------ *)
(* Per-node dump export and the cross-node merge *)

(* Line-based, versioned text form of the flight-recorder ring —
   everything the merge needs to rebuild spans on another process.
   Strings travel as OCaml %S literals (round-tripped by Scanf %S), so
   attrs and error texts survive arbitrary bytes. *)

let export_version = 1

let ints_csv a =
  if Array.length a = 0 then "-"
  else String.concat "," (List.map string_of_int (Array.to_list a))

let csv_ints s =
  if s = "-" then [||]
  else Array.of_list (List.map int_of_string (String.split_on_char ',' s))

let export t ~node =
  with_mu t @@ fun () ->
  let b = Buffer.create 1024 in
  Buffer.add_string b (Printf.sprintf "genas-trace-dump %d\n" export_version);
  Buffer.add_string b (Printf.sprintf "node %S\n" node);
  List.iter
    (fun tr ->
      (match tr.remote with
      | None ->
        Buffer.add_string b
          (Printf.sprintf "trace %d %S local\n" tr.trace_id tr.root_name)
      | Some (rnode, rspan) ->
        Buffer.add_string b
          (Printf.sprintf "trace %d %S remote %S %d\n" tr.trace_id
             tr.root_name rnode rspan));
      List.iter
        (fun s ->
          (match s.status with
          | Ok ->
            Buffer.add_string b
              (Printf.sprintf "span %d %d %d %Ld %Ld %S ok\n" s.span_id
                 s.parent s.depth s.start_ns s.end_ns s.span_name)
          | Error e ->
            Buffer.add_string b
              (Printf.sprintf "span %d %d %d %Ld %Ld %S error %S\n" s.span_id
                 s.parent s.depth s.start_ns s.end_ns s.span_name e));
          List.iter
            (fun (k, v) ->
              Buffer.add_string b (Printf.sprintf "attr %S %S\n" k v))
            (List.rev s.attrs))
        (span_list tr);
      match tr.path with
      | None -> ()
      | Some p ->
        Buffer.add_string b
          (Printf.sprintf "path %s %s %s %s %s\n" (ints_csv p.path_nodes)
             (ints_csv p.path_levels) (ints_csv p.path_edges)
             (ints_csv p.path_comparisons) (ints_csv p.path_matched)))
    (traces_locked t);
  Buffer.contents b

type node_dump = { nd_name : string; nd_traces : trace list }

let parse_dump text =
  let fail line msg =
    invalid_arg (Printf.sprintf "Trace.merge_dumps: %s in line %S" msg line)
  in
  let lines =
    List.filter (fun l -> l <> "") (String.split_on_char '\n' text)
  in
  let name = ref "" in
  let traces = ref [] (* reverse order *) in
  let cur = ref None (* trace being filled *) in
  let close_cur () =
    match !cur with
    | None -> ()
    | Some tr ->
      traces := tr :: !traces;
      cur := None
  in
  let header = ref false in
  List.iter
    (fun line ->
      if not !header then begin
        (try
           Scanf.sscanf line "genas-trace-dump %d%!" (fun v ->
               if v <> export_version then
                 fail line
                   (Printf.sprintf "unsupported dump version %d (expected %d)" v
                      export_version))
         with Scanf.Scan_failure _ | Failure _ | End_of_file ->
           fail line "missing genas-trace-dump header");
        header := true
      end
      else if String.length line >= 5 && String.sub line 0 5 = "node " then
        name := Scanf.sscanf line "node %S%!" Fun.id
      else if String.length line >= 6 && String.sub line 0 6 = "trace " then begin
        close_cur ();
        let tr =
          try
            Scanf.sscanf line "trace %d %S local%!" (fun id n ->
                {
                  trace_id = id;
                  root_name = n;
                  spans = [];
                  span_count = 0;
                  path = None;
                  remote = None;
                })
          with Scanf.Scan_failure _ | End_of_file -> (
            try
              Scanf.sscanf line "trace %d %S remote %S %d%!"
                (fun id n rnode rspan ->
                  {
                    trace_id = id;
                    root_name = n;
                    spans = [];
                    span_count = 0;
                    path = None;
                    remote = Some (rnode, rspan);
                  })
            with Scanf.Scan_failure _ | Failure _ | End_of_file ->
              fail line "malformed trace line")
        in
        cur := Some tr
      end
      else begin
        let tr =
          match !cur with
          | Some tr -> tr
          | None -> fail line "span/attr/path line outside a trace"
        in
        if String.length line >= 5 && String.sub line 0 5 = "span " then begin
          let s =
            try
              Scanf.sscanf line "span %d %d %d %Ld %Ld %S ok%!"
                (fun id parent depth st en n ->
                  {
                    span_id = id;
                    parent;
                    span_name = n;
                    depth;
                    start_ns = st;
                    end_ns = en;
                    status = Ok;
                    attrs = [];
                  })
            with Scanf.Scan_failure _ | End_of_file -> (
              try
                Scanf.sscanf line "span %d %d %d %Ld %Ld %S error %S%!"
                  (fun id parent depth st en n e ->
                    {
                      span_id = id;
                      parent;
                      span_name = n;
                      depth;
                      start_ns = st;
                      end_ns = en;
                      status = Error e;
                      attrs = [];
                    })
              with Scanf.Scan_failure _ | Failure _ | End_of_file ->
                fail line "malformed span line")
          in
          tr.spans <- s :: tr.spans;
          tr.span_count <- tr.span_count + 1
        end
        else if String.length line >= 5 && String.sub line 0 5 = "attr " then begin
          match tr.spans with
          | [] -> fail line "attr line before any span"
          | s :: _ ->
            let k, v =
              try Scanf.sscanf line "attr %S %S%!" (fun k v -> (k, v))
              with Scanf.Scan_failure _ | Failure _ | End_of_file ->
                fail line "malformed attr line"
            in
            s.attrs <- (k, v) :: s.attrs
        end
        else if String.length line >= 5 && String.sub line 0 5 = "path " then begin
          let p =
            try
              Scanf.sscanf line "path %s %s %s %s %s%!" (fun a b c d e ->
                  {
                    path_nodes = csv_ints a;
                    path_levels = csv_ints b;
                    path_edges = csv_ints c;
                    path_comparisons = csv_ints d;
                    path_matched = csv_ints e;
                  })
            with Scanf.Scan_failure _ | Failure _ | End_of_file ->
              fail line "malformed path line"
          in
          tr.path <- Some p
        end
        else fail line "unrecognized line"
      end)
    lines;
  close_cur ();
  { nd_name = !name; nd_traces = List.rev !traces }

let merge_dumps dumps =
  let nodes = List.map parse_dump dumps in
  (* One Chrome pid per node (argument order, 1-based); each node's
     timestamps normalized to its own earliest span start, which lines
     the processes up without assuming any cross-host clock sync. *)
  let indexed = List.mapi (fun i nd -> (i + 1, nd)) nodes in
  let base_of nd =
    let b = chrome_base nd.nd_traces in
    if b = Int64.max_int then 0L else b
  in
  let span_events =
    List.concat_map
      (fun (pid, nd) ->
        let base = base_of nd in
        let us ns = Int64.to_float (Int64.sub ns base) /. 1000.0 in
        List.concat_map
          (fun tr ->
            let spans =
              List.map (span_event ~node:nd.nd_name ~pid ~us tr) (span_list tr)
            in
            match tr.path with
            | None -> spans
            | Some p -> spans @ [ path_event ~pid ~us tr p ])
          nd.nd_traces)
      indexed
  in
  (* Flow arrows stitching the hops: every adopted trace links its
     remote parent span (on the origin node's timeline) to its local
     root span. A context whose origin is not among the merged dumps
     just stays unlinked — the remote_node/remote_parent args still
     name it. *)
  let find_origin rnode tid rspan =
    List.find_map
      (fun (pid, nd) ->
        if nd.nd_name <> rnode then None
        else
          List.find_map
            (fun tr ->
              if tr.trace_id <> tid then None
              else
                List.find_map
                  (fun s ->
                    if s.span_id = rspan then
                      Some (pid, Int64.sub s.start_ns (base_of nd))
                    else None)
                  (span_list tr))
            nd.nd_traces)
      indexed
  in
  let next_link = ref 0 in
  let flow_events =
    List.concat_map
      (fun (pid, nd) ->
        let base = base_of nd in
        List.concat_map
          (fun tr ->
            match tr.remote with
            | None -> []
            | Some (rnode, rspan) -> (
              match find_origin rnode tr.trace_id rspan with
              | None -> []
              | Some (rpid, r_rel_ns) ->
                let root_rel =
                  match span_list tr with
                  | [] -> 0L
                  | s :: _ -> Int64.sub s.start_ns base
                in
                let id = !next_link in
                incr next_link;
                let us rel = Int64.to_float rel /. 1000.0 in
                let ev ph extra ~pid ~ts =
                  Json.Obj
                    ([
                       ("name", Json.Str "net.ctx");
                       ("cat", Json.Str "genas");
                       ("ph", Json.Str ph);
                       ("id", Json.Int id);
                       ("ts", Json.number (us ts));
                       ("pid", Json.Int pid);
                       ("tid", Json.Int (tr.trace_id + 1));
                     ]
                    @ extra)
                in
                [
                  ev "s" [] ~pid:rpid ~ts:r_rel_ns;
                  ev "f" [ ("bp", Json.Str "e") ] ~pid ~ts:root_rel;
                ]))
          nd.nd_traces)
      indexed
  in
  Json.to_string
    (Json.Obj
       [
         ("traceEvents", Json.List (span_events @ flow_events));
         ("displayTimeUnit", Json.Str "ns");
       ])
  ^ "\n"

(* ------------------------------------------------------------------ *)
(* Flight-recorder dump *)

let status_label = function Ok -> "ok" | Error e -> "error: " ^ e

let dump t =
  with_mu t @@ fun () ->
  let b = Buffer.create 1024 in
  let held = List.length (traces_locked t) in
  Buffer.add_string b
    (Printf.sprintf
       "flight recorder: %d/%d trace(s) held, %d evicted, %d started, %d \
        sampled\n"
       held t.capacity t.evicted (Atomic.get t.started) t.sampled);
  let dump_trace ~in_flight tr =
    let spans = span_list tr in
    let root_start =
      match spans with [] -> 0L | s :: _ -> s.start_ns
    in
    Buffer.add_string b
      (Printf.sprintf "trace %d %s: %d span(s)%s\n" tr.trace_id tr.root_name
         tr.span_count
         (if in_flight then " (in flight)" else ""));
    List.iter
      (fun s ->
        let rel = Int64.sub s.start_ns root_start in
        let dur =
          if s.end_ns = Int64.min_int then "open"
          else Printf.sprintf "%Ldns" (Int64.sub s.end_ns s.start_ns)
        in
        let attrs =
          match List.rev s.attrs with
          | [] -> ""
          | kvs ->
            " ("
            ^ String.concat ", " (List.map (fun (k, v) -> k ^ "=" ^ v) kvs)
            ^ ")"
        in
        Buffer.add_string b
          (Printf.sprintf "%s[%d] %s +%Ldns %s %s%s\n"
             (String.make ((s.depth + 1) * 2) ' ')
             s.span_id s.span_name rel dur (status_label s.status) attrs))
      spans;
    match tr.path with
    | None -> ()
    | Some p ->
      let ints a =
        String.concat ">" (List.map string_of_int (Array.to_list a))
      in
      let edge = function
        | -3 -> "leaf"
        | -2 -> "reject"
        | -1 -> "rest"
        | e -> "e" ^ string_of_int e
      in
      Buffer.add_string b
        (Printf.sprintf "  path: nodes %s, edges %s, comparisons %s, matched {%s}\n"
           (ints p.path_nodes)
           (String.concat ">" (List.map edge (Array.to_list p.path_edges)))
           (ints p.path_comparisons)
           (String.concat ","
              (List.map string_of_int (Array.to_list p.path_matched))))
  in
  List.iter (dump_trace ~in_flight:false) (traces_locked t);
  (match t.current with
  | None -> ()
  | Some tr -> dump_trace ~in_flight:true tr);
  Buffer.contents b

let record_crash t ~reason =
  let text =
    Printf.sprintf "=== flight recorder dump (%s) ===\n%s" reason (dump t)
  in
  t.last_dump <- Some text;
  (match t.on_dump with None -> () | Some f -> f text);
  text

let last_dump t = t.last_dump
