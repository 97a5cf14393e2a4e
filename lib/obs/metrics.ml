(* Instruments are hit concurrently: server tx threads, the monitor
   thread and client tickers all share one registry.
   Counters and gauges are single atomics (a CAS loop keeps the
   max_int saturation exact under contention); histograms update five
   fields per observation, so each carries its own mutex. A counter
   may also carry sources, read functions its owners keep current
   themselves; those fields are guarded by the registry's lock. *)

type counter = {
  c_value : int Atomic.t;
      (** pushed adds, plus the last read of every detached source *)
  mutable sources : source array;  (** live in [0 .. n_sources - 1] *)
  mutable n_sources : int;
  mutable high : int;  (** the highest value read so far *)
  c_mu : Mutex.t;  (** the registry's lock *)
}

and source = { read : unit -> int; series : metric; mutable at : int }

and gauge = { g_value : float Atomic.t }

and histogram = {
  bounds : float array;  (** finite upper bounds, strictly increasing *)
  counts : int array;  (** per-bucket; [counts.(length bounds)] = overflow *)
  mutable h_count : int;
  h_acc : Float.Array.t;
      (** sum, min, max: a float field of this mixed record would box
          on every store *)
  h_mu : Mutex.t;
}

and instrument =
  | Counter_i of counter
  | Gauge_i of gauge
  | Histogram_i of histogram

and metric = {
  name : string;
  labels : (string * string) list;  (** sorted by key *)
  help : string;
  inst : instrument;
  mutable holders : int;  (** registrations not yet released; 0 = removed *)
}

let sum_i = 0
let min_i = 1
let max_i = 2

(* The list keeps registration order for the exporters; the index finds
   an identity (name, sorted labels) in O(1), so a registry holding one
   series per subscriber does not make every further registration a
   scan. The index is an open-addressing table of the metrics
   themselves, linear probing, at most half full: two or three words a
   series, where a [Hashtbl] keyed by the identity costs eight and, at
   10^4 series, measurably more peak heap. Both are guarded by
   [t_mu]. A released series leaves the index at once and the list
   lazily: it is skipped by the exporters and filtered out once the
   removed outnumber the live, so removal stays O(1) amortized. *)
type t = {
  mutable metrics : metric list; (* reverse registration order *)
  mutable slots : metric array;  (** power-of-two length *)
  mutable used : int;
  mutable removed : int;  (** dead entries still in [metrics] *)
  t_mu : Mutex.t;
}

let vacant =
  {
    name = "";
    labels = [];
    help = "";
    inst = Gauge_i { g_value = Atomic.make 0.0 };
    holders = 0;
  }

let create () =
  {
    metrics = [];
    slots = Array.make 64 vacant;
    used = 0;
    removed = 0;
    t_mu = Mutex.create ();
  }

(* Folds in every label, where the generic hash would stop after a few. *)
let identity_hash name labels =
  List.fold_left (fun h (k, v) -> Hashtbl.hash (h, k, v)) (Hashtbl.hash name) labels

(* The slot holding the identity, or the vacant slot where it belongs. *)
let slot_of slots name labels =
  let mask = Array.length slots - 1 in
  let rec probe i =
    let m = slots.(i) in
    if m == vacant || (String.equal m.name name && m.labels = labels) then i
    else probe ((i + 1) land mask)
  in
  probe (identity_hash name labels land mask)

let home slots m =
  identity_hash m.name m.labels land (Array.length slots - 1)

(* Empty slot [i] by backward shifting: every later entry of the probe
   run whose home does not lie cyclically in (i, j] moves into the
   hole, so each remaining identity stays reachable from its home. *)
let delete_slot slots i =
  let mask = Array.length slots - 1 in
  let hole = ref i and j = ref ((i + 1) land mask) in
  slots.(i) <- vacant;
  while slots.(!j) != vacant do
    let k = home slots slots.(!j) in
    let stays =
      if !hole <= !j then k > !hole && k <= !j else k > !hole || k <= !j
    in
    if not stays then begin
      slots.(!hole) <- slots.(!j);
      slots.(!j) <- vacant;
      hole := !j
    end;
    j := (!j + 1) land mask
  done

let grow t =
  let old = t.slots in
  t.slots <- Array.make (2 * Array.length old) vacant;
  Array.iter
    (fun m -> if m != vacant then t.slots.(slot_of t.slots m.name m.labels) <- m)
    old

let valid_name name =
  name <> ""
  && (match name.[0] with 'a' .. 'z' | 'A' .. 'Z' | '_' -> true | _ -> false)
  && String.for_all
       (function 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> true | _ -> false)
       name

let kind_name = function
  | Counter_i _ -> "counter"
  | Gauge_i _ -> "gauge"
  | Histogram_i _ -> "histogram"

let sort_labels labels =
  List.sort (fun (a, _) (b, _) -> String.compare a b) labels

(* A registration of the same kind holds the found series once more; a
   kind clash raises in the caller and holds nothing. [attach] runs on
   the series under the lock. *)
let register t ~kind ~help ~labels name make attach =
  if not (valid_name name) then
    invalid_arg (Printf.sprintf "Metrics: malformed metric name %S" name);
  let labels = sort_labels labels in
  Mutex.protect t.t_mu @@ fun () ->
  let i = slot_of t.slots name labels in
  let found = t.slots.(i) in
  if found != vacant then begin
    if String.equal kind (kind_name found.inst) then
      found.holders <- found.holders + 1;
    attach found
  end
  else begin
    let m = { name; labels; help; inst = make (); holders = 1 } in
    t.slots.(i) <- m;
    t.used <- t.used + 1;
    if 2 * t.used > Array.length t.slots then grow t;
    t.metrics <- m :: t.metrics;
    attach m
  end

let inst m = m.inst

let clash name other =
  invalid_arg (Printf.sprintf "Metrics: %S is already a %s" name (kind_name other))

let new_counter t () =
  Counter_i
    { c_value = Atomic.make 0; sources = [||]; n_sources = 0; high = 0;
      c_mu = t.t_mu }

let counter t ?(help = "") ?(labels = []) name =
  match register t ~kind:"counter" ~help ~labels name (new_counter t) inst with
  | Counter_i c -> c
  | other -> clash name other

let gauge t ?(help = "") ?(labels = []) name =
  match
    register t ~kind:"gauge" ~help ~labels name
      (fun () -> Gauge_i { g_value = Atomic.make 0.0 })
      inst
  with
  | Gauge_i g -> g
  | other -> clash name other

(* Under [t_mu]: drop one holder of the series in slot [i]. *)
let release_slot t i =
  let m = t.slots.(i) in
  m.holders <- m.holders - 1;
  if m.holders = 0 then begin
    delete_slot t.slots i;
    t.used <- t.used - 1;
    t.removed <- t.removed + 1;
    if t.removed > t.used then begin
      t.metrics <- List.filter (fun m -> m.holders > 0) t.metrics;
      t.removed <- 0
    end
  end

let sat_add a b = if b > max_int - a then max_int else a + b

(* Under [t_mu]: pushed part plus every live source, never below what
   an earlier read returned. *)
let read_locked c =
  let v = ref (Atomic.get c.c_value) in
  for i = 0 to c.n_sources - 1 do
    v := sat_add !v (Stdlib.max 0 (c.sources.(i).read ()))
  done;
  if !v > c.high then c.high <- !v;
  c.high

let no_source = { read = (fun () -> 0); series = vacant; at = -1 }

let attach_source c series read =
  let s = { read; series; at = c.n_sources } in
  if c.n_sources = Array.length c.sources then begin
    let grown = Array.make (Stdlib.max 1 (2 * c.n_sources)) no_source in
    Array.blit c.sources 0 grown 0 c.n_sources;
    c.sources <- grown
  end;
  c.sources.(c.n_sources) <- s;
  c.n_sources <- c.n_sources + 1;
  s

let counter_of t ~help ~labels name read =
  register t ~kind:"counter" ~help ~labels name (new_counter t) (fun series ->
      match series.inst with
      | Counter_i c -> attach_source c series read
      | other -> clash name other)

let exponential_buckets ~start ~factor ~count =
  if start <= 0.0 || factor <= 1.0 || count < 1 then
    invalid_arg "Metrics.exponential_buckets";
  Array.init count (fun i -> start *. (factor ** float_of_int i))

let default_latency_buckets =
  (* 100 ns .. 1 s, roughly 1-2.5-5 per decade. *)
  [|
    100.; 250.; 500.; 1e3; 2.5e3; 5e3; 1e4; 2.5e4; 5e4; 1e5; 2.5e5; 5e5; 1e6;
    2.5e6; 5e6; 1e7; 1e8; 1e9;
  |]

let histogram t ?(help = "") ?(labels = []) ?(buckets = default_latency_buckets)
    name =
  let make () =
    let ok = ref (Array.length buckets > 0) in
    Array.iteri
      (fun i b ->
        if (not (Float.is_finite b)) || (i > 0 && b <= buckets.(i - 1)) then
          ok := false)
      buckets;
    if not !ok then
      invalid_arg
        (Printf.sprintf
           "Metrics: histogram %S needs strictly increasing finite buckets"
           name);
    Histogram_i
      {
        bounds = Array.copy buckets;
        counts = Array.make (Array.length buckets + 1) 0;
        h_count = 0;
        h_acc = Float.Array.of_list [ 0.0; Float.infinity; Float.neg_infinity ];
        h_mu = Mutex.create ();
      }
  in
  match register t ~kind:"histogram" ~help ~labels name make inst with
  | Histogram_i h -> h
  | other -> clash name other

module Counter = struct
  (* Far below [max_int], one fetch-and-add: even [far] adders racing
     past the check cannot wrap. Near it, a CAS loop saturates exactly. *)
  let far = 1 lsl 30

  let add c n =
    if n < 0 then invalid_arg "Metrics.Counter.add: negative amount";
    if n < far && Atomic.get c.c_value < max_int - (far * far) then
      ignore (Atomic.fetch_and_add c.c_value n)
    else
      let rec go () =
        let cur = Atomic.get c.c_value in
        let next = if max_int - cur < n then max_int else cur + n in
        if not (Atomic.compare_and_set c.c_value cur next) then go ()
      in
      go ()

  let incr c = add c 1

  (* Exporters and tests only: the lock orders it after every attach
     and detach, so no read reports below an earlier one. *)
  let value c = Mutex.protect c.c_mu (fun () -> read_locked c)
end

let counters_of t reads =
  List.iter
    (fun (name, help, read) -> ignore (counter_of t ~help ~labels:[] name read))
    reads

(* The detached source's last read stays in the series, so the value
   never drops; the last slot's source fills the hole. A series already
   released away (or a newer one of its identity) keeps its holders. *)
let detach t s =
  Mutex.protect t.t_mu @@ fun () ->
  match s.series with
  | { inst = Counter_i c; name; labels; _ } when s.at >= 0 ->
    Counter.add c (Stdlib.max 0 (s.read ()));
    let last = c.sources.(c.n_sources - 1) in
    c.sources.(s.at) <- last;
    last.at <- s.at;
    c.n_sources <- c.n_sources - 1;
    c.sources.(c.n_sources) <- no_source;
    s.at <- -1;
    let i = slot_of t.slots name labels in
    if t.slots.(i) == s.series then release_slot t i
  | _ -> ()

module Gauge = struct
  let set g v = Atomic.set g.g_value v

  let value g = Atomic.get g.g_value
end

(* A consistent read of one histogram: every reader (accessors,
   percentile, both exporters) goes through this snapshot so a
   concurrent observe can never tear count/sum/bucket agreement. *)
type hsnap = {
  s_bounds : float array;
  s_counts : int array;
  s_count : int;
  s_sum : float;
  s_min : float;
  s_max : float;
}

let hsnap h =
  Mutex.protect h.h_mu @@ fun () ->
  {
    s_bounds = h.bounds;
    s_counts = Array.copy h.counts;
    s_count = h.h_count;
    s_sum = Float.Array.get h.h_acc sum_i;
    s_min = Float.Array.get h.h_acc min_i;
    s_max = Float.Array.get h.h_acc max_i;
  }

let percentile_of s q =
  if not (Float.is_finite q) || q < 0.0 || q > 1.0 then
    invalid_arg "Metrics.Histogram.percentile: q outside [0,1]";
  if s.s_count = 0 then Float.nan
  else begin
    let rank = q *. float_of_int s.s_count in
    let n = Array.length s.s_bounds in
    let raw = ref s.s_max in
    let cum = ref 0.0 and found = ref false in
    for i = 0 to n - 1 do
      if not !found then begin
        let c = float_of_int s.s_counts.(i) in
        if !cum +. c >= rank && c > 0.0 then begin
          let lo = if i = 0 then 0.0 else s.s_bounds.(i - 1) in
          let hi = s.s_bounds.(i) in
          let frac = (rank -. !cum) /. c in
          raw := lo +. (frac *. (hi -. lo));
          found := true
        end;
        cum := !cum +. c
      end
    done;
    (* The overflow bucket has no upper bound; fall back to the
       observed maximum, and clamp interpolation into the observed
       range either way. *)
    Float.min s.s_max (Float.max s.s_min !raw)
  end

module Histogram = struct
  let bucket_index h v =
    (* First bucket with v <= bound; binary search over the bounds. *)
    let n = Array.length h.bounds in
    let lo = ref 0 and hi = ref n in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if v <= h.bounds.(mid) then hi := mid else lo := mid + 1
    done;
    !lo

  (* The locked body cannot raise ([i] is in range), so a plain
     lock/unlock pair replaces [Mutex.protect] and its closure. *)
  let observe h v =
    let i = bucket_index h v in
    Mutex.lock h.h_mu;
    h.counts.(i) <- h.counts.(i) + 1;
    h.h_count <- h.h_count + 1;
    let a = h.h_acc in
    Float.Array.set a sum_i (Float.Array.get a sum_i +. v);
    if v < Float.Array.get a min_i then Float.Array.set a min_i v;
    if v > Float.Array.get a max_i then Float.Array.set a max_i v;
    Mutex.unlock h.h_mu

  let count h = (hsnap h).s_count

  let sum h = (hsnap h).s_sum

  let buckets h =
    let s = hsnap h in
    Array.mapi (fun i b -> (b, s.s_counts.(i))) s.s_bounds

  let overflow h =
    let s = hsnap h in
    s.s_counts.(Array.length s.s_bounds)

  let percentile h q = percentile_of (hsnap h) q
end

(* ------------------------------------------------------------------ *)
(* Exporters.                                                          *)

let snapshot t =
  Mutex.protect t.t_mu (fun () ->
      List.rev (List.filter (fun m -> m.holders > 0) t.metrics))

let json_labels labels =
  Json.Obj (List.map (fun (k, v) -> (k, Json.Str v)) labels)

let json_of_metric m =
  let base = [ ("name", Json.Str m.name); ("labels", json_labels m.labels) ] in
  let base = if m.help = "" then base else base @ [ ("help", Json.Str m.help) ] in
  match m.inst with
  | Counter_i c -> Json.Obj (base @ [ ("value", Json.Int (Counter.value c)) ])
  | Gauge_i g -> Json.Obj (base @ [ ("value", Json.number (Gauge.value g)) ])
  | Histogram_i h ->
    let s = hsnap h in
    let pct q = if s.s_count = 0 then Json.Null else Json.number (percentile_of s q) in
    Json.Obj
      (base
      @ [
          ("count", Json.Int s.s_count);
          ("sum", Json.number s.s_sum);
          ("min", if s.s_count = 0 then Json.Null else Json.number s.s_min);
          ("max", if s.s_count = 0 then Json.Null else Json.number s.s_max);
          ("p50", pct 0.5);
          ("p90", pct 0.9);
          ("p99", pct 0.99);
          ( "buckets",
            Json.List
              (Array.to_list
                 (Array.mapi
                    (fun i b ->
                      Json.Obj
                        [ ("le", Json.number b); ("count", Json.Int s.s_counts.(i)) ])
                    s.s_bounds)) );
          ("overflow", Json.Int s.s_counts.(Array.length s.s_bounds));
        ])

let to_json t =
  let ms = snapshot t in
  let pick f = List.filter_map f ms in
  Json.to_string
    (Json.Obj
       [
         ( "counters",
           Json.List
             (pick (fun m ->
                  match m.inst with
                  | Counter_i _ -> Some (json_of_metric m)
                  | _ -> None)) );
         ( "gauges",
           Json.List
             (pick (fun m ->
                  match m.inst with Gauge_i _ -> Some (json_of_metric m) | _ -> None))
         );
         ( "histograms",
           Json.List
             (pick (fun m ->
                  match m.inst with
                  | Histogram_i _ -> Some (json_of_metric m)
                  | _ -> None)) );
       ])
  ^ "\n"

let prom_escape s =
  let b = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '\\' -> Buffer.add_string b "\\\\"
      | '"' -> Buffer.add_string b "\\\""
      | '\n' -> Buffer.add_string b "\\n"
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let prom_labels = function
  | [] -> ""
  | labels ->
    "{"
    ^ String.concat ","
        (List.map
           (fun (k, v) -> Printf.sprintf "%s=\"%s\"" k (prom_escape v))
           labels)
    ^ "}"

let counters t =
  List.filter_map
    (fun m ->
      match m.inst with
      | Counter_i c -> Some (m.name ^ prom_labels m.labels, Counter.value c)
      | _ -> None)
    (snapshot t)

let prom_float v =
  if not (Float.is_finite v) then "0"
  else
    let s = Printf.sprintf "%.12g" v in
    s

let to_prometheus t =
  let b = Buffer.create 1024 in
  (* The exposition format requires every sample of a metric family to
     appear as one contiguous group under a single # TYPE line, even
     when labelled members were registered interleaved with other
     metrics. Group by name in first-registration order, and take the
     first non-empty help string of the family (the unlabelled member
     usually carries it, but it may be registered after a labelled
     sibling). *)
  let families = Hashtbl.create 16 in
  let order =
    List.fold_left
      (fun order m ->
        match Hashtbl.find_opt families m.name with
        | Some members ->
          members := m :: !members;
          order
        | None ->
          Hashtbl.replace families m.name (ref [ m ]);
          m.name :: order)
      [] (snapshot t)
  in
  let emit_samples m =
    let ls = prom_labels m.labels in
    match m.inst with
    | Counter_i c ->
      Buffer.add_string b (Printf.sprintf "%s%s %d\n" m.name ls (Counter.value c))
    | Gauge_i g ->
      Buffer.add_string b
        (Printf.sprintf "%s%s %s\n" m.name ls (prom_float (Gauge.value g)))
    | Histogram_i h ->
      let s = hsnap h in
      let le bound = prom_labels (m.labels @ [ ("le", bound) ]) in
      let cum = ref 0 in
      Array.iteri
        (fun i bound ->
          cum := !cum + s.s_counts.(i);
          Buffer.add_string b
            (Printf.sprintf "%s_bucket%s %d\n" m.name (le (prom_float bound))
               !cum))
        s.s_bounds;
      Buffer.add_string b
        (Printf.sprintf "%s_bucket%s %d\n" m.name (le "+Inf") s.s_count);
      Buffer.add_string b
        (Printf.sprintf "%s_sum%s %s\n" m.name ls (prom_float s.s_sum));
      Buffer.add_string b
        (Printf.sprintf "%s_count%s %d\n" m.name ls s.s_count)
  in
  List.iter
    (fun name ->
      let members = List.rev !(Hashtbl.find families name) in
      let help =
        List.find_map (fun m -> if m.help = "" then None else Some m.help) members
      in
      (match help with
      | Some h ->
        Buffer.add_string b (Printf.sprintf "# HELP %s %s\n" name (prom_escape h))
      | None -> ());
      Buffer.add_string b
        (Printf.sprintf "# TYPE %s %s\n" name (kind_name (List.hd members).inst));
      List.iter emit_samples members)
    (List.rev order);
  Buffer.contents b
