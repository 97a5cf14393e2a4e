(* The observability layer: registry identity rules, counter/gauge
   semantics, histogram bucketing and percentile readout, both
   exporters' no-nan guarantee, span timing over a fake clock, and the
   scrape endpoint's paths, request bounds and socket lifecycle. *)

module Metrics = Genas_obs.Metrics
module Clock = Genas_obs.Clock
module Span = Genas_obs.Span
module Json = Genas_obs.Json

let contains ~needle haystack =
  let n = String.length needle and h = String.length haystack in
  let rec go i = i + n <= h && (String.sub haystack i n = needle || go (i + 1)) in
  n = 0 || go 0

let lower = String.lowercase_ascii

(* ------------------------------------------------------------------ *)
(* Counters and gauges *)

let test_counter_basics () =
  let reg = Metrics.create () in
  let c = Metrics.counter reg "c_total" in
  Alcotest.(check int) "starts at zero" 0 (Metrics.Counter.value c);
  Metrics.Counter.incr c;
  Metrics.Counter.add c 41;
  Alcotest.(check int) "incr + add" 42 (Metrics.Counter.value c);
  Alcotest.check_raises "negative add rejected"
    (Invalid_argument "Metrics.Counter.add: negative amount") (fun () ->
      Metrics.Counter.add c (-1))

let test_counter_saturates () =
  let reg = Metrics.create () in
  let c = Metrics.counter reg "c_total" in
  Metrics.Counter.add c max_int;
  Metrics.Counter.incr c;
  Metrics.Counter.add c max_int;
  Alcotest.(check int) "saturates instead of wrapping" max_int
    (Metrics.Counter.value c)

let test_gauge () =
  let reg = Metrics.create () in
  let g = Metrics.gauge reg "g" in
  Alcotest.(check (float 0.0)) "starts at zero" 0.0 (Metrics.Gauge.value g);
  Metrics.Gauge.set g 3.5;
  Alcotest.(check (float 0.0)) "set" 3.5 (Metrics.Gauge.value g);
  Metrics.Gauge.set g (-2.0);
  Alcotest.(check (float 0.0)) "can go down" (-2.0) (Metrics.Gauge.value g)

(* ------------------------------------------------------------------ *)
(* Registry identity *)

let test_registry_dedup () =
  let reg = Metrics.create () in
  let a = Metrics.counter reg "shared_total" in
  let b = Metrics.counter reg "shared_total" in
  Alcotest.(check bool) "same identity, same instrument" true (a == b);
  let l1 = Metrics.counter reg "labeled_total" ~labels:[ ("k", "v") ] in
  let l2 = Metrics.counter reg "labeled_total" ~labels:[ ("k", "w") ] in
  Metrics.Counter.incr l1;
  Alcotest.(check int) "distinct labels, distinct instruments" 0
    (Metrics.Counter.value l2)

let test_registry_kind_clash () =
  let reg = Metrics.create () in
  let _ = Metrics.counter reg "thing" in
  match Metrics.gauge reg "thing" with
  | _ -> Alcotest.fail "expected kind clash to raise"
  | exception Invalid_argument _ -> ()

let test_registry_label_order () =
  let reg = Metrics.create () in
  let a =
    Metrics.counter reg "perm_total" ~labels:[ ("a", "1"); ("b", "2"); ("c", "3") ]
  in
  let b =
    Metrics.counter reg "perm_total" ~labels:[ ("c", "3"); ("a", "1"); ("b", "2") ]
  in
  Alcotest.(check bool) "permuted labels, same instrument" true (a == b);
  let g1 = Metrics.gauge reg "perm_g" ~labels:[ ("x", "1"); ("y", "2") ] in
  let g2 = Metrics.gauge reg "perm_g" ~labels:[ ("y", "2"); ("x", "1") ] in
  Alcotest.(check bool) "gauges too" true (g1 == g2);
  Alcotest.(check int) "one counter series" 1
    (List.length (Metrics.counters reg))

let test_registry_kind_clash_labelled () =
  let reg = Metrics.create () in
  let _ = Metrics.counter reg "clash" ~labels:[ ("k", "v") ] in
  (match Metrics.gauge reg "clash" ~labels:[ ("k", "v") ] with
  | _ -> Alcotest.fail "expected counter/gauge clash to raise"
  | exception Invalid_argument _ -> ());
  let _ = Metrics.gauge reg "clash_g" in
  match Metrics.counter reg "clash_g" with
  | _ -> Alcotest.fail "expected gauge/counter clash to raise"
  | exception Invalid_argument _ -> ()

(* Exposition follows first registration, however many series a family
   later gains: the index must not reorder the output. *)
let test_registry_family_order () =
  let reg = Metrics.create () in
  let names = [ "zeta_total"; "alpha_total"; "mid_total" ] in
  List.iter (fun n -> ignore (Metrics.counter reg n ~labels:[ ("i", "0") ])) names;
  for i = 1 to 200 do
    List.iter
      (fun n -> ignore (Metrics.counter reg n ~labels:[ ("i", string_of_int i) ]))
      (List.rev names)
  done;
  let prom = Metrics.to_prometheus reg in
  let types =
    String.split_on_char '\n' prom
    |> List.filter_map (fun l ->
           match String.split_on_char ' ' l with
           | [ "#"; "TYPE"; name; _ ] -> Some name
           | _ -> None)
  in
  Alcotest.(check (list string)) "first-registration family order" names types;
  Alcotest.(check int) "every series kept" (3 * 201)
    (List.length (Metrics.counters reg))

let test_registry_concurrent_register () =
  let reg = Metrics.create () in
  let per_domain = 2_000 in
  let work () =
    Array.init per_domain (fun i ->
        let c =
          Metrics.counter reg "race_total"
            ~labels:[ ("sub", string_of_int (i mod 50)); ("node", "n") ]
        in
        Metrics.Counter.incr c;
        c)
  in
  let d1 = Domain.spawn work and d2 = Domain.spawn work in
  let r1 = Domain.join d1 and r2 = Domain.join d2 in
  Alcotest.(check bool) "both domains got the same instrument" true
    (Array.for_all2 ( == ) r1 r2);
  Alcotest.(check int) "one series per label set" 50
    (List.length (Metrics.counters reg));
  Alcotest.(check int) "no increment lost" (2 * per_domain)
    (List.fold_left (fun acc (_, v) -> acc + v) 0 (Metrics.counters reg))

let test_registry_bad_name () =
  let reg = Metrics.create () in
  match Metrics.counter reg "9bad-name" with
  | _ -> Alcotest.fail "expected malformed name to raise"
  | exception Invalid_argument _ -> ()

(* ------------------------------------------------------------------ *)
(* Histograms *)

let test_histogram_boundaries () =
  let reg = Metrics.create () in
  let h = Metrics.histogram reg "h" ~buckets:[| 1.0; 2.0; 5.0 |] in
  Metrics.Histogram.observe h 1.0;
  (* on the bound: v <= bound *)
  Metrics.Histogram.observe h 1.5;
  Metrics.Histogram.observe h 7.0;
  (* above last bound: overflow *)
  let buckets = Metrics.Histogram.buckets h in
  Alcotest.(check (array (pair (float 0.0) int)))
    "per-bucket counts"
    [| (1.0, 1); (2.0, 1); (5.0, 0) |]
    buckets;
  Alcotest.(check int) "overflow" 1 (Metrics.Histogram.overflow h);
  Alcotest.(check int) "count" 3 (Metrics.Histogram.count h);
  Alcotest.(check (float 1e-9)) "sum" 9.5 (Metrics.Histogram.sum h)

let test_histogram_empty () =
  let reg = Metrics.create () in
  let _ = Metrics.histogram reg "empty_h" ~buckets:[| 1.0; 2.0 |] in
  let h = Metrics.histogram reg "empty_h" in
  Alcotest.(check int) "count" 0 (Metrics.Histogram.count h);
  Alcotest.(check bool) "percentile is nan" true
    (Float.is_nan (Metrics.Histogram.percentile h 0.5));
  let json = Metrics.to_json reg in
  Alcotest.(check bool) "p50 exports as null" true
    (contains ~needle:"\"p50\": null" json)

let test_histogram_percentile () =
  let reg = Metrics.create () in
  let h =
    Metrics.histogram reg "h"
      ~buckets:(Metrics.exponential_buckets ~start:10.0 ~factor:10.0 ~count:3)
  in
  for v = 1 to 100 do
    Metrics.Histogram.observe h (float_of_int v)
  done;
  let p50 = Metrics.Histogram.percentile h 0.5 in
  let p99 = Metrics.Histogram.percentile h 0.99 in
  Alcotest.(check bool) "p50 in the second decade" true (p50 > 10.0 && p50 <= 100.0);
  Alcotest.(check bool) "p99 above p50" true (p99 >= p50);
  Alcotest.(check bool) "clamped to observed max" true (p99 <= 100.0);
  Alcotest.check_raises "quantile out of range"
    (Invalid_argument "Metrics.Histogram.percentile: q outside [0,1]")
    (fun () -> ignore (Metrics.Histogram.percentile h 1.5))

(* Two histograms are observed per engine event, so an observation
   of an already-boxed float must not allocate: sum, min and max live
   in unboxed storage. *)
let test_histogram_observe_alloc () =
  let reg = Metrics.create () in
  let h = Metrics.histogram reg "alloc_h" ~buckets:[| 1.0; 10.0 |] in
  let lo = Sys.opaque_identity 0.5 and hi = Sys.opaque_identity 50.0 in
  let n = 10_000 in
  let w0 = Gc.minor_words () in
  for _ = 1 to n do
    Metrics.Histogram.observe h lo;
    Metrics.Histogram.observe h hi
  done;
  let w = Gc.minor_words () -. w0 in
  (* The measurement's own boxed floats are all that may show. *)
  if w > 16.0 then
    Alcotest.failf "Histogram.observe allocated %.0f words over %d calls" w
      (2 * n);
  Alcotest.(check int) "count" (2 * n) (Metrics.Histogram.count h);
  Alcotest.(check (float 0.0)) "sum" (50.5 *. float_of_int n)
    (Metrics.Histogram.sum h);
  Alcotest.(check (float 0.0)) "clamped p0 = min" 0.5
    (Metrics.Histogram.percentile h 0.0);
  Alcotest.(check (float 0.0)) "p100 = max" 50.0
    (Metrics.Histogram.percentile h 1.0)

let test_exponential_buckets () =
  Alcotest.(check (array (float 1e-9)))
    "start * factor^i"
    [| 2.0; 4.0; 8.0 |]
    (Metrics.exponential_buckets ~start:2.0 ~factor:2.0 ~count:3);
  (match Metrics.exponential_buckets ~start:0.0 ~factor:2.0 ~count:3 with
  | _ -> Alcotest.fail "expected start<=0 to raise"
  | exception Invalid_argument _ -> ())

(* ------------------------------------------------------------------ *)
(* Exporters *)

let populated_registry () =
  let reg = Metrics.create () in
  let c = Metrics.counter reg "events_total" ~help:"events" in
  Metrics.Counter.add c 7;
  let g = Metrics.gauge reg "depth" ~labels:[ ("tree", "main") ] in
  Metrics.Gauge.set g 4.0;
  let h = Metrics.histogram reg "latency_ns" ~buckets:[| 10.0; 100.0 |] in
  Metrics.Histogram.observe h 5.0;
  Metrics.Histogram.observe h 50.0;
  Metrics.Histogram.observe h 500.0;
  reg

let test_json_valid () =
  let reg = populated_registry () in
  (match Json.validate (Metrics.to_json reg) with
  | Ok () -> ()
  | Error e -> Alcotest.failf "exporter emitted invalid JSON: %s" e);
  Alcotest.(check bool) "rejects garbage" true
    (Result.is_error (Json.validate "{\"a\": }"));
  Alcotest.(check bool) "rejects trailing junk" true
    (Result.is_error (Json.validate "{} x"))

let test_json_contents () =
  let json = Metrics.to_json (populated_registry ()) in
  List.iter
    (fun needle ->
      Alcotest.(check bool) (needle ^ " present") true (contains ~needle json))
    [
      "\"events_total\""; "\"value\": 7"; "\"tree\": \"main\"";
      "\"latency_ns\""; "\"p50\""; "\"p90\""; "\"p99\""; "\"overflow\": 1";
    ]

let test_prometheus_format () =
  let prom = Metrics.to_prometheus (populated_registry ()) in
  List.iter
    (fun needle ->
      Alcotest.(check bool) (needle ^ " present") true (contains ~needle prom))
    [
      "# TYPE events_total counter";
      "# HELP events_total events";
      "# TYPE latency_ns histogram";
      "latency_ns_bucket{le=\"+Inf\"} 3";
      "latency_ns_bucket{le=\"100\"} 2";
      (* cumulative *)
      "latency_ns_sum";
      "latency_ns_count 3";
      "depth{tree=\"main\"} 4";
    ]

(* Exposition-format regression: pathological label values must be
   escaped (backslash, quote, newline — in that order, so the
   backslash introduced by a later rule is never re-escaped), and
   HELP/TYPE must appear exactly once per family even when the family
   has several label sets or the first-registered member lacks help. *)
let test_prometheus_escaping () =
  let reg = Metrics.create () in
  let c =
    Metrics.counter reg "weird_total" ~labels:[ ("k", "a\\b\"c\nd") ]
  in
  Metrics.Counter.add c 3;
  let prom = Metrics.to_prometheus (reg : Metrics.t) in
  Alcotest.(check bool) "escaped label value" true
    (contains ~needle:"weird_total{k=\"a\\\\b\\\"c\\nd\"} 3" prom);
  Alcotest.(check bool) "no raw newline inside the value" false
    (contains ~needle:"a\\b\"c\nd" prom)

let count_occurrences ~needle haystack =
  let n = String.length needle in
  let rec go i acc =
    if i + n > String.length haystack then acc
    else if String.sub haystack i n = needle then go (i + n) (acc + 1)
    else go (i + 1) acc
  in
  go 0 0

let test_prometheus_family_once () =
  let reg = Metrics.create () in
  (* First member registered without help: the family help must still
     surface from a later member, and exactly once. *)
  let a = Metrics.counter reg "fam_total" ~labels:[ ("k", "a") ] in
  let b =
    Metrics.counter reg "fam_total" ~help:"a family" ~labels:[ ("k", "b") ]
  in
  (* An unrelated metric registered between the two members must not
     split the family's sample block. *)
  let other = Metrics.counter reg "other_total" ~help:"other" in
  Metrics.Counter.incr a;
  Metrics.Counter.add b 2;
  Metrics.Counter.incr other;
  let h = Metrics.histogram reg "lat_ns" ~labels:[ ("op", "x") ] in
  Metrics.Histogram.observe h 1.0;
  let h2 = Metrics.histogram reg "lat_ns" ~labels:[ ("op", "y") ] in
  Metrics.Histogram.observe h2 2.0;
  let prom = Metrics.to_prometheus reg in
  Alcotest.(check int) "TYPE once for fam_total" 1
    (count_occurrences ~needle:"# TYPE fam_total counter" prom);
  Alcotest.(check int) "HELP once for fam_total" 1
    (count_occurrences ~needle:"# HELP fam_total" prom);
  Alcotest.(check bool) "late help recovered" true
    (contains ~needle:"# HELP fam_total a family" prom);
  Alcotest.(check int) "TYPE once for the histogram family" 1
    (count_occurrences ~needle:"# TYPE lat_ns histogram" prom);
  (* Families are contiguous: between fam_total's header and its last
     sample no other family's samples appear. *)
  let lines = String.split_on_char '\n' prom in
  let rec family_blocks acc current = function
    | [] -> List.rev (if current = [] then acc else List.rev current :: acc)
    | l :: rest ->
      if String.length l >= 6 && String.sub l 0 6 = "# TYPE" then
        family_blocks
          (if current = [] then acc else List.rev current :: acc)
          [ l ] rest
      else family_blocks acc (l :: current) rest
  in
  let blocks = family_blocks [] [] lines in
  let fam_blocks =
    List.filter
      (fun b -> List.exists (contains ~needle:"fam_total{") b)
      blocks
  in
  Alcotest.(check int) "fam_total samples in one block" 1
    (List.length fam_blocks)

let test_no_nan_token () =
  let reg = Metrics.create () in
  let g = Metrics.gauge reg "bad" in
  Metrics.Gauge.set g Float.nan;
  let g2 = Metrics.gauge reg "worse" in
  Metrics.Gauge.set g2 Float.infinity;
  let _ = Metrics.histogram reg "empty_h" in
  (* The +Inf bucket label is standard Prometheus syntax; only inf
     *values* are forbidden. *)
  let strip_inf_label s =
    String.concat "" (String.split_on_char '\n' s |> List.map (fun l ->
        if contains ~needle:"le=\"+Inf\"" l then "" else l ^ "\n"))
  in
  List.iter
    (fun out ->
      Alcotest.(check bool) "no nan token" false (contains ~needle:"nan" (lower out));
      Alcotest.(check bool) "no inf token" false (contains ~needle:"inf" (lower out)))
    [ Metrics.to_json reg; strip_inf_label (Metrics.to_prometheus reg) ]

(* ------------------------------------------------------------------ *)
(* Parallel hammering: counters are CAS-loop atomics, gauges atomic
   cells, histograms mutex-protected — concurrent updates from two
   domains must not lose a single increment or observation. *)

let test_parallel_hammer () =
  let reg = Metrics.create () in
  let c = Metrics.counter reg "hammer_total" in
  let g = Metrics.gauge reg "hammer_last" in
  let h = Metrics.histogram reg "hammer_ns" ~buckets:[| 1.0; 2.0 |] in
  let per_domain = 50_000 in
  let work () =
    for i = 1 to per_domain do
      Metrics.Counter.incr c;
      Metrics.Gauge.set g (float_of_int i);
      Metrics.Histogram.observe h (float_of_int (i mod 3))
    done
  in
  let d1 = Domain.spawn work and d2 = Domain.spawn work in
  Domain.join d1;
  Domain.join d2;
  Alcotest.(check int) "no lost counter increments" (2 * per_domain)
    (Metrics.Counter.value c);
  Alcotest.(check int) "no lost observations" (2 * per_domain)
    (Metrics.Histogram.count h);
  let v = Metrics.Gauge.value g in
  Alcotest.(check bool) "gauge holds one of the written values" true
    (v >= 1.0 && v <= float_of_int per_domain)

(* ------------------------------------------------------------------ *)
(* Spans over a deterministic clock *)

let test_span_fake_clock () =
  let t = ref 1000L in
  Clock.set_source (fun () -> !t);
  Fun.protect ~finally:Clock.reset_source (fun () ->
      let reg = Metrics.create () in
      let h = Metrics.histogram reg "span_ns" ~buckets:[| 100.0; 1000.0 |] in
      let span = Span.start () in
      t := Int64.add !t 250L;
      Alcotest.(check (float 0.0)) "elapsed" 250.0 (Span.elapsed_ns span);
      Span.finish span h;
      Alcotest.(check int) "observed once" 1 (Metrics.Histogram.count h);
      Alcotest.(check (float 0.0)) "observed value" 250.0 (Metrics.Histogram.sum h);
      (* time: observes even on exception *)
      (try
         Span.time h (fun () ->
             t := Int64.add !t 50L;
             failwith "boom")
       with Failure _ -> ());
      Alcotest.(check int) "exceptional path observed" 2
        (Metrics.Histogram.count h);
      Alcotest.(check (float 0.0)) "sum includes both" 300.0
        (Metrics.Histogram.sum h))

let test_clock_monotonic () =
  Clock.reset_source ();
  let a = Clock.now_ns () in
  let b = Clock.now_ns () in
  Alcotest.(check bool) "non-decreasing" true (Int64.compare b a >= 0)

(* Every registration holds the series; the last holder's detach
   removes it from the index and from every exporter. *)
let test_registry_release () =
  let reg = Metrics.create () in
  let labels = [ ("subscriber", "alice") ] in
  let a = Metrics.counter_of reg ~help:"" ~labels "deliveries" (fun () -> 3) in
  let b = Metrics.counter_of reg ~help:"" ~labels "deliveries" (fun () -> 0) in
  let keep = Metrics.counter reg "kept" in
  Metrics.Counter.incr keep;
  let series = {|deliveries{subscriber="alice"}|} in
  Metrics.detach reg a;
  Alcotest.(check (option int)) "one holder left" (Some 3)
    (List.assoc_opt series (Metrics.counters reg));
  Metrics.detach reg b;
  Alcotest.(check (option int)) "released" None
    (List.assoc_opt series (Metrics.counters reg));
  let prom = Metrics.to_prometheus reg in
  Alcotest.(check bool) "not scraped" false
    (List.exists
       (fun l -> String.length l >= 10 && String.sub l 0 10 = "deliveries")
       (String.split_on_char '\n' prom));
  Metrics.detach reg b;
  Alcotest.(check int) "other series intact" 1
    (Metrics.Counter.value (Metrics.counter reg "kept"));
  let fresh = Metrics.counter_of reg ~help:"" ~labels "deliveries" (fun () -> 1) in
  Alcotest.(check (option int)) "re-registration starts fresh" (Some 1)
    (List.assoc_opt series (Metrics.counters reg));
  Metrics.detach reg fresh

(* Read series: the value is the pushed adds plus every live source's
   read; a detached source's last read stays; the last holder's
   detach removes the series; a read never drops below an earlier one. *)
let test_registry_sources () =
  let reg = Metrics.create () in
  let labels = [ ("subscriber", "alice") ] in
  let series = {|deliveries{subscriber="alice"}|} in
  let value () = List.assoc_opt series (Metrics.counters reg) in
  let a = ref 2 and b = ref 5 in
  let sa = Metrics.counter_of reg ~help:"" ~labels "deliveries" (fun () -> !a) in
  let sb = Metrics.counter_of reg ~help:"" ~labels "deliveries" (fun () -> !b) in
  Metrics.Counter.add (Metrics.counter reg "deliveries" ~labels) 10;
  Alcotest.(check (option int)) "pushed + sources" (Some 17) (value ());
  a := 3;
  Alcotest.(check (option int)) "read at export" (Some 18) (value ());
  Metrics.detach reg sa;
  a := 100;
  Alcotest.(check (option int)) "detached read kept" (Some 18) (value ());
  Metrics.detach reg sa;
  Alcotest.(check (option int)) "second detach is a no-op" (Some 18) (value ());
  b := 1;
  Alcotest.(check (option int)) "never reads lower" (Some 18) (value ());
  b := 9;
  Alcotest.(check (option int)) "climbs past the high mark" (Some 22) (value ());
  Metrics.detach reg sb;
  Alcotest.(check (option int)) "the pushed holder keeps the series" (Some 22)
    (value ());
  ignore (Metrics.gauge reg "level");
  match Metrics.counter_of reg ~help:"" ~labels:[] "level" (fun () -> 0) with
  | _ -> Alcotest.fail "a source on a gauge must raise"
  | exception Invalid_argument _ -> ()

(* Random register/detach churn over a small table (long probe runs,
   wraparound, growth) against a model: the live series, in
   registration order, and every live series still found by lookup. *)
let test_registry_release_churn () =
  let reg = Metrics.create () in
  let rng = Random.State.make [| 7 |] in
  let live = ref [] and sources = Hashtbl.create 16 in
  let attach name v = Metrics.counter_of reg ~help:"" ~labels:[] name (fun () -> v) in
  for step = 1 to 4000 do
    let k = Random.State.int rng 150 in
    let name = Printf.sprintf "s%d" k in
    if List.mem_assoc name !live && Random.State.bool rng then begin
      Metrics.detach reg (Hashtbl.find sources name);
      live := List.remove_assoc name !live
    end
    else if not (List.mem_assoc name !live) then begin
      Hashtbl.replace sources name (attach name step);
      live := !live @ [ (name, step) ]
    end;
    if step mod 97 = 0 then begin
      Alcotest.(check (list (pair string int))) "live series, in order" !live
        (Metrics.counters reg);
      List.iter
        (fun (name, _) ->
          let probe = attach name 0 in
          Alcotest.(check (list (pair string int))) "lookup finds the live series"
            !live (Metrics.counters reg);
          Metrics.detach reg probe)
        !live
    end
  done

(* ------------------------------------------------------------------ *)
(* Scrape endpoint *)

module Scrape = Genas_obs.Scrape

let scrape_path () =
  let path = Filename.temp_file "genas_scrape" ".sock" in
  Sys.remove path;
  path

(* Run [f] on the address of an endpoint at a fresh Unix-socket path. *)
let with_endpoint f =
  let path = scrape_path () in
  let t = Scrape.start ~node:"t" ~metrics:(Metrics.create ()) (Unix.ADDR_UNIX path) in
  Fun.protect ~finally:(fun () -> Scrape.stop t) (fun () -> f (Scrape.addr t))

(* Send [data] raw, half-close, and return the response's status code
   (0 when none came back). The server may close before reading all of
   [data]; a failed write still reads what it answered. *)
let raw_status addr data =
  let fd = Unix.socket (Unix.domain_of_sockaddr addr) Unix.SOCK_STREAM 0 in
  Fun.protect ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
  @@ fun () ->
  Unix.connect fd addr;
  (try
     let len = String.length data and off = ref 0 in
     while !off < len do
       off := !off + Unix.write_substring fd data !off (len - !off)
     done;
     Unix.shutdown fd Unix.SHUTDOWN_SEND
   with Unix.Unix_error _ -> ());
  let b = Buffer.create 256 and chunk = Bytes.create 4096 in
  let rec read_all () =
    match Unix.read fd chunk 0 (Bytes.length chunk) with
    | 0 -> ()
    | n -> Buffer.add_subbytes b chunk 0 n; read_all ()
    | exception Unix.Unix_error _ -> ()
  in
  read_all ();
  match String.split_on_char ' ' (Buffer.contents b) with
  | _ :: code :: _ -> Option.value ~default:0 (int_of_string_opt code)
  | _ -> 0

let get_code addr path =
  match Scrape.get addr ~path with
  | Ok (code, _) -> code
  | Error e -> Alcotest.failf "GET %s: %s" path e

let test_scrape_paths () =
  with_endpoint @@ fun addr ->
  List.iter
    (fun path -> Alcotest.(check int) path 200 (get_code addr path))
    [ "/metrics"; "/metrics.json"; "/json"; "/" ];
  Alcotest.(check int) "unknown path" 404 (get_code addr "/nope");
  (match Scrape.get addr ~path:"/metrics" with
  | Ok (_, body) ->
    Alcotest.(check bool) "build info exported" true
      (contains ~needle:"genas_build_info" body)
  | Error e -> Alcotest.fail e)

let test_scrape_bad_requests () =
  with_endpoint @@ fun addr ->
  Alcotest.(check int) "non-GET" 400
    (raw_status addr "POST /metrics HTTP/1.0\r\n\r\n");
  Alcotest.(check int) "empty request" 400 (raw_status addr "")

let test_scrape_oversized_headers () =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  with_endpoint @@ fun addr ->
  let pad = "X-Pad: " ^ String.make 57 'a' ^ "\r\n" in
  let request =
    "GET /metrics HTTP/1.0\r\n"
    ^ String.concat "" (List.init (65536 / String.length pad) (fun _ -> pad))
    ^ "\r\n"
  in
  Alcotest.(check int) "64 KiB of headers" 400 (raw_status addr request);
  Alcotest.(check int) "next request served" 200 (get_code addr "/metrics")

let test_scrape_stop () =
  let path = scrape_path () in
  let t = Scrape.start ~metrics:(Metrics.create ()) (Unix.ADDR_UNIX path) in
  Alcotest.(check bool) "socket file while serving" true (Sys.file_exists path);
  Scrape.stop t;
  Scrape.stop t;
  Alcotest.(check bool) "socket file unlinked" false (Sys.file_exists path)

let test_scrape_stale_socket () =
  let path = scrape_path () in
  (* A socket file left behind by a process that died without
     unlinking it. *)
  let stale = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind stale (Unix.ADDR_UNIX path);
  Unix.close stale;
  Alcotest.(check bool) "stale file present" true (Sys.file_exists path);
  let t = Scrape.start ~metrics:(Metrics.create ()) (Unix.ADDR_UNIX path) in
  Fun.protect ~finally:(fun () -> Scrape.stop t) @@ fun () ->
  Alcotest.(check int) "serves over the stale path" 200
    (get_code (Scrape.addr t) "/metrics")

let () =
  Alcotest.run "obs"
    [
      ( "counter",
        [
          Alcotest.test_case "basics" `Quick test_counter_basics;
          Alcotest.test_case "saturation" `Quick test_counter_saturates;
        ] );
      ("gauge", [ Alcotest.test_case "set/value" `Quick test_gauge ]);
      ( "registry",
        [
          Alcotest.test_case "dedup" `Quick test_registry_dedup;
          Alcotest.test_case "kind clash" `Quick test_registry_kind_clash;
          Alcotest.test_case "bad name" `Quick test_registry_bad_name;
          Alcotest.test_case "permuted labels" `Quick test_registry_label_order;
          Alcotest.test_case "labelled kind clash" `Quick
            test_registry_kind_clash_labelled;
          Alcotest.test_case "family order" `Quick test_registry_family_order;
          Alcotest.test_case "concurrent registration" `Quick
            test_registry_concurrent_register;
          Alcotest.test_case "release" `Quick test_registry_release;
          Alcotest.test_case "release churn" `Quick test_registry_release_churn;
          Alcotest.test_case "sources" `Quick test_registry_sources;
        ] );
      ( "histogram",
        [
          Alcotest.test_case "bucket boundaries" `Quick test_histogram_boundaries;
          Alcotest.test_case "empty" `Quick test_histogram_empty;
          Alcotest.test_case "percentiles" `Quick test_histogram_percentile;
          Alcotest.test_case "exponential buckets" `Quick test_exponential_buckets;
          Alcotest.test_case "observe allocates nothing" `Quick
            test_histogram_observe_alloc;
        ] );
      ( "export",
        [
          Alcotest.test_case "json validity" `Quick test_json_valid;
          Alcotest.test_case "json contents" `Quick test_json_contents;
          Alcotest.test_case "prometheus format" `Quick test_prometheus_format;
          Alcotest.test_case "prometheus escaping" `Quick
            test_prometheus_escaping;
          Alcotest.test_case "prometheus family once" `Quick
            test_prometheus_family_once;
          Alcotest.test_case "no nan token" `Quick test_no_nan_token;
        ] );
      ( "parallel",
        [ Alcotest.test_case "2-domain hammer" `Quick test_parallel_hammer ] );
      ( "span",
        [
          Alcotest.test_case "fake clock" `Quick test_span_fake_clock;
          Alcotest.test_case "monotonic default" `Quick test_clock_monotonic;
        ] );
      ( "scrape",
        [
          Alcotest.test_case "paths" `Quick test_scrape_paths;
          Alcotest.test_case "bad requests" `Quick test_scrape_bad_requests;
          Alcotest.test_case "oversized headers" `Quick
            test_scrape_oversized_headers;
          Alcotest.test_case "stop" `Quick test_scrape_stop;
          Alcotest.test_case "stale socket" `Quick test_scrape_stale_socket;
        ] );
    ]
