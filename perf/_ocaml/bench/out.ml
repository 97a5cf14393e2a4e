(* What one run reports: named metrics with units, the operation
   tallies behind [correct]/[attempted]/[failed], and a detail block
   (host, per-rung tables, sample counts) printed before the result. *)

module Json = Genas_obs.Json

type t = {
  mutable metrics : (string * float * string) list;  (** reverse order *)
  mutable attempted : int;
  mutable failed : int;
  mutable detail : (string * Json.t) list;  (** reverse order *)
  mutable mismatches : string list;  (** first few failure descriptions *)
}

let create () =
  { metrics = []; attempted = 0; failed = 0; detail = []; mismatches = [] }

let metric t name unit_ v = t.metrics <- (name, v, unit_) :: t.metrics

let detail t key v = t.detail <- (key, v) :: t.detail

let attempt t n = t.attempted <- t.attempted + n

let fail t why =
  t.failed <- t.failed + 1;
  if List.length t.mismatches < 10 then t.mismatches <- why :: t.mismatches

(* A timing summary as it goes into the detail block: median, p99 and
   the sample count behind them. *)
let timing (s : Stat.summary) ~scale =
  Json.Obj
    [
      ("p50", Json.number (s.Stat.p50 /. scale));
      ("p99", Json.number (s.Stat.p99 /. scale));
      ("samples", Json.Int s.Stat.n);
    ]

let metric_json t =
  Json.Obj
    (List.rev_map
       (fun (name, v, u) ->
         (name, Json.Obj [ ("value", Json.number v); ("unit", Json.Str u) ]))
       t.metrics)

let result_line t =
  Json.to_string ~indent:0
    (Json.Obj
       [
         ("correct", Json.Bool (t.failed = 0));
         ("attempted", Json.Int (max 1 t.attempted));
         ("failed", Json.Int t.failed);
         ("metrics", metric_json t);
       ])
