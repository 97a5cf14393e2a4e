(* Sample statistics: exact order statistics over float arrays, a
   log-bucketed latency histogram for closed loops that produce
   millions of samples, and the growable sample buffer both feed. *)

module Clock = Genas_obs.Clock

let now_ns () = Int64.to_float (Clock.now_ns ())

(* Linear interpolation between closest ranks (Python's
   statistics.quantiles "inclusive" method), on a sorted copy. *)
let quantile_sorted a q =
  let n = Array.length a in
  if n = 0 then nan
  else if n = 1 then a.(0)
  else
    let pos = q *. float_of_int (n - 1) in
    let i = int_of_float (Float.floor pos) in
    if i >= n - 1 then a.(n - 1)
    else a.(i) +. ((pos -. float_of_int i) *. (a.(i + 1) -. a.(i)))

let sorted a =
  let c = Array.copy a in
  Array.sort Float.compare c;
  c

let quantile a q = quantile_sorted (sorted a) q

let median a = quantile a 0.5

(* Growable float buffer. *)
module Buf = struct
  type t = { mutable data : float array; mutable len : int }

  let create () = { data = Array.make 1024 0.0; len = 0 }

  let add t v =
    if t.len = Array.length t.data then begin
      let d = Array.make (2 * t.len) 0.0 in
      Array.blit t.data 0 d 0 t.len;
      t.data <- d
    end;
    t.data.(t.len) <- v;
    t.len <- t.len + 1

  let length t = t.len

  let to_array t = Array.sub t.data 0 t.len
end

(* Log-bucketed histogram: bucket [i] holds values in
   [base^i, base^(i+1)) with base 1.002, so a quantile read from it is
   within 0.2% of the exact order statistic; values below 1 land in
   bucket 0. *)
module Hist = struct
  let base = 1.002

  let log_base = Float.log base

  let nbuckets = 12_000 (* base^12000 ~ 2.6e10: 26 s in ns *)

  type t = { counts : int array; mutable n : int }

  let create () = { counts = Array.make nbuckets 0; n = 0 }

  let add t v =
    let i =
      if v < 1.0 then 0
      else min (nbuckets - 1) (int_of_float (Float.log v /. log_base))
    in
    t.counts.(i) <- t.counts.(i) + 1;
    t.n <- t.n + 1

  let count t = t.n

  let quantile t q =
    if t.n = 0 then nan
    else begin
      let rank = q *. float_of_int (t.n - 1) in
      let acc = ref 0 and i = ref 0 in
      while float_of_int (!acc + t.counts.(!i)) <= rank && !i < nbuckets - 1 do
        acc := !acc + t.counts.(!i);
        incr i
      done;
      (* Interpolate inside the bucket by rank. *)
      let within =
        (rank -. float_of_int !acc) /. float_of_int (max 1 t.counts.(!i))
      in
      Float.pow base (float_of_int !i +. within)
    end
end

(* Median, quartiles and count of a sample, as reported for every
   timing. *)
type summary = { n : int; p50 : float; p99 : float }

let summarize a =
  let s = sorted a in
  { n = Array.length s; p50 = quantile_sorted s 0.5; p99 = quantile_sorted s 0.99 }

(* For time-ordered samples: consecutive windows of at least 1000
   samples each (so a window's p99 has 10 samples beyond it).
   Reporting the median over windows keeps one stalled slice of a run
   from moving the result more than one calm slice. *)
let windows a =
  let per = 1000 in
  let n = Array.length a in
  let k = max 1 (n / per) in
  List.init k (fun i ->
      let lo = i * n / k in
      summarize (Array.sub a lo (((i + 1) * n / k) - lo)))
