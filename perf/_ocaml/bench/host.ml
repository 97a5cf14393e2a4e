(* The host block printed with every result: what the numbers were
   measured on, so a host change can be told apart from a code change. *)

module Json = Genas_obs.Json
module Perfbench = Genas_expt.Perfbench

(* A fixed amount of pure integer work. *)
let spin iters =
  let x = ref 1 in
  for i = 1 to iters do
    x := (!x * 1103515245) + i
  done;
  Sys.opaque_identity !x

let time f =
  let t0 = Stat.now_ns () in
  f ();
  (Stat.now_ns () -. t0) /. 1e9

(* Effective parallelism: [n] domains each spin the work one domain
   spins alone; [n * t1 / tn] is n on a host with n free cores and
   about 1.0 where the cores are shared or throttled. *)
let effective_parallelism n =
  let iters = 20_000_000 in
  let trial () =
    let t1 = time (fun () -> ignore (spin iters)) in
    let tn =
      time (fun () ->
          let ds = List.init (n - 1) (fun _ -> Domain.spawn (fun () -> spin iters)) in
          ignore (spin iters);
          List.iter (fun d -> ignore (Domain.join d)) ds)
    in
    float_of_int n *. t1 /. tn
  in
  Stat.median (Array.init 3 (fun _ -> trial ()))

let nproc () = Perfbench.host_cpu_count ()

let calibrate () =
  let n = nproc () in
  if n > 1 then effective_parallelism n else 1.0

(* [parallelism] and [cpu] come from perf/run.py, which calibrates
   before it pins the run to one CPU ([cpu] is "none" when it did
   not). *)
let block ~commit ~parallelism ~cpu =
  Json.Obj
    [
      ("nproc", Json.Int (nproc ()));
      ("recommended_domains", Json.Int (Domain.recommended_domain_count ()));
      ("effective_parallelism", Json.number parallelism);
      ("pinned_cpu", Json.Str cpu);
      ("ocaml", Json.Str Sys.ocaml_version);
      ("commit", Json.Str commit);
    ]

(* Reset this process's peak resident set to its current one, so the
   next [vm_hwm_mb "self"] covers only what ran since. *)
let reset_peak () =
  try Out_channel.with_open_text "/proc/self/clear_refs" (fun oc -> output_string oc "5")
  with Sys_error _ -> ()

(* Peak resident set of a process, from /proc. *)
let vm_hwm_mb pid =
  let path = Printf.sprintf "/proc/%s/status" pid in
  match In_channel.with_open_text path In_channel.input_all with
  | exception Sys_error _ -> nan
  | text ->
    List.fold_left
      (fun acc line ->
        match Scanf.sscanf line "VmHWM: %d kB" (fun kb -> kb) with
        | kb -> float_of_int kb /. 1024.0
        | exception _ -> acc)
      nan
      (String.split_on_char '\n' text)
