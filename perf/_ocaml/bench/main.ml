(* Entry point. [main.exe run --workload W --seed N --seconds S --trace
   0|1 [--commit C] [--parallelism P] [--cpu N]] prints a detail block
   (host, sample counts, per-rung tables) and, as its last line, the
   one-line JSON result; it exits 1 when a delivery check failed.
   [main.exe calibrate] prints the host's effective parallelism.
   [main.exe serve SOCKET] is the server process the net-pubsub
   workload starts. *)

module Json = Genas_obs.Json

let workloads = [ "paper-inproc"; "net-pubsub"; "agg-churn" ]

let inputs ~seed = function
  | "agg-churn" -> Inputs.agg ~seed
  | _ -> Inputs.paper ~seed

let run ~workload ~seed ~seconds ~trace ~host =
  let out = Out.create () in
  let run_workload =
    if trace then fun out ~seed ->
      Waterfall.run ~workload out (inputs ~seed:(Inputs.sub_seed ~seed 0) workload)
    else
      match workload with
      | "paper-inproc" -> E2e.paper_inproc
      | "net-pubsub" -> E2e.net_pubsub
      | _ -> E2e.agg_churn
  in
  Fun.protect ~finally:Deploy.cleanup (fun () -> run_workload out ~seed ~seconds);
  let detail =
    Json.Obj
      ([
         ("workload", Json.Str workload);
         ("seed", Json.Int seed);
         ("seconds", Json.number seconds);
         ("trace", Json.Bool trace);
         ("host", host);
         ("attempted", Json.Int out.Out.attempted);
         ("failed", Json.Int out.Out.failed);
         ("mismatches", Json.List (List.rev_map (fun s -> Json.Str s) out.Out.mismatches));
       ]
      @ List.rev out.Out.detail)
  in
  print_endline (Json.to_string ~indent:2 detail);
  print_endline (Out.result_line out);
  if out.Out.failed > 0 then exit 1

let usage () =
  prerr_endline
    "usage: main.exe run --workload (paper-inproc|net-pubsub|agg-churn) \
     --seed N --seconds S --trace 0|1 [--commit C] [--parallelism P] \
     [--cpu N]\n\
    \       main.exe calibrate\n\
    \       main.exe serve SOCKET";
  exit 2

let () =
  match Array.to_list Sys.argv with
  | [ _; "serve"; sock ] -> Net.serve sock
  | [ _; "calibrate" ] -> Printf.printf "%.4f\n" (Host.calibrate ())
  | _ :: "run" :: rest ->
    let rec parse acc = function
      | [] -> acc
      | key :: v :: rest when String.length key > 2 && String.sub key 0 2 = "--" ->
        parse ((String.sub key 2 (String.length key - 2), v) :: acc) rest
      | _ -> usage ()
    in
    let opts = parse [] rest in
    let get k = match List.assoc_opt k opts with Some v -> v | None -> usage () in
    let workload = get "workload" in
    if not (List.mem workload workloads) then usage ();
    let num f k = match f (get k) with Some v -> v | None -> usage () in
    let seed = num int_of_string_opt "seed" in
    let seconds = num float_of_string_opt "seconds" in
    let trace =
      match get "trace" with "0" -> false | "1" -> true | _ -> usage ()
    in
    let opt k default = Option.value (List.assoc_opt k opts) ~default in
    let parallelism =
      match List.assoc_opt "parallelism" opts with
      | Some p -> ( match float_of_string_opt p with Some v -> v | None -> usage ())
      | None -> Host.calibrate ()
    in
    let host =
      Host.block ~commit:(opt "commit" "unknown") ~parallelism ~cpu:(opt "cpu" "none")
    in
    run ~workload ~seed ~seconds ~trace ~host
  | _ -> usage ()
