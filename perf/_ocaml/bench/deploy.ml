(* How each workload deploys the broker, shared by the measured run and
   its twins in the waterfall, plus the scratch directory every run
   writes journals and sockets into. *)

module Broker = Genas_ens.Broker
module Journal = Genas_ens.Journal
module Engine = Genas_core.Engine
module Adaptive = Genas_core.Adaptive
module Reorder = Genas_core.Reorder
module Selectivity = Genas_core.Selectivity
module Notification = Genas_ens.Notification

type cfg = {
  spec : Reorder.spec option;
  adaptive : Adaptive.policy option;
  aggregate : bool;
}

(* The paper's best strategy pair, as [Perfbench.run] uses it. *)
let v1a2 =
  {
    Reorder.attr_choice = Reorder.Attr_measured (Selectivity.A2, `Descending);
    value_choice = `Measure Selectivity.V1;
  }

let paper = { spec = Some v1a2; adaptive = Some Adaptive.default_policy; aggregate = false }

(* What [genas serve] deploys: the default spec, no adaptive policy. *)
let served = { spec = None; adaptive = None; aggregate = false }

let aggregated = { spec = None; adaptive = None; aggregate = true }

(* Scratch space under the checkout's .bench_out/, one directory per
   process, removed when the run ends. *)
let out_dir = ".bench_out"

let work_dir = lazy (
  let d = Filename.concat out_dir (Printf.sprintf "run%d" (Unix.getpid ())) in
  List.iter
    (fun p -> if not (Sys.file_exists p) then Sys.mkdir p 0o755)
    [ out_dir; d ];
  d)

let rec rm_rf path =
  match Sys.is_directory path with
  | true ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Sys.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

let cleanup () = if Lazy.is_val work_dir then rm_rf (Lazy.force work_dir)

let journals = ref 0

(* A fresh journal directory; [Journal.config]'s defaults are fsync on
   and a snapshot every 512 operations. *)
let journal ?fsync () =
  incr journals;
  Journal.config ?fsync
    (Filename.concat (Lazy.force work_dir) (Printf.sprintf "journal%d" !journals))

let broker ?metrics ?tracer ?journal cfg =
  Broker.create ?spec:cfg.spec ?adaptive:cfg.adaptive ~aggregate:cfg.aggregate
    ?metrics ?tracer ?journal Inputs.schema

(* Subscribe the population, profile [i] as subscriber ["s<i>"], then
   compile the first matcher. *)
let populate b profiles handler =
  Array.iteri
    (fun i p ->
      ignore
        (Broker.subscribe b ~subscriber:(Printf.sprintf "s%d" i) ~profile:p
           (handler i)))
    profiles;
  Engine.refresh_keeping_history (Broker.engine b)

let null_handler _ (_ : Notification.t) = ()

(* Drop a broker: close its journal and remove the directory. *)
let discard b =
  let dir = Option.map (fun w -> (Journal.configuration w).Journal.dir) (Broker.wal b) in
  Broker.close b;
  Option.iter rm_rf dir
