(* Deterministic chaos scenario plans for mesh tests.

   A plan is a pregenerated array of per-step actions drawn from
   seeded {!Genas_prng.Prng} substreams — one for the action category,
   one for target selection — so the same seed and spec replay the
   identical scenario, and changing one category's probability never
   perturbs which targets the other categories pick (the same
   stream-splitting discipline as {!Fault.plan}).

   The plan only {e decides}; executing it (killing a server process,
   dropping a client's link, stalling a receiver) belongs to the test
   harness, which interleaves the actions with publish traffic and
   asserts that recovery machinery — auto-reconnect, replay,
   slow-consumer disconnects — converges every client back to the
   reference delivery set. *)

module Prng = Genas_prng.Prng

type action =
  | Calm  (** no fault this step *)
  | Kill_restart  (** kill the serving process mid-run, then restart it *)
  | Partition of int  (** sever client [i]'s link (it must self-heal) *)
  | Stall of int
      (** pause client [i]'s receiver until the server's bounded
          queue trips its slow-consumer policy *)

type spec = {
  steps : int;
  kill : float;
  partition : float;
  stall : float;
}

let action_name = function
  | Calm -> "calm"
  | Kill_restart -> "kill-restart"
  | Partition i -> Printf.sprintf "partition(%d)" i
  | Stall i -> Printf.sprintf "stall(%d)" i

let to_string plan =
  String.concat " " (Array.to_list (Array.map action_name plan))

let plan ~seed ~clients spec =
  if spec.steps < 0 then invalid_arg "Chaos.plan: steps must be >= 0";
  let check name p =
    if not (p >= 0.0 && p <= 1.0) then
      invalid_arg (Printf.sprintf "Chaos.plan: %s outside [0,1]" name)
  in
  check "kill" spec.kill;
  check "partition" spec.partition;
  check "stall" spec.stall;
  if spec.kill +. spec.partition +. spec.stall > 1.0 then
    invalid_arg "Chaos.plan: probabilities sum above 1";
  if clients < 1 && spec.partition +. spec.stall > 0.0 then
    invalid_arg "Chaos.plan: targeted actions need at least one client";
  let root = Prng.create ~seed in
  let cat = Prng.split root in
  let target = Prng.split root in
  Array.init spec.steps (fun _ ->
      let u = Prng.float cat ~bound:1.0 in
      if u < spec.kill then Kill_restart
      else if u < spec.kill +. spec.partition then
        Partition (Prng.int target ~bound:clients)
      else if u < spec.kill +. spec.partition +. spec.stall then
        Stall (Prng.int target ~bound:clients)
      else Calm)

let counts plan =
  Array.fold_left
    (fun (calm, kill, part, stall) -> function
      | Calm -> (calm + 1, kill, part, stall)
      | Kill_restart -> (calm, kill + 1, part, stall)
      | Partition _ -> (calm, kill, part + 1, stall)
      | Stall _ -> (calm, kill, part, stall + 1))
    (0, 0, 0, 0) plan
