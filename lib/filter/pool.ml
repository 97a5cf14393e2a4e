(* Persistent work-stealing domain pool.

   Workers are spawned once, on the first parallel batch, and parked on
   a condition turnstile; each [match_batch] posts one job (a bumped
   generation under the mutex publishes it), every participant drains
   its own contiguous range through an atomic chunk cursor and then
   sweeps the other cursors stealing leftover chunks. Every item index
   is claimed by exactly one [Atomic.fetch_and_add] winner and written
   to its own result slot, so output is positionally deterministic —
   bit-identical to a sequential run no matter how the steals land —
   and Ops counters are commutative sums, so the merged totals are too.

   Completion: [j_remaining] counts unprocessed items; the participant
   whose decrement reaches zero broadcasts [done_]. The poster also
   works (as participant 0), then waits under the mutex until the
   count drains. Exceptions in a worker are trapped per chunk (first
   one kept), the chunk is still counted as done so the countdown
   cannot wedge, and the poster re-raises after the barrier. *)

type job = {
  j_run : int -> int -> unit;  (* j_run participant item *)
  j_next : int Atomic.t array;  (* per-participant chunk cursor *)
  j_hi : int array;  (* per-participant range end *)
  j_chunk : int;
  j_remaining : int Atomic.t;
  j_steals : int Atomic.t;
  j_failed : exn option Atomic.t;
}

type turnstile = {
  mutex : Mutex.t;
  work : Condition.t;
  done_ : Condition.t;
  mutable job : job option;
  mutable gen : int;  (* bumped per posted job; publishes [job] *)
  mutable stop : bool;
}

type t = {
  domains : int;
  turnstile : turnstile option;  (* [Some] iff domains > 1 *)
  mutable handles : unit Domain.t list;
  mutable spawned : bool;
  mutable shut : bool;
  mutable steals_last : int;
  mutable cleanup_key : int option;  (* slot in the at_exit registry *)
}

let claim j w =
  let lo = Atomic.fetch_and_add j.j_next.(w) j.j_chunk in
  if lo < j.j_hi.(w) then Some (lo, min j.j_hi.(w) (lo + j.j_chunk))
  else None

let process j w lo hi =
  (try
     for i = lo to hi - 1 do
       j.j_run w i
     done
   with e -> ignore (Atomic.compare_and_set j.j_failed None (Some e)));
  hi - lo

(* Drain own range, then sweep the other participants' cursors until a
   full pass steals nothing. Returns the number of items processed. *)
let run_share j w =
  let did = ref 0 in
  let mine = ref true in
  while !mine do
    match claim j w with
    | Some (lo, hi) -> did := !did + process j w lo hi
    | None -> mine := false
  done;
  let participants = Array.length j.j_next in
  let progress = ref true in
  while !progress do
    progress := false;
    for v = 0 to participants - 1 do
      if v <> w then
        match claim j v with
        | Some (lo, hi) ->
            Atomic.incr j.j_steals;
            did := !did + process j w lo hi;
            progress := true
        | None -> ()
    done
  done;
  !did

let finish_share ts j did =
  if did > 0 && Atomic.fetch_and_add j.j_remaining (-did) = did then begin
    Mutex.lock ts.mutex;
    Condition.broadcast ts.done_;
    Mutex.unlock ts.mutex
  end

let worker ts w =
  let rec loop last_gen =
    Mutex.lock ts.mutex;
    while (not ts.stop) && ts.gen = last_gen do
      Condition.wait ts.work ts.mutex
    done;
    if ts.stop then Mutex.unlock ts.mutex
    else begin
      let gen = ts.gen and job = ts.job in
      Mutex.unlock ts.mutex;
      (* [job] may already be [None] if this worker woke after the job
         completed (every item claimed and counted by others). *)
      (match job with
      | None -> ()
      | Some j -> finish_share ts j (run_share j w));
      loop gen
    end
  in
  loop 0

(* Process-exit cleanup: ONE [at_exit] hook over a removable registry,
   installed lazily on the first multi-domain pool. Registering a fresh
   closure per pool would retain every pool ever created for the life
   of the process (the at_exit list cannot be pruned), which leaks
   under create/shutdown cycling. *)
let cleanup_mutex = Mutex.create ()
let cleanup_pools : (int, t) Hashtbl.t = Hashtbl.create 8
let cleanup_next = ref 0
let cleanup_hooked = ref false

let registered_cleanups () =
  Mutex.lock cleanup_mutex;
  let n = Hashtbl.length cleanup_pools in
  Mutex.unlock cleanup_mutex;
  n

let register_cleanup run t =
  Mutex.lock cleanup_mutex;
  let key = !cleanup_next in
  incr cleanup_next;
  Hashtbl.replace cleanup_pools key t;
  if not !cleanup_hooked then begin
    cleanup_hooked := true;
    at_exit (fun () ->
        Mutex.lock cleanup_mutex;
        let pending = Hashtbl.fold (fun _ p acc -> p :: acc) cleanup_pools [] in
        Hashtbl.reset cleanup_pools;
        Mutex.unlock cleanup_mutex;
        List.iter run pending)
  end;
  Mutex.unlock cleanup_mutex;
  key

let unregister_cleanup key =
  Mutex.lock cleanup_mutex;
  Hashtbl.remove cleanup_pools key;
  Mutex.unlock cleanup_mutex

let shutdown t =
  if not t.shut then begin
    t.shut <- true;
    (match t.cleanup_key with
    | Some key -> unregister_cleanup key
    | None -> ());
    match t.turnstile with
    | None -> ()
    | Some ts ->
        Mutex.lock ts.mutex;
        ts.stop <- true;
        Condition.broadcast ts.work;
        Mutex.unlock ts.mutex;
        List.iter Domain.join t.handles;
        t.handles <- []
  end

let create ?domains () =
  let d =
    match domains with
    | Some d -> d
    | None -> Domain.recommended_domain_count ()
  in
  if d < 1 then invalid_arg "Pool.create: need at least one domain";
  let turnstile =
    if d > 1 then
      Some
        {
          mutex = Mutex.create ();
          work = Condition.create ();
          done_ = Condition.create ();
          job = None;
          gen = 0;
          stop = false;
        }
    else None
  in
  let t =
    { domains = d; turnstile; handles = []; spawned = false;
      shut = false; steals_last = 0; cleanup_key = None }
  in
  (* A process exit with workers still parked would abort on the
     runtime's live-domain check; make teardown automatic. [shutdown]
     removes the registration, so cycled pools are not retained. *)
  if turnstile <> None then
    t.cleanup_key <- Some (register_cleanup shutdown t);
  t

(* Workers are spawned on the first parallel batch, not at [create]:
   even parked domains participate in every stop-the-world section, so
   a pool that has not fanned out yet must cost the process nothing. *)
let ensure_workers t ts =
  if not t.spawned then begin
    t.spawned <- true;
    t.handles <-
      List.init (t.domains - 1) (fun k ->
          Domain.spawn (fun () -> worker ts (k + 1)))
  end

let domains t = t.domains
let live_workers t = List.length t.handles
let last_steals t = t.steals_last

(* Post [n] items to the turnstile and participate as worker 0. *)
let post_and_run t ts ~n run_item =
  ensure_workers t ts;
  let participants = t.domains in
  let chunk = max 1 (min 32 (n / (participants * 8))) in
  let job =
    {
      j_run = run_item;
      j_next = Array.init participants (fun w -> Atomic.make (w * n / participants));
      j_hi = Array.init participants (fun w -> (w + 1) * n / participants);
      j_chunk = chunk;
      j_remaining = Atomic.make n;
      j_steals = Atomic.make 0;
      j_failed = Atomic.make None;
    }
  in
  Mutex.lock ts.mutex;
  ts.job <- Some job;
  ts.gen <- ts.gen + 1;
  Condition.broadcast ts.work;
  Mutex.unlock ts.mutex;
  finish_share ts job (run_share job 0);
  Mutex.lock ts.mutex;
  while Atomic.get job.j_remaining > 0 do
    Condition.wait ts.done_ ts.mutex
  done;
  ts.job <- None;
  Mutex.unlock ts.mutex;
  t.steals_last <- Atomic.get job.j_steals;
  match Atomic.get job.j_failed with Some e -> raise e | None -> ()

let match_batch ?ops t flat events =
  if t.shut then invalid_arg "Pool.match_batch: pool has been shut down";
  t.steals_last <- 0;
  let n = Array.length events in
  let results = Array.make n [||] in
  (match t.turnstile with
  | Some ts when n > 1 ->
    (* Resolve the whole batch once into the packed int image; workers
       then touch only int arrays. *)
    let packed = Flat.pack_batch flat events in
    let cursors = Array.init t.domains (fun _ -> Flat.cursor flat) in
    let part_ops = Array.init t.domains (fun _ -> Ops.create ()) in
    post_and_run t ts ~n (fun w i ->
        let len =
          Flat.match_packed_into ~ops:part_ops.(w) flat cursors.(w) packed i
        in
        results.(i) <- Array.sub (Flat.matches cursors.(w)) 0 len);
    (match ops with
    | Some o -> Array.iter (fun po -> Ops.add po ~into:o) part_ops
    | None -> ())
  | Some _ | None ->
    Flat.match_batch ?ops flat (Flat.cursor flat) events
      ~f:(fun i ~ids ~len -> results.(i) <- Array.sub ids 0 len));
  results
