(* The benchmark's own span recorder. Spans are taken around calls into
   each layer's public entry points (nothing inside lib/ is touched),
   kept in memory, and written as Chrome trace-event JSON when the run
   ends. Per-name self time is a span's duration minus the part its
   child spans cover. *)

type span = {
  name : string;
  parent : int;  (** index of the enclosing span, -1 at top level *)
  start_ns : float;
  mutable end_ns : float;
}

type t = {
  mutable spans : span array;
  mutable len : int;
  mutable dropped : int;
  mutable open_ : int list;  (** stack of open span indices *)
}

(* Spans past this many are counted as dropped, not kept. *)
let cap = 200_000

let create () = { spans = [||]; len = 0; dropped = 0; open_ = [] }

let dummy = { name = ""; parent = -1; start_ns = 0.0; end_ns = 0.0 }

let start t name =
  if t.len >= cap then begin
    t.dropped <- t.dropped + 1;
    -1
  end
  else begin
    if t.len = Array.length t.spans then begin
      let a = Array.make (max 1024 (2 * t.len)) dummy in
      Array.blit t.spans 0 a 0 t.len;
      t.spans <- a
    end;
    let parent = match t.open_ with p :: _ -> p | [] -> -1 in
    let i = t.len in
    t.spans.(i) <- { name; parent; start_ns = Stat.now_ns (); end_ns = nan };
    t.len <- i + 1;
    t.open_ <- i :: t.open_;
    i
  end

let finish t i =
  if i >= 0 then begin
    t.spans.(i).end_ns <- Stat.now_ns ();
    match t.open_ with _ :: rest -> t.open_ <- rest | [] -> ()
  end

let with_span t name f =
  let i = start t name in
  match f () with
  | v ->
    finish t i;
    v
  | exception e ->
    finish t i;
    raise e

(* [(name, count, total_ns, self_ns)] per span name, first-seen order. *)
let self_times t =
  let child = Array.make t.len 0.0 in
  for i = 0 to t.len - 1 do
    let s = t.spans.(i) in
    if s.parent >= 0 then
      child.(s.parent) <- child.(s.parent) +. (s.end_ns -. s.start_ns)
  done;
  let order = ref [] in
  let acc = Hashtbl.create 16 in
  for i = 0 to t.len - 1 do
    let s = t.spans.(i) in
    let d = s.end_ns -. s.start_ns in
    match Hashtbl.find_opt acc s.name with
    | Some (n, tot, self) -> Hashtbl.replace acc s.name (n + 1, tot +. d, self +. d -. child.(i))
    | None ->
      order := s.name :: !order;
      Hashtbl.replace acc s.name (1, d, d -. child.(i))
  done;
  List.rev_map
    (fun name ->
      let n, tot, self = Hashtbl.find acc name in
      (name, n, tot, self))
    !order

let to_chrome t =
  let b = Buffer.create (64 * t.len + 64) in
  let t0 = if t.len > 0 then t.spans.(0).start_ns else 0.0 in
  Buffer.add_string b "{\"traceEvents\":[";
  for i = 0 to t.len - 1 do
    let s = t.spans.(i) in
    if i > 0 then Buffer.add_char b ',';
    Printf.bprintf b
      "{\"name\":%S,\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%d,\"parent\":%d}}"
      s.name
      ((s.start_ns -. t0) /. 1e3)
      ((s.end_ns -. s.start_ns) /. 1e3)
      i s.parent
  done;
  Printf.bprintf b "],\"dropped\":%d}\n" t.dropped;
  Buffer.contents b

let write t path =
  Out_channel.with_open_text path (fun oc -> Out_channel.output_string oc (to_chrome t))
