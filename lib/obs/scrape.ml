(* Minimal HTTP/1.0 scrape endpoint over the metrics registry: a pull
   port per node, thread-per-request, close-delimited responses. Lives
   in lib/obs (not the ensemble layer) so anything holding a registry
   can expose one without pulling in the wire protocol. *)

type t = {
  registry : Metrics.t;
  node : string;
  lsock : Unix.file_descr;
  bound : Unix.sockaddr;
  started_ns : int64;
  uptime : Metrics.gauge;
  mutable stopping : bool;
  mutable acceptor : Thread.t option;
}

let listen sockaddr =
  let domain = Unix.domain_of_sockaddr sockaddr in
  (match sockaddr with
  | Unix.ADDR_UNIX path when path <> "" ->
    (* A stale socket file from a dead process blocks bind. *)
    (try Unix.unlink path with Unix.Unix_error _ -> ())
  | _ -> ());
  let fd = Unix.socket domain Unix.SOCK_STREAM 0 in
  (match domain with
  | Unix.PF_INET | Unix.PF_INET6 -> Unix.setsockopt fd Unix.SO_REUSEADDR true
  | _ -> ());
  (try
     Unix.bind fd sockaddr;
     Unix.listen fd 16
   with e ->
     (try Unix.close fd with Unix.Unix_error _ -> ());
     raise e);
  fd

let http_response ~status ~content_type body =
  Printf.sprintf
    "HTTP/1.0 %s\r\nContent-Type: %s\r\nContent-Length: %d\r\nConnection: \
     close\r\n\r\n%s"
    status content_type (String.length body) body

let index_body t =
  Printf.sprintf
    "genas scrape endpoint (node %s)\n\
     /metrics       Prometheus text exposition\n\
     /metrics.json  JSON snapshot\n" t.node

let respond t path =
  Metrics.Gauge.set t.uptime
    (Int64.to_float (Int64.sub (Clock.now_ns ()) t.started_ns) /. 1e9);
  match path with
  | "/metrics" ->
    http_response ~status:"200 OK"
      ~content_type:"text/plain; version=0.0.4"
      (Metrics.to_prometheus t.registry)
  | "/metrics.json" | "/json" ->
    http_response ~status:"200 OK" ~content_type:"application/json"
      (Metrics.to_json t.registry)
  | "/" | "" ->
    http_response ~status:"200 OK" ~content_type:"text/plain" (index_body t)
  | _ ->
    http_response ~status:"404 Not Found" ~content_type:"text/plain"
      "not found\n"

(* The request line plus headers may take this many bytes; a longer
   request is answered 400 without reading the rest. *)
let max_request = 8192

(* Seconds an accepted socket may block in one read or write, so a
   silent or non-reading client cannot park its thread forever. *)
let io_timeout_s = 5.0

(* Read up to the blank line that ends the headers. [Some head] holds
   the bytes read, cut short by EOF or a timeout; [None] means the cap
   was reached first. *)
let read_head fd =
  let buf = Bytes.create max_request in
  let rec blank_line i len =
    i + 1 < len
    && (Bytes.get buf i = '\n'
        && (Bytes.get buf (i + 1) = '\n'
           || (i + 2 < len && Bytes.sub_string buf (i + 1) 2 = "\r\n"))
       || blank_line (i + 1) len)
  in
  let rec fill len =
    if len = max_request then None
    else
      match Unix.read fd buf len (max_request - len) with
      | 0 -> Some (Bytes.sub_string buf 0 len)
      | n ->
        (* Rescan the last two old bytes: a terminator may straddle
           reads. *)
        if blank_line (Stdlib.max 0 (len - 2)) (len + n) then
          Some (Bytes.sub_string buf 0 (len + n))
        else fill (len + n)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> fill len
      | exception Unix.Unix_error _ -> Some (Bytes.sub_string buf 0 len)
  in
  fill 0

let bad_request msg =
  http_response ~status:"400 Bad Request" ~content_type:"text/plain" msg

(* One request per connection: read the request line and headers
   (bounded), answer, close. Anything malformed gets a 400. *)
let serve_conn t fd =
  let finally () = try Unix.close fd with Unix.Unix_error _ -> () in
  Fun.protect ~finally @@ fun () ->
  (try
     Unix.setsockopt_float fd Unix.SO_RCVTIMEO io_timeout_s;
     Unix.setsockopt_float fd Unix.SO_SNDTIMEO io_timeout_s
   with Unix.Unix_error _ -> ());
  let reply =
    match read_head fd with
    | None -> bad_request "request too large\n"
    | Some "" -> bad_request "empty request\n"
    | Some head -> (
      let line =
        match String.index_opt head '\n' with
        | Some i -> String.sub head 0 i
        | None -> head
      in
      match String.split_on_char ' ' (String.trim line) with
      | "GET" :: path :: _ -> respond t path
      | _ -> bad_request "only GET is served\n")
  in
  let len = String.length reply in
  let written = ref 0 in
  (try
     while !written < len do
       written :=
         !written + Unix.write_substring fd reply !written (len - !written)
     done
   with Unix.Unix_error _ -> ())

let accept_loop t =
  while not t.stopping do
    match Unix.accept t.lsock with
    | fd, _ -> ignore (Thread.create (fun () -> serve_conn t fd) ())
    | exception Unix.Unix_error _ -> ()
  done

let start ?(node = "node") ~metrics sockaddr =
  let lsock = listen sockaddr in
  let bound = Unix.getsockname lsock in
  let build_info =
    Metrics.gauge metrics "genas_build_info"
      ~help:"constant 1; the labels carry the build identity"
      ~labels:[ ("node", node); ("ocaml", Sys.ocaml_version) ]
  in
  Metrics.Gauge.set build_info 1.0;
  let uptime =
    Metrics.gauge metrics "genas_uptime_seconds"
      ~help:"seconds since the scrape endpoint started"
      ~labels:[ ("node", node) ]
  in
  let t =
    {
      registry = metrics;
      node;
      lsock;
      bound;
      started_ns = Clock.now_ns ();
      uptime;
      stopping = false;
      acceptor = None;
    }
  in
  t.acceptor <- Some (Thread.create accept_loop t);
  t

let addr t = t.bound

let stop t =
  if not t.stopping then begin
    t.stopping <- true;
    (* shutdown(2) wakes the acceptor out of accept(2); close alone
       would not. *)
    (try Unix.shutdown t.lsock Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ());
    (match t.acceptor with Some th -> Thread.join th | None -> ());
    t.acceptor <- None;
    (try Unix.close t.lsock with Unix.Unix_error _ -> ());
    match t.bound with
    | Unix.ADDR_UNIX path when path <> "" ->
      (try Unix.unlink path with Unix.Unix_error _ -> ())
    | _ -> ()
  end

(* ------------------------------------------------------------------ *)
(* A tiny matching client, so tests and the CLI need no curl. *)

let get sockaddr ~path =
  match Unix.socket (Unix.domain_of_sockaddr sockaddr) Unix.SOCK_STREAM 0 with
  | exception Unix.Unix_error (e, _, _) -> Error (Unix.error_message e)
  | fd -> (
    let finally () = try Unix.close fd with Unix.Unix_error _ -> () in
    Fun.protect ~finally @@ fun () ->
    match Unix.connect fd sockaddr with
    | exception Unix.Unix_error (e, _, _) -> Error (Unix.error_message e)
    | () -> (
      let req = Printf.sprintf "GET %s HTTP/1.0\r\n\r\n" path in
      match
        let len = String.length req in
        let written = ref 0 in
        while !written < len do
          written :=
            !written + Unix.write_substring fd req !written (len - !written)
        done
      with
      | exception Unix.Unix_error (e, _, _) -> Error (Unix.error_message e)
      | () ->
        let b = Buffer.create 1024 in
        let chunk = Bytes.create 4096 in
        let rec read_all () =
          match Unix.read fd chunk 0 (Bytes.length chunk) with
          | 0 -> ()
          | n ->
            Buffer.add_subbytes b chunk 0 n;
            read_all ()
          | exception Unix.Unix_error _ -> ()
        in
        read_all ();
        let raw = Buffer.contents b in
        (* Split the status line and headers off the close-delimited
           body. *)
        let code =
          match String.index_opt raw ' ' with
          | Some i when i + 4 <= String.length raw -> (
            match int_of_string_opt (String.sub raw (i + 1) 3) with
            | Some c -> c
            | None -> 0)
          | _ -> 0
        in
        let body =
          let rec find i =
            if i + 3 >= String.length raw then None
            else if String.sub raw i 4 = "\r\n\r\n" then Some (i + 4)
            else find (i + 1)
          in
          match find 0 with
          | Some i -> String.sub raw i (String.length raw - i)
          | None -> ""
        in
        if code = 0 then Error "malformed response" else Ok (code, body)))
