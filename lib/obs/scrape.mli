(** Metrics scrape endpoint: a minimal HTTP/1.0 text server over one
    {!Metrics.t} registry.

    One thread accepts, one short-lived thread answers each request,
    responses are close-delimited with a [Content-Length]. Served
    paths:

    - [/metrics] — Prometheus text exposition ({!Metrics.to_prometheus})
    - [/metrics.json] (alias [/json]) — JSON snapshot ({!Metrics.to_json})
    - [/] — plain-text index
    - anything else — 404

    Requests are bounded: a request line plus headers longer than
    8 KiB is answered 400 without being read to its end, a request
    that is not a [GET] or is empty is answered 400, and an accepted
    socket blocks at most 5 s in any one read or write, so no client
    can grow the endpoint's memory or hold its thread indefinitely.

    Starting an endpoint registers [genas_build_info] (constant 1,
    labels [node]/[ocaml]) and [genas_uptime_seconds] (refreshed at
    each request) into the registry, so every scrape carries the
    node's identity and age. *)

type t

val start : ?node:string -> metrics:Metrics.t -> Unix.sockaddr -> t
(** Bind, listen, and serve in the background. A stale Unix-domain
    socket file is unlinked first; TCP sockets set [SO_REUSEADDR].
    [node] labels the build-info/uptime instruments (default
    ["node"]).

    @raise Unix.Unix_error if the address cannot be bound. *)

val addr : t -> Unix.sockaddr
(** The actually bound address ([getsockname]), so [tcp:...:0] callers
    can learn their port. *)

val stop : t -> unit
(** Shut the listener down, join the acceptor, close the socket, and
    unlink a Unix-domain path. Idempotent. *)

val get : Unix.sockaddr -> path:string -> (int * string, string) result
(** Curl-free one-shot client for tests and the CLI:
    [get addr ~path] connects, issues [GET path HTTP/1.0], and returns
    [(status code, body)] — or [Error] with the socket failure. *)
