(** [grophecy serve] — the prediction pipeline as a long-running service.

    One process binds a TCP or Unix-domain socket, keeps the calibrated
    sessions' memo tables and the persistent disk tier warm, and answers
    HTTP/1.1 requests whose bodies are byte-equivalent to the
    corresponding CLI output — the committed CLI goldens double as
    server goldens:

    - [GET /healthz] — liveness JSON (status, uptime, request count).
    - [GET /metrics] — [lib/obs] counters and cache-table statistics as
      plain [name value] lines.
    - [GET /experiments] — available experiment ids, one per line
      ([grophecy experiment --list]).
    - [GET /experiment/ID] — exactly what [grophecy experiment ID]
      writes to stdout (e.g. [/experiment/fig5] reproduces the fig5
      golden byte-for-byte).  A context that cannot be built (no paper
      workload fits the scenario's machine) is that structured error.
    - [GET|POST /batch?machines=a,b&workloads=k1,k2&iterations=n1,n2] —
      the [grophecy batch] TSV for that matrix.
    - [GET /project?workload=app/size] or [POST /project] with a JSON
      body [{"workload": K, "machine": M, "seed": N, "iterations": N}] —
      the [grophecy project] report.

    Responses to the expensive endpoints are memoized in a persistent
    table ([serve.responses]) keyed by the request shape and every
    scenario field that can change a body, and identical in-flight
    requests coalesce onto one computation: N concurrent duplicates
    cost exactly one memo miss.  The disk tier is flushed incrementally every
    [Config.flush_every] requests, so killing the server loses at most
    that many requests' worth of memoized work.

    Structured pipeline errors become JSON bodies
    [{"error": category, "message": ...}] with status 400 (parse,
    config, usage — exit code 2 at the CLI) or 500 (everything else);
    a malformed HTTP request gets a 400 and the connection is closed; a
    peer that hangs up mid-response is counted
    ([serve.broken_pipe]) and only that connection dies. *)

type t

val start : Gpp_engine.Config.t -> (t, Gpp_engine.Error.t) result
(** Bind [config.listen] ([HOST:PORT], port [0] = pick a free one, or
    [unix:PATH]), load the persistent cache tier, and start accepting
    connections (one lightweight thread per connection).  Enables the
    [lib/obs] counter layer so [/metrics] has data.  Errors (unparsable
    address, bind failure) are {!Gpp_engine.Error.Config}. *)

val address : t -> string
(** The actual bound address, e.g. ["127.0.0.1:45123"] after binding
    port 0, or ["unix:/tmp/grophecy.sock"]. *)

val port : t -> int option
(** TCP port actually bound; [None] for Unix-domain sockets. *)

val wait : t -> unit
(** Block until the server is stopped (joins the accept loop). *)

val stop : t -> unit
(** Stop accepting, close the listening socket, and flush the
    persistent cache tier.  Idempotent.  In-flight connection threads
    finish their current response and exit on their own. *)

val request :
  t ->
  ?meth:string ->
  ?body:string ->
  string ->
  (int * (string * string) list * string, string) result
(** In-process client for tests and benchmarks: open a connection to
    the server's own address, perform one request for [target] (path +
    optional query string, already percent-encoded), and return
    (status, headers, body). *)
