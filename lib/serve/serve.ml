(* The prediction service.  See serve.mli for the endpoint contract.

   Threading model: one accept thread plus one thread per connection
   (systhreads, not domains — handlers spend their time in the engine,
   which already shards real work across its own domain pool).  The
   pipeline's per-machine application-link RNG is stateful, so requests
   never share a session: each computation builds its own context and
   the response-level memo + in-flight coalescing make repeats cheap. *)

module Config = Gpp_engine.Config
module Error = Gpp_engine.Error
module Memo = Gpp_cache.Memo
module Fingerprint = Gpp_cache.Fingerprint
module Obs = Gpp_obs.Obs
module Json = Gpp_util.Json

let c_requests = Obs.counter "serve.requests"
let c_connections = Obs.counter "serve.connections"
let c_computed = Obs.counter "serve.computed"
let c_coalesced = Obs.counter "serve.coalesced"
let c_broken_pipe = Obs.counter "serve.broken_pipe"
let c_flushes = Obs.counter "serve.flushes"
let c_errors = Obs.counter "serve.errors"

(* Response-level memo: (status, content-type, body), persisted so a
   restarted server answers repeat questions from disk.  Created
   lazily so plain CLI runs that link this library never register (or
   flush) the table. *)
let responses : (int * string * string) Memo.t Lazy.t =
  lazy
    (let m = Memo.create ~capacity:256 ~name:"serve.responses" () in
     (* Schema 2: keys cover the whole scenario (see [scenario_key]). *)
     Memo.persist ~schema:2 m;
     m)

(* A computed (or error) response escaping the normal return path —
   raised inside the memoized compute so error responses are delivered
   to every coalesced waiter without being stored. *)
exception Reply of (int * string * string)

let json_ct = "application/json"
let text_ct = "text/plain; charset=utf-8"

let error_body (e : Error.t) =
  Json.obj
    [ ("error", Json.string (Error.category e)); ("message", Json.string (Error.message e)) ]

let error_triple (e : Error.t) =
  let status = if Error.exit_code e = 2 then 400 else 500 in
  (status, json_ct, error_body e)

let fail e = raise (Reply (error_triple e))
let fail_usage msg = fail (Error.usage msg)

(* --- in-flight coalescing ------------------------------------------- *)

type waiter = {
  wm : Mutex.t;
  wc : Condition.t;
  mutable result : (int * string * string) option;
}

let inflight : (string, waiter) Hashtbl.t = Hashtbl.create 16
let inflight_mu = Mutex.create ()

(* Exactly one caller per key runs [compute] (through the memo — so N
   concurrent duplicates cost one memo miss); the rest block on the
   leader's waiter and reuse its result, whatever it was. *)
let coalesced ~key compute =
  let role =
    Mutex.protect inflight_mu (fun () ->
        match Hashtbl.find_opt inflight key with
        | Some w -> `Follow w
        | None ->
            let w = { wm = Mutex.create (); wc = Condition.create (); result = None } in
            Hashtbl.add inflight key w;
            `Lead w)
  in
  match role with
  | `Follow w ->
      Obs.incr c_coalesced;
      Mutex.protect w.wm (fun () ->
          while w.result = None do
            Condition.wait w.wc w.wm
          done;
          Option.get w.result)
  | `Lead w ->
      let finish value =
        Mutex.protect inflight_mu (fun () -> Hashtbl.remove inflight key);
        Mutex.protect w.wm (fun () ->
            w.result <- Some value;
            Condition.broadcast w.wc);
        value
      in
      let value =
        try
          Memo.find_or_add (Lazy.force responses) ~key (fun () ->
              Obs.incr c_computed;
              compute ())
        with
        | Reply r -> r
        | e ->
            Obs.incr c_errors;
            error_triple
              (Error.io (Printf.sprintf "internal error: %s" (Printexc.to_string e)))
      in
      finish value

(* --- request → memo key --------------------------------------------- *)

(* Every scenario field that can change response bytes: the whole
   record, with only the fields that affect how fast an answer arrives
   (cache switches, trace, jobs, logging, the server's own address and
   flush cadence) reset to fixed values.  A field added to [Config.t]
   is part of the key unless it is reset here.  Computed once per
   server. *)
let scenario_key (c : Config.t) =
  let scenario =
    {
      c with
      Config.use_cache = None;
      jobs = 1;
      cache_enabled = true;
      cache_dir = None;
      trace = None;
      verbose = false;
      listen = "";
      flush_every = 1;
    }
  in
  Fingerprint.of_value Fingerprint.add_string (Marshal.to_string scenario [ Marshal.No_sharing ])

let request_key ~scenario (r : Http.request) =
  let fp = Fingerprint.create () in
  Fingerprint.add_string fp "serve.request";
  Fingerprint.add_string fp r.meth;
  Fingerprint.add_string fp r.path;
  Fingerprint.add_list fp
    (fun fp (k, v) ->
      Fingerprint.add_string fp k;
      Fingerprint.add_string fp v)
    (List.sort compare r.query);
  Fingerprint.add_string fp r.body;
  Fingerprint.add_string fp scenario;
  Fingerprint.digest fp

(* --- endpoint handlers ----------------------------------------------- *)

(* GET /experiment/ID — exactly the bytes `grophecy experiment ID`
   writes to stdout. *)
let run_experiment (c : Config.t) id =
  let entries = match Gpp_experiments.Suite.select [ id ] with Ok es -> es | Error e -> fail e in
  let body = Buffer.create 4096 in
  match
    Gpp_experiments.Suite.run ~machine:c.machine ~seed:c.seed entries
      ~emit:(Buffer.add_string body)
  with
  | Ok _ -> (200, text_ct, Buffer.contents body)
  | Error e -> fail e

let split_csv v =
  String.split_on_char ',' v |> List.map String.trim |> List.filter (fun s -> s <> "")

(* GET|POST /batch — the `grophecy batch` TSV for the requested matrix
   (defaults match the CLI: every Table I instance on the scenario's
   machine). *)
let run_batch (c : Config.t) (r : Http.request) =
  let machines =
    match Http.query_param r "machines" with
    | None -> None
    | Some v ->
        Some
          (List.map
             (fun name ->
               match Config.machine_of_name name with
               | Ok m -> m
               | Error msg -> fail (Error.config msg))
             (split_csv v))
  in
  let workloads =
    match Http.query_param r "workloads" with
    | None -> List.map Gpp_workloads.Registry.key Gpp_workloads.Registry.paper_instances
    | Some v -> split_csv v
  in
  let iterations =
    match Http.query_param r "iterations" with
    | None -> [ None ]
    | Some v ->
        List.map
          (fun s ->
            match int_of_string_opt s with
            | Some n -> (
                match Config.validate { c with Config.iterations = Some n } with
                | Ok _ -> Some n
                | Error e -> fail e)
            | None -> fail_usage (Printf.sprintf "iterations: %S is not an integer" s))
          (split_csv v)
  in
  let batch = Gpp_engine.Batch.run ?machines ~iterations c ~workloads in
  (200, text_ct, Gpp_engine.Batch.to_tsv batch)

(* /project parameters come from the query string and, for POST, a JSON
   object body; body fields win.  Malformed JSON or fields of the wrong
   shape are a structured 400, never a dead server. *)
type project_params = {
  workload : string option;
  machine : Gpp_arch.Machine.t option;
  seed : int64 option;
  iterations : int option;
}

let project_params_of_request (r : Http.request) =
  let machine_of name =
    match Config.machine_of_name name with Ok m -> m | Error msg -> fail (Error.config msg)
  in
  let of_query =
    {
      workload = Http.query_param r "workload";
      machine = Option.map machine_of (Http.query_param r "machine");
      seed =
        Option.map
          (fun s ->
            match Int64.of_string_opt s with
            | Some n -> n
            | None -> fail_usage (Printf.sprintf "seed: %S is not an integer" s))
          (Http.query_param r "seed");
      iterations =
        Option.map
          (fun s ->
            match int_of_string_opt s with
            | Some n -> n
            | None -> fail_usage (Printf.sprintf "iterations: %S is not an integer" s))
          (Http.query_param r "iterations");
    }
  in
  let body = String.trim r.body in
  if body = "" then of_query
  else
    match Json.parse body with
    | Error msg -> fail_usage (Printf.sprintf "malformed JSON body: %s" msg)
    | Ok (Json.Obj fields) ->
        List.fold_left
          (fun acc (k, v) ->
            match (k, (v : Json.t)) with
            | "workload", Str s -> { acc with workload = Some s }
            | "machine", Str s -> { acc with machine = Some (machine_of s) }
            | "seed", Int n -> { acc with seed = Some n }
            | "seed", Str s -> (
                match Int64.of_string_opt s with
                | Some n -> { acc with seed = Some n }
                | None -> fail_usage (Printf.sprintf "seed: %S is not an integer" s))
            | "iterations", Int n when Int64.equal (Int64.of_int (Int64.to_int n)) n ->
                { acc with iterations = Some (Int64.to_int n) }
            | _ ->
                fail_usage
                  (Printf.sprintf
                     "unknown or ill-typed field %S (expected workload, machine, seed, \
                      iterations)"
                     k))
          of_query fields
    | Ok _ -> fail_usage "JSON body must be an object"

(* GET|POST /project — the `grophecy project` stdout: projection report
   then transfer plan, rendered by the same printers on formatters with
   the CLI's default geometry. *)
let run_project (c : Config.t) (r : Http.request) =
  let p = project_params_of_request r in
  let workload =
    match p.workload with
    | Some w -> w
    | None -> fail_usage "project: missing workload (query param or JSON field)"
  in
  let c =
    {
      c with
      Config.lint = true;
      machine = Option.value p.machine ~default:c.machine;
      seed = Option.value p.seed ~default:c.seed;
      iterations =
        (match p.iterations with Some n -> Some n | None -> Some (Option.value c.iterations ~default:1));
    }
  in
  let c = match Config.validate c with Ok c -> c | Error e -> fail e in
  let session = Gpp_engine.Pipeline.session_of c in
  match Gpp_engine.Pipeline.run ~through:Gpp_engine.Stage.Project ~session c ~workload with
  | Error e -> fail e
  | Ok state ->
      let projection = Gpp_engine.Pipeline.projection_exn state in
      let body =
        Format.asprintf "%a@." Gpp_core.Projection.pp projection
        ^ Format.asprintf "%a@." Gpp_dataflow.Analyzer.pp_plan
            projection.Gpp_core.Projection.plan
      in
      (200, text_ct, body)

(* --- the server ------------------------------------------------------ *)

type t = {
  config : Config.t;
  scenario : string;  (** {!scenario_key} of [config]. *)
  fd : Unix.file_descr;
  addr : Unix.sockaddr;
  stopping : bool Atomic.t;
  started_us : float;
  served : int Atomic.t;
  mutable accept_thread : Thread.t option;
}

let health t =
  let uptime = (Obs.now_us () -. t.started_us) /. 1e6 in
  ( 200,
    json_ct,
    Json.obj
      [
        ("status", Json.string "ok");
        ("uptime_seconds", Printf.sprintf "%.3f" uptime);
        ("requests", string_of_int (Atomic.get t.served));
      ] )

(* Flat `name value` lines: every non-zero obs counter plus per-table
   cache statistics, dots mapped to underscores, gpp_ prefixed. *)
let metrics () =
  let b = Buffer.create 512 in
  let line name v =
    let name = String.map (fun ch -> if ch = '.' || ch = '-' then '_' else ch) name in
    Buffer.add_string b (Printf.sprintf "gpp_%s %d\n" name v)
  in
  List.iter (fun (name, v) -> line name v) (Obs.counters ());
  List.iter
    (fun (s : Memo.snapshot) ->
      line (Printf.sprintf "cache.%s.hits" s.name) s.hits;
      line (Printf.sprintf "cache.%s.misses" s.name) s.misses;
      line (Printf.sprintf "cache.%s.entries" s.name) s.entries)
    (Memo.snapshots ());
  line "cache.dirty_entries" (Memo.dirty_entries ());
  (200, text_ct, Buffer.contents b)

let respond_memo t (r : Http.request) compute =
  coalesced ~key:(request_key ~scenario:t.scenario r) compute

let starts_with ~prefix s =
  String.length s >= String.length prefix && String.sub s 0 (String.length prefix) = prefix

let handle_request t (r : Http.request) =
  let c = t.config in
  match (r.meth, r.path) with
  | "GET", "/healthz" -> health t
  | "GET", "/metrics" -> metrics ()
  | "GET", "/experiments" -> (200, text_ct, Gpp_experiments.Suite.listing)
  | ("GET" | "POST"), "/batch" -> respond_memo t r (fun () -> run_batch c r)
  | ("GET" | "POST"), "/project" -> respond_memo t r (fun () -> run_project c r)
  | "GET", path when starts_with ~prefix:"/experiment/" path ->
      let id = String.sub path 12 (String.length path - 12) in
      respond_memo t r (fun () -> run_experiment c id)
  | meth, ("/healthz" | "/metrics" | "/experiments") ->
      (405, json_ct, error_body (Error.usage (Printf.sprintf "%s not allowed here" meth)))
  | _, path ->
      ( 404,
        json_ct,
        error_body
          (Error.usage
             (Printf.sprintf
                "no route %s (try /healthz, /metrics, /experiments, /experiment/ID, /batch, \
                 /project)"
                path)) )

(* Incremental durability: flush the disk tier every flush_every-th
   request (or sooner under heavy mutation), so a killed server loses a
   bounded amount of memoized work. *)
let maybe_flush t =
  let n = Atomic.fetch_and_add t.served 1 + 1 in
  if n mod t.config.Config.flush_every = 0 || Memo.dirty_entries () >= 512 then begin
    Memo.flush_disk ();
    Obs.incr c_flushes
  end

let response_of_triple (status, content_type, body) : Http.response =
  { Http.status; content_type; body }

let handle_conn t fd =
  let rec loop () =
    match Http.read_request fd with
    | Ok None -> ()
    | Error msg ->
        Obs.incr c_errors;
        Http.write_response fd ~keep_alive:false
          (response_of_triple (400, json_ct, error_body (Error.usage msg)))
    | Ok (Some req) ->
        Obs.incr c_requests;
        let resp =
          try handle_request t req with
          | Reply triple -> triple
          | Http.Closed as e -> raise e
          | e ->
              Obs.incr c_errors;
              error_triple
                (Error.io (Printf.sprintf "internal error: %s" (Printexc.to_string e)))
        in
        maybe_flush t;
        let keep_alive = Http.wants_keep_alive req in
        Http.write_response fd ~keep_alive (response_of_triple resp);
        if keep_alive then loop ()
  in
  (try loop () with
  | Http.Closed -> Obs.incr c_broken_pipe
  | _ -> Obs.incr c_errors);
  try Unix.close fd with Unix.Unix_error (_, _, _) -> ()

let rec accept_loop t =
  if not (Atomic.get t.stopping) then
    match Unix.accept t.fd with
    | conn, _peer ->
        Obs.incr c_connections;
        ignore (Thread.create (fun () -> handle_conn t conn) ());
        accept_loop t
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> accept_loop t
    | exception Unix.Unix_error (Unix.ECONNABORTED, _, _) -> accept_loop t
    | exception Unix.Unix_error (_, _, _) ->
        (* closed listener (stop), or a fatal accept error: either way
           the accept loop is done. *)
        ()

(* --- address parsing -------------------------------------------------- *)

let parse_listen s =
  let config_err fmt = Printf.ksprintf (fun m -> Error (Error.config ~source:"listen" m)) fmt in
  if starts_with ~prefix:"unix:" s then begin
    let path = String.sub s 5 (String.length s - 5) in
    if path = "" then config_err "listen = %S: empty socket path" s
    else Ok (Unix.ADDR_UNIX path)
  end
  else
    match String.rindex_opt s ':' with
    | None -> config_err "listen = %S: expected HOST:PORT or unix:PATH" s
    | Some i -> (
        let host = String.sub s 0 i in
        let port_s = String.sub s (i + 1) (String.length s - i - 1) in
        match int_of_string_opt port_s with
        | Some port when port >= 0 && port <= 65535 -> (
            let host = if host = "" then "127.0.0.1" else host in
            match Unix.inet_addr_of_string host with
            | addr -> Ok (Unix.ADDR_INET (addr, port))
            | exception Failure _ -> (
                match Unix.gethostbyname host with
                | { Unix.h_addr_list = [||]; _ } | (exception Not_found) ->
                    config_err "listen = %S: unknown host %S" s host
                | h -> Ok (Unix.ADDR_INET (h.Unix.h_addr_list.(0), port))))
        | Some port -> config_err "listen = %S: port %d out of range" s port
        | None -> config_err "listen = %S: malformed port %S" s port_s)

let render_addr = function
  | Unix.ADDR_UNIX path -> "unix:" ^ path
  | Unix.ADDR_INET (a, p) -> Printf.sprintf "%s:%d" (Unix.string_of_inet_addr a) p

(* --- lifecycle -------------------------------------------------------- *)

let start (c : Config.t) =
  match parse_listen c.Config.listen with
  | Error e -> Error e
  | Ok sockaddr -> (
      Gpp_engine.Runtime.ignore_sigpipe ();
      (* Counters feed /healthz and /metrics; enabling the obs layer
         writes nothing to stdout, so response bytes are unaffected. *)
      Obs.set_enabled true;
      ignore (Lazy.force responses);
      Memo.load_disk ();
      (match sockaddr with
      | Unix.ADDR_UNIX path -> ( try Unix.unlink path with Unix.Unix_error (_, _, _) -> ())
      | Unix.ADDR_INET (_, _) -> ());
      let fd = Unix.socket (Unix.domain_of_sockaddr sockaddr) Unix.SOCK_STREAM 0 in
      (match sockaddr with
      | Unix.ADDR_INET (_, _) -> Unix.setsockopt fd Unix.SO_REUSEADDR true
      | Unix.ADDR_UNIX _ -> ());
      match Unix.bind fd sockaddr with
      | exception Unix.Unix_error (err, _, _) ->
          (try Unix.close fd with Unix.Unix_error (_, _, _) -> ());
          Error
            (Error.config ~source:"listen"
               (Printf.sprintf "cannot bind %s: %s" c.Config.listen (Unix.error_message err)))
      | () ->
          Unix.listen fd 64;
          let t =
            {
              config = c;
              scenario = scenario_key c;
              fd;
              addr = Unix.getsockname fd;
              stopping = Atomic.make false;
              started_us = Obs.now_us ();
              served = Atomic.make 0;
              accept_thread = None;
            }
          in
          t.accept_thread <- Some (Thread.create accept_loop t);
          Ok t)

let address t = render_addr t.addr

let port t = match t.addr with Unix.ADDR_INET (_, p) -> Some p | Unix.ADDR_UNIX _ -> None

let wait t = match t.accept_thread with Some th -> Thread.join th | None -> ()

let stop t =
  if not (Atomic.exchange t.stopping true) then begin
    (try Unix.shutdown t.fd Unix.SHUTDOWN_ALL with Unix.Unix_error (_, _, _) -> ());
    (try Unix.close t.fd with Unix.Unix_error (_, _, _) -> ());
    wait t;
    (match t.addr with
    | Unix.ADDR_UNIX path -> ( try Unix.unlink path with Unix.Unix_error (_, _, _) -> ())
    | Unix.ADDR_INET (_, _) -> ());
    Memo.flush_disk ()
  end

(* --- in-process client ------------------------------------------------ *)

let request t ?meth ?body target =
  let fd = Unix.socket (Unix.domain_of_sockaddr t.addr) Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error (_, _, _) -> ())
    (fun () ->
      match Unix.connect fd t.addr with
      | exception Unix.Unix_error (err, _, _) ->
          Error (Printf.sprintf "connect %s: %s" (render_addr t.addr) (Unix.error_message err))
      | () -> ( try Http.request_fd fd ?meth ?body target with Http.Closed -> Error "connection closed"))
