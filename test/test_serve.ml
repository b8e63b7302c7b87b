(* grophecy serve: the long-running prediction service.

   The contract under test: server responses are byte-equivalent to CLI
   output (the committed fig5 golden doubles as the server golden),
   identical concurrent requests coalesce onto exactly one memo miss, a
   malformed request is a structured 400 that leaves the server alive,
   /healthz and /metrics have their documented shapes, and a client
   that hangs up mid-exchange kills its connection, not the process. *)

module Config = Gpp_engine.Config
module Error = Gpp_engine.Error
module Memo = Gpp_cache.Memo
module Serve = Gpp_serve.Serve
module Json = Gpp_util.Json

let tmp_cache_dir =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "gpp-serve-test.%d" (Unix.getpid ()))
  in
  (try Sys.mkdir dir 0o755 with Sys_error _ -> ());
  dir

(* The scenario every in-process server here starts from: an ephemeral
   port and a per-process cache directory, installed once. *)
let scenario =
  lazy
    (let overrides =
       {
         Config.no_overrides with
         Config.o_listen = Some "127.0.0.1:0";
         o_cache_dir = Some tmp_cache_dir;
       }
     in
     match Config.resolve ~getenv:(fun _ -> None) ~overrides () with
     | Error e -> Alcotest.failf "config: %s" (Error.message e)
     | Ok c ->
         Gpp_engine.Runtime.install c;
         c)

let start c =
  match Serve.start c with
  | Error e -> Alcotest.failf "Serve.start: %s" (Error.message e)
  | Ok t -> t

let with_server c f =
  let t = start c in
  Fun.protect ~finally:(fun () -> Serve.stop t) (fun () -> f t)

(* One shared in-process server: every test reads counters as deltas so
   ordering stays irrelevant. *)
let server = lazy (start (Lazy.force scenario))

let get ?meth ?body target =
  match Serve.request (Lazy.force server) ?meth ?body target with
  | Ok r -> r
  | Error msg -> Alcotest.failf "request %s: %s" target msg

let responses_snapshot () =
  match List.find_opt (fun (s : Memo.snapshot) -> s.name = "serve.responses") (Memo.snapshots ()) with
  | Some s -> s
  | None -> Alcotest.fail "serve.responses memo not registered"

let counter name = List.assoc_opt name (Gpp_obs.Obs.counters ()) |> Option.value ~default:0

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* The committed CLI golden *is* the server golden: GET /experiment/fig5
   must return the exact bytes `grophecy experiment fig5` prints. *)
let test_fig5_golden_roundtrip () =
  let golden = read_file "golden/fig5.expected" in
  let status, _headers, body = get "/experiment/fig5" in
  Alcotest.(check int) "status" 200 status;
  Alcotest.(check string) "body is byte-identical to the CLI golden" golden body;
  (* And again, warm: same bytes from the response memo. *)
  let status2, _, body2 = get "/experiment/fig5" in
  Alcotest.(check int) "warm status" 200 status2;
  Alcotest.(check string) "warm body" golden body2

(* N identical concurrent requests: one leader computes (one memo miss),
   everyone else either coalesces onto the in-flight computation or
   hits the memo after it lands.  Never two computations. *)
let test_concurrent_duplicates_one_miss () =
  let n = 8 in
  let before = responses_snapshot () in
  let computed_before = counter "serve.computed" in
  let results = Array.make n (0, "") in
  let threads =
    List.init n (fun i ->
        Thread.create
          (fun () ->
            let status, _, body = get "/project?workload=vecadd/16M" in
            results.(i) <- (status, body))
          ())
  in
  List.iter Thread.join threads;
  let after = responses_snapshot () in
  Array.iter (fun (status, _) -> Alcotest.(check int) "status" 200 status) results;
  let first = snd results.(0) in
  Alcotest.(check bool) "non-empty body" true (String.length first > 0);
  Array.iter
    (fun (_, body) -> Alcotest.(check string) "identical bodies" first body)
    results;
  Alcotest.(check int) "exactly one memo miss" 1 (after.misses - before.misses);
  Alcotest.(check int) "exactly one computation" 1 (counter "serve.computed" - computed_before);
  let hits = after.hits - before.hits in
  Alcotest.(check bool)
    (Printf.sprintf "misses + hits <= %d (rest coalesced), hits = %d" n hits)
    true
    (1 + hits <= n)

(* A malformed request must produce a structured 400 and leave the
   server answering. *)
let test_malformed_request_structured_400 () =
  let status, _, body = get ~meth:"POST" ~body:"{not json" "/project" in
  Alcotest.(check int) "status" 400 status;
  (match Json.parse body with
  | Ok (Json.Obj fields) ->
      Alcotest.(check bool) "has error field" true (List.mem_assoc "error" fields);
      Alcotest.(check bool) "has message field" true (List.mem_assoc "message" fields)
  | Ok _ -> Alcotest.fail "error body is not a JSON object"
  | Error msg -> Alcotest.failf "error body is not JSON: %s" msg);
  (* Ill-typed fields and unknown routes too. *)
  let status, _, _ = get ~meth:"POST" ~body:{|{"workload": 42}|} "/project" in
  Alcotest.(check int) "ill-typed field" 400 status;
  let status, _, _ = get "/no/such/route" in
  Alcotest.(check int) "unknown route" 404 status;
  let status, _, _ = get "/project" in
  Alcotest.(check int) "missing workload" 400 status;
  let status, _, _ = get "/healthz" in
  Alcotest.(check int) "server still alive" 200 status

(* A POST body must mean exactly what the matching query string means:
   integer seeds stay exact (2^53 + 1 is not rounded to 2^53) and \u
   escapes decode. *)
let check_post_matches_get what ~query ~body =
  let get_status, _, get_body = get ("/project?" ^ query) in
  let post_status, _, post_body = get ~meth:"POST" ~body "/project" in
  Alcotest.(check int) (what ^ ": GET status") 200 get_status;
  Alcotest.(check int) (what ^ ": POST status") 200 post_status;
  Alcotest.(check string) (what ^ ": POST body = GET body") get_body post_body;
  get_body

let test_post_seed_exact () =
  let exact =
    check_post_matches_get "seed 2^53+1" ~query:"workload=hotspot/64%20x%2064&seed=9007199254740993"
      ~body:{|{"workload":"hotspot/64 x 64","seed":9007199254740993}|}
  in
  let _, _, rounded = get "/project?workload=hotspot/64%20x%2064&seed=9007199254740992" in
  Alcotest.(check bool) "the seed reaches the projection" true (exact <> rounded)

let test_post_unicode_escape () =
  ignore
    (check_post_matches_get "escaped slash" ~query:"workload=hotspot/64%20x%2064"
       ~body:{|{"workload":"hotspot\u002f64 x 64"}|})

let check_400 what ?meth ?body target =
  let status, _, reply = get ?meth ?body target in
  Alcotest.(check int) (what ^ ": status") 400 status;
  match Json.parse reply with
  | Ok json ->
      Alcotest.(check bool) (what ^ ": error field") true (Json.member "error" json <> None)
  | Error msg -> Alcotest.failf "%s: error body is not JSON: %s" what msg

let test_query_below_one_400 () =
  check_400 "project iterations=0" "/project?workload=vecadd/16M&iterations=0";
  check_400 "batch iterations=0" "/batch?workloads=vecadd/16M&iterations=0"

let test_body_below_one_400 () =
  check_400 "iterations 0" ~meth:"POST" ~body:{|{"workload":"vecadd/16M","iterations":0}|}
    "/project";
  (* Numbers that are not exact integers in range are 400s too. *)
  List.iter
    (fun body -> check_400 body ~meth:"POST" ~body "/project")
    [
      {|{"workload":"vecadd/16M","seed":1e30}|};
      {|{"workload":"vecadd/16M","seed":99999999999999999999}|};
      {|{"workload":"vecadd/16M","iterations":1e30}|};
      {|{"workload":"vecadd/16M","iterations":2.5}|};
    ]

let test_healthz_shape () =
  let status, _, body = get "/healthz" in
  Alcotest.(check int) "status" 200 status;
  match Json.parse body with
  | Ok (Json.Obj fields as json) -> (
      (match List.assoc_opt "status" fields with
      | Some (Json.Str s) -> Alcotest.(check string) "status field" "ok" s
      | _ -> Alcotest.fail "healthz: missing string status");
      (match Option.bind (Json.member "uptime_seconds" json) Json.number with
      | Some u -> Alcotest.(check bool) "uptime >= 0" true (u >= 0.)
      | None -> Alcotest.fail "healthz: missing numeric uptime_seconds");
      match List.assoc_opt "requests" fields with
      | Some (Json.Int r) -> Alcotest.(check bool) "requests >= 0" true (r >= 0L)
      | _ -> Alcotest.fail "healthz: missing integer requests")
  | Ok _ -> Alcotest.fail "healthz body is not a JSON object"
  | Error msg -> Alcotest.failf "healthz body is not JSON: %s" msg

let test_metrics_shape () =
  ignore (get "/experiment/fig5");
  let status, _, body = get "/metrics" in
  Alcotest.(check int) "status" 200 status;
  let lines = String.split_on_char '\n' body |> List.filter (fun l -> l <> "") in
  Alcotest.(check bool) "non-empty" true (lines <> []);
  List.iter
    (fun line ->
      match String.split_on_char ' ' line with
      | [ name; value ] ->
          Alcotest.(check bool)
            (Printf.sprintf "gpp_ prefix: %s" name)
            true
            (String.length name > 4 && String.sub name 0 4 = "gpp_");
          Alcotest.(check bool)
            (Printf.sprintf "integer value: %s" line)
            true
            (int_of_string_opt value <> None)
      | _ -> Alcotest.failf "metrics line not 'name value': %S" line)
    lines;
  let has prefix =
    List.exists
      (fun l ->
        String.length l >= String.length prefix && String.sub l 0 (String.length prefix) = prefix)
      lines
  in
  Alcotest.(check bool) "serve requests counter" true (has "gpp_serve_requests ");
  Alcotest.(check bool) "response-cache stats" true (has "gpp_cache_serve_responses_")

(* A peer that sends a request and slams the connection (RST via
   linger 0) must cost at most that connection: the next request works. *)
let test_broken_pipe_connection_only () =
  let t = Lazy.force server in
  let port =
    match Serve.port t with Some p -> p | None -> Alcotest.fail "expected TCP server"
  in
  for _ = 1 to 3 do
    let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
    Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
    let req = "GET /experiment/fig5 HTTP/1.1\r\nHost: t\r\n\r\n" in
    ignore (Unix.write_substring fd req 0 (String.length req));
    Unix.setsockopt_optint fd Unix.SO_LINGER (Some 0);
    Unix.close fd
  done;
  (* Give the handler threads a beat to hit the dead sockets. *)
  Thread.delay 0.2;
  let status, _, body = get "/experiment/fig5" in
  Alcotest.(check int) "server still answers" 200 status;
  Alcotest.(check string) "still the golden bytes" (read_file "golden/fig5.expected") body

(* Bad listen addresses are configuration errors (exit 2), not crashes. *)
let test_listen_parse_errors () =
  List.iter
    (fun listen ->
      match Serve.start { Config.default with Config.listen } with
      | Ok t ->
          Serve.stop t;
          Alcotest.failf "listen %S unexpectedly bound" listen
      | Error e -> Alcotest.(check int) (Printf.sprintf "exit code for %S" listen) 2 (Error.exit_code e))
    [ "no-port-here"; "127.0.0.1:notaport"; "127.0.0.1:70000"; "unix:" ]

(* A Unix-domain listener speaks the same protocol. *)
let test_unix_socket_roundtrip () =
  let path = Filename.concat tmp_cache_dir "serve.sock" in
  with_server { (Lazy.force scenario) with Config.listen = "unix:" ^ path } @@ fun t ->
  Alcotest.(check string) "address" ("unix:" ^ path) (Serve.address t);
  match Serve.request t "/healthz" with
  | Ok (status, _, _) -> Alcotest.(check int) "healthz over unix socket" 200 status
  | Error msg -> Alcotest.failf "unix request: %s" msg

(* On a machine no paper workload fits, the experiment context cannot
   be built.  The reply is that structured error, with its own category
   and status, and it is not counted as a server error. *)
let test_experiment_context_error () =
  with_server { (Lazy.force scenario) with Config.machine = Helpers.tiny_machine } @@ fun t ->
  let errors = counter "serve.errors" in
  match Serve.request t "/experiment/fig5" with
  | Error msg -> Alcotest.failf "request: %s" msg
  | Ok (status, _, body) -> (
      Alcotest.(check int) "status" 500 status;
      Alcotest.(check int) "serve.errors unchanged" errors (counter "serve.errors");
      match Json.parse body with
      | Ok (Json.Obj fields) ->
          Alcotest.(check bool)
            "projection category" true
            (List.assoc_opt "error" fields = Some (Json.Str "projection"));
          (match List.assoc_opt "message" fields with
          | Some (Json.Str m) ->
              Helpers.check_contains "names every workload" ~needle:"10 workload(s) failed" m;
              Helpers.check_contains "names cfd/97K" ~needle:"cfd/97K" m
          | _ -> Alcotest.fail "missing string message")
      | Ok _ -> Alcotest.fail "error body is not a JSON object"
      | Error msg -> Alcotest.failf "error body is not JSON: %s" msg)

(* Two servers that differ only in the simulator group share one
   process, so one response memo.  Each must answer from its own
   scenario: the memo key covers every field that can change a body. *)
let test_scenario_keys_responses () =
  let base = Lazy.force scenario in
  let slower =
    {
      base with
      Config.sim =
        Some
          {
            Gpp_gpusim.Gpu_sim.default_config with
            streaming_efficiency = 0.5;
            scattered_efficiency = 0.2;
          };
    }
  in
  let workloads = [ "vecadd/16M" ] in
  let body c =
    with_server c @@ fun t ->
    match Serve.request t "/batch?workloads=vecadd/16M" with
    | Ok (200, _, body) -> body
    | Ok (status, _, body) -> Alcotest.failf "batch: %d %s" status body
    | Error msg -> Alcotest.failf "batch: %s" msg
  in
  let base_body = body base in
  let slower_body = body slower in
  Alcotest.(check string)
    "default sim" (Gpp_engine.Batch.to_tsv (Gpp_engine.Batch.run base ~workloads)) base_body;
  Alcotest.(check string)
    "slower DRAM"
    (Gpp_engine.Batch.to_tsv (Gpp_engine.Batch.run slower ~workloads))
    slower_body;
  Alcotest.(check bool) "the sim group changes the body" true (base_body <> slower_body)

let () =
  Alcotest.run "serve"
    [
      ( "serve",
        [
          Alcotest.test_case "fig5 golden round-trip" `Quick test_fig5_golden_roundtrip;
          Alcotest.test_case "concurrent duplicates: one miss" `Quick
            test_concurrent_duplicates_one_miss;
          Alcotest.test_case "malformed request: structured 400" `Quick
            test_malformed_request_structured_400;
          Alcotest.test_case "POST seed is exact" `Quick test_post_seed_exact;
          Alcotest.test_case "POST unicode escapes decode" `Quick test_post_unicode_escape;
          Alcotest.test_case "query iterations below 1: 400" `Quick test_query_below_one_400;
          Alcotest.test_case "body iterations below 1: 400" `Quick test_body_below_one_400;
          Alcotest.test_case "healthz shape" `Quick test_healthz_shape;
          Alcotest.test_case "metrics shape" `Quick test_metrics_shape;
          Alcotest.test_case "broken pipe: connection only" `Quick
            test_broken_pipe_connection_only;
          Alcotest.test_case "listen parse errors" `Quick test_listen_parse_errors;
          Alcotest.test_case "unix socket round-trip" `Quick test_unix_socket_roundtrip;
          Alcotest.test_case "experiment context error: structured" `Quick
            test_experiment_context_error;
          Alcotest.test_case "scenario keys the response memo" `Quick
            test_scenario_keys_responses;
        ] );
    ]
