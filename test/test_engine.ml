(* Tests for Gpp_engine: sexp parsing, layered scenario configuration,
   structured errors and their exit-code mapping, workload resolution,
   the staged pipeline (including bit-parity between its two entry
   points), and the batch runner. *)

module Engine = Gpp_engine
module Config = Gpp_engine.Config
module Error = Gpp_engine.Error
module Sexp = Gpp_engine.Sexp
module Grophecy = Gpp_core.Grophecy

let write_temp ~suffix content =
  let path = Filename.temp_file "gpp-engine-test" suffix in
  Out_channel.with_open_text path (fun oc -> output_string oc content);
  path

let getenv_of assoc name = List.assoc_opt name assoc

(* --- sexp ------------------------------------------------------------ *)

let test_sexp_parse () =
  (match Sexp.parse_string "(a (b c) \"d e\")" with
  | Ok (Sexp.List [ Sexp.Atom "a"; Sexp.List [ Sexp.Atom "b"; Sexp.Atom "c" ]; Sexp.Atom "d e" ])
    -> ()
  | Ok s -> Alcotest.failf "unexpected parse: %s" (Sexp.to_string s)
  | Error e -> Alcotest.failf "parse failed: %s" e);
  (* Comments and blank lines are skipped. *)
  (match Sexp.parse_string "; header\n(x 1) ; trailing\n" with
  | Ok (Sexp.List [ Sexp.Atom "x"; Sexp.Atom "1" ]) -> ()
  | Ok s -> Alcotest.failf "unexpected parse: %s" (Sexp.to_string s)
  | Error e -> Alcotest.failf "parse failed: %s" e);
  (* Errors carry a line number. *)
  match Sexp.parse_string "(a\n(b" with
  | Ok s -> Alcotest.failf "expected an error, got %s" (Sexp.to_string s)
  | Error e -> Helpers.check_contains "line number" ~needle:"line" e

let test_sexp_roundtrip () =
  let s =
    Sexp.List [ Sexp.Atom "k"; Sexp.List [ Sexp.Atom "with space"; Sexp.Atom "plain" ] ]
  in
  match Sexp.parse_string (Sexp.to_string s) with
  | Ok s' -> Alcotest.(check bool) "roundtrip" true (s = s')
  | Error e -> Alcotest.failf "reparse failed: %s" e

(* --- errors ---------------------------------------------------------- *)

let test_error_exit_codes () =
  let usage_class =
    [ Error.parse "p"; Error.config "c"; Error.usage "u"; Error.parse ~source:"k" "p" ]
  in
  List.iter (fun e -> Alcotest.(check int) (Error.category e) 2 (Error.exit_code e)) usage_class;
  let failure_class =
    [
      Error.projection "x";
      Error.projection ~kernel:"k" "x";
      Error.simulation "x";
      Error.calibration "x";
      Error.cache "x";
      Error.io "x";
      Error.Lint { program = "p"; errors = 1; warnings = 0 };
    ]
  in
  List.iter (fun e -> Alcotest.(check int) (Error.category e) 1 (Error.exit_code e)) failure_class

let test_error_message_bare () =
  (* The CLI prints [message] verbatim, so payloads must carry the full
     text with no category prefix. *)
  Alcotest.(check string) "bare" "it broke" (Error.message (Error.projection "it broke"));
  Alcotest.(check string)
    "parse bare" "unknown workload" (Error.message (Error.parse ~source:"k" "unknown workload"))

(* --- config layering ------------------------------------------------- *)

let test_config_defaults_mirror_init () =
  let c = Config.default in
  Alcotest.(check string) "machine" "argonne"
    (if c.Config.machine == Gpp_arch.Machine.argonne_node then "argonne" else "other");
  Alcotest.(check int64) "seed" 0x1B0A_2013_6CA1_55AAL c.Config.seed;
  Helpers.close "outlier" 0.05 c.Config.outlier_probability;
  Alcotest.(check bool) "cache on" true c.Config.cache_enabled;
  Alcotest.(check bool) "lint off" false c.Config.lint;
  (* The default scenario's session is the one [Grophecy.init machine]
     calibrates. *)
  let engine = Engine.Pipeline.session_of c and core = Grophecy.init c.Config.machine in
  Alcotest.(check bool) "same h2d model" true (engine.Grophecy.h2d = core.Grophecy.h2d);
  Alcotest.(check bool) "same d2h model" true (engine.Grophecy.d2h = core.Grophecy.d2h);
  Alcotest.(check int64) "same noise seed" core.Grophecy.noise_seed engine.Grophecy.noise_seed

let test_config_file_layer () =
  let path =
    write_temp ~suffix:".sexp"
      "; scenario\n\
       ((machine gt200)\n\
      \ (seed 99)\n\
      \ (runs 5)\n\
      \ (sim ((noise-sigma 0.25)))\n\
      \ (space ((block-sizes (64 128)) (allow-tiling false)))\n\
      \ (cache ((enabled false) (dir /tmp/gpp-test-cache))))"
  in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  let c = Helpers.check_core "apply_file" (Config.apply_file Config.default ~path) in
  Alcotest.(check bool) "machine" true (c.Config.machine == Gpp_arch.Machine.gt200_node);
  Alcotest.(check int64) "seed" 99L c.Config.seed;
  Alcotest.(check (option int)) "runs" (Some 5) c.Config.runs;
  (match c.Config.sim with
  | Some sim ->
      Helpers.close "noise sigma" 0.25 sim.Gpp_gpusim.Gpu_sim.noise_sigma;
      (* Partial groups keep the library defaults for unnamed fields. *)
      Helpers.close "streaming untouched"
        Gpp_gpusim.Gpu_sim.default_config.Gpp_gpusim.Gpu_sim.streaming_efficiency
        sim.Gpp_gpusim.Gpu_sim.streaming_efficiency
  | None -> Alcotest.fail "sim group not applied");
  (match c.Config.space with
  | Some space ->
      Alcotest.(check (list int)) "block sizes" [ 64; 128 ] space.Gpp_transform.Explore.block_sizes;
      Alcotest.(check bool) "tiling" false space.Gpp_transform.Explore.allow_tiling
  | None -> Alcotest.fail "space group not applied");
  Alcotest.(check bool) "cache disabled" false c.Config.cache_enabled;
  Alcotest.(check (option string)) "cache dir" (Some "/tmp/gpp-test-cache") c.Config.cache_dir

let expect_config_error what = function
  | Ok (_ : Config.t) -> Alcotest.failf "%s: expected a config error" what
  | Error (Error.Config { source; message }) ->
      Alcotest.(check bool) (what ^ ": source set") true (source <> None);
      message
  | Error e -> Alcotest.failf "%s: expected Config error, got %s" what (Error.category e)

let test_config_file_bad_sexp () =
  let path = write_temp ~suffix:".sexp" "((machine argonne" in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  let msg = expect_config_error "bad sexp" (Config.apply_file Config.default ~path) in
  Helpers.check_contains "names the file" ~needle:(Filename.basename path) msg

let test_config_file_unknown_key () =
  let path = write_temp ~suffix:".sexp" "((machina argonne))" in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  let msg = expect_config_error "unknown key" (Config.apply_file Config.default ~path) in
  Helpers.check_contains "names the key" ~needle:{|"machina"|} msg;
  let path2 = write_temp ~suffix:".sexp" "((sim ((noise 1))))" in
  Fun.protect ~finally:(fun () -> Sys.remove path2) @@ fun () ->
  let msg2 =
    expect_config_error "unknown group key" (Config.apply_file Config.default ~path:path2)
  in
  Helpers.check_contains "names the group" ~needle:"sim" msg2

let test_config_env_layer () =
  let env =
    getenv_of
      [ ("GPP_MACHINE", "modern"); ("GPP_SEED", "7"); ("GPP_NO_CACHE", "1"); ("GPP_RUNS", "3") ]
  in
  let c = Helpers.check_core "apply_env" (Config.apply_env ~getenv:env Config.default) in
  Alcotest.(check bool) "machine" true (c.Config.machine == Gpp_arch.Machine.modern_node);
  Alcotest.(check int64) "seed" 7L c.Config.seed;
  Alcotest.(check bool) "no cache" false c.Config.cache_enabled;
  Alcotest.(check (option int)) "runs" (Some 3) c.Config.runs;
  (* Malformed values name the variable. *)
  let bad = Config.apply_env ~getenv:(getenv_of [ ("GPP_SEED", "banana") ]) Config.default in
  let msg = expect_config_error "bad env" bad in
  Helpers.check_contains "names the variable" ~needle:"GPP_SEED" msg

let test_config_precedence () =
  (* defaults < file < env < flags, per field. *)
  let path = write_temp ~suffix:".sexp" "((machine gt200) (seed 1) (runs 2))" in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  let getenv = getenv_of [ ("GPP_SEED", "22"); ("GPP_ITERATIONS", "4") ] in
  let overrides = { Config.no_overrides with Config.o_seed = Some 333L } in
  let c = Helpers.check_core "resolve" (Config.resolve ~getenv ~file:path ~overrides ()) in
  (* file beats defaults where neither env nor flags speak *)
  Alcotest.(check bool) "machine from file" true (c.Config.machine == Gpp_arch.Machine.gt200_node);
  Alcotest.(check (option int)) "runs from file" (Some 2) c.Config.runs;
  (* env beats file *)
  Alcotest.(check (option int)) "iterations from env" (Some 4) c.Config.iterations;
  (* flags beat env *)
  Alcotest.(check int64) "seed from flags" 333L c.Config.seed

(* Runs and iterations below 1 would crash the simulators and the
   iteration rescaling; every layer must reject them as a config error
   (exit 2) instead. *)
let expect_range_error what ~needle result =
  match result with
  | Ok (_ : Config.t) -> Alcotest.failf "%s: expected a config error" what
  | Error e ->
      Alcotest.(check string) (what ^ ": category") "config" (Error.category e);
      Alcotest.(check int) (what ^ ": exit code") 2 (Error.exit_code e);
      Helpers.check_contains what ~needle (Error.message e)

let test_config_flag_below_one () =
  let overrides = { Config.no_overrides with Config.o_iterations = Some 0 } in
  expect_range_error "--iterations 0" ~needle:"iterations = 0"
    (Config.resolve ~getenv:(getenv_of []) ~overrides ());
  let overrides = { Config.no_overrides with Config.o_runs = Some 0 } in
  expect_range_error "--runs 0" ~needle:"runs = 0"
    (Config.resolve ~getenv:(getenv_of []) ~overrides ())

let test_config_env_below_one () =
  expect_range_error "GPP_ITERATIONS=0" ~needle:"iterations = 0"
    (Config.resolve ~getenv:(getenv_of [ ("GPP_ITERATIONS", "0") ]) ());
  expect_range_error "GPP_RUNS=0" ~needle:"runs = 0"
    (Config.resolve ~getenv:(getenv_of [ ("GPP_RUNS", "0") ]) ())

let test_config_file_below_one () =
  List.iter
    (fun (text, needle) ->
      let path = write_temp ~suffix:".sexp" text in
      Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
      expect_range_error text ~needle (Config.resolve ~getenv:(getenv_of []) ~file:path ()))
    [ ("((runs 0))", "runs = 0"); ("((iterations -1))", "iterations = -1") ]

(* The simulator keys outside their documented ranges would crash the
   simulator (or, for drain-cycles, print nonsense); through the file
   layer each is a config error naming the key, while the range's own
   bounds still load. *)
let test_config_sim_range key ~accepted ~rejected () =
  let resolve v =
    let path = write_temp ~suffix:".sexp" (Printf.sprintf "((sim ((%s %s))))" key v) in
    Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
    Config.resolve ~getenv:(getenv_of []) ~file:path ()
  in
  List.iter (fun v -> ignore (Helpers.check_core (key ^ " " ^ v) (resolve v))) accepted;
  List.iter (fun v -> expect_range_error (key ^ " " ^ v) ~needle:key (resolve v)) rejected

let sim_range_cases =
  [
    ("streaming-efficiency", [ "1"; "0.01" ], [ "0"; "-0.5"; "nan"; "1.5" ]);
    ("scattered-efficiency", [ "1"; "0.01" ], [ "0"; "inf"; "nan" ]);
    ("latency-jitter", [ "0"; "1" ], [ "inf"; "-0.1"; "1.01"; "nan" ]);
    ("block-dispatch-cycles", [ "0"; "1e6" ], [ "-10"; "inf"; "nan" ]);
    ("drain-cycles", [ "0"; "1e6" ], [ "-1e9"; "inf"; "nan" ]);
    ("noise-sigma", [ "0"; "2" ], [ "-0.01"; "nan"; "inf" ]);
  ]

let test_config_transfer_plan_layers () =
  let module Analyzer = Gpp_dataflow.Analyzer in
  let plan_of (c : Config.t) =
    match c.Config.policy with
    | Some p -> p.Analyzer.plan
    | None -> Alcotest.fail "policy should be set"
  in
  (* Environment layer. *)
  let c =
    Helpers.check_core "apply_env"
      (Config.apply_env ~getenv:(getenv_of [ ("GPP_TRANSFER_PLAN", "minimal") ]) Config.default)
  in
  Alcotest.(check bool) "env sets minimal" true (plan_of c = Analyzer.Minimal);
  (* Malformed values name the variable. *)
  let bad =
    Config.apply_env ~getenv:(getenv_of [ ("GPP_TRANSFER_PLAN", "bogus") ]) Config.default
  in
  Helpers.check_contains "names the variable" ~needle:"GPP_TRANSFER_PLAN"
    (expect_config_error "bad plan" bad);
  (* Config-file layer: the nested policy group. *)
  let path = write_temp ~suffix:".sexp" "((policy ((plan minimal))))" in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  let from_file = Helpers.check_core "apply_file" (Config.apply_file Config.default ~path) in
  Alcotest.(check bool) "file sets minimal" true (plan_of from_file = Analyzer.Minimal);
  (* The --transfer-plan flag beats the env. *)
  let overrides =
    { Config.no_overrides with Config.o_transfer_plan = Some Analyzer.Conservative }
  in
  let resolved =
    Helpers.check_core "resolve"
      (Config.resolve
         ~getenv:(getenv_of [ ("GPP_TRANSFER_PLAN", "minimal") ])
         ~overrides ())
  in
  Alcotest.(check bool) "flag beats env" true (plan_of resolved = Analyzer.Conservative)

(* --- workload resolution --------------------------------------------- *)

let test_workload_resolve () =
  (match Engine.Workload.resolve "vecadd/16M" with
  | Ok inst -> Alcotest.(check string) "app" "vecadd" inst.Gpp_workloads.Registry.app
  | Error e -> Alcotest.failf "registry key failed: %s" (Error.to_string e));
  (match Engine.Workload.resolve "no-such-workload/1" with
  | Ok _ -> Alcotest.fail "expected an error"
  | Error (Error.Parse { source; message }) ->
      Alcotest.(check (option string)) "source" (Some "no-such-workload/1") source;
      Helpers.check_contains "lists known keys" ~needle:"vecadd/16M" message;
      Helpers.check_contains "mentions .skel" ~needle:".skel" message
  | Error e -> Alcotest.failf "expected Parse, got %s" (Error.category e));
  (* A .skel file path resolves through the parser. *)
  let program = Gpp_workloads.Vecadd.program ~n:4096 in
  let path = write_temp ~suffix:".skel" (Gpp_skeleton.Printer.to_skel program) in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  match Engine.Workload.resolve path with
  | Ok inst ->
      Alcotest.(check string) "size marker" "file" inst.Gpp_workloads.Registry.size;
      Alcotest.(check string)
        "program name" program.Gpp_skeleton.Program.name
        (inst.Gpp_workloads.Registry.program 1).Gpp_skeleton.Program.name
  | Error e -> Alcotest.failf "skel path failed: %s" (Error.to_string e)

(* --- stages and pipeline --------------------------------------------- *)

let test_stage_metadata () =
  Alcotest.(check int) "eight stages" 8 (List.length Engine.Stage.all);
  List.iter
    (fun id ->
      Alcotest.(check bool)
        (Engine.Stage.name id ^ " roundtrip")
        true
        (Engine.Stage.of_name (Engine.Stage.name id) = Some id))
    Engine.Stage.all;
  Alcotest.(check (option string)) "unknown" None (Option.map Engine.Stage.name (Engine.Stage.of_name "nope"));
  let sorted = List.sort Engine.Stage.compare Engine.Stage.all in
  Alcotest.(check bool) "all is pipeline order" true (sorted = Engine.Stage.all);
  Alcotest.(check int) "pipeline stage list agrees" 8 (List.length Engine.Pipeline.stages);
  List.iteri
    (fun i (st : Engine.Pipeline.stage) ->
      Alcotest.(check int) "stage order" i (Engine.Stage.index st.Engine.Pipeline.id))
    Engine.Pipeline.stages

(* The pipeline's two entry points must agree bit for bit: a program
   handed over in code and the same program read back from a .skel
   file. *)
let test_pipeline_program_matches_skel () =
  let program = Gpp_workloads.Vecadd.program ~n:100_000 in
  let path = write_temp ~suffix:".skel" (Gpp_skeleton.Printer.to_skel program) in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  let config = { Config.default with Config.seed = 2024L } in
  (* Two fresh sessions with the same seed: the application link is
     stateful, so each path needs its own. *)
  let program_report =
    Helpers.check_core "program"
      (Engine.Pipeline.analyze_program ~session:(Engine.Pipeline.session_of config) config
         program)
  in
  let state =
    Helpers.check_core "skel"
      (Engine.Pipeline.run ~session:(Engine.Pipeline.session_of config) config ~workload:path)
  in
  let skel_report = Engine.Pipeline.report_exn state in
  Alcotest.(check string)
    "reports render identically"
    (Format.asprintf "%a" Grophecy.pp_report program_report)
    (Format.asprintf "%a" Grophecy.pp_report skel_report);
  let bits (r : Grophecy.report) =
    let p = r.Grophecy.projection and m = r.Grophecy.measurement in
    let s = r.Grophecy.speedups and e = r.Grophecy.errors in
    List.map Int64.bits_of_float
      [
        p.Gpp_core.Projection.kernel_time;
        p.Gpp_core.Projection.transfer_time;
        p.Gpp_core.Projection.predicted_total;
        m.Gpp_core.Measurement.kernel_time;
        m.Gpp_core.Measurement.transfer_time;
        r.Grophecy.cpu_time;
        s.Gpp_core.Evaluation.measured;
        s.Gpp_core.Evaluation.kernel_only;
        s.Gpp_core.Evaluation.transfer_only;
        s.Gpp_core.Evaluation.with_transfer;
        e.Gpp_core.Evaluation.kernel_only;
        e.Gpp_core.Evaluation.transfer_only;
        e.Gpp_core.Evaluation.with_transfer;
        r.Grophecy.kernel_error;
        r.Grophecy.transfer_error;
      ]
  in
  Alcotest.(check (list int64)) "bitwise report figures" (bits program_report) (bits skel_report);
  Alcotest.(check bool)
    "bitwise kernel time" true
    (Int64.bits_of_float program_report.Grophecy.measurement.Gpp_core.Measurement.kernel_time
    = Int64.bits_of_float skel_report.Grophecy.measurement.Gpp_core.Measurement.kernel_time);
  (* Stage bookkeeping: everything ran except Lint (config.lint=false). *)
  let ran = Engine.Pipeline.completed state in
  Alcotest.(check bool) "lint skipped" true (not (List.mem Engine.Stage.Lint ran));
  Alcotest.(check int) "seven stages ran" 7 (List.length ran)

let test_pipeline_partial_run () =
  let config = Config.default in
  let session = Engine.Pipeline.session_of config in
  let state =
    Helpers.check_core "through analyze"
      (Engine.Pipeline.run ~through:Engine.Stage.Analyze ~session config ~workload:"vecadd/16M")
  in
  Alcotest.(check bool) "plan present" true (state.Engine.Pipeline.plan <> None);
  Alcotest.(check bool) "no kernels yet" true (state.Engine.Pipeline.kernels = None);
  Alcotest.(check bool) "no report yet" true (state.Engine.Pipeline.report = None);
  (* Parse failures surface as structured parse errors. *)
  match Engine.Pipeline.run ~session config ~workload:"bogus/size" with
  | Ok _ -> Alcotest.fail "expected parse failure"
  | Error e ->
      Alcotest.(check string) "category" "parse" (Error.category e);
      Alcotest.(check int) "exit code" 2 (Error.exit_code e)

(* --- batch ----------------------------------------------------------- *)

let test_batch_matrix () =
  let config = Config.default in
  let batch =
    Engine.Batch.run ~iterations:[ None; Some 4 ] config ~workloads:[ "vecadd/16M"; "nope/1" ]
  in
  Alcotest.(check int) "four cells" 4 (List.length batch.Engine.Batch.cells);
  Alcotest.(check int) "two ok" 2 (List.length (Engine.Batch.succeeded batch));
  Alcotest.(check int) "two failed" 2 (List.length (Engine.Batch.failed batch));
  Alcotest.(check bool)
    "session exposed" true
    (Engine.Batch.session batch ~machine:config.Config.machine.Gpp_arch.Machine.name <> None);
  let tsv = Engine.Batch.to_tsv batch in
  let lines = String.split_on_char '\n' (String.trim tsv) in
  Alcotest.(check int) "header + 4 rows" 5 (List.length lines);
  Alcotest.(check string) "header" Engine.Batch.tsv_header (List.hd lines);
  Alcotest.(check int)
    "error rows marked" 2
    (List.length (List.filter (fun l -> Helpers.contains_substring ~needle:"error:parse" l) lines))

(* Batch over the paper instances is exactly the experiment context:
   same sessions, same reports, in the same order. *)
let test_batch_matches_context () =
  let ctx = Helpers.check_core "context" (Gpp_experiments.Context.create ()) in
  let batch =
    Engine.Batch.run Config.default
      ~workloads:
        (List.map Gpp_workloads.Registry.key Gpp_workloads.Registry.paper_instances)
  in
  Alcotest.(check int) "no failures" 0 (List.length (Engine.Batch.failed batch));
  List.iter2
    (fun ((inst : Gpp_workloads.Registry.instance), (ctx_report : Grophecy.report))
         ((cell : Engine.Batch.cell), batch_report) ->
      Alcotest.(check string)
        "same order" (Gpp_workloads.Registry.key inst) cell.Engine.Batch.workload;
      Alcotest.(check string)
        (Gpp_workloads.Registry.key inst ^ " renders identically")
        (Format.asprintf "%a" Grophecy.pp_report ctx_report)
        (Format.asprintf "%a" Grophecy.pp_report batch_report))
    (Gpp_experiments.Context.instances ctx)
    (Engine.Batch.succeeded batch)

let () =
  Alcotest.run "engine"
    [
      ( "sexp",
        [
          Alcotest.test_case "parse" `Quick test_sexp_parse;
          Alcotest.test_case "roundtrip" `Quick test_sexp_roundtrip;
        ] );
      ( "errors",
        [
          Alcotest.test_case "exit codes" `Quick test_error_exit_codes;
          Alcotest.test_case "bare messages" `Quick test_error_message_bare;
        ] );
      ( "config",
        [
          Alcotest.test_case "defaults mirror init" `Quick test_config_defaults_mirror_init;
          Alcotest.test_case "file layer" `Quick test_config_file_layer;
          Alcotest.test_case "bad sexp" `Quick test_config_file_bad_sexp;
          Alcotest.test_case "unknown keys" `Quick test_config_file_unknown_key;
          Alcotest.test_case "env layer" `Quick test_config_env_layer;
          Alcotest.test_case "precedence" `Quick test_config_precedence;
          Alcotest.test_case "transfer-plan layers" `Quick test_config_transfer_plan_layers;
          Alcotest.test_case "flag below one" `Quick test_config_flag_below_one;
          Alcotest.test_case "env below one" `Quick test_config_env_below_one;
          Alcotest.test_case "file below one" `Quick test_config_file_below_one;
        ]
        @ List.map
            (fun (key, accepted, rejected) ->
              Alcotest.test_case ("sim " ^ key) `Quick
                (test_config_sim_range key ~accepted ~rejected))
            sim_range_cases );
      ( "workload",
        [ Alcotest.test_case "resolve" `Quick test_workload_resolve ] );
      ( "pipeline",
        [
          Alcotest.test_case "stage metadata" `Quick test_stage_metadata;
          Alcotest.test_case "program matches skel" `Quick test_pipeline_program_matches_skel;
          Alcotest.test_case "partial run" `Quick test_pipeline_partial_run;
        ] );
      ( "batch",
        [
          Alcotest.test_case "matrix" `Quick test_batch_matrix;
          Alcotest.test_case "matches context" `Slow test_batch_matches_context;
        ] );
    ]
