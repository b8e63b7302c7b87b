(* Benchmark harness: one Bechamel test per paper table/figure (the cost
   of regenerating each experiment from the shared measurement context),
   plus pipeline-stage benches covering the framework's own phases.

   Run with:  dune exec bench/main.exe
   Output: one row per benchmark with the OLS-estimated time per run. *)

open Bechamel

let context_exn = function
  | Ok ctx -> ctx
  | Error e -> failwith ("experiment context: " ^ Gpp_engine.Error.message e)

(* The context (calibration + full measurement of every Table I
   instance) is built once; each experiment bench then regenerates its
   table/figure from it, exactly as `grophecy experiment` does. *)
let ctx = lazy (context_exn (Gpp_experiments.Context.create Gpp_engine.Config.default))

(* Cache A/B: the headline number for the memoized projection engine.
   The full suite (fresh context + every table/figure, exactly what
   `grophecy experiment` runs) is timed four ways: cache bypassed, cold
   cache (empty tables, populated as it runs), warm cache (tables left
   over from the cold run), and warm *disk* — tables flushed to a store
   directory, cleared from memory, and reloaded, which is what a cold
   process with a persistent cache pays. *)

let run_full_suite () =
  ignore
    (context_exn
       (Gpp_experiments.Suite.run Gpp_engine.Config.default Gpp_experiments.Suite.all ~emit:ignore))

(* Wall-clock timer.  Sys.time is process CPU time: it ignores waiting
   and, worse, *sums* across domains, so a perfectly parallel run would
   "take" as long as the sequential one.  Every A/B here reads the
   monotonic clock instead. *)
let now_s () = Int64.to_float (Monotonic_clock.now ()) /. 1e9

let timed f =
  let t0 = now_s () in
  f ();
  now_s () -. t0

(* A store directory unique to this run, removed however the bench
   exits.  A fixed path under $TMPDIR would collide between concurrent
   bench processes (one run's flush poisoning another's reload) and leak
   the store on crash. *)
let with_temp_store f =
  let dir = Filename.temp_dir "gpp-bench-store" "" in
  Fun.protect ~finally:(fun () -> ignore (Gpp_cache.Store.clear_dir ~dir)) (fun () -> f dir)

let cache_ab () =
  print_endline "cache A/B: full experiments suite (context + every table/figure)";
  let uncached = Gpp_cache.Control.without_cache (fun () -> timed run_full_suite) in
  Printf.printf "  cache bypassed: %6.2f s\n%!" uncached;
  Gpp_cache.Memo.clear_all ();
  let cold = timed run_full_suite in
  Printf.printf "  cold cache:     %6.2f s  (%.2fx vs bypassed)\n%!" cold (uncached /. cold);
  let warm = timed run_full_suite in
  Printf.printf "  warm cache:     %6.2f s  (%.2fx vs bypassed)\n%!" warm (uncached /. warm);
  (* Warm disk, cold process: flush, drop the in-memory tables, reload
     from the store files, rerun. *)
  with_temp_store @@ fun store_dir ->
  Gpp_cache.Memo.flush_disk ~dir:store_dir ();
  Gpp_cache.Memo.clear_all ();
  let load = timed (fun () -> Gpp_cache.Memo.load_disk ~dir:store_dir ()) in
  let disk_warm = timed run_full_suite in
  Printf.printf "  warm disk:      %6.2f s  (%.2fx vs bypassed; store load %.3f s)\n%!" disk_warm
    (uncached /. disk_warm) load;
  List.iter
    (fun s -> Format.printf "  %a@." Gpp_cache.Memo.pp_snapshot s)
    (Gpp_cache.Memo.snapshots ())

(* Parallel batch A/B: the full paper matrix (Table I workloads ×
   argonne and gt200) sequentially and sharded across the domain pool,
   with the cache bypassed so the parallel leg cannot ride the
   sequential leg's memo entries.  Asserts the TSVs are byte-identical,
   then writes the machine-readable result to BENCH_batch.json. *)
let batch_ab () =
  (* At least two domains even on a single-core box, so the A/B always
     exercises the pool path (the speedup is then honestly ~1x). *)
  let jobs = max 2 (Gpp_engine.Pool.default_jobs ()) in
  Printf.printf "batch A/B: paper matrix, --jobs 1 vs --jobs %d (cache bypassed)\n%!" jobs;
  let config = { Gpp_engine.Config.default with Gpp_engine.Config.use_cache = Some false } in
  let machines = [ Gpp_arch.Machine.argonne_node; Gpp_arch.Machine.gt200_node ] in
  let workloads = List.map Gpp_workloads.Registry.key Gpp_workloads.Registry.paper_instances in
  let run jobs =
    let result = ref None in
    let t = timed (fun () -> result := Some (Gpp_engine.Batch.run ~machines ~jobs config ~workloads)) in
    (Option.get !result, t)
  in
  let seq, seq_s = run 1 in
  Printf.printf "  --jobs 1:  %6.2f s\n%!" seq_s;
  let par, par_s = run jobs in
  let identical = Gpp_engine.Batch.to_tsv seq = Gpp_engine.Batch.to_tsv par in
  Printf.printf "  --jobs %d:  %6.2f s  (%.2fx; identical output: %b)\n%!" jobs par_s
    (seq_s /. par_s) identical;
  if not identical then failwith "batch A/B: parallel TSV differs from sequential";
  let cells = List.length seq.Gpp_engine.Batch.cells in
  let host_cores = Domain.recommended_domain_count () in
  (* On a box with fewer cores than domains the pool can only add
     overhead, so the speedup number measures scheduling cost, not
     scaling; the note tells the trajectory guard to skip it. *)
  let note =
    if host_cores < jobs then
      Printf.sprintf ",\n  \"note\": \"host has %d core(s) for %d domains; speedup measures pool overhead, not scaling\"" host_cores jobs
    else ""
  in
  Out_channel.with_open_text "BENCH_batch.json" (fun oc ->
      Printf.fprintf oc
        "{\n  \"benchmark\": \"batch-matrix\",\n  \"cells\": %d,\n  \"jobs\": %d,\n  \
         \"host_cores\": %d,\n  \"sequential_s\": %.3f,\n  \"parallel_s\": %.3f,\n  \
         \"speedup\": %.3f,\n  \"identical_tsv\": %b%s\n}\n"
        cells jobs host_cores seq_s par_s (seq_s /. par_s) identical note);
  Printf.printf "  wrote BENCH_batch.json (%d cells)\n%!" cells

(* Analysis leg: the cost of the fixpoint-based static analyses — the
   transfer plan under both policies and the full lint driver — over
   every registry instance, plus the engine's headline property: plan
   time is independent of the schedule's iteration count, because a
   [Repeat] body is solved to a fixed point instead of being unrolled.
   Writes BENCH_analysis.json. *)
let analysis_ab () =
  print_endline "analysis bench: fixpoint dataflow + lint over the registry";
  let reps = 50 in
  let timed_reps f =
    f ();
    (* warm-up *)
    let t0 = now_s () in
    for _ = 1 to reps do
      f ()
    done;
    (now_s () -. t0) /. float_of_int reps *. 1e3
  in
  let programs =
    List.map (fun (i : Gpp_workloads.Registry.instance) -> i.program 1) Gpp_workloads.Registry.all
  in
  let minimal_policy =
    { Gpp_dataflow.Analyzer.default_policy with Gpp_dataflow.Analyzer.plan = Gpp_dataflow.Analyzer.Minimal }
  in
  let conservative_ms =
    timed_reps (fun () ->
        List.iter (fun p -> ignore (Gpp_dataflow.Analyzer.analyze p)) programs)
  in
  Printf.printf "  plan (conservative): %8.3f ms/registry\n%!" conservative_ms;
  let minimal_ms =
    timed_reps (fun () ->
        List.iter
          (fun p -> ignore (Gpp_dataflow.Analyzer.analyze ~policy:minimal_policy p))
          programs)
  in
  Printf.printf "  plan (minimal):      %8.3f ms/registry\n%!" minimal_ms;
  let lint_ms =
    timed_reps (fun () -> List.iter (fun p -> ignore (Gpp_analysis.Driver.run p)) programs)
  in
  Printf.printf "  lint (all passes):   %8.3f ms/registry\n%!" lint_ms;
  (* Iteration-count independence on an iterative schedule. *)
  let srad n = Gpp_workloads.Srad.program ~n:1024 () |> fun p -> Gpp_skeleton.Program.with_iterations p n in
  let iter1 = srad 1 and iter1000 = srad 1000 in
  let iter1_ms = timed_reps (fun () -> ignore (Gpp_dataflow.Analyzer.analyze iter1)) in
  let iter1000_ms = timed_reps (fun () -> ignore (Gpp_dataflow.Analyzer.analyze iter1000)) in
  let scaling = iter1000_ms /. iter1_ms in
  Printf.printf "  plan srad n=1:       %8.3f ms\n%!" iter1_ms;
  Printf.printf "  plan srad n=1000:    %8.3f ms  (%.2fx — fixpoint, not unrolled)\n%!"
    iter1000_ms scaling;
  Out_channel.with_open_text "BENCH_analysis.json" (fun oc ->
      Printf.fprintf oc
        "{\n  \"benchmark\": \"analysis\",\n  \"reps\": %d,\n  \"registry_programs\": %d,\n  \
         \"plan_conservative_ms\": %.3f,\n  \"plan_minimal_ms\": %.3f,\n  \"lint_ms\": %.3f,\n  \
         \"srad_iter1_ms\": %.3f,\n  \"srad_iter1000_ms\": %.3f,\n  \
         \"iteration_scaling\": %.3f\n}\n"
        reps (List.length programs) conservative_ms minimal_ms lint_ms iter1_ms iter1000_ms
        scaling);
  Printf.printf "  wrote BENCH_analysis.json (%d programs)\n%!" (List.length programs)

(* Predictor-stack leg: the cost of training the Learned stage's ridge
   correction (the full leave-none-out fit over the Table I registry,
   simulations included) and the marginal cost each predictor variant
   adds to assembling a projection — analytic is the baseline, scaled
   re-prices through rebuilt models, learned additionally extracts
   features and applies the correction.  Writes BENCH_predict.json. *)
let predict_ab () =
  print_endline "predict bench: correction fit + per-variant assembly throughput";
  let machine = Gpp_arch.Machine.argonne_node in
  let target =
    match
      List.find_opt (fun (m : Gpp_arch.Machine.t) -> m.Gpp_arch.Machine.id = "dgx-a100")
        Gpp_arch.Machine.catalog
    with
    | Some m -> m
    | None -> failwith "predict bench: dgx-a100 missing from the catalog"
  in
  let config = Gpp_engine.Config.default in
  let session = Gpp_engine.Pipeline.session_of config in
  let correction = ref None in
  let fit_s =
    timed (fun () ->
        match Gpp_engine.Learn.correction ~config ~session () with
        | Ok c -> correction := Some c
        | Error e -> failwith ("predict bench: fit failed: " ^ Gpp_engine.Error.message e))
  in
  Printf.printf "  correction fit (full registry, sims included): %6.2f s\n%!" fit_s;
  let correction = Option.get !correction in
  let prepared =
    List.map
      (fun (i : Gpp_workloads.Registry.instance) ->
        let program = i.program 1 in
        let kernels =
          match Gpp_core.Projection.explore ~machine program with
          | Ok ks -> ks
          | Error e -> failwith ("predict bench: explore failed: " ^ Gpp_core.Error.to_string e)
        in
        (program, kernels, Gpp_dataflow.Analyzer.analyze program))
      Gpp_workloads.Registry.paper_instances
  in
  let variant name =
    match Gpp_predict.Predictor.of_string name with
    | Ok p -> p
    | Error m -> failwith ("predict bench: " ^ m)
  in
  let pricing_of predictor =
    let p =
      Gpp_predict.Pricing.make ~predictor ~source:machine ~target
        ~h2d:session.Gpp_core.Grophecy.h2d ~d2h:session.Gpp_core.Grophecy.d2h ()
    in
    if Gpp_predict.Predictor.has_learned predictor then
      Gpp_predict.Pricing.with_correction p correction
    else p
  in
  let reps = 200 in
  let throughput pricing =
    let t0 = now_s () in
    for _ = 1 to reps do
      List.iter
        (fun (program, kernels, plan) ->
          ignore (Gpp_core.Projection.assemble ~pricing ~kernels ~plan program))
        prepared
    done;
    float_of_int (reps * List.length prepared) /. (now_s () -. t0)
  in
  let rate name =
    let r = throughput (pricing_of (variant name)) in
    Printf.printf "  %-16s %10.0f predictions/s\n%!" name r;
    r
  in
  let analytic_rate = rate "analytic" in
  let scaled_rate = rate "scaled" in
  let learned_rate = rate "scaled,learned" in
  Out_channel.with_open_text "BENCH_predict.json" (fun oc ->
      Printf.fprintf oc
        "{\n  \"benchmark\": \"predict\",\n  \"training_workloads\": %d,\n  \
         \"assembly_reps\": %d,\n  \"fit_s\": %.3f,\n  \"analytic_predictions_per_s\": %.0f,\n  \
         \"scaled_predictions_per_s\": %.0f,\n  \"learned_predictions_per_s\": %.0f\n}\n"
        (List.length Gpp_workloads.Registry.paper_instances)
        reps fit_s analytic_rate scaled_rate learned_rate);
  Printf.printf "  wrote BENCH_predict.json\n%!"

let experiment_tests =
  List.map
    (fun (e : Gpp_experiments.Suite.entry) ->
      Test.make ~name:e.Gpp_experiments.Suite.id
        (Staged.stage (fun () ->
             let ctx = Lazy.force ctx in
             ignore (e.Gpp_experiments.Suite.run ctx))))
    Gpp_experiments.Suite.all

(* Pipeline-stage benches: how expensive each phase of GROPHECY++ itself
   is (the framework's own cost, not the modeled GPU time). *)

let machine = Gpp_arch.Machine.argonne_node

let session = lazy (Gpp_core.Grophecy.init machine)

(* Observability overhead: time a span-heavy workload (the hotspot
   transform search, ~hundreds of candidate spans) with the obs layer
   idle, enabled, and enabled + tracing to a file.  Run manually ahead
   of the bechamel suites — toggling the process-wide flag inside a
   staged test would contaminate every other bench. *)

let obs_overhead () =
  print_endline "obs overhead: transform search (idle / enabled / enabled+trace)";
  let program = Gpp_workloads.Hotspot.program ~n:1024 () in
  let kernel = List.hd program.Gpp_skeleton.Program.kernels in
  let search () =
    ignore
      (Gpp_cache.Control.without_cache (fun () ->
           Gpp_transform.Explore.search ~gpu:machine.Gpp_arch.Machine.gpu
             ~decls:program.Gpp_skeleton.Program.arrays kernel))
  in
  let reps = 20 in
  let timed_reps () =
    search ();
    (* warm-up *)
    let t0 = now_s () in
    for _ = 1 to reps do
      search ()
    done;
    (now_s () -. t0) /. float_of_int reps *. 1e3
  in
  let idle = timed_reps () in
  Printf.printf "  obs idle:        %8.3f ms/search\n%!" idle;
  Gpp_obs.Obs.set_enabled true;
  let enabled = timed_reps () in
  Printf.printf "  obs enabled:     %8.3f ms/search  (+%.1f%%)\n%!" enabled
    ((enabled /. idle -. 1.0) *. 100.0);
  let trace_file = Filename.temp_file "gpp-bench-trace" ".json" in
  (match Gpp_obs.Obs.start_trace trace_file with
  | Ok () -> ()
  | Error e -> failwith ("start_trace: " ^ e));
  let traced = timed_reps () in
  Gpp_obs.Obs.stop_trace ();
  Printf.printf "  obs + trace:     %8.3f ms/search  (+%.1f%%)\n%!" traced
    ((traced /. idle -. 1.0) *. 100.0);
  Sys.remove trace_file;
  Gpp_obs.Obs.set_enabled false;
  Gpp_obs.Obs.reset ()

(* Serve leg: sustained request throughput of the prediction service,
   cold (the first request computes the experiment) vs warm (responses
   come from the memo), plus the cheap liveness endpoint.  Writes
   BENCH_serve.json. *)
let serve_ab () =
  print_endline "serve bench: grophecy serve throughput, cold vs warm";
  with_temp_store @@ fun store_dir ->
  let config =
    {
      Gpp_engine.Config.default with
      Gpp_engine.Config.listen = "127.0.0.1:0";
      cache_dir = Some store_dir;
    }
  in
  Gpp_engine.Runtime.install config;
  Gpp_cache.Memo.clear_all ();
  match Gpp_serve.Serve.start config with
  | Error e -> failwith ("serve bench: " ^ Gpp_engine.Error.message e)
  | Ok server ->
      Fun.protect ~finally:(fun () -> Gpp_serve.Serve.stop server) @@ fun () ->
      let fetch target =
        match Gpp_serve.Serve.request server target with
        | Ok (200, _, body) -> body
        | Ok (status, _, _) -> failwith (Printf.sprintf "serve bench: %s -> %d" target status)
        | Error msg -> failwith ("serve bench: " ^ msg)
      in
      let cold_s = timed (fun () -> ignore (fetch "/experiment/fig5")) in
      Printf.printf "  cold /experiment/fig5: %6.2f s (computes the experiment)\n%!" cold_s;
      let reps = 200 in
      let warm_s =
        timed (fun () ->
            for _ = 1 to reps do
              ignore (fetch "/experiment/fig5")
            done)
      in
      let warm_rps = float_of_int reps /. warm_s in
      let warm_ms = warm_s /. float_of_int reps *. 1e3 in
      Printf.printf "  warm /experiment/fig5: %8.1f req/s (memoized; %.2f ms/req)\n%!" warm_rps
        warm_ms;
      let health_s =
        timed (fun () ->
            for _ = 1 to reps do
              ignore (fetch "/healthz")
            done)
      in
      let health_rps = float_of_int reps /. health_s in
      Printf.printf "  /healthz:              %8.1f req/s\n%!" health_rps;
      Out_channel.with_open_text "BENCH_serve.json" (fun oc ->
          Printf.fprintf oc
            "{\n  \"benchmark\": \"serve\",\n  \"endpoint\": \"/experiment/fig5\",\n  \
             \"cold_first_request_s\": %.3f,\n  \"warm_requests\": %d,\n  \
             \"warm_requests_per_s\": %.1f,\n  \"warm_ms_per_request\": %.3f,\n  \
             \"healthz_requests_per_s\": %.1f,\n  \"speedup_cold_vs_warm\": %.1f\n}\n"
            cold_s reps warm_rps warm_ms health_rps
            (cold_s /. (warm_s /. float_of_int reps)));
      Printf.printf "  wrote BENCH_serve.json\n%!"

let stage_tests =
  [
    Test.make ~name:"stage:calibration"
      (Staged.stage (fun () -> ignore (Gpp_core.Grophecy.init machine)));
    Test.make ~name:"stage:transfer-analysis"
      (Staged.stage
         (let program = Gpp_workloads.Cfd.program ~nelem:97_000 () in
          fun () -> ignore (Gpp_dataflow.Analyzer.analyze program)));
    Test.make ~name:"stage:transform-search"
      (Staged.stage
         (let program = Gpp_workloads.Hotspot.program ~n:1024 () in
          let kernel = List.hd program.Gpp_skeleton.Program.kernels in
          fun () ->
            ignore
              (Gpp_transform.Explore.search ~gpu:machine.Gpp_arch.Machine.gpu
                 ~decls:program.Gpp_skeleton.Program.arrays kernel)));
    Test.make ~name:"stage:projection"
      (Staged.stage
         (let program = Gpp_workloads.Srad.program ~n:1024 () in
          fun () ->
            let s = Lazy.force session in
            ignore
              (Gpp_core.Projection.project ~pricing:s.Gpp_core.Grophecy.pricing program)));
    Test.make ~name:"stage:gpu-simulation"
      (Staged.stage
         (let program = Gpp_workloads.Srad.program ~n:1024 () in
          let s = Lazy.force session in
          let projection =
            match
              Gpp_core.Projection.project ~pricing:s.Gpp_core.Grophecy.pricing program
            with
            | Ok p -> p
            | Error e -> failwith (Gpp_core.Error.to_string e)
          in
          fun () ->
            ignore
              (Gpp_core.Measurement.measure_parts ~runs:1
                 ~link:s.Gpp_core.Grophecy.application_link ~machine
                 ~kernels:projection.Gpp_core.Projection.kernels
                 ~plan:projection.Gpp_core.Projection.plan program)));
    Test.make ~name:"stage:full-analysis"
      (Staged.stage
         (let program = Gpp_workloads.Stassuij.program () in
          fun () ->
            let s = Lazy.force session in
            ignore
              (Gpp_engine.Pipeline.analyze_program ~session:s
                 { Gpp_engine.Config.default with Gpp_engine.Config.machine; runs = Some 3 }
                 program)));
  ]

let all_tests = experiment_tests @ stage_tests

let benchmark () =
  let ols = Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |] in
  let instances = [ Toolkit.Instance.monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:50 ~quota:(Time.second 0.5) ~kde:(Some 50) ~stabilize:false ()
  in
  List.map
    (fun test ->
      let raw = Benchmark.all cfg instances test in
      Analyze.all ols Toolkit.Instance.monotonic_clock raw)
    all_tests

let () =
  (* `bench/main.exe batch` runs only the parallel batch A/B (the leg CI
     uses to refresh BENCH_batch.json without paying for the full
     suite). *)
  if Array.length Sys.argv > 1 && Sys.argv.(1) = "batch" then (
    batch_ab ();
    exit 0);
  (* `bench/main.exe analysis` likewise refreshes BENCH_analysis.json
     alone. *)
  if Array.length Sys.argv > 1 && Sys.argv.(1) = "analysis" then (
    analysis_ab ();
    exit 0);
  (* `bench/main.exe serve` refreshes BENCH_serve.json alone. *)
  if Array.length Sys.argv > 1 && Sys.argv.(1) = "serve" then (
    serve_ab ();
    exit 0);
  (* `bench/main.exe predict` refreshes BENCH_predict.json alone. *)
  if Array.length Sys.argv > 1 && Sys.argv.(1) = "predict" then (
    predict_ab ();
    exit 0);
  cache_ab ();
  batch_ab ();
  analysis_ab ();
  obs_overhead ();
  serve_ab ();
  predict_ab ();
  (* Force the shared context up front so its (substantial) cost is not
     attributed to the first benchmark. *)
  print_endline "building measurement context (calibration + all Table I workloads)...";
  ignore (Lazy.force ctx);
  ignore (Lazy.force session);
  print_endline "running benchmarks...";
  let results = benchmark () in
  Printf.printf "%-28s %16s %10s\n" "benchmark" "time/run" "r^2";
  List.iter
    (fun result ->
      Hashtbl.iter
        (fun name ols ->
          let estimate =
            match Analyze.OLS.estimates ols with Some [ e ] -> e | _ -> Float.nan
          in
          let r2 = match Analyze.OLS.r_square ols with Some r -> r | None -> Float.nan in
          Printf.printf "%-28s %13.3f ms %10.3f\n" name (estimate /. 1e6) r2)
        result)
    results
