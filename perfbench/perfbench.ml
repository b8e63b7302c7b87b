(* The repository benchmark's workload runner.  run.py builds this
   executable and the grophecy CLI, then runs one workload per process:

     perfbench.exe --workload eval-matrix|predict-cold
       --seed N --seconds S --trace 0|1 --grophecy PATH --golden PATH
       --state DIR [--corrupt-reference]

   It prints a metric table and, as the last line of stdout, one JSON
   object: {"correct", "attempted", "failed", "metrics"}.  With
   --trace 0 the metrics are the end-to-end set; with --trace 1 the
   workload runs untraced, is replayed stage by stage under spans, and
   the metrics are the per-layer ledger.  predict-cold's traced run also
   drives a `grophecy serve` child over HTTP for the serve layer's rows
   (see Serve_mix). *)

module Config = Gpp_engine.Config
module Pipeline = Gpp_engine.Pipeline
module Stage = Gpp_engine.Stage
module Batch = Gpp_engine.Batch
module Memo = Gpp_cache.Memo
module Control = Gpp_cache.Control
module Analyzer = Gpp_dataflow.Analyzer
module U = Util

(* --- metric names: the contract with BENCHMARK.json ------------------- *)

let end_to_end =
  [
    ("setup_s", "s");
    ("throughput_per_s", "1/s");
    ("latency_p50_ms", "ms");
    ("latency_tail_ms", "ms");
    ("cpu_ms_per_op", "ms");
    ("peak_rss_mb", "MiB");
    ("speedup_error_pct", "%");
  ]

let per_layer =
  List.map (fun l -> (l ^ "_ms", "ms")) Ledger.layers
  @ [
      ("transform.feasible_ratio", "ratio");
      ("gpusim.share", "ratio");
      ("gpusim.events", "count");
      ("gpusim.ns_per_event", "ns");
      ("gpusim.words_per_event", "words");
      ("cache.transform_search.hit_ratio", "ratio");
      ("cache.gpusim_run_mean.hit_ratio", "ratio");
      ("trace.uncovered_share", "ratio");
      ("trace.overhead_pct", "%");
      ("serve.healthz_p50_ms", "ms");
      ("serve.hit_p50_ms", "ms");
      ("serve.post_hit_p50_ms", "ms");
      ("serve.miss_p50_ms", "ms");
      ("serve.fresh_conn_p50_ms", "ms");
      ("serve.tail_ms", "ms");
      ("serve.cpu_ms_per_request", "ms");
      ("cache.serve_responses.hit_ratio", "ratio");
      ("cache.lower_tier.hit_ratio", "ratio");
      ("serve.ready_s", "s");
      ("cache.disk_entries", "count");
      ("serve.generator_late_p99_ms", "ms");
      ("serve.errors", "count");
    ]

(* Every declared name, in declared order, with its declared unit; a
   layer the workload does not load reads 0. *)
let canonical names measured =
  List.map
    (fun (name, unit_) ->
      match List.find_opt (fun (m : U.metric) -> m.name = name) measured with
      | Some m ->
          if m.unit_ <> unit_ then failwith (Printf.sprintf "%s: unit %s, declared %s" name m.unit_ unit_);
          m
      | None -> U.metric name unit_ 0. ~note:"(layer not on this workload's path)")
    names

(* --- shared pieces ------------------------------------------------------ *)

let ok_exn = function Ok v -> v | Error e -> failwith (Gpp_engine.Error.message e)

(* A scenario resolved exactly as the CLI resolves its flags, with an
   empty environment. *)
let resolve overrides = ok_exn (Config.resolve ~getenv:(fun _ -> None) ~overrides ())

let machine config name =
  match Config.find_machine config name with Ok m -> m | Error msg -> failwith msg

(* Set-up is timed over about [setup_reps] repetitions, split into
   [groups] groups that the workload runs before each stretch of its
   measured phase, outside that phase's timing.  Its median then spans
   the whole run, as the phase's own figures do, instead of one instant
   of a shared host whose speed drifts within seconds.  [group ()] runs
   the next group and returns the last repetition's result. *)
let setup_reps = 101

type setup_timer = { mutable times : float list; per_group : int }

let setup_timer ~groups = { times = []; per_group = (setup_reps + groups - 1) / groups }

let setup_group st f =
  let rec go k =
    let t0 = U.now_s () in
    let r = f () in
    st.times <- (U.now_s () -. t0) :: st.times;
    if k = st.per_group then r else go (k + 1)
  in
  go 1

let setup_metric st ~what =
  U.metric "setup_s" "s" (U.median_float st.times)
    ~note:(Printf.sprintf "median of %d %s set-ups, spread over the run" (List.length st.times) what)

(* Projection.pp + Analyzer.pp_plan, as `grophecy project` prints them. *)
let render (p : Gpp_core.Projection.t) =
  Format.asprintf "%a@." Gpp_core.Projection.pp p ^ Format.asprintf "%a@." Analyzer.pp_plan p.plan

(* The p50 is the interpolated median: over eval-matrix's two sweeps of
   a 40 s run it is their mean, not the faster one. *)
let latency_metrics ~label lat_s =
  let ms = List.map (fun s -> s *. 1000.) lat_s in
  let sorted = U.sorted_of ms in
  let n = Array.length sorted in
  let tail, tail_label = U.tail sorted in
  [
    U.metric "latency_p50_ms" "ms" (U.median_float ms) ~note:(Printf.sprintf "%s, %d samples" label n);
    U.metric "latency_tail_ms" "ms" tail ~note:(Printf.sprintf "%s of %d samples" tail_label n);
  ]

type outcome = { attempted : int; failed : int; correct : bool; metrics : U.metric list }

(* --- eval-matrix --------------------------------------------------------- *)

(* One Batch.run ~jobs:1 over the committed golden matrix (the ten Table
   I instances on argonne and gt200), cache bypassed. *)
let nominal_sweep_s = 23.5

let rows s = List.filter (fun l -> l <> "") (String.split_on_char '\n' s)

(* Data rows that differ from the reference, missing and extra rows
   included. *)
let tsv_mismatches ~reference tsv =
  let rec go acc a b =
    match (a, b) with
    | [], [] -> acc
    | x :: a, y :: b -> go (if x = y then acc else acc + 1) a b
    | _ :: a, [] | [], _ :: a -> go (acc + 1) a []
  in
  go 0 (rows reference) (rows tsv)

let eval_matrix ~golden ~seconds ~trace ~corrupt =
  let setup () =
    let config = resolve { Config.no_overrides with o_no_cache = true } in
    Gpp_engine.Runtime.setup_cache ~enabled:config.cache_enabled ~dir:None;
    let machines = List.map (machine config) [ "argonne"; "gt200" ] in
    let workloads = List.map Gpp_workloads.Registry.key Gpp_workloads.Registry.paper_instances in
    (config, machines, workloads, U.read_file golden)
  in
  let sweeps = max 1 (Float.to_int (Float.round (seconds /. nominal_sweep_s))) in
  let st = setup_timer ~groups:(sweeps + 1) in
  let config, machines, workloads, reference = setup_group st setup in
  let reference =
    if corrupt then
      match String.index_opt reference '\n' with
      | Some i -> String.sub reference 0 (i + 1) ^ "corrupted\t" ^ String.sub reference (i + 1) (String.length reference - i - 1)
      | None -> reference
    else reference
  in
  let cells = List.length machines * List.length workloads in
  let failed = ref 0 and times = ref [] and cpu = ref 0. and last = ref None in
  for _ = 1 to sweeps do
    let t0 = U.now_s () and c0 = U.cpu_s () in
    let b = Batch.run ~machines ~jobs:1 config ~workloads in
    times := (U.now_s () -. t0) :: !times;
    cpu := !cpu +. (U.cpu_s () -. c0);
    failed := !failed + tsv_mismatches ~reference (Batch.to_tsv b);
    last := Some b;
    ignore (setup_group st setup)
  done;
  let cpu = !cpu and rss = U.peak_rss_mb () in
  let total = List.fold_left ( +. ) 0. !times in
  let attempted = sweeps * cells in
  let tsv = Batch.to_tsv (Option.get !last) in
  if not trace then
    {
      attempted;
      failed = !failed;
      correct = !failed = 0;
      metrics =
        [
          setup_metric st ~what:"config/machines/reference";
          U.metric "throughput_per_s" "1/s" (float_of_int attempted /. total)
            ~note:(Printf.sprintf "cells/s over %d sweep(s)" sweeps);
        ]
        @ latency_metrics ~label:"per whole-matrix sweep" !times
        @ [
            U.metric "cpu_ms_per_op" "ms" (cpu *. 1000. /. float_of_int attempted) ~note:"per cell";
            U.metric "peak_rss_mb" "MiB" rss ~note:"VmHWM";
            U.metric "speedup_error_pct" "%" (U.speedup_error_pct tsv) ~note:"mean over the TSV's cells";
          ];
    }
  else begin
    (* One sweep replayed stage by stage, in Batch's order and with its
       per-machine sessions, so the TSV must still equal the golden. *)
    let ledger = Ledger.create () in
    let t0 = U.now_s () in
    let sessions = ref [] in
    let results =
      Ledger.traced (fun () ->
          Ledger.with_memo ledger (fun () ->
              List.concat_map
                (fun (m : Gpp_arch.Machine.t) ->
                  let mconfig = { config with machine = m } in
                  let session = Ledger.calibrate ledger mconfig in
                  sessions := (m.name, session) :: !sessions;
                  List.map
                    (fun workload ->
                      let outcome =
                        Ledger.op ledger (fun () ->
                            Ledger.stages ledger ~session ~through:Stage.Evaluate
                              { mconfig with iterations = None }
                              ~workload)
                      in
                      {
                        Batch.cell = { workload; machine = m; iterations = None };
                        outcome = Result.map Pipeline.report_exn outcome;
                      })
                    workloads)
                machines))
    in
    ledger.wall <- U.now_s () -. t0;
    let replayed = { Batch.config; sessions = List.rev !sessions; cells = results } in
    let failed = !failed + tsv_mismatches ~reference (Batch.to_tsv replayed) in
    {
      attempted = attempted + cells;
      failed;
      correct = failed = 0;
      metrics = Ledger.metrics ledger ~untraced_s:(total /. float_of_int sweeps);
    }
  end

(* --- predict-cold ---------------------------------------------------------- *)

(* A closed loop with one caller over cold predictions.  Each round is a
   seeded order of every (workload x machine) pair below, each with its
   own drawn iteration count and transfer plan; the memo is emptied
   before every round and has no disk tier, so every lookup misses
   except where two machines share a GPU (argonne/section2b,
   desktop-maxwell/laptop-x4).  Whole rounds keep the operation mix, and
   so the percentiles, the same on every seed. *)
let pc_workloads = [ "hotspot/64 x 64"; "hotspot/512 x 512"; "vecadd/16M"; "cfd/97K" ]
let pc_machines = [ "argonne"; "section2b"; "gt200"; "desktop-maxwell"; "laptop-x4" ]
let nominal_round_s = 3.5

type scenario = {
  workload : string;
  machine_name : string;
  iterations : int;
  plan : Analyzer.plan_policy;
  config : Config.t;
}

let draw_rounds ~seed ~rounds =
  let rng = Random.State.make [| seed |] in
  let pairs = Array.of_list (List.concat_map (fun w -> List.map (fun m -> (w, m)) pc_machines) pc_workloads) in
  List.init rounds (fun _ ->
      let order = Array.copy pairs in
      U.shuffle rng order;
      Array.to_list
        (Array.map
           (fun (workload, machine_name) ->
             let iterations = Float.to_int (10. ** Random.State.float rng 3.) in
             let plan = if Random.State.bool rng then Analyzer.Conservative else Analyzer.Minimal in
             let config =
               resolve
                 {
                   Config.no_overrides with
                   o_machine = Some machine_name;
                   o_iterations = Some iterations;
                   o_transfer_plan = Some plan;
                 }
             in
             { workload; machine_name; iterations; plan; config = { config with lint = true } })
           order))

(* What `grophecy project` calls: calibrate a session, run through
   Project, print. *)
let predict (sc : scenario) =
  let session = Pipeline.session_of sc.config in
  match Pipeline.run ~through:Stage.Project ~session sc.config ~workload:sc.workload with
  | Ok st -> Some (render (Pipeline.projection_exn st))
  | Error _ -> None

(* [predict] one stage per call, under the ledger's spans. *)
let traced_predict ledger (sc : scenario) =
  Ledger.op ledger (fun () ->
      let session = Ledger.calibrate ledger sc.config in
      match Ledger.stages ledger ~session ~through:Stage.Project sc.config ~workload:sc.workload with
      | Ok st -> Some (render (Pipeline.projection_exn st))
      | Error _ -> None)

let cli_args (sc : scenario) ~refcache =
  [|
    "project"; sc.workload; "-m"; sc.machine_name; "-n"; string_of_int sc.iterations;
    "--transfer-plan"; Analyzer.plan_policy_name sc.plan; "--cache-dir"; refcache;
  |]

let references ~grophecy ~dir ~refcache ~corrupt scenarios =
  let refs =
    U.run_captured ~dir (List.map (fun sc -> (grophecy, cli_args sc ~refcache)) scenarios)
    |> List.map (function Unix.WEXITED 0, out -> Some out | _ -> None)
  in
  match refs with
  | Some r :: rest when corrupt -> Some ("corrupted reference\n" ^ r) :: rest
  | refs -> refs

let mismatches outputs refs =
  List.fold_left2
    (fun acc out r -> match (out, r) with Some o, Some r when o = r -> acc | _ -> acc + 1)
    0 outputs refs

let predict_cold ~grophecy ~dir ~refcache ~seed ~seconds ~trace ~corrupt =
  let rounds = max 1 (Float.to_int (Float.round (seconds /. nominal_round_s))) in
  let setup () =
    Control.set_enabled true;
    Control.set_disk_enabled false;
    let r = draw_rounds ~seed ~rounds in
    Memo.clear_all ();
    r
  in
  let st = setup_timer ~groups:rounds in
  let draws = setup_group st setup in
  let lat = ref [] and outputs = ref [] and elapsed = ref 0. and cpu = ref 0. in
  List.iteri
    (fun i round ->
      if i > 0 then ignore (setup_group st setup);
      let t0 = U.now_s () and c0 = U.cpu_s () in
      Memo.clear_all ();
      List.iter
        (fun sc ->
          let s0 = U.now_s () in
          let out = predict sc in
          lat := (U.now_s () -. s0) :: !lat;
          outputs := out :: !outputs)
        round;
      elapsed := !elapsed +. (U.now_s () -. t0);
      cpu := !cpu +. (U.cpu_s () -. c0))
    draws;
  let elapsed = !elapsed and cpu = !cpu in
  let rss = U.peak_rss_mb () in
  let scenarios = List.concat draws in
  let ops = List.length scenarios in
  let outputs = List.rev !outputs in
  (* Accuracy of this workload's pairs as bundled (outside the timed
     phase; the memo still holds the last round's simulations). *)
  let base = resolve Config.no_overrides in
  let batch =
    Batch.run ~machines:(List.map (machine base) pc_machines) ~jobs:1 base ~workloads:pc_workloads
  in
  let refs = references ~grophecy ~dir ~refcache ~corrupt scenarios in
  let failed = mismatches outputs refs in
  if not trace then
    {
      attempted = ops;
      failed;
      correct = failed = 0;
      metrics =
        [
          setup_metric st ~what:"draw/resolve/empty-memo";
          U.metric "throughput_per_s" "1/s" (float_of_int ops /. elapsed)
            ~note:(Printf.sprintf "predictions/s, %d rounds of %d" rounds (List.length (List.hd draws)));
        ]
        @ latency_metrics ~label:"per prediction" !lat
        @ [
            U.metric "cpu_ms_per_op" "ms" (cpu *. 1000. /. float_of_int ops) ~note:"per prediction";
            U.metric "peak_rss_mb" "MiB" rss ~note:"VmHWM";
            U.metric "speedup_error_pct" "%"
              (U.speedup_error_pct (Batch.to_tsv batch))
              ~note:"this workload's pairs, as bundled";
          ];
    }
  else begin
    let ledger = Ledger.create () in
    let traced_outputs = ref [] in
    let t0 = U.now_s () in
    Ledger.traced (fun () ->
        List.iter
          (fun round ->
            Memo.clear_all ();
            Ledger.with_memo ledger (fun () ->
                List.iter
                  (fun sc -> traced_outputs := traced_predict ledger sc :: !traced_outputs)
                  round))
          draws);
    ledger.wall <- U.now_s () -. t0;
    let failed = failed + mismatches (List.rev !traced_outputs) refs in
    (* The serve layer: the same kind of prediction asked of a
       `grophecy serve` child over HTTP, for half the measured time. *)
    let serve = Serve_mix.run ~grophecy ~dir ~refcache ~seed ~seconds:(seconds /. 2.) ~corrupt in
    let failed = failed + serve.failed in
    {
      attempted = (2 * ops) + serve.attempted;
      failed;
      correct = failed = 0 && serve.correct;
      metrics = Ledger.metrics ledger ~untraced_s:elapsed @ serve.layers;
    }
  end

(* --- main ---------------------------------------------------------------------- *)

let () =
  let workload = ref "" and seed = ref 0 and seconds = ref 20. and trace = ref 0 in
  let grophecy = ref "_build/default/bin/grophecy.exe" and golden = ref "test/golden/batch.expected.tsv" in
  let state = ref ".perfbench" and corrupt = ref false in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "eval-matrix|predict-cold");
      ("--seed", Arg.Set_int seed, "input seed");
      ("--seconds", Arg.Set_float seconds, "measured seconds (sizes the run)");
      ("--trace", Arg.Set_int trace, "0: end-to-end metrics; 1: per-layer ledger");
      ("--grophecy", Arg.Set_string grophecy, "the grophecy CLI (references, serve)");
      ("--golden", Arg.Set_string golden, "the committed batch golden TSV");
      ("--state", Arg.Set_string state, "scratch directory (reference cache, stores)");
      ("--corrupt-reference", Arg.Set corrupt, "self-test: corrupt one reference");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "perfbench.exe --workload NAME --seed N --seconds S --trace 0|1";
  Gpp_engine.Runtime.ignore_sigpipe ();
  let refcache = Filename.concat !state "refcache" in
  let dir = Filename.concat !state (Printf.sprintf "run-%d" (Unix.getpid ())) in
  U.mkdir_p dir;
  U.mkdir_p refcache;
  let trace = !trace = 1 and seconds = !seconds and seed = !seed and corrupt = !corrupt in
  let o =
    Fun.protect
      ~finally:(fun () -> U.rm_rf dir)
      (fun () ->
        match !workload with
        | "eval-matrix" -> eval_matrix ~golden:!golden ~seconds ~trace ~corrupt
        | "predict-cold" ->
            predict_cold ~grophecy:!grophecy ~dir ~refcache ~seed ~seconds ~trace ~corrupt
        | w -> failwith ("unknown workload " ^ w))
  in
  U.print_result ~workload:!workload ~correct:o.correct ~attempted:o.attempted ~failed:o.failed
    (canonical (if trace then per_layer else end_to_end) o.metrics)
