module Grophecy = Gpp_core.Grophecy
module Projection = Gpp_core.Projection
module Measurement = Gpp_core.Measurement
module Analyzer = Gpp_dataflow.Analyzer
module Registry = Gpp_workloads.Registry
module Obs = Gpp_obs.Obs

type state = {
  config : Config.t;
  workload : string;
  instance : Registry.instance option;
  program : Gpp_skeleton.Program.t option;
  lint_report : Gpp_analysis.Driver.report option;
  plan : Analyzer.plan option;
  kernels : Projection.kernel_projection list option;
  measurement : Measurement.t option;
  pricing : Gpp_predict.Pricing.t option;
  projection : Projection.t option;
  report : Grophecy.report option;
}

type stage = {
  id : Stage.id;
  run : session:Grophecy.session -> state -> (state, Error.t) result;
}

let init config ~workload =
  {
    config;
    workload;
    instance = None;
    program = None;
    lint_report = None;
    plan = None;
    kernels = None;
    measurement = None;
    pricing = None;
    projection = None;
    report = None;
  }

let session_of (c : Config.t) =
  Grophecy.init ~seed:c.seed ~outlier_probability:c.outlier_probability ?protocol:c.protocol
    ~predictor:c.predictor c.machine

(* Stages consume only fields earlier stages filled in; a [None] there
   means the runner was asked to start mid-pipeline, which is a
   programming error, not a scenario failure. *)
let required stage = function
  | Some v -> v
  | None -> invalid_arg (Printf.sprintf "Pipeline: stage %s ran before its inputs" stage)

let rescale (config : Config.t) program =
  match config.iterations with
  | Some n -> Gpp_skeleton.Program.with_iterations program n
  | None -> program

let run_parse ~session:_ state =
  Obs.span "parse" @@ fun () ->
  match Workload.resolve state.workload with
  | Error e -> Error e
  | Ok inst ->
      let program = rescale state.config (inst.Registry.program 1) in
      Ok { state with instance = Some inst; program = Some program }

(* Static analysis: surface warnings and errors on stderr before a
   projection, so an ill-formed-but-valid skeleton never projects
   silently (infos stay quiet here; `grophecy lint` prints the full
   report).  Never fails — strict gating belongs to the lint command. *)
let run_lint ~session:_ state =
  if not state.config.Config.lint then Ok state
  else
    Obs.span "analysis.lint" @@ fun () ->
    let program = required "lint" state.program in
    let report =
      Gpp_analysis.Driver.run ~gpu:state.config.Config.machine.Gpp_arch.Machine.gpu program
    in
    List.iter
      (fun (d : Gpp_analysis.Diagnostic.t) ->
        if d.severity <> Gpp_analysis.Diagnostic.Info then
          Format.eprintf "%s: %a@." report.Gpp_analysis.Driver.program_name
            Gpp_analysis.Diagnostic.pp d)
      report.Gpp_analysis.Driver.diagnostics;
    Ok { state with lint_report = Some report }

let run_analyze ~session:_ state =
  Obs.span "engine.analyze" @@ fun () ->
  let program = required "analyze" state.program in
  Ok { state with plan = Some (Analyzer.analyze ?policy:state.config.Config.policy program) }

let run_explore ~session:_ state =
  Obs.span "engine.explore" @@ fun () ->
  let program = required "explore" state.program in
  let c = state.config in
  match
    Projection.explore ?cache:c.Config.use_cache ?analytic_params:c.Config.analytic
      ?space:c.Config.space ~machine:c.Config.machine program
  with
  | Error e -> Error e
  | Ok kernels -> Ok { state with kernels = Some kernels }

let run_simulate ~session state =
  Obs.span "engine.simulate" @@ fun () ->
  let program = required "simulate" state.program in
  let kernels = required "simulate" state.kernels in
  let plan = required "simulate" state.plan in
  let c = state.config in
  match
    Measurement.measure_parts ?cache:c.Config.use_cache ?sim_config:c.Config.sim
      ?runs:c.Config.runs ~seed:session.Grophecy.noise_seed
      ~link:session.Grophecy.application_link ~machine:c.Config.machine ~kernels ~plan program
  with
  | Error e -> Error e
  | Ok measurement -> Ok { state with measurement = Some measurement }

(* Build the predictor stack's pricing for this run.  The session
   already carries the scenario predictor's scaled (here: identity,
   source = target) models; the only work left is training the Learned
   stage's correction — leave-one-workload-out against the workload
   under prediction. *)
let run_predict ~session state =
  Obs.span "engine.predict" @@ fun () ->
  let base = session.Grophecy.pricing in
  if not (Gpp_predict.Predictor.has_learned state.config.Config.predictor) then
    Ok { state with pricing = Some base }
  else
    let exclude =
      match state.instance with
      | Some inst -> Some (Registry.key inst)
      | None -> Some state.workload
    in
    match Learn.correction ?exclude ~config:state.config ~session () with
    | Error e -> Error e
    | Ok correction ->
        Ok { state with pricing = Some (Gpp_predict.Pricing.with_correction base correction) }

let run_project ~session:_ state =
  Obs.span "engine.project" @@ fun () ->
  let program = required "project" state.program in
  let kernels = required "project" state.kernels in
  let plan = required "project" state.plan in
  let pricing = required "project" state.pricing in
  let projection = Projection.assemble ~pricing ~kernels ~plan program in
  Ok { state with projection = Some projection }

let run_evaluate ~session:_ state =
  Obs.span "engine.evaluate" @@ fun () ->
  let program = required "evaluate" state.program in
  let projection = required "evaluate" state.projection in
  let measurement = required "evaluate" state.measurement in
  let report =
    Grophecy.evaluate ?cpu_params:state.config.Config.cpu ~machine:state.config.Config.machine
      ~projection ~measurement program
  in
  Ok { state with report = Some report }

let stages =
  [
    { id = Stage.Parse; run = run_parse };
    { id = Stage.Lint; run = run_lint };
    { id = Stage.Analyze; run = run_analyze };
    { id = Stage.Explore; run = run_explore };
    { id = Stage.Simulate; run = run_simulate };
    { id = Stage.Predict; run = run_predict };
    { id = Stage.Project; run = run_project };
    { id = Stage.Evaluate; run = run_evaluate };
  ]

let completed state =
  List.filter
    (fun id ->
      match (id : Stage.id) with
      | Stage.Parse -> state.program <> None
      | Stage.Lint -> state.lint_report <> None
      | Stage.Analyze -> state.plan <> None
      | Stage.Explore -> state.kernels <> None
      | Stage.Simulate -> state.measurement <> None
      | Stage.Predict -> state.pricing <> None
      | Stage.Project -> state.projection <> None
      | Stage.Evaluate -> state.report <> None)
    Stage.all

let run ?(through = Stage.Evaluate) ~session config ~workload =
  let limit = Stage.index through in
  List.fold_left
    (fun acc stage ->
      match acc with
      | Error _ -> acc
      | Ok state -> if Stage.index stage.id > limit then acc else stage.run ~session state)
    (Ok (init config ~workload))
    stages

(* Continue a partially run state: stages whose output is already
   present are skipped, the rest run in order.  This is how the batch
   runner finishes a cell whose Simulate output was assembled out of
   band (parallel kernel simulation + serial transfer pricing). *)
let resume ?(through = Stage.Evaluate) ~session state =
  let limit = Stage.index through in
  let done_ = completed state in
  List.fold_left
    (fun acc stage ->
      match acc with
      | Error _ -> acc
      | Ok state ->
          if Stage.index stage.id > limit || List.mem stage.id done_ then acc
          else stage.run ~session state)
    (Ok state) stages

let report_exn state =
  match state.report with
  | Some r -> r
  | None -> invalid_arg "Pipeline.report_exn: the Evaluate stage has not run"

let projection_exn state =
  match state.projection with
  | Some p -> p
  | None -> invalid_arg "Pipeline.projection_exn: the Project stage has not run"

let program_exn state =
  match state.program with
  | Some p -> p
  | None -> invalid_arg "Pipeline.program_exn: the Parse stage has not run"

(* A caller-built program stands in for the Parse stage: validated the
   way the skeleton parser validates a file, rescaled the same way, and
   named by the program itself (which is also what the Learned stage
   leaves out of its training set). *)
let analyze_program ~session config (program : Gpp_skeleton.Program.t) =
  match Gpp_skeleton.Program.validate program with
  | Error m -> Error (Error.parse ~source:program.name m)
  | Ok () ->
      let state =
        { (init config ~workload:program.name) with program = Some (rescale config program) }
      in
      Result.map report_exn (resume ~session state)
