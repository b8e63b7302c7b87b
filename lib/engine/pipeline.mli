(** The staged prediction pipeline, with each stage an inspectable value.

    {v Parse → Lint → Analyze → Explore → Simulate → Predict → Project
       → Evaluate v}

    Each stage reads a resolved {!Config.t} scenario plus the fields
    earlier stages filled in, and either extends the {!state} or fails
    with a structured {!Error.t}.  The stage list is a plain value
    ({!stages}), so tools can enumerate, describe, or partially run the
    pipeline ({!run} with [?through]).  {!analyze_program} runs the
    same stages on a program built in code instead of a workload name.

    This is the one path from skeleton to report: the CLI, the batch
    runner, the serve API, the experiments and the examples all go
    through it. *)

type state = {
  config : Config.t;
  workload : string;  (** The workload spelling being resolved. *)
  instance : Gpp_workloads.Registry.instance option;
  program : Gpp_skeleton.Program.t option;
  lint_report : Gpp_analysis.Driver.report option;
  plan : Gpp_dataflow.Analyzer.plan option;
  kernels : Gpp_core.Projection.kernel_projection list option;
  measurement : Gpp_core.Measurement.t option;
  pricing : Gpp_predict.Pricing.t option;
      (** The Predict stage's output: the session's (possibly scaled)
          transfer pricing, with a trained correction attached when the
          scenario's predictor includes [Learned]. *)
  projection : Gpp_core.Projection.t option;
  report : Gpp_core.Grophecy.report option;
}
(** Accumulated stage outputs; [None] = stage not run yet. *)

type stage = {
  id : Stage.id;
  run : session:Gpp_core.Grophecy.session -> state -> (state, Error.t) result;
}

val stages : stage list
(** All eight stages in pipeline order. *)

val init : Config.t -> workload:string -> state
(** Fresh state with every output empty. *)

val session_of : Config.t -> Gpp_core.Grophecy.session
(** Calibrate a session for the scenario's machine, seed, outlier
    probability, and protocol.  Runs the PCIe calibration benchmark. *)

val run :
  ?through:Stage.id ->
  session:Gpp_core.Grophecy.session ->
  Config.t ->
  workload:string ->
  (state, Error.t) result
(** Run stages in order up to and including [through] (default
    {!Stage.Evaluate}), stopping at the first error.  The Lint stage is
    a no-op unless [config.lint] is set. *)

val resume :
  ?through:Stage.id ->
  session:Gpp_core.Grophecy.session ->
  state ->
  (state, Error.t) result
(** Continue a partially run [state] up to and including [through]:
    stages whose output is already present ({!completed}) are skipped,
    the remaining ones run in pipeline order.  Used by the batch runner
    to finish cells whose Simulate output was assembled out of band. *)

val analyze_program :
  session:Gpp_core.Grophecy.session ->
  Config.t ->
  Gpp_skeleton.Program.t ->
  (Gpp_core.Grophecy.report, Error.t) result
(** Run every stage after Parse on a caller-built program and return
    the report.  The program takes the Parse stage's place: it is
    validated (an invalid one is an {!Error.Parse} naming the program)
    and rescaled to [config.iterations] when set.  The scenario comes
    from [config], whose machine must be the session's. *)

val completed : state -> Stage.id list
(** Which stages have produced their output (Lint counts only when it
    actually ran). *)

val report_exn : state -> Gpp_core.Grophecy.report
(** @raise Invalid_argument if Evaluate has not run. *)

val projection_exn : state -> Gpp_core.Projection.t
(** @raise Invalid_argument if Project has not run. *)

val program_exn : state -> Gpp_skeleton.Program.t
(** @raise Invalid_argument if Parse has not run. *)
