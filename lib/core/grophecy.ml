module Link = Gpp_pcie.Link
module Calibrate = Gpp_pcie.Calibrate

let log_src = Logs.Src.create "gpp.core" ~doc:"GROPHECY++ pipeline"

module Log = (val Logs.src_log log_src)

type session = {
  machine : Gpp_arch.Machine.t;
  calibration_link : Link.t;
  application_link : Link.t;
  h2d : Gpp_pcie.Model.t;
  d2h : Gpp_pcie.Model.t;
  predictor : Gpp_predict.Predictor.t;
  pricing : Gpp_predict.Pricing.t;
  noise_seed : int64;
}

let init ?(seed = 0x1B0A_2013_6CA1_55AAL) ?(outlier_probability = 0.05) ?protocol
    ?(predictor = Gpp_predict.Predictor.analytic) machine =
  let base_config = Link.default_config machine in
  let calibration_link = Link.create ~seed base_config in
  let application_link =
    Link.create ~seed:(Int64.add seed 1L) { base_config with outlier_probability }
  in
  (* Calibrate for the machine's default staging mode: the legacy
     presets all stage pinned (the paper's assumption, §III-C), so their
     sessions are bit-identical to the historical pinned pair. *)
  let h2d, d2h =
    Gpp_obs.Obs.span "pcie.calibrate" @@ fun () ->
    Calibrate.calibrate_pair ?protocol calibration_link
      (Link.memory_of_staging machine.Gpp_arch.Machine.staging)
  in
  Log.info (fun m ->
      m "calibrated %s: %a / %a" machine.Gpp_arch.Machine.name Gpp_pcie.Model.pp h2d
        Gpp_pcie.Model.pp d2h);
  (* Same-machine pricing: the Scaled stage is the identity here, so
     the models inside are the calibrated pair bit for bit whatever the
     predictor.  Learned corrections are trained and attached by the
     engine's Predict stage, not at session construction. *)
  let pricing =
    Gpp_predict.Pricing.make ~predictor ~source:machine ~target:machine ~h2d ~d2h ()
  in
  {
    machine;
    calibration_link;
    application_link;
    h2d;
    d2h;
    predictor;
    pricing;
    noise_seed = Int64.add seed 2L;
  }

type report = {
  program : Gpp_skeleton.Program.t;
  projection : Projection.t;
  measurement : Measurement.t;
  cpu_time : float;
  speedups : Evaluation.speedups;
  errors : Evaluation.errors;
  kernel_error : float;
  transfer_error : float;
}

let log_cache_stats () =
  List.iter
    (fun s -> Log.info (fun m -> m "cache %a" Gpp_cache.Memo.pp_snapshot s))
    (Gpp_cache.Memo.snapshots ())

let evaluate ?cpu_params ~machine ~projection ~measurement program =
  let cpu_time = Evaluation.cpu_time ?params:cpu_params ~machine program in
  let speedups = Evaluation.speedups ~cpu_time projection measurement in
  {
    program;
    projection;
    measurement;
    cpu_time;
    speedups;
    errors = Evaluation.errors speedups;
    kernel_error = Evaluation.kernel_error projection measurement;
    transfer_error = Evaluation.transfer_error projection measurement;
  }

let iteration_sweep ?cpu_params report ~iterations =
  Evaluation.iteration_sweep ?params:cpu_params report.projection report.measurement ~iterations

let pp_report ppf r =
  Format.fprintf ppf "@[<v>%a@,%a@,cpu time: %a@,%a@,errors: kernel %.1f%%, transfer %.1f%%@]"
    Projection.pp r.projection Measurement.pp r.measurement Gpp_util.Units.pp_time r.cpu_time
    Evaluation.pp_speedups r.speedups r.kernel_error r.transfer_error
