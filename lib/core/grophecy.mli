(** GROPHECY++ sessions and reports.

    A {!session} bundles a machine description with its simulated PCIe
    link and the transfer-time models calibrated on it — mirroring how
    the real framework automatically benchmarks each new system it runs
    on (§III-C).  A {!report} is the complete prediction +
    "measurement" + error record the paper's evaluation is built from;
    the engine's staged pipeline ([Gpp_engine.Pipeline]) produces one
    for any program skeleton, finishing with {!evaluate}. *)

type session = {
  machine : Gpp_arch.Machine.t;
  calibration_link : Gpp_pcie.Link.t;
      (** Clean link used by the synthetic calibration benchmark. *)
  application_link : Gpp_pcie.Link.t;
      (** Link used for application transfer measurements; constructed
          with rare slow-transfer outliers enabled, reflecting the
          production-machine variability of §V-A. *)
  h2d : Gpp_pcie.Model.t;  (** Calibrated pinned host-to-device model. *)
  d2h : Gpp_pcie.Model.t;  (** Calibrated pinned device-to-host model. *)
  predictor : Gpp_predict.Predictor.t;
      (** The predictor stack this session prices through. *)
  pricing : Gpp_predict.Pricing.t;
      (** Same-machine pricing over the calibrated pair.  The Scaled
          stage is the identity here; Learned corrections are trained
          and attached by the engine's Predict stage. *)
  noise_seed : int64;
      (** Seed from which per-analysis measurement noise derives, so a
          session is reproducible end to end. *)
}

val init :
  ?seed:int64 ->
  ?outlier_probability:float ->
  ?protocol:Gpp_pcie.Calibrate.protocol ->
  ?predictor:Gpp_predict.Predictor.t ->
  Gpp_arch.Machine.t ->
  session
(** Build the link simulators and run the two-point calibration.
    [outlier_probability] (default 0.05) only affects the application
    link; [predictor] defaults to {!Gpp_predict.Predictor.analytic},
    under which the session is bit-identical to the historical one. *)

type report = {
  program : Gpp_skeleton.Program.t;
  projection : Projection.t;
  measurement : Measurement.t;
  cpu_time : float;
  speedups : Evaluation.speedups;
  errors : Evaluation.errors;
  kernel_error : float;  (** Error magnitude of total kernel time. *)
  transfer_error : float;  (** Error magnitude of total transfer time. *)
}

val evaluate :
  ?cpu_params:Gpp_cpu.Timing.params ->
  machine:Gpp_arch.Machine.t ->
  projection:Projection.t ->
  measurement:Measurement.t ->
  Gpp_skeleton.Program.t ->
  report
(** The Evaluate stage alone: derive CPU time, speedups, and error
    magnitudes from an existing projection/measurement pair.  Pure. *)

val log_cache_stats : unit -> unit
(** Emit one [info]-level line per projection-cache memo table (hits,
    misses, evictions, entries, bytes) on the [gpp.core] log source. *)

val iteration_sweep :
  ?cpu_params:Gpp_cpu.Timing.params ->
  report ->
  iterations:int list ->
  Evaluation.iteration_point list
(** Re-derive speedups across iteration counts from an existing report
    (no re-simulation needed; see {!Evaluation.iteration_sweep}). *)

val pp_report : Format.formatter -> report -> unit
