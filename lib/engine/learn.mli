(** Trainer for the [Learned] predictor stage.

    Builds the leave-one-workload-out training set the paper-style
    correction needs: every bundled Table I workload except [exclude]
    is projected analytically on the session's machine and "measured"
    on the simulated substrate (deterministically: kernel seeds derive
    from the session's noise seed, transfer ground truth is the link's
    noise-free expected time — no stateful RNG is advanced), and a
    ridge correction is fitted over the resulting (static features,
    measured/projected ratio) samples with the scenario's
    [predict_lambda].

    The engine's Predict stage calls this when the scenario's predictor
    includes [Learned] and attaches the result to the pipeline's
    pricing. *)

val measured_total :
  ?cache:bool ->
  ?sim_config:Gpp_gpusim.Gpu_sim.config ->
  ?runs:int ->
  session:Gpp_core.Grophecy.session ->
  Gpp_core.Projection.t ->
  (float, Error.t) result
(** The "measured" total a training sample is scored against: the
    projection's kernels simulated on the session's machine from its
    noise seed, plus the noise-free expected time of every planned
    transfer on its application link.  Advances no RNG state. *)

val correction :
  ?exclude:string ->
  config:Config.t ->
  session:Gpp_core.Grophecy.session ->
  unit ->
  (Gpp_predict.Correction.t, Error.t) result
(** [exclude] is the registry key of the workload being predicted
    (leave-one-out); [None] trains on the full set.  Failures are the
    usual pipeline errors, or {!Error.Config} when the training set is
    degenerate. *)
