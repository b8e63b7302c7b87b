module Grophecy = Gpp_core.Grophecy
module Projection = Gpp_core.Projection
module Measurement = Gpp_core.Measurement
module Analyzer = Gpp_dataflow.Analyzer
module Registry = Gpp_workloads.Registry
module Link = Gpp_pcie.Link
module Correction = Gpp_predict.Correction
module Obs = Gpp_obs.Obs

(* Trainer for the Learned predictor stage.

   For every bundled Table I workload except the one under prediction
   (leave-one-workload-out), project it analytically on the session's
   machine, "measure" it on the simulated substrate, and collect one
   (feature vector, measured/projected ratio) sample; the ridge fit
   over those samples is the correction the Predict stage attaches to
   the pipeline's pricing.

   Determinism: kernel measurement draws from a fresh RNG seeded with
   the session's noise seed (the Simulate stage's seed), and transfer
   ground truth is the link's noise-free expected time — no stateful
   link RNG is advanced, so training neither perturbs the measurement
   stream the goldens depend on nor depends on call order.  Training on
   a worker domain is safe. *)

let measured_total ?cache ?sim_config ?runs ~(session : Grophecy.session) (p : Projection.t) =
  let ( let* ) = Result.bind in
  let machine = session.Grophecy.machine in
  let* _kernel_measurements, kernel_time =
    Measurement.measure_kernels ?cache ?sim_config ?runs ~seed:session.Grophecy.noise_seed ~machine
      ~kernels:p.Projection.kernels p.Projection.program
  in
  let memory = Link.memory_of_staging machine.Gpp_arch.Machine.staging in
  let transfer_time =
    List.fold_left
      (fun acc (tm : Measurement.transfer_measurement) -> acc +. tm.Measurement.time)
      0.0
      (Measurement.expected_transfers ~memory ~link:session.Grophecy.application_link
         p.Projection.plan)
  in
  Ok (kernel_time +. transfer_time)

let sample (config : Config.t) (session : Grophecy.session) (instance : Registry.instance) =
  let ( let* ) = Result.bind in
  let machine = session.Grophecy.machine in
  let program = instance.Registry.program 1 in
  let* kernels =
    Projection.explore ?cache:config.Config.use_cache ?analytic_params:config.Config.analytic
      ?space:config.Config.space ~machine program
  in
  let plan = Analyzer.analyze ?policy:config.Config.policy program in
  let projection = Projection.assemble ~pricing:session.Grophecy.pricing ~kernels ~plan program in
  let* measured =
    measured_total ?cache:config.Config.use_cache ?sim_config:config.Config.sim
      ?runs:config.Config.runs ~session projection
  in
  if projection.Projection.total_time <= 0.0 then
    Error (Error.config "learned predictor: non-positive projected total in training set")
  else
    Ok
      ( Projection.features ~source:machine ~target:machine projection,
        measured /. projection.Projection.total_time )

let correction ?exclude ~(config : Config.t) ~(session : Grophecy.session) () =
  Obs.span "engine.learn" @@ fun () ->
  let ( let* ) = Result.bind in
  let instances =
    List.filter
      (fun inst ->
        match exclude with Some key -> not (String.equal (Registry.key inst) key) | None -> true)
      Registry.paper_instances
  in
  let* samples =
    List.fold_left
      (fun acc inst ->
        let* acc = acc in
        let* s = sample config session inst in
        Ok (s :: acc))
      (Ok []) instances
  in
  match Correction.fit ~lambda:config.Config.predict_lambda (List.rev samples) with
  | Ok c -> Ok c
  | Error m -> Error (Error.config (Printf.sprintf "learned predictor: %s" m))
