type entry = { id : string; title : string; run : Context.t -> Output.t }

let paper =
  [
    {
      id = "fig2";
      title = "Transfer time for pinned and pageable memory";
      run = Fig_transfer_time.run;
    };
    { id = "fig3"; title = "Speedup of pinned over pageable transfers"; run = Fig_pinned_speedup.run };
    { id = "fig4"; title = "Error magnitude of the transfer model"; run = Fig_model_error.run };
    { id = "table1"; title = "Measured kernel/transfer times and sizes"; run = Table_measured.run };
    { id = "fig5"; title = "Predicted vs measured application transfers"; run = Fig_app_transfers.run };
    { id = "fig6"; title = "Transfer error vs kernel error"; run = Fig_error_scatter.run };
    { id = "fig7"; title = "CFD speedup across data sizes"; run = Fig_speedups.run_cfd };
    { id = "fig8"; title = "CFD speedup vs iteration count"; run = Fig_iterations.run_cfd };
    { id = "fig9"; title = "HotSpot speedup across data sizes"; run = Fig_speedups.run_hotspot };
    { id = "fig10"; title = "HotSpot speedup vs iteration count"; run = Fig_iterations.run_hotspot };
    { id = "fig11"; title = "SRAD speedup across data sizes"; run = Fig_speedups.run_srad };
    { id = "fig12"; title = "SRAD speedup vs iteration count"; run = Fig_iterations.run_srad };
    { id = "table2"; title = "Error in the predicted GPU speedup"; run = Table_speedup_error.run };
  ]

let ablations =
  [
    {
      id = "ablation-calibration-size";
      title = "Calibration-size sensitivity";
      run = Ablations.run_calibration_size;
    };
    {
      id = "ablation-regression";
      title = "Two-point calibration vs least squares";
      run = Ablations.run_regression;
    };
    { id = "ablation-batching"; title = "Per-array vs batched transfers"; run = Ablations.run_batching };
    {
      id = "ablation-memory-type";
      title = "Pinned vs pageable assumption";
      run = Ablations.run_memory_type;
    };
    {
      id = "ablation-sparse-policy";
      title = "Conservative vs exact sparse transfers";
      run = Ablations.run_sparse_policy;
    };
  ]

let extensions =
  [
    {
      id = "extension-memory-choice";
      title = "Pinned vs pageable with allocation overhead";
      run = Extensions.run_memory_choice;
    };
    {
      id = "extension-fusion";
      title = "Temporal kernel fusion for iterative stencils";
      run = Extensions.run_fusion;
    };
    {
      id = "extension-overlap";
      title = "Transfer/compute overlap bound";
      run = Extensions.run_overlap;
    };
    {
      id = "extension-hardware";
      title = "Projection across machine generations";
      run = Extensions.run_hardware;
    };
    {
      id = "extension-roofline";
      title = "Model vs simulator roofline sweep";
      run = Extensions.run_roofline;
    };
  ]

let all = paper @ ablations @ extensions

let find id = List.find_opt (fun e -> e.id = id) all

let ids () = List.map (fun e -> e.id) all

let listing = String.concat "" (List.map (fun e -> Printf.sprintf "%-26s %s\n" e.id e.title) all)

let select wanted =
  match List.find_opt (fun id -> find id = None) wanted with
  | Some id ->
      Error
        (Gpp_engine.Error.usage
           (Printf.sprintf "unknown experiment id %s (known: %s)" id (String.concat ", " (ids ()))))
  | None -> Ok (if wanted = [] then all else List.filter_map find wanted)

let run ?machine ?seed entries ~emit =
  let ( let* ) = Result.bind in
  let* ctx = Gpp_obs.Obs.span "experiment.context" (Context.create ?machine ?seed) in
  List.iter
    (fun e ->
      let out = Gpp_obs.Obs.span ("experiment." ^ e.id) (fun () -> e.run ctx) in
      emit (Output.render out ^ "\n"))
    entries;
  Ok ctx
