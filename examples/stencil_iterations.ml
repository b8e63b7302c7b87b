(* Iterative stencils: when does the GPU start paying off?

   HotSpot transfers a fixed amount of data no matter how many time
   steps it runs (inputs before the first step, the result after the
   last), so the transfer overhead amortizes as iterations grow.  This
   example sweeps the iteration count, finds the break-even point where
   the GPU overtakes the CPU, and shows how badly a kernel-only
   projection misjudges short runs — the story of the paper's
   Figure 10.

   Run with:  dune exec examples/stencil_iterations.exe *)

let () =
  let machine = Gpp_arch.Machine.argonne_node in
  let config = { Gpp_engine.Config.default with machine } in
  let session = Gpp_engine.Pipeline.session_of config in
  let n = 1024 in
  let program = Gpp_workloads.Hotspot.program ~n () in
  let report =
    match Gpp_engine.Pipeline.analyze_program ~session config program with
    | Ok r -> r
    | Error e -> failwith (Gpp_engine.Error.to_string e)
  in
  Format.printf "HotSpot %dx%d on %s@.@." n n machine.Gpp_arch.Machine.name;
  Format.printf "fixed transfer cost: %a (in: temperature + power, out: temperature)@.@."
    Gpp_util.Units.pp_time report.measurement.Gpp_core.Measurement.transfer_time;
  Format.printf "%10s %12s %22s %18s@." "iterations" "measured" "pred (kern+transfer)"
    "pred (kernel only)";
  let sweep =
    Gpp_core.Grophecy.iteration_sweep report
      ~iterations:[ 1; 2; 5; 10; 20; 50; 100; 200; 500 ]
  in
  List.iter
    (fun (p : Gpp_core.Evaluation.iteration_point) ->
      let s = p.Gpp_core.Evaluation.speedups in
      Format.printf "%10d %11.2fx %21.2fx %17.2fx@." p.Gpp_core.Evaluation.iterations
        s.Gpp_core.Evaluation.measured s.Gpp_core.Evaluation.with_transfer
        s.Gpp_core.Evaluation.kernel_only)
    sweep;
  (* Break-even: the smallest iteration count with measured speedup > 1. *)
  let rec break_even n =
    if n > 10_000 then None
    else
      let point = List.hd (Gpp_core.Grophecy.iteration_sweep report ~iterations:[ n ]) in
      if point.Gpp_core.Evaluation.speedups.Gpp_core.Evaluation.measured > 1.0 then Some n
      else break_even (n + 1)
  in
  (match break_even 1 with
  | Some 1 -> Format.printf "@.the GPU wins already at a single iteration.@."
  | Some n -> Format.printf "@.the GPU overtakes the CPU after %d iterations.@." n
  | None -> Format.printf "@.the GPU never overtakes the CPU on this workload.@.");
  let limit =
    Gpp_core.Evaluation.limit_speedups report.projection report.measurement
  in
  Format.printf
    "as iterations -> infinity, transfers amortize away and the speedup approaches %.2fx;@.\
     both prediction variants converge there (predicted %.2fx).@.@."
    limit.Gpp_core.Evaluation.measured limit.Gpp_core.Evaluation.with_transfer;

  (* The skeleton models real code: run the reference stencil briefly
     and confirm it behaves like a diffusion (hot spot spreads, peak
     temperature drops). *)
  let module R = Gpp_workloads.Hotspot.Reference in
  let small = 64 in
  let temp =
    R.grid_of ~n:small (fun ~row ~col -> if row = small / 2 && col = small / 2 then 200.0 else 80.0)
  in
  let power = R.grid_of ~n:small (fun ~row:_ ~col:_ -> 0.0) in
  let after = R.simulate ~temp ~power ~iterations:50 in
  let peak g = Array.fold_left Float.max neg_infinity g.R.cells in
  Format.printf "reference check (%dx%d, 50 steps): peak temperature %.1f -> %.1f@." small small
    (peak temp) (peak after)
