(* Should this sparse solver kernel be ported?  The Stassuij story.

   Stassuij (the core of Green's Function Monte Carlo) multiplies a
   small sparse real matrix with a large dense complex matrix.  Judged
   by kernel time alone the GPU looks mildly attractive; judged end to
   end, moving the dense matrices across the bus turns the port into a
   slowdown.  GROPHECY++ catches this *before* anyone writes CUDA code
   (paper Section V-B.4).

   Run with:  dune exec examples/sparse_offload.exe *)

let () =
  let machine = Gpp_arch.Machine.argonne_node in
  let config = { Gpp_engine.Config.default with machine } in
  let session = Gpp_engine.Pipeline.session_of config in
  let program = Gpp_workloads.Stassuij.program () in
  let report =
    match Gpp_engine.Pipeline.analyze_program ~session config program with
    | Ok r -> r
    | Error e -> failwith (Gpp_engine.Error.to_string e)
  in
  Format.printf "Stassuij: 132x132 sparse (CSR) x 132x2048 dense complex@.@.";
  Format.printf "what the data usage analyzer decided to transfer:@.%a@.@."
    Gpp_dataflow.Analyzer.pp_plan report.projection.Gpp_core.Projection.plan;
  let s = report.speedups in
  Format.printf "kernel-only projection:    %.2fx  -> \"port it\"@."
    s.Gpp_core.Evaluation.kernel_only;
  Format.printf "transfer-aware projection: %.2fx  -> \"do not port it\"@."
    s.Gpp_core.Evaluation.with_transfer;
  Format.printf "measured outcome:          %.2fx  -> the transfer-aware call was right@.@."
    s.Gpp_core.Evaluation.measured;
  Format.printf
    "(paper: 1.10x predicted from the kernel alone, 0.39x actual, 0.38x predicted@.\
    \ once the transfer model is included)@.@.";

  (* The computation itself, verified: sparse-times-dense agrees with a
     naive dense reference. *)
  let module R = Gpp_workloads.Stassuij.Reference in
  let a = R.random_csr ~rows:132 ~cols:132 ~density:0.1 () in
  let x = R.random_complex ~rows:132 ~cols:64 () in
  let fast = R.multiply a x in
  let slow = R.dense_multiply a x in
  Format.printf "reference check: CSR multiply vs dense multiply differ by %.2e (should be ~0)@."
    (R.max_abs_diff fast slow);
  let nnz = Array.length a.R.values in
  Format.printf "sparse operator: %d stored entries of %d slots (%.1f%% dense)@." nnz (132 * 132)
    (100.0 *. float_of_int nnz /. float_of_int (132 * 132))
