(* Quickstart: the paper's vector-addition argument (Section II-B).

   Vector addition is extremely data parallel and bandwidth bound, so
   comparing memory bandwidths suggests the GPU should win by the DRAM
   bandwidth ratio.  But both inputs must cross the PCIe bus, and the
   result must come back — and the bus is an order of magnitude slower
   than either memory system.  GROPHECY++ makes both halves of that
   argument quantitative from the code skeleton alone.

   Run with:  dune exec examples/quickstart.exe *)

let () =
  (* The machine of the paper's Section II-B example: Xeon E5645 and
     Quadro FX 5600, whose memory bandwidths (32 vs 77 GB/s) suggest a
     ~2.4x kernel win for the GPU. *)
  let machine = Gpp_arch.Machine.section2b_node in
  Format.printf "target machine:@.  %a@.@." Gpp_arch.Machine.pp machine;

  (* Step 1: the framework calibrates its PCIe model automatically from
     two measurements on the (simulated) machine. *)
  let config = { Gpp_engine.Config.default with machine } in
  let session = Gpp_engine.Pipeline.session_of config in
  Format.printf "calibrated transfer models:@.  %a@.  %a@.@." Gpp_pcie.Model.pp
    session.Gpp_core.Grophecy.h2d Gpp_pcie.Model.pp session.Gpp_core.Grophecy.d2h;

  (* Step 2: describe the computation as a code skeleton and analyze. *)
  let n = 16 * 1024 * 1024 in
  let program = Gpp_workloads.Vecadd.program ~n in
  (match Gpp_engine.Pipeline.analyze_program ~session config program with
  | Error e -> failwith (Gpp_engine.Error.to_string e)
  | Ok report ->
      let ms t = Gpp_util.Units.ms_of_seconds t in
      Format.printf "adding two vectors of %d floats:@." n;
      Format.printf "  CPU time:                     %7.2f ms@." (ms report.cpu_time);
      Format.printf "  GPU kernel time (predicted):  %7.2f ms@."
        (ms report.projection.Gpp_core.Projection.kernel_time);
      Format.printf "  data transfer time (predicted): %5.2f ms  (two vectors in, one out)@."
        (ms report.projection.Gpp_core.Projection.transfer_time);
      Format.printf "  kernel-only speedup:          %7.2fx  <- the naive argument (paper: ~2.4x)@."
        report.speedups.Gpp_core.Evaluation.kernel_only;
      Format.printf
        "  end-to-end speedup:           %7.2fx  <- the real outcome (paper: ~0.1x)@.@."
        report.speedups.Gpp_core.Evaluation.with_transfer;
      if report.speedups.Gpp_core.Evaluation.with_transfer < 1.0 then
        Format.printf
          "the kernel alone is faster on the GPU, but moving the data costs more than@.\
           it saves: porting vector addition would make the program slower overall.@.");

  (* Step 3: the skeleton corresponds to real code — run the reference
     implementation to show what was being modeled. *)
  let a = Array.init 8 float_of_int in
  let b = Array.init 8 (fun i -> float_of_int (10 * i)) in
  let c = Gpp_workloads.Vecadd.Reference.run a b in
  Format.printf "@.reference check: c.(3) = %g (expected 33)@." c.(3)
