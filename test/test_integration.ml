(* End-to-end integration tests: the complete GROPHECY++ pipeline on
   hand-built skeletons, exercising every library together, plus the
   paper's headline claims. *)

module Ir = Gpp_skeleton.Ir
module Ix = Gpp_skeleton.Index_expr
module Decl = Gpp_skeleton.Decl
module Program = Gpp_skeleton.Program
module Grophecy = Gpp_core.Grophecy
module Evaluation = Gpp_core.Evaluation
module Analyzer = Gpp_dataflow.Analyzer

let machine = Gpp_arch.Machine.argonne_node

let session = lazy (Grophecy.init machine)

(* A hand-built matmul, as in examples/custom_workload.ml. *)
let matmul_program ~n =
  let arrays =
    [ Decl.dense "a" ~dims:[ n; n ]; Decl.dense "b" ~dims:[ n; n ]; Decl.dense "c" ~dims:[ n; n ] ]
  in
  let kernel =
    Ir.kernel "matmul"
      ~loops:
        [ Ir.loop "i" ~extent:n; Ir.loop "j" ~extent:n; Ir.loop ~parallel:false "k" ~extent:n ]
      ~body:
        [
          Ir.load "a" [ Ix.var "i"; Ix.var "k" ];
          Ir.load "b" [ Ix.var "k"; Ix.var "j" ];
          Ir.compute ~int_ops:1.0 2.0;
          Ir.branch ~divergent:false ~probability:(1.0 /. float_of_int n)
            [ Ir.load "c" [ Ix.var "i"; Ix.var "j" ]; Ir.store "c" [ Ix.var "i"; Ix.var "j" ] ];
        ]
  in
  Program.create ~name:"matmul" ~arrays ~kernels:[ kernel ] ~schedule:[ Program.Call "matmul" ] ()

let test_matmul_end_to_end () =
  let s = Lazy.force session in
  let n = 512 in
  let report = Helpers.check_core "analyze" (Helpers.analyze s (matmul_program ~n)) in
  (* Transfer plan: all three matrices in (c is read-modify-write), one
     out. *)
  let plan = report.Grophecy.projection.Gpp_core.Projection.plan in
  Alcotest.(check int) "uploads" (3 * 4 * n * n) (Analyzer.input_bytes plan);
  Alcotest.(check int) "downloads" (4 * n * n) (Analyzer.output_bytes plan);
  (* Matmul reuses each element n times: the GPU should win end to end
     (unlike vecadd), and by less than the kernel-only projection. *)
  let sp = report.Grophecy.speedups in
  Alcotest.(check bool) "GPU wins" true (sp.Evaluation.measured > 1.0);
  Alcotest.(check bool) "kernel-only optimistic" true
    (sp.Evaluation.kernel_only > sp.Evaluation.with_transfer)

let test_vecadd_paper_story () =
  (* Section II-B: bandwidth-bound vecadd wins on the kernel, loses end
     to end once three bus crossings are paid. *)
  let s = Lazy.force session in
  let report =
    Helpers.check_core "analyze" (Helpers.analyze s (Gpp_workloads.Vecadd.program ~n:(16 * 1024 * 1024)))
  in
  let sp = report.Grophecy.speedups in
  Alcotest.(check bool) "kernel alone looks great" true (sp.Evaluation.kernel_only > 2.0);
  Alcotest.(check bool) "end to end loses" true (sp.Evaluation.measured < 1.0);
  Alcotest.(check bool) "transfer-aware predicts the loss" true
    (sp.Evaluation.with_transfer < 1.0);
  (* Transfer volume is exactly three vectors. *)
  Alcotest.(check int) "three crossings" (3 * 4 * 16 * 1024 * 1024)
    (Analyzer.total_bytes report.Grophecy.projection.Gpp_core.Projection.plan)

let test_headline_error_reduction () =
  (* The paper's abstract: adding the transfer model reduces the average
     speedup-prediction error dramatically (255% -> 9% there).  Require
     a 5x reduction here, on a representative spread of workloads. *)
  let s = Lazy.force session in
  let reports =
    List.map
      (fun (inst : Gpp_workloads.Registry.instance) ->
        Helpers.check_core (Gpp_workloads.Registry.key inst)
          (Helpers.analyze s (inst.Gpp_workloads.Registry.program 1)))
      Gpp_workloads.Registry.paper_instances
  in
  let mean select = Gpp_util.Stats.mean (List.map select reports) in
  let kernel_only = mean (fun r -> r.Grophecy.errors.Evaluation.kernel_only) in
  let with_transfer = mean (fun r -> r.Grophecy.errors.Evaluation.with_transfer) in
  Alcotest.(check bool)
    (Printf.sprintf "5x error reduction (%.0f%% -> %.0f%%)" kernel_only with_transfer)
    true
    (kernel_only > 5.0 *. with_transfer);
  Helpers.check_in_range "combined error is small" ~lo:0.0 ~hi:30.0 with_transfer

let test_transfer_overhead_prediction_accuracy () =
  (* Abstract: "our model predicts the data transfer overhead with an
     error of only 8%".  Require better than 25% on every workload. *)
  let s = Lazy.force session in
  List.iter
    (fun (inst : Gpp_workloads.Registry.instance) ->
      let report =
        Helpers.check_core (Gpp_workloads.Registry.key inst)
          (Helpers.analyze s (inst.Gpp_workloads.Registry.program 1))
      in
      Helpers.check_in_range
        (Gpp_workloads.Registry.key inst ^ " transfer error")
        ~lo:0.0 ~hi:25.0 report.Grophecy.transfer_error)
    Gpp_workloads.Registry.paper_instances

let test_cross_machine_projection () =
  (* The same skeleton projected on a faster machine: the modern node's
     GPU and bus should both beat the 2008 testbed. *)
  let argonne = Lazy.force session in
  let modern = Grophecy.init Gpp_arch.Machine.modern_node in
  let program = Gpp_workloads.Srad.program ~n:1024 () in
  let r_old = Helpers.check_core "argonne" (Helpers.analyze argonne program) in
  let r_new = Helpers.check_core "modern" (Helpers.analyze modern program) in
  Alcotest.(check bool) "newer GPU faster" true
    (r_new.Grophecy.projection.Gpp_core.Projection.kernel_time
    < r_old.Grophecy.projection.Gpp_core.Projection.kernel_time);
  Alcotest.(check bool) "newer bus faster" true
    (r_new.Grophecy.projection.Gpp_core.Projection.transfer_time
    < r_old.Grophecy.projection.Gpp_core.Projection.transfer_time)

let test_reproducibility_across_sessions () =
  (* Two sessions with the same seed produce identical reports. *)
  let program = Gpp_workloads.Hotspot.program ~n:256 () in
  let r1 =
    Helpers.check_core "r1" (Helpers.analyze (Grophecy.init ~seed:123L machine) program)
  in
  let r2 =
    Helpers.check_core "r2" (Helpers.analyze (Grophecy.init ~seed:123L machine) program)
  in
  Helpers.close "kernel time reproducible"
    r1.Grophecy.measurement.Gpp_core.Measurement.kernel_time
    r2.Grophecy.measurement.Gpp_core.Measurement.kernel_time;
  Helpers.close "transfer time reproducible"
    r1.Grophecy.measurement.Gpp_core.Measurement.transfer_time
    r2.Grophecy.measurement.Gpp_core.Measurement.transfer_time;
  Helpers.close "speedup reproducible" r1.Grophecy.speedups.Evaluation.measured
    r2.Grophecy.speedups.Evaluation.measured

let test_different_seeds_differ () =
  let program = Gpp_workloads.Hotspot.program ~n:256 () in
  let r1 =
    Helpers.check_core "r1" (Helpers.analyze (Grophecy.init ~seed:1L machine) program)
  in
  let r2 =
    Helpers.check_core "r2" (Helpers.analyze (Grophecy.init ~seed:2L machine) program)
  in
  Alcotest.(check bool) "seeds change measurements" true
    (r1.Grophecy.measurement.Gpp_core.Measurement.kernel_time
    <> r2.Grophecy.measurement.Gpp_core.Measurement.kernel_time)

let () =
  Alcotest.run "integration"
    [
      ( "end-to-end",
        [
          Alcotest.test_case "matmul" `Quick test_matmul_end_to_end;
          Alcotest.test_case "vecadd story" `Quick test_vecadd_paper_story;
          Alcotest.test_case "cross-machine" `Quick test_cross_machine_projection;
        ] );
      ( "paper headlines",
        [
          Alcotest.test_case "error reduction" `Slow test_headline_error_reduction;
          Alcotest.test_case "transfer accuracy" `Slow test_transfer_overhead_prediction_accuracy;
        ] );
      ( "reproducibility",
        [
          Alcotest.test_case "same seed" `Quick test_reproducibility_across_sessions;
          Alcotest.test_case "different seeds" `Quick test_different_seeds_differ;
        ] );
    ]
