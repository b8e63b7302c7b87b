(* Tests for Gpp_core: projection, measurement, evaluation, and the
   Grophecy sessions and reports. *)

module Projection = Gpp_core.Projection
module Measurement = Gpp_core.Measurement
module Evaluation = Gpp_core.Evaluation
module Grophecy = Gpp_core.Grophecy
module Analyzer = Gpp_dataflow.Analyzer

let machine = Gpp_arch.Machine.argonne_node

let session = lazy (Grophecy.init machine)

let project program =
  let s = Lazy.force session in
  Helpers.check_core "projection"
    (Projection.project ~pricing:s.Grophecy.pricing program)

(* Measure a finished projection's chosen kernels and planned
   transfers. *)
let measure ?seed ~link (p : Projection.t) =
  Measurement.measure_parts ?seed ~link ~machine:p.Projection.machine
    ~kernels:p.Projection.kernels ~plan:p.Projection.plan p.Projection.program

let test_projection_structure () =
  let program = Helpers.chain_program ~n:(1 lsl 16) () in
  let p = project program in
  Alcotest.(check int) "one projection per kernel" 2 (List.length p.Projection.kernels);
  Helpers.check_positive "kernel time" p.Projection.kernel_time;
  Helpers.check_positive "transfer time" p.Projection.transfer_time;
  Helpers.close ~tolerance:1e-12 "total = kernel + transfer"
    (p.Projection.kernel_time +. p.Projection.transfer_time)
    p.Projection.total_time;
  (* Transfers priced positively, one per planned transfer. *)
  Alcotest.(check int) "priced transfers"
    (List.length (Analyzer.transfers p.Projection.plan))
    (List.length p.Projection.transfers);
  List.iter
    (fun (pt : Projection.priced_transfer) -> Helpers.check_positive "priced" pt.Projection.time)
    p.Projection.transfers

let test_projection_schedule_multiplicity () =
  let p1 = project (Gpp_workloads.Srad.program ~iterations:1 ~n:256 ()) in
  let p3 = project (Gpp_workloads.Srad.program ~iterations:3 ~n:256 ()) in
  (* Kernel time scales with the schedule; transfers do not. *)
  Helpers.close_rel ~tolerance:0.001 "3x kernel time" (3.0 *. p1.Projection.kernel_time)
    p3.Projection.kernel_time;
  Helpers.close ~tolerance:1e-12 "same transfers" p1.Projection.transfer_time
    p3.Projection.transfer_time

let test_projection_accessors () =
  let p = project (Helpers.chain_program ~n:(1 lsl 14) ()) in
  Alcotest.(check bool) "kernel_time_of hit" true (Projection.kernel_time_of p "producer" <> None);
  Alcotest.(check bool) "kernel_time_of miss" true (Projection.kernel_time_of p "ghost" = None);
  Alcotest.(check int) "per-kernel list" 2 (List.length (Projection.per_kernel_times p))

let test_projection_invalid_program () =
  let s = Lazy.force session in
  let bad =
    { (Helpers.chain_program ()) with Gpp_skeleton.Program.schedule = [ Gpp_skeleton.Program.Call "nope" ] }
  in
  match Projection.project ~pricing:s.Grophecy.pricing bad with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected validation failure"

let test_measurement_structure () =
  let s = Lazy.force session in
  let p = project (Helpers.chain_program ~n:(1 lsl 16) ()) in
  let m =
    Helpers.check_core "measurement" (measure ~link:s.Grophecy.application_link p)
  in
  Helpers.check_positive "kernel time" m.Measurement.kernel_time;
  Helpers.check_positive "transfer time" m.Measurement.transfer_time;
  Helpers.close ~tolerance:1e-12 "total" (m.Measurement.kernel_time +. m.Measurement.transfer_time)
    m.Measurement.total_time;
  Alcotest.(check int) "transfer count matches plan"
    (List.length p.Projection.transfers)
    (List.length m.Measurement.transfers);
  Alcotest.(check bool) "per-kernel accessor" true (Measurement.kernel_time_of m "producer" <> None)

let test_measurement_seed_determinism () =
  let s = Lazy.force session in
  let p = project (Helpers.chain_program ~n:(1 lsl 14) ()) in
  let m1 = Helpers.check_core "m1" (measure ~seed:11L ~link:s.Grophecy.calibration_link p) in
  let m2 = Helpers.check_core "m2" (measure ~seed:11L ~link:s.Grophecy.calibration_link p) in
  Helpers.close "same seed same kernel time" m1.Measurement.kernel_time m2.Measurement.kernel_time

let test_evaluation_speedup_identities () =
  let s = Lazy.force session in
  let program = Gpp_workloads.Hotspot.program ~n:256 () in
  let p = project program in
  let m = Helpers.check_core "m" (measure ~link:s.Grophecy.application_link p) in
  let cpu_time = Evaluation.cpu_time ~machine program in
  let sp = Evaluation.speedups ~cpu_time p m in
  Helpers.close_rel ~tolerance:1e-6 "measured identity"
    (cpu_time /. m.Measurement.total_time)
    sp.Evaluation.measured;
  Helpers.close_rel ~tolerance:1e-6 "kernel-only identity"
    (cpu_time /. p.Projection.kernel_time)
    sp.Evaluation.kernel_only;
  Helpers.close_rel ~tolerance:1e-6 "with-transfer identity"
    (cpu_time /. p.Projection.total_time)
    sp.Evaluation.with_transfer;
  (* Kernel-only always predicts a higher speedup than kernel+transfer. *)
  Alcotest.(check bool) "kernel-only is optimistic" true
    (sp.Evaluation.kernel_only > sp.Evaluation.with_transfer);
  let errors = Evaluation.errors sp in
  Helpers.check_non_negative "error non-negative" errors.Evaluation.kernel_only

let test_iteration_sweep_monotone () =
  let s = Lazy.force session in
  let report =
    Helpers.check_core "analyze" (Helpers.analyze s (Gpp_workloads.Srad.program ~n:512 ()))
  in
  let sweep = Grophecy.iteration_sweep report ~iterations:[ 1; 2; 4; 8; 16; 64; 256 ] in
  let measured =
    List.map (fun (p : Evaluation.iteration_point) -> p.Evaluation.speedups.Evaluation.measured) sweep
  in
  (* Transfer amortizes: measured speedup increases with iterations. *)
  let rec increasing = function a :: b :: rest -> a <= b && increasing (b :: rest) | _ -> true in
  Alcotest.(check bool) "measured speedup grows" true (increasing measured);
  (* Kernel-only prediction is iteration-independent. *)
  let ko =
    List.map (fun (p : Evaluation.iteration_point) -> p.Evaluation.speedups.Evaluation.kernel_only) sweep
  in
  List.iter (fun v -> Helpers.close_rel ~tolerance:0.02 "kernel-only flat" (List.hd ko) v) ko

let test_limit_speedups () =
  let s = Lazy.force session in
  let report =
    Helpers.check_core "analyze" (Helpers.analyze s (Gpp_workloads.Srad.program ~n:512 ()))
  in
  let limit = Evaluation.limit_speedups report.Grophecy.projection report.Grophecy.measurement in
  (* In the limit, predictions with and without transfers coincide. *)
  Helpers.close "limit convergence" limit.Evaluation.kernel_only limit.Evaluation.with_transfer;
  Alcotest.(check bool) "transfer-only diverges" true
    (limit.Evaluation.transfer_only = Float.infinity);
  (* The limit dominates any finite-iteration measured speedup. *)
  let at_100 =
    List.hd (Grophecy.iteration_sweep report ~iterations:[ 100 ])
  in
  Alcotest.(check bool) "limit above n=100" true
    (limit.Evaluation.measured >= at_100.Evaluation.speedups.Evaluation.measured *. 0.99)

let test_facade_report () =
  let s = Lazy.force session in
  let report =
    Helpers.check_core "analyze" (Helpers.analyze s (Gpp_workloads.Hotspot.program ~n:256 ()))
  in
  Helpers.check_positive "cpu time" report.Grophecy.cpu_time;
  Helpers.check_non_negative "kernel error" report.Grophecy.kernel_error;
  Helpers.check_non_negative "transfer error" report.Grophecy.transfer_error;
  (* A scenario with iterations set rescales before projecting. *)
  let r4 =
    Helpers.check_core "analyze 4"
      (Helpers.analyze
         ~config:{ Gpp_engine.Config.default with iterations = Some 4 }
         s
         (Gpp_workloads.Hotspot.program ~n:256 ()))
  in
  Helpers.close_rel ~tolerance:0.15 "4x kernel time"
    (4.0 *. report.Grophecy.measurement.Measurement.kernel_time)
    r4.Grophecy.measurement.Measurement.kernel_time

let test_init_calibrates () =
  let s = Grophecy.init ~seed:77L machine in
  Helpers.check_in_range "h2d bandwidth" ~lo:2e9 ~hi:3e9 (Gpp_pcie.Model.bandwidth s.Grophecy.h2d);
  Helpers.check_in_range "d2h bandwidth" ~lo:2e9 ~hi:3e9 (Gpp_pcie.Model.bandwidth s.Grophecy.d2h);
  (* Application link carries the outlier mode, calibration link not. *)
  let app_cfg = Gpp_pcie.Link.config s.Grophecy.application_link in
  let cal_cfg = Gpp_pcie.Link.config s.Grophecy.calibration_link in
  Alcotest.(check bool) "outliers on app link" true (app_cfg.Gpp_pcie.Link.outlier_probability > 0.0);
  Helpers.close "no outliers on calibration link" 0.0 cal_cfg.Gpp_pcie.Link.outlier_probability

(* Advisor *)

let project_for_advice program =
  let s = Lazy.force session in
  Helpers.check_core "project"
    (Projection.project ~pricing:s.Grophecy.pricing program)

let test_advisor_port () =
  let p = project_for_advice (Gpp_workloads.Srad.program ~n:2048 ()) in
  let r = Gpp_core.Advisor.recommend p in
  Alcotest.(check bool) "srad ports" true (r.Gpp_core.Advisor.verdict = Gpp_core.Advisor.Port);
  Alcotest.(check bool) "speedup above one" true (r.Gpp_core.Advisor.projected_speedup > 1.0);
  Alcotest.(check bool) "kernel-only is higher" true
    (r.Gpp_core.Advisor.kernel_only_speedup > r.Gpp_core.Advisor.projected_speedup);
  Alcotest.(check (option int)) "break-even immediately" (Some 1)
    r.Gpp_core.Advisor.break_even_iterations

let test_advisor_port_if_iterated () =
  let p = project_for_advice (Gpp_workloads.Stassuij.program ()) in
  let r = Gpp_core.Advisor.recommend p in
  (match r.Gpp_core.Advisor.verdict with
  | Gpp_core.Advisor.Port_if_iterated n ->
      Alcotest.(check bool) "plausible break-even" true (n > 1 && n < 1000);
      (* The break-even really is the crossing point. *)
      let at k =
        (Gpp_core.Advisor.recommend ~iterations:k p).Gpp_core.Advisor.projected_speedup
      in
      Alcotest.(check bool) "wins at n" true (at n > 1.0);
      Alcotest.(check bool) "loses at n-1" true (at (n - 1) <= 1.0)
  | v -> Alcotest.failf "expected Port_if_iterated, got %s" (Gpp_core.Advisor.verdict_name v));
  Alcotest.(check bool) "has actionable notes" true (r.Gpp_core.Advisor.notes <> [])

let test_advisor_do_not_port () =
  let p = project_for_advice (Gpp_workloads.Vecadd.program ~n:(16 * 1024 * 1024)) in
  let r = Gpp_core.Advisor.recommend p in
  Alcotest.(check bool) "vecadd rejected" true
    (r.Gpp_core.Advisor.verdict = Gpp_core.Advisor.Do_not_port);
  Alcotest.(check (option int)) "no break-even" None r.Gpp_core.Advisor.break_even_iterations;
  (* Transfer dominates vecadd. *)
  Alcotest.(check bool) "transfer-dominated" true
    (r.Gpp_core.Advisor.dominant_cost <> Gpp_core.Advisor.Kernel_time)

let test_advisor_iterations_flip_verdict () =
  let p = project_for_advice (Gpp_workloads.Stassuij.program ()) in
  let now = Gpp_core.Advisor.recommend p in
  let later = Gpp_core.Advisor.recommend ~iterations:500 p in
  Alcotest.(check bool) "loss at one iteration" true
    (now.Gpp_core.Advisor.verdict <> Gpp_core.Advisor.Port);
  Alcotest.(check bool) "win at many iterations" true
    (later.Gpp_core.Advisor.verdict = Gpp_core.Advisor.Port);
  Helpers.check_raises_invalid "bad iterations" (fun () ->
      ignore (Gpp_core.Advisor.recommend ~iterations:0 p))

let () =
  Alcotest.run "gpp_core"
    [
      ( "projection",
        [
          Alcotest.test_case "structure" `Quick test_projection_structure;
          Alcotest.test_case "schedule multiplicity" `Quick test_projection_schedule_multiplicity;
          Alcotest.test_case "accessors" `Quick test_projection_accessors;
          Alcotest.test_case "invalid program" `Quick test_projection_invalid_program;
        ] );
      ( "measurement",
        [
          Alcotest.test_case "structure" `Quick test_measurement_structure;
          Alcotest.test_case "determinism" `Quick test_measurement_seed_determinism;
        ] );
      ( "evaluation",
        [
          Alcotest.test_case "speedup identities" `Quick test_evaluation_speedup_identities;
          Alcotest.test_case "iteration sweep" `Quick test_iteration_sweep_monotone;
          Alcotest.test_case "limit" `Quick test_limit_speedups;
        ] );
      ( "facade",
        [
          Alcotest.test_case "report" `Quick test_facade_report;
          Alcotest.test_case "init calibrates" `Quick test_init_calibrates;
        ] );
      ( "advisor",
        [
          Alcotest.test_case "port" `Quick test_advisor_port;
          Alcotest.test_case "port if iterated" `Quick test_advisor_port_if_iterated;
          Alcotest.test_case "do not port" `Quick test_advisor_do_not_port;
          Alcotest.test_case "iterations flip verdict" `Quick test_advisor_iterations_flip_verdict;
        ] );
    ]
