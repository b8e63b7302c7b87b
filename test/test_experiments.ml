(* Tests for Gpp_experiments: the paper's tables and figures regenerate
   with the right structure and shape. *)

module Context = Gpp_experiments.Context
module Suite = Gpp_experiments.Suite

(* One context shared by all cases: building it runs the full pipeline
   over every Table I instance, which is the expensive part. *)
let ctx = lazy (Helpers.check_core "context" (Context.create ()))

let test_context_instances () =
  let ctx = Lazy.force ctx in
  Alcotest.(check int) "ten instances" 10 (List.length (Context.instances ctx));
  Alcotest.(check (list string)) "apps" [ "cfd"; "hotspot"; "srad"; "stassuij" ] (Context.apps ctx);
  Alcotest.(check int) "cfd sizes" 3 (List.length (Context.reports_of_app ctx "cfd"));
  (* Lookup works; misses raise a descriptive error naming the pair,
     and the option variant returns None. *)
  ignore (Context.report ctx ~app:"srad" ~size:"2048 x 2048");
  Alcotest.(check bool)
    "find_report hit" true
    (Context.find_report ctx ~app:"srad" ~size:"2048 x 2048" <> None);
  Alcotest.(check bool)
    "find_report miss" true
    (Context.find_report ctx ~app:"srad" ~size:"1 x 1" = None);
  (match Context.report ctx ~app:"srad" ~size:"1 x 1" with
  | exception Invalid_argument msg ->
      Helpers.check_contains "names the missing pair" ~needle:{|"srad"/"1 x 1"|} msg;
      Helpers.check_contains "lists known keys" ~needle:"srad/2048 x 2048" msg
  | _ -> Alcotest.fail "expected Invalid_argument for a missing pair")

let test_fig2_points () =
  let pts = Gpp_experiments.Fig_transfer_time.points (Lazy.force ctx) in
  Alcotest.(check int) "30 sizes (1 B .. 512 MiB)" 30 (List.length pts);
  List.iter
    (fun (p : Gpp_experiments.Fig_transfer_time.point) ->
      Helpers.check_positive "pinned h2d" p.pinned_h2d;
      Helpers.check_positive "pageable d2h" p.pageable_d2h;
      Helpers.check_positive "prediction" p.predicted_h2d)
    pts

let test_fig3_crossover_near_2kb () =
  let ctx = Lazy.force ctx in
  match Gpp_experiments.Fig_pinned_speedup.crossover_h2d ctx with
  | Some bytes ->
      (* Paper: pinned overtakes pageable around 2 KB for h2d. *)
      Helpers.check_in_range "crossover" ~lo:512.0 ~hi:8192.0 (float_of_int bytes)
  | None -> Alcotest.fail "expected a pinned/pageable crossover"

let test_fig3_pinned_wins_large () =
  let pts = Gpp_experiments.Fig_pinned_speedup.points (Lazy.force ctx) in
  let large =
    List.filter (fun (p : Gpp_experiments.Fig_pinned_speedup.point) -> p.bytes >= Gpp_util.Units.mib) pts
  in
  List.iter
    (fun (p : Gpp_experiments.Fig_pinned_speedup.point) ->
      Alcotest.(check bool) "pinned wins large h2d" true (p.h2d_speedup > 1.0);
      Alcotest.(check bool) "pinned wins large d2h" true (p.d2h_speedup > 1.0))
    large

let test_fig4_error_shape () =
  let s = Gpp_experiments.Fig_model_error.summary (Lazy.force ctx) in
  (* Same order of magnitude as the paper: means ~2%/0.8%, max 6.4%/3.3%. *)
  Helpers.check_in_range "mean h2d" ~lo:0.0 ~hi:4.0 s.Gpp_experiments.Fig_model_error.mean_h2d;
  Helpers.check_in_range "mean d2h" ~lo:0.0 ~hi:2.0 s.Gpp_experiments.Fig_model_error.mean_d2h;
  Helpers.check_in_range "max h2d" ~lo:0.0 ~hi:12.0 s.Gpp_experiments.Fig_model_error.max_h2d;
  Helpers.check_in_range "max d2h" ~lo:0.0 ~hi:7.0 s.Gpp_experiments.Fig_model_error.max_d2h;
  (* Essentially zero above 1 MiB. *)
  Helpers.check_in_range "large h2d" ~lo:0.0 ~hi:1.0
    s.Gpp_experiments.Fig_model_error.mean_large_h2d;
  (* And errors concentrate at small sizes. *)
  Alcotest.(check bool) "small-size error dominates" true
    (s.Gpp_experiments.Fig_model_error.mean_h2d
    > s.Gpp_experiments.Fig_model_error.mean_large_h2d)

let test_fig5_transfer_errors () =
  let ctx = Lazy.force ctx in
  let pts = Gpp_experiments.Fig_app_transfers.points ctx in
  Alcotest.(check bool) "has many transfers" true (List.length pts >= 20);
  let err = Gpp_experiments.Fig_app_transfers.overall_error ctx in
  (* Paper: 7.6% across all application transfers. *)
  Helpers.check_in_range "overall transfer error" ~lo:0.5 ~hi:20.0 err

let test_table1_shape () =
  let rows = Gpp_experiments.Table_measured.rows (Lazy.force ctx) in
  Alcotest.(check int) "ten rows" 10 (List.length rows);
  (* The paper's headline: transfer exceeds kernel time everywhere
     (except possibly the smallest HotSpot grid). *)
  List.iter
    (fun (r : Gpp_experiments.Table_measured.row) ->
      if not (r.app = "hotspot" && r.size = "64 x 64") then
        Alcotest.(check bool)
          (Printf.sprintf "%s/%s transfer dominates" r.app r.size)
          true
          (r.transfer_ms > r.kernel_ms))
    rows;
  (* Table I magnitudes: SRAD 4096 x 4096 input/output are 64 MiB each. *)
  let srad_large =
    List.find (fun (r : Gpp_experiments.Table_measured.row) -> r.app = "srad" && r.size = "4096 x 4096") rows
  in
  Helpers.close_rel ~tolerance:0.01 "srad input" 64.0 srad_large.input_mib;
  Helpers.close_rel ~tolerance:0.01 "srad output" 64.0 srad_large.output_mib;
  (* Stassuij input ~8.3 MiB, output ~4.1 MiB (paper: 8.5 / 4.1). *)
  let st = List.find (fun (r : Gpp_experiments.Table_measured.row) -> r.app = "stassuij") rows in
  Helpers.check_in_range "stassuij input" ~lo:8.0 ~hi:8.7 st.input_mib;
  Helpers.check_in_range "stassuij output" ~lo:4.0 ~hi:4.3 st.output_mib

let test_table2_orderings () =
  let s = Gpp_experiments.Table_speedup_error.summary (Lazy.force ctx) in
  let avg = s.Gpp_experiments.Table_speedup_error.average_applications in
  (* The paper's central claim, as an ordering: kernel-only error is
     catastrophic, transfer-only is better, the combination is small. *)
  Alcotest.(check bool) "kernel-only worst" true
    (avg.Gpp_experiments.Table_speedup_error.kernel_only
    > avg.Gpp_experiments.Table_speedup_error.transfer_only);
  Alcotest.(check bool) "combination best" true
    (avg.Gpp_experiments.Table_speedup_error.transfer_only
    > avg.Gpp_experiments.Table_speedup_error.with_transfer);
  (* Magnitudes: hundreds of percent vs tens vs single digits-ish. *)
  Helpers.check_in_range "kernel-only" ~lo:100.0 ~hi:1500.0
    avg.Gpp_experiments.Table_speedup_error.kernel_only;
  Helpers.check_in_range "with transfer" ~lo:0.0 ~hi:30.0
    avg.Gpp_experiments.Table_speedup_error.with_transfer;
  Alcotest.(check int) "app averages" 4
    (List.length s.Gpp_experiments.Table_speedup_error.app_averages)

let test_stassuij_decision_flip () =
  let ctx = Lazy.force ctx in
  let report = Context.report ctx ~app:"stassuij" ~size:"132 x 2048" in
  let sp = report.Gpp_core.Grophecy.speedups in
  Alcotest.(check bool) "kernel-only predicts a win" true
    (sp.Gpp_core.Evaluation.kernel_only > 1.0);
  Alcotest.(check bool) "measured is a loss" true (sp.Gpp_core.Evaluation.measured < 1.0);
  Alcotest.(check bool) "transfer-aware predicts the loss" true
    (sp.Gpp_core.Evaluation.with_transfer < 1.0)

let test_iteration_figures () =
  let ctx = Lazy.force ctx in
  List.iter
    (fun (app, size) ->
      let pts =
        Gpp_experiments.Fig_iterations.points ctx ~app ~size ~iterations:[ 1; 10; 100 ]
      in
      (* Measured speedup grows with iterations; kernel-only stays flat
         above it; the two predictions converge. *)
      let at n =
        List.find (fun (p : Gpp_experiments.Fig_iterations.point) -> p.iterations = n) pts
      in
      Alcotest.(check bool) "grows" true ((at 100).measured > (at 1).measured);
      let gap n = Float.abs ((at n).kernel_only -. (at n).with_transfer) in
      Alcotest.(check bool) "predictions converge" true (gap 100 < gap 1);
      let crossover = Gpp_experiments.Fig_iterations.twice_as_accurate_until ctx ~app ~size in
      Alcotest.(check bool) "transfer-aware wins early iterations" true (crossover >= 1))
    [ ("cfd", "233K"); ("hotspot", "1024 x 1024"); ("srad", "4096 x 4096") ]

let test_cfd_kernel_underpredicted () =
  (* Paper Section V-B.1: CFD's kernel time is under-predicted (by ~32%)
     because of its irregular gathers. *)
  let ctx = Lazy.force ctx in
  List.iter
    (fun size ->
      let report = Context.report ctx ~app:"cfd" ~size in
      Alcotest.(check bool)
        (Printf.sprintf "cfd %s underpredicts" size)
        true
        (report.Gpp_core.Grophecy.projection.Gpp_core.Projection.kernel_time
        < report.Gpp_core.Grophecy.measurement.Gpp_core.Measurement.kernel_time))
    [ "97K"; "193K"; "233K" ]

let test_all_experiments_render () =
  let ctx = Lazy.force ctx in
  List.iter
    (fun (e : Suite.entry) ->
      let out = e.Suite.run ctx in
      Alcotest.(check string) "id stable" e.Suite.id out.Gpp_experiments.Output.id;
      Alcotest.(check bool)
        (Printf.sprintf "%s non-empty" e.Suite.id)
        true
        (String.length out.Gpp_experiments.Output.body > 100))
    Suite.all

let test_csv_escaping () =
  Alcotest.(check string) "plain" "a,b\n1,2\n"
    (Gpp_experiments.Export.csv_of_rows ~header:[ "a"; "b" ] [ [ "1"; "2" ] ]);
  Alcotest.(check string) "quoted comma" "h\n\"x,y\"\n"
    (Gpp_experiments.Export.csv_of_rows ~header:[ "h" ] [ [ "x,y" ] ]);
  Alcotest.(check string) "doubled quote" "h\n\"say \"\"hi\"\"\"\n"
    (Gpp_experiments.Export.csv_of_rows ~header:[ "h" ] [ [ "say \"hi\"" ] ])

let test_csv_exports_parse () =
  let ctx = Lazy.force ctx in
  let check_csv name csv expected_cols =
    let lines = String.split_on_char '\n' (String.trim csv) in
    match lines with
    | [] -> Alcotest.failf "%s: empty" name
    | header :: rows ->
        Alcotest.(check int)
          (name ^ " column count")
          expected_cols
          (List.length (String.split_on_char ',' header));
        Alcotest.(check bool) (name ^ " has rows") true (rows <> []);
        List.iter
          (fun row ->
            Alcotest.(check int)
              (name ^ " row width")
              expected_cols
              (List.length (String.split_on_char ',' row)))
          rows
  in
  check_csv "fig2" (Gpp_experiments.Export.fig2_csv ctx) 7;
  check_csv "fig3" (Gpp_experiments.Export.fig3_csv ctx) 3;
  check_csv "fig4" (Gpp_experiments.Export.fig4_csv ctx) 3;
  check_csv "fig5" (Gpp_experiments.Export.fig5_csv ctx) 7;
  check_csv "fig6" (Gpp_experiments.Export.fig6_csv ctx) 4;
  check_csv "table1" (Gpp_experiments.Export.table1_csv ctx) 7;
  check_csv "table2" (Gpp_experiments.Export.table2_csv ctx) 5;
  check_csv "speedup" (Gpp_experiments.Export.speedup_csv ctx ~app:"srad") 4;
  check_csv "iterations"
    (Gpp_experiments.Export.iterations_csv ctx ~app:"srad" ~size:"4096 x 4096")
    4

let test_csv_write_all () =
  let ctx = Lazy.force ctx in
  let dir = Filename.concat (Filename.get_temp_dir_name ()) "gpp_csv_test" in
  let written = Gpp_experiments.Export.write_all ctx ~dir in
  Alcotest.(check int) "thirteen files" 13 (List.length written);
  List.iter
    (fun (_, path) ->
      Alcotest.(check bool) (path ^ " exists") true (Sys.file_exists path);
      let ic = open_in path in
      let len = in_channel_length ic in
      close_in ic;
      Alcotest.(check bool) (path ^ " non-empty") true (len > 0))
    written

(* A machine no paper workload fits: one structured error that names
   every failing workload and keeps their category (exit code 1). *)
let test_context_names_every_failure () =
  let e =
    Helpers.check_core_error "tiny machine" (Context.create ~machine:Helpers.tiny_machine ())
  in
  Alcotest.(check string) "category" "projection" (Gpp_engine.Error.category e);
  Alcotest.(check int) "exit code" 1 (Gpp_engine.Error.exit_code e);
  let message = Gpp_engine.Error.message e in
  Helpers.check_contains "count" ~needle:"10 workload(s) failed on tiny" message;
  List.iter
    (fun inst ->
      Helpers.check_contains "names the workload" ~needle:(Gpp_workloads.Registry.key inst) message)
    Gpp_workloads.Registry.paper_instances;
  (* The suite runner hands the same error back and renders nothing. *)
  let emitted = ref 0 in
  let e' =
    Helpers.check_core_error "suite on tiny"
      (Suite.run ~machine:Helpers.tiny_machine Suite.all ~emit:(fun _ -> incr emitted))
  in
  Alcotest.(check string) "same error" message (Gpp_engine.Error.message e');
  Alcotest.(check int) "nothing emitted" 0 !emitted

let test_suite_registry () =
  Alcotest.(check int) "13 paper experiments" 13 (List.length Suite.paper);
  Alcotest.(check int) "5 ablations" 5 (List.length Suite.ablations);
  Alcotest.(check int) "5 extensions" 5 (List.length Suite.extensions);
  Alcotest.(check bool) "find fig7" true (Suite.find "fig7" <> None);
  Alcotest.(check bool) "find miss" true (Suite.find "fig99" = None);
  Alcotest.(check int) "ids" 23 (List.length (Suite.ids ()));
  let ids es = List.map (fun (e : Suite.entry) -> e.id) es in
  Alcotest.(check (list string))
    "no ids: the whole suite" (Suite.ids ())
    (ids (Helpers.check_core "select []" (Suite.select [])));
  Alcotest.(check (list string))
    "ids keep their order" [ "fig7"; "fig2" ]
    (ids (Helpers.check_core "select" (Suite.select [ "fig7"; "fig2" ])));
  let e = Helpers.check_core_error "unknown id" (Suite.select [ "fig2"; "fig99"; "fig98" ]) in
  Alcotest.(check int) "unknown id is a usage error" 2 (Gpp_engine.Error.exit_code e);
  Helpers.check_contains "names the first unknown id" ~needle:"unknown experiment id fig99"
    (Gpp_engine.Error.message e);
  let lines = String.split_on_char '\n' Suite.listing in
  Alcotest.(check int) "one listing line per experiment" 24 (List.length lines);
  Alcotest.(check string)
    "listing line"
    (Printf.sprintf "%-26s %s" "fig2" "Transfer time for pinned and pageable memory")
    (List.hd lines)

let () =
  Alcotest.run "gpp_experiments"
    [
      ( "context",
        [
          Alcotest.test_case "instances" `Quick test_context_instances;
          Alcotest.test_case "names every failure" `Quick test_context_names_every_failure;
        ] );
      ( "figures",
        [
          Alcotest.test_case "fig2 points" `Quick test_fig2_points;
          Alcotest.test_case "fig3 crossover" `Quick test_fig3_crossover_near_2kb;
          Alcotest.test_case "fig3 pinned wins large" `Quick test_fig3_pinned_wins_large;
          Alcotest.test_case "fig4 error shape" `Quick test_fig4_error_shape;
          Alcotest.test_case "fig5 transfer errors" `Quick test_fig5_transfer_errors;
          Alcotest.test_case "iteration figures" `Quick test_iteration_figures;
          Alcotest.test_case "cfd underprediction" `Quick test_cfd_kernel_underpredicted;
        ] );
      ( "tables",
        [
          Alcotest.test_case "table1 shape" `Quick test_table1_shape;
          Alcotest.test_case "table2 orderings" `Quick test_table2_orderings;
          Alcotest.test_case "stassuij flip" `Quick test_stassuij_decision_flip;
        ] );
      ( "export",
        [
          Alcotest.test_case "csv escaping" `Quick test_csv_escaping;
          Alcotest.test_case "exports parse" `Quick test_csv_exports_parse;
          Alcotest.test_case "write_all" `Quick test_csv_write_all;
        ] );
      ( "suite",
        [
          Alcotest.test_case "all render" `Slow test_all_experiments_render;
          Alcotest.test_case "registry" `Quick test_suite_registry;
        ] );
    ]
