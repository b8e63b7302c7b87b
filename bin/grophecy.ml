(* GROPHECY++ command-line interface: the thin dispatch shell.

   Subcommands live in their own Cmd_* modules and mirror how the
   framework is used in the paper:
     calibrate          run the synthetic PCIe benchmark, print the models
     list               list the bundled workload skeletons
     lint               static-analysis report over workloads/.skel files
     project            project GPU performance of a workload (no measurement)
     analyze            full prediction vs simulated-measurement report
     advise             break-even porting verdict
     batch              workload × machine × iterations matrix, TSV output
     crossval           cross-machine calibration accuracy matrix, TSV output
     export-skel        dump a workload as a textual skeleton
     trace              per-kernel Chrome-trace export / trace selftest
     predict-transfer   price a single transfer with the calibrated model
     experiment         regenerate the paper report, or tables/figures by id
     cache              inspect/verify/clear the persistent cache
     serve              long-running HTTP prediction service

   The pipeline commands (project, analyze, advise, batch, crossval,
   experiment) resolve a layered Gpp_engine.Config scenario: library
   defaults < --config FILE < GPP_* environment < flags. *)

open Cmdliner

let main_cmd =
  let doc = "GPU performance projection with data transfer modeling (GROPHECY++)" in
  let man =
    [
      `S Manpage.s_exit_status;
      `P
        "All subcommands share one exit-code space: $(b,0) on success; $(b,1) when the requested \
         operation fails (a projection or simulation error, lint findings at or above the \
         threshold, corrupt store files from $(b,cache verify), a failed $(b,batch) cell); \
         $(b,2) on usage errors (unknown workload, experiment, or machine, malformed sizes, \
         flags, or $(b,--config) files).";
      `S "ENVIRONMENT";
      `P
        "The pipeline commands also read $(b,GPP_MACHINES), $(b,GPP_MACHINE), $(b,GPP_SEED), $(b,GPP_RUNS), \
         $(b,GPP_ITERATIONS), $(b,GPP_JOBS), $(b,GPP_OUTLIER_PROBABILITY), $(b,GPP_NO_CACHE), \
         $(b,GPP_CACHE_DIR), $(b,GPP_TRACE), $(b,GPP_VERBOSE), $(b,GPP_LISTEN), and \
         $(b,GPP_FLUSH_EVERY), which override $(b,--config) files and are overridden by flags.";
    ]
  in
  let info = Cmd.info "grophecy" ~version:"1.0.0" ~doc ~man in
  Cmd.group info
    [
      Cmd_calibrate.cmd;
      Cmd_list.cmd;
      Cmd_lint.cmd;
      Cmd_project.cmd;
      Cmd_analyze.cmd;
      Cmd_advise.cmd;
      Cmd_batch.cmd;
      Cmd_crossval.cmd;
      Cmd_export_skel.cmd;
      Cmd_trace.cmd;
      Cmd_predict_transfer.cmd;
      Cmd_experiment.cmd;
      Cmd_cache.cmd;
      Cmd_serve.cmd;
    ]

(* eval' with ~catch:false so a broken pipe propagates here instead of
   being reported as an internal error: `grophecy experiment | head`
   closing stdout early is the downstream's prerogative, not a failure.
   Any other escaped exception reproduces Cmdliner's default report. *)
let () =
  Gpp_engine.Runtime.ignore_sigpipe ();
  let code =
    try
      let code = Cmd.eval' ~catch:false main_cmd in
      Gpp_engine.Runtime.flush_stdout ();
      code
    with
    | e when Gpp_engine.Runtime.is_broken_pipe e ->
        Gpp_engine.Runtime.discard_stdout ();
        0
    | e ->
        let bt = Printexc.get_raw_backtrace () in
        Format.eprintf "grophecy: internal error, uncaught exception:@\n%s@\n%s@."
          (Printexc.to_string e)
          (Printexc.raw_backtrace_to_string bt);
        Cmd.Exit.internal_error
  in
  exit code
