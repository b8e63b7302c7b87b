open Cmdliner
module Engine = Gpp_engine

(* grophecy batch — run a workload × machine × iterations matrix through
   the engine in one process, sharing the calibrated sessions and the
   projection cache across cells, and render the result as a stable TSV
   (the CI batch-matrix leg diffs it against a committed golden file).
   Per-cell failures become rows, not aborts; exit 1 if any cell failed. *)

let run machines machines_file workloads iterations_list out jobs seed predict config_file
    no_cache cache_dir trace verbose =
  match
    Cmd_common.scenario ?machines_file ?seed ?jobs ?predict ?config_file ~no_cache ~cache_dir
      ~trace ~verbose ()
  with
  | Error e -> Cmd_common.fail e
  | Ok c -> (
      (* The machine axis arrives as names and resolves against the
         scenario's final catalog, so --machines/config-file machines
         are valid axis values; each iteration count passes the same
         range check as a scenario's own. *)
      let bad_iterations =
        List.find_map
          (fun n ->
            match Engine.Config.validate { c with iterations = Some n } with
            | Ok _ -> None
            | Error e -> Some e)
          iterations_list
      in
      match (Cmd_common.resolve_machines c machines, bad_iterations) with
      | Error e, _ | Ok _, Some e -> Cmd_common.fail e
      | Ok resolved, None ->
      let workloads =
        match workloads with
        | [] -> List.map Gpp_workloads.Registry.key Gpp_workloads.Registry.paper_instances
        | ws -> ws
      in
      let machines = match resolved with [] -> None | ms -> Some ms in
      let iterations =
        match iterations_list with [] -> [ None ] | l -> List.map Option.some l
      in
      let batch = Engine.Batch.run ?machines ~iterations c ~workloads in
      let tsv = Engine.Batch.to_tsv batch in
      (match out with
      | None -> print_string tsv
      | Some path ->
          Out_channel.with_open_text path (fun oc -> output_string oc tsv);
          Printf.printf "wrote %d cell(s) to %s\n" (List.length batch.Engine.Batch.cells) path);
      (match Engine.Batch.failed batch with
      | [] -> 0
      | failures ->
          List.iter
            (fun ((cell : Engine.Batch.cell), e) ->
              Printf.eprintf "batch: %s on %s failed: %s\n" cell.workload
                cell.machine.Gpp_arch.Machine.name (Engine.Error.message e))
            failures;
          1))

let cmd =
  let doc =
    "Run a workload × machine × iterations matrix through the prediction engine and print a TSV \
     of speedups and errors."
  in
  let workloads_arg =
    Arg.(
      value & pos_all string []
      & info [] ~docv:"WORKLOAD"
          ~doc:
            "Workload instances ($(b,app/size)) or paths to $(b,.skel) files.  Defaults to every \
             Table I instance.")
  in
  let machines_arg =
    Arg.(
      value & opt_all string []
      & info [ "machine"; "m" ] ~docv:"NAME"
          ~doc:
            "Machine to include in the matrix by catalog id (repeatable; see $(b,grophecy \
             list)).  Defaults to the scenario's machine.")
  in
  let iterations_arg =
    Arg.(
      value & opt_all int []
      & info [ "iterations"; "n" ]
          ~doc:
            "Iteration count to include in the matrix (repeatable).  Defaults to each program as \
             bundled.")
  in
  let out_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "out"; "o" ] ~docv:"FILE" ~doc:"Write the TSV to $(docv) instead of stdout.")
  in
  let jobs_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "jobs"; "j" ] ~docv:"N"
          ~doc:
            "Worker domains to shard the matrix across (also $(b,GPP_JOBS); default 1, \
             sequential).  The TSV is byte-identical at every value: only the deterministic \
             phases of each cell run in parallel, transfer pricing stays in cell order.")
  in
  Cmd.v (Cmd.info "batch" ~doc)
    Term.(
      const run $ machines_arg $ Cmd_common.machines_file_arg $ workloads_arg $ iterations_arg
      $ out_arg $ jobs_arg $ Cmd_common.seed_opt_arg $ Cmd_common.predict_arg
      $ Cmd_common.config_file_arg
      $ Cmd_common.no_cache_arg $ Cmd_common.cache_dir_arg $ Cmd_common.trace_file_arg
      $ Cmd_common.verbose_arg)
