open Cmdliner
module Suite = Gpp_experiments.Suite

(* With ids, each selected experiment; with none, the whole suite framed
   as the paper report (test/golden/suite.expected): a banner and the
   machine before it, the projection-cache footer after it.  An unknown
   id or a context that cannot be built is a structured error through
   the CLI's one return path — never a bare [exit] that skips
   Cmd.eval'. *)
let run ids list_only csv_dir config_file no_cache cache_dir trace verbose =
  match Cmd_common.scenario ?config_file ~no_cache ~cache_dir ~trace ~verbose () with
  | Error e -> Cmd_common.fail e
  | Ok _ when list_only ->
      print_string Suite.listing;
      0
  | Ok c -> (
      let report = ids = [] in
      let ( let* ) = Result.bind in
      let result =
        let* entries = Suite.select ids in
        if report then begin
          Printf.printf "GROPHECY++ reproduction: regenerating %d experiment(s)\n"
            (List.length entries);
          Printf.printf "calibrating the simulated testbed and measuring all workloads...\n";
          Format.printf "%a@.@." Gpp_arch.Machine.pp c.machine
        end;
        Suite.run ~machine:c.machine ~seed:c.seed entries ~emit:(fun s ->
            print_string s;
            flush stdout)
      in
      match result with
      | Error e -> Cmd_common.fail e
      | Ok ctx ->
          Option.iter
            (fun dir ->
              let written = Gpp_experiments.Export.write_all ctx ~dir in
              Printf.printf "wrote %d CSV files to %s\n" (List.length written) dir)
            csv_dir;
          if report then begin
            Printf.printf "projection cache: %s\n"
              (if c.cache_enabled then "enabled" else "bypassed (--no-cache)");
            List.iter
              (fun s -> Format.printf "  %a@." Gpp_cache.Memo.pp_snapshot s)
              (Gpp_cache.Memo.snapshots ())
          end;
          Gpp_core.Grophecy.log_cache_stats ();
          0)

let cmd =
  let doc =
    "Regenerate paper tables and figures: the whole suite as one report, or selected ids."
  in
  let ids_arg = Arg.(value & pos_all string [] & info [] ~docv:"ID" ~doc:"Experiment ids.") in
  let list_arg = Arg.(value & flag & info [ "list" ] ~doc:"List available experiment ids.") in
  let csv_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "csv" ] ~docv:"DIR" ~doc:"Also export every experiment's data as CSV into $(docv).")
  in
  Cmd.v
    (Cmd.info "experiment" ~doc)
    Term.(
      const run $ ids_arg $ list_arg $ csv_arg $ Cmd_common.config_file_arg
      $ Cmd_common.no_cache_arg $ Cmd_common.cache_dir_arg $ Cmd_common.trace_file_arg
      $ Cmd_common.verbose_arg)
