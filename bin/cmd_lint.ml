open Cmdliner
module Driver = Gpp_analysis.Driver
module Pass = Gpp_analysis.Pass

let print_code_table () =
  Printf.printf "%-8s %-8s %s\n" "CODE" "SEVERITY" "SUMMARY";
  List.iter
    (fun (c : Pass.code_doc) ->
      Printf.printf "%-8s %-8s %s\n" c.code
        (Gpp_analysis.Diagnostic.severity_name c.severity)
        c.summary)
    (Driver.code_index ())

let explain_code query =
  match Driver.find_code query with
  | Some (doc : Pass.code_doc) ->
      Printf.printf "%s (%s): %s\n\n%s\n\nfix: %s\n" doc.code
        (Gpp_analysis.Diagnostic.severity_name doc.severity)
        doc.summary doc.explanation doc.fix;
      0
  | None ->
      Printf.eprintf "lint: unknown diagnostic code %S (did you mean %s?)\n" query
        (Driver.nearest_code query);
      2

(* "GPP101,GPP301" -> Ok ["GPP101"; "GPP301"], rejecting unknown codes
   with a nearest-match suggestion instead of silently matching
   nothing. *)
let parse_code_filter spec =
  let parts =
    String.split_on_char ',' spec |> List.map String.trim |> List.filter (fun s -> s <> "")
  in
  let resolved =
    List.map
      (fun part ->
        match Driver.find_code part with
        | Some (doc : Pass.code_doc) -> Ok doc.Pass.code
        | None -> Error part)
      parts
  in
  let unknown = List.filter_map (function Error p -> Some p | Ok _ -> None) resolved in
  if unknown <> [] then begin
    List.iter
      (fun part ->
        Printf.eprintf "lint: unknown diagnostic code %S (did you mean %s?)\n" part
          (Driver.nearest_code part))
      unknown;
    Error ()
  end
  else Ok (List.filter_map Result.to_option resolved)

let filter_report selected (report : Driver.report) =
  match selected with
  | [] -> report
  | codes ->
      {
        report with
        Driver.diagnostics =
          List.filter
            (fun (d : Gpp_analysis.Diagnostic.t) -> List.mem d.code codes)
            report.Driver.diagnostics;
      }

let write_file path contents =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc contents)

let run machine keys all strict json codes explain sarif verbose =
  Gpp_engine.Runtime.setup_logs verbose;
  match explain with
  | Some query -> explain_code query
  | None -> (
      if codes = Some "" then begin
        print_code_table ();
        0
      end
      else
        match
          match codes with Some spec -> parse_code_filter spec | None -> Ok []
        with
        | Error () -> 2
        | Ok selected ->
            let targets =
              (if all then List.map (fun i -> Ok i) Gpp_workloads.Registry.all else [])
              @ List.map Gpp_engine.Workload.resolve keys
            in
            if targets = [] then begin
              prerr_endline "lint: nothing to check (give WORKLOAD arguments or --all)";
              2
            end
            else begin
              let failures = List.filter_map (function Error e -> Some e | Ok _ -> None) targets in
              List.iter (fun e -> prerr_endline (Gpp_engine.Error.message e)) failures;
              if failures <> [] then 2
              else begin
                let reports =
                  List.map
                    (function
                      | Error _ -> assert false
                      | Ok (inst : Gpp_workloads.Registry.instance) ->
                          filter_report selected
                            (Driver.run ~gpu:machine.Gpp_arch.Machine.gpu (inst.program 1)))
                    targets
                in
                (match sarif with
                | Some path -> write_file path (Gpp_analysis.Sarif.of_reports reports)
                | None -> ());
                if json then
                  print_endline
                    (match reports with
                    | [ report ] -> Gpp_analysis.Render.to_json report
                    | reports -> Gpp_analysis.Render.to_json_list reports)
                else
                  List.iter
                    (fun report -> Format.printf "%a@." Gpp_analysis.Render.pp_text report)
                    reports;
                List.fold_left
                  (fun acc report -> max acc (Driver.exit_code ~strict report))
                  0 reports
              end
            end)

let cmd =
  let doc =
    "Run the static-analysis passes (bounds, races, transfer audit, transfer flow, performance \
     lints, program checks) over workloads or .skel files and report diagnostics."
  in
  let keys_arg =
    Arg.(
      value & pos_all string []
      & info [] ~docv:"WORKLOAD"
          ~doc:"Workload instances ($(b,app/size)) or paths to $(b,.skel) files.")
  in
  let all_arg =
    Arg.(value & flag & info [ "all" ] ~doc:"Lint every bundled workload skeleton.")
  in
  let strict_arg =
    Arg.(value & flag & info [ "strict" ] ~doc:"Exit non-zero on warnings, not just errors.")
  in
  let json_arg =
    Arg.(value & flag & info [ "json" ] ~doc:"Emit the report as JSON instead of text.")
  in
  let codes_arg =
    let doc =
      "Without a value, list every diagnostic code and exit.  With a comma-separated list \
       (e.g. $(b,--codes GPP101,GPP301)), restrict the report to those codes; unknown codes \
       are an error with a nearest-match suggestion, never a silently empty filter."
    in
    Arg.(value & opt ~vopt:(Some "") (some string) None & info [ "codes" ] ~docv:"CODES" ~doc)
  in
  let explain_arg =
    let doc =
      "Print the long-form description and suggested fix for one diagnostic code \
       (e.g. $(b,--explain GPP601)) and exit.  Unknown codes exit 2 with the nearest valid \
       code."
    in
    Arg.(value & opt (some string) None & info [ "explain" ] ~docv:"CODE" ~doc)
  in
  let sarif_arg =
    let doc =
      "Also write the report as SARIF 2.1.0 to $(docv) — the format code-hosting CIs ingest \
       for inline annotations."
    in
    Arg.(value & opt (some string) None & info [ "sarif" ] ~docv:"FILE" ~doc)
  in
  Cmd.v (Cmd.info "lint" ~doc)
    Term.(
      const run $ Cmd_common.machine_arg $ keys_arg $ all_arg $ strict_arg $ json_arg $ codes_arg
      $ explain_arg $ sarif_arg $ Cmd_common.verbose_arg)
