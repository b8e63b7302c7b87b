open Cmdliner

let trace_workload machine seed key output verbose =
  Gpp_engine.Runtime.setup_logs verbose;
  match Gpp_engine.Workload.resolve key with
  | Error e -> Cmd_common.fail e
  | Ok inst -> (
      let session = Cmd_common.session_of machine seed in
      match
        Gpp_core.Projection.project ~pricing:session.Gpp_core.Grophecy.pricing (inst.program 1)
      with
      | Error e -> Cmd_common.fail e
      | Ok projection ->
          let rng = Gpp_util.Rng.create seed in
          List.fold_left
            (fun status (kp : Gpp_core.Projection.kernel_projection) ->
              if status <> 0 then status
              else begin
                let collector = Gpp_gpusim.Trace.create () in
                match
                  Gpp_gpusim.Gpu_sim.run ~trace:collector ~rng ~gpu:machine.Gpp_arch.Machine.gpu
                    kp.Gpp_core.Projection.candidate.Gpp_transform.Explore.characteristics
                with
                | Error e ->
                    prerr_endline e;
                    1
                | Ok result ->
                    Printf.printf "%s (%s): simulated %s\n%s"
                      kp.Gpp_core.Projection.kernel_name
                      kp.Gpp_core.Projection.candidate.Gpp_transform.Explore.characteristics
                        .Gpp_model.Characteristics.config_label
                      (Gpp_util.Units.time_to_string result.Gpp_gpusim.Gpu_sim.time)
                      (Gpp_gpusim.Trace.summary collector);
                    let path =
                      Printf.sprintf "%s.%s.json" output kp.Gpp_core.Projection.kernel_name
                    in
                    Gpp_gpusim.Trace.write_chrome collector (open_out path);
                    Printf.printf "wrote %s (open in chrome://tracing or Perfetto)\n\n" path;
                    0
              end)
            0 projection.Gpp_core.Projection.kernels)

(* trace selftest: emit a miniature trace through the real span/counter
   machinery (every canonical pipeline phase appears), then validate it
   with the built-in checker — no external tooling, so CI can gate on
   it.  With a FILE argument it validates that file instead, which is
   how CI checks traces produced by real runs. *)
let trace_selftest file verbose =
  Gpp_engine.Runtime.setup_logs verbose;
  match file with
  | Some path -> (
      match Gpp_obs.Validate.validate_file path with
      | Ok stats ->
          Format.printf "%s: valid Chrome trace (%a)@." path Gpp_obs.Validate.pp_stats stats;
          0
      | Error e ->
          Format.eprintf "%s: INVALID trace: %s@." path e;
          1)
  | None -> (
      let module Obs = Gpp_obs.Obs in
      let path = Filename.temp_file "grophecy-selftest" ".trace.json" in
      let finish status =
        Obs.set_enabled false;
        Obs.reset ();
        (try Sys.remove path with Sys_error _ -> ());
        status
      in
      Obs.set_enabled true;
      match Obs.start_trace path with
      | Error e ->
          Format.eprintf "trace selftest: cannot open %s: %s@." path e;
          finish 1
      | Ok () ->
          Obs.span "selftest" (fun () ->
              Obs.span "parse" (fun () -> ());
              Obs.span "analysis.lint" (fun () -> ());
              Obs.span "core.project" (fun () ->
                  Obs.span "core.search" (fun () ->
                      Obs.span "transform.search" (fun () ->
                          Obs.span "transform.candidate" (fun () -> ())));
                  Obs.span "dataflow.analyze" (fun () -> ());
                  Obs.span "core.price_transfers" (fun () -> ()));
              Obs.span "core.measure" (fun () ->
                  Obs.span "gpusim.run_mean" (fun () -> Obs.span "gpusim.run" (fun () -> ()));
                  Obs.span "pcie.transfer" (fun () -> ()));
              Obs.event ~detail:"selftest" "cache.hit";
              Obs.add (Obs.counter "selftest.counter") 42);
          Obs.stop_trace ();
          (match Gpp_obs.Validate.validate_file path with
          | Ok stats ->
              Format.printf "trace selftest: ok (%a)@." Gpp_obs.Validate.pp_stats stats;
              finish 0
          | Error e ->
              Format.eprintf "trace selftest: emitted trace is INVALID: %s@." e;
              finish 1))

let cmd =
  let doc =
    "Simulate a workload's kernels and export Chrome-trace timelines, or ($(b,trace selftest)) \
     check the observability layer's own trace output."
  in
  let output_arg =
    Arg.(
      value & opt string "gpp-trace"
      & info [ "output"; "o" ] ~docv:"PREFIX" ~doc:"Output path prefix for the trace JSON files.")
  in
  (* Workload keys are free-form ("hotspot/1024 x 1024"), so selftest
     cannot be a Cmd.group subcommand — the group would reject every
     workload as an unknown command name.  Dispatch on the first
     positional instead: no bundled workload is named "selftest". *)
  let target_arg =
    let doc =
      "Workload instance as $(b,app/size) (e.g. $(b,cfd/97K)), or the literal $(b,selftest) to \
       emit a miniature trace through the observability layer and validate it — exits 1 if the \
       trace is malformed; CI gates on this."
    in
    Arg.(required & pos 0 (some string) None & info [] ~docv:"WORKLOAD|selftest" ~doc)
  in
  let file_arg =
    Arg.(
      value & pos 1 (some string) None
      & info [] ~docv:"FILE"
          ~doc:"With $(b,selftest): an existing trace JSON file to validate instead.")
  in
  let dispatch machine seed target file output verbose =
    match target with
    | "selftest" -> trace_selftest file verbose
    | key -> trace_workload machine seed key output verbose
  in
  Cmd.v (Cmd.info "trace" ~doc)
    Term.(
      const dispatch $ Cmd_common.machine_arg $ Cmd_common.seed_arg $ target_arg $ file_arg
      $ output_arg $ Cmd_common.verbose_arg)
