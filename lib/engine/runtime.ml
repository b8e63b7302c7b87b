(* Process-wide side effects of a resolved scenario: logging level,
   trace sink, cache switches.  Moved out of the CLI preamble so the
   batch runner and the experiment suite install the exact same
   behaviour.

   The trace sink is set up *before* the cache at_exit is registered:
   at_exit handlers run in reverse order, so the final cache flush is
   still captured by the trace before the trailer is written. *)

(* SIGPIPE kills the whole process by default, so `grophecy experiment
   | head` — or a server whose client hung up — dies mid-write instead of
   seeing the EPIPE error on the write itself.  Ignoring the signal
   turns the kill into a regular [Sys_error]/[Unix_error] that each
   writer handles: the CLI exits 0 on a truncated stdout, the server
   closes just that connection. *)
let ignore_sigpipe () =
  try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
  with Invalid_argument _ | Sys_error _ -> (* no SIGPIPE on this platform *) ()

(* With SIGPIPE ignored, a write to a closed peer surfaces as one of
   these depending on the layer doing the writing (stdlib channels
   stringify the errno; Format/Printf on a closed stdout raise the
   Sys_error at flush time). *)
let is_broken_pipe = function
  | Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) -> true
  | Sys_error msg ->
      (* e.g. "Broken pipe" or "...: Broken pipe" from stdlib channels *)
      let sub = "roken pipe" in
      let n = String.length sub and m = String.length msg in
      let rec at i = i + n <= m && (String.sub msg i n = sub || at (i + 1)) in
      at 0
  | _ -> false

(* Once the pipe is broken, buffered stdout can never be delivered —
   and Format.std_formatter's at_exit flush re-raises Sys_error on the
   dead fd (Stdlib's own flush_all swallows it, Format's does not).
   Point the formatter at a sink and close the channel so a subsequent
   [exit] is clean. *)
let discard_stdout () =
  Format.pp_set_formatter_output_functions Format.std_formatter (fun _ _ _ -> ()) (fun () -> ());
  close_out_noerr stdout

(* Deliver buffered output while the caller's broken-pipe handler is
   still in scope.  An output small enough to sit entirely in the
   channel buffer (e.g. `list | head -3`) never writes during command
   evaluation; its first EPIPE surfaces in Stdlib's at_exit flush,
   *after* any [try ... with] around the command — a fatal uncaught
   [Sys_error].  Flushing explicitly inside the handler's scope turns
   that into a catchable exception. *)
let flush_stdout () =
  Format.pp_print_flush Format.std_formatter ();
  flush stdout

let setup_logs verbose =
  Fmt_tty.setup_std_outputs ();
  Logs.set_reporter (Logs_fmt.reporter ());
  Logs.set_level (Some (if verbose then Logs.Debug else Logs.Warning))

let setup_trace = function
  | None -> ()
  | Some file -> (
      Gpp_obs.Obs.set_enabled true;
      match Gpp_obs.Obs.start_trace file with
      | Ok () ->
          at_exit (fun () ->
              Gpp_obs.Obs.stop_trace ();
              Gpp_obs.Obs.print_summary ();
              Format.eprintf "wrote %s (open in chrome://tracing or Perfetto)@." file)
      | Error e -> Format.eprintf "cannot open trace file %s: %s (tracing disabled)@." file e)

let setup_cache ~enabled ~dir =
  Option.iter Gpp_cache.Control.set_dir dir;
  if not enabled then begin
    Gpp_cache.Control.set_enabled false;
    Gpp_cache.Control.set_disk_enabled false
  end
  else begin
    Gpp_cache.Memo.load_disk ();
    at_exit (fun () -> Gpp_cache.Memo.flush_disk ())
  end

let install (c : Config.t) =
  setup_logs c.Config.verbose;
  setup_trace c.Config.trace;
  setup_cache ~enabled:c.Config.cache_enabled ~dir:c.Config.cache_dir
