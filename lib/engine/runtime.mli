(** Process-wide scenario side effects (logging, tracing, caching).

    Exactly one [install] (or the individual pieces) should run per
    process, before any pipeline work.  Shared by every binary so the
    single-run commands, the batch runner, and the experiment suite
    honour [--trace]/[--no-cache]/[--cache-dir] identically. *)

val install : Config.t -> unit
(** Apply the scenario's observability and cache settings: set the log
    level from [verbose]; when [trace] is set, enable observability and
    stream a Chrome trace to the file (summary on stderr at exit); apply
    [cache_dir]; with [cache_enabled] load the persistent cache tier and
    register its flush on exit, otherwise disable both cache tiers.

    Registers the trace [at_exit] before the cache flush [at_exit] so
    the flush is still captured by the trace. *)

val ignore_sigpipe : unit -> unit
(** Ignore SIGPIPE process-wide (no-op where the signal doesn't exist),
    so writing to a closed pipe or socket raises a catchable
    [Sys_error] / [Unix_error EPIPE] instead of killing the process.
    Every binary should call this before its first write; servers rely
    on it to map a hung-up client to a per-connection close. *)

val is_broken_pipe : exn -> bool
(** Recognise the exceptions a write to a closed peer raises once
    SIGPIPE is ignored ([EPIPE]/[ECONNRESET], or the stdlib's
    ["Broken pipe"] [Sys_error]).  A CLI whose stdout was truncated
    ([grophecy experiment | head]) should treat these as success. *)

val discard_stdout : unit -> unit
(** After a broken pipe on stdout: silence [Format.std_formatter] and
    close the channel so the interpreter's at_exit flushes cannot
    re-raise on the dead descriptor.  Call just before [exit 0] when
    treating a truncated stdout as success. *)

val flush_stdout : unit -> unit
(** Flush [Format.std_formatter] and [stdout].  Call inside the same
    [try] that treats {!is_broken_pipe} as success: an output small
    enough to stay in the channel buffer otherwise first hits EPIPE in
    the at_exit flush, where no handler can catch it. *)

val setup_logs : bool -> unit
(** Just the log-level piece ([true] = debug). *)

val setup_trace : string option -> unit

val setup_cache : enabled:bool -> dir:string option -> unit
