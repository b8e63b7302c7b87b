(** Structured pipeline errors.

    Every fallible step of the GROPHECY++ pipeline reports one of these
    variants instead of a bare string, so callers (the engine's staged
    runner, the CLI, the batch executor) can dispatch on what went wrong
    without matching on message text.  The variants follow the pipeline
    phases: skeleton parsing, static analysis, transformation
    search/projection, PCIe calibration, GPU simulation, the projection
    cache, file I/O, and scenario configuration.

    Rendering is intentionally bare: each payload carries the complete
    message as the CLI has always printed it, and {!exit_code} maps every
    variant onto the established 0/1/2 exit-code space. *)

type t =
  | Parse of { source : string option; message : string }
      (** Workload resolution or [.skel] parsing failed.  [source] is
          the workload key or file path that was looked up. *)
  | Lint of { program : string; errors : int; warnings : int }
      (** Static analysis found diagnostics at or above the failure
          threshold. *)
  | Projection of { kernel : string option; message : string }
      (** Program validation failed or a kernel admits no feasible GPU
          transformation. *)
  | Calibration of { machine : string option; message : string }
      (** The synthetic PCIe calibration benchmark failed. *)
  | Simulation of { kernel : string option; message : string }
      (** The transaction-level GPU simulator rejected a kernel. *)
  | Cache of { path : string option; message : string }
      (** Projection-cache store failure that cannot degrade to a
          miss. *)
  | Io of { path : string option; message : string }
      (** Reading or writing an output artifact failed. *)
  | Config of { source : string option; message : string }
      (** A scenario configuration layer (file, environment variable, or
          flag set) is malformed.  [source] names the file or
          variable. *)
  | Usage of string  (** Malformed command-line request. *)

val parse : ?source:string -> string -> t

val projection : ?kernel:string -> string -> t

val simulation : ?kernel:string -> string -> t

val calibration : ?machine:string -> string -> t

val cache : ?path:string -> string -> t

val io : ?path:string -> string -> t

val config : ?source:string -> string -> t

val usage : string -> t

val message : t -> string
(** The complete human-readable message (no category prefix — payload
    messages are full sentences). *)

val with_message : t -> string -> t
(** The same variant and context with a new message, for an error that
    stands for several (one naming every failed workload of a run).  A
    [Lint] error has no message of its own; it becomes a [Projection]
    error, which has the same exit code. *)

val category : t -> string
(** Stable lowercase tag per variant ([parse], [lint], ...). *)

val exit_code : t -> int
(** [2] for requests that could never succeed (parse, config, usage);
    [1] for well-formed operations that failed. *)

val pp : Format.formatter -> t -> unit

val to_string : t -> string
(** Alias of {!message}. *)
