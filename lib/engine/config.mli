(** Typed scenario configuration with layered resolution.

    One {!t} record captures everything a pipeline run depends on — the
    target machine, the noise seeds, the simulator/CPU/analytic model
    parameters, the transfer policy, and the cache/observability
    switches.  {!resolve} builds it by layering, lowest precedence
    first:

    {v library defaults < sexp config file (--config FILE)
       < GPP_* environment variables < command-line flags v}

    The defaults reproduce [Grophecy.init machine] bit-for-bit:
    {!Pipeline.session_of} a default-resolved config calibrates exactly
    that session. *)

type t = {
  machine : Gpp_arch.Machine.t;
  machines : Gpp_arch.Machine.t list;
      (** The resolved machine catalog: the builtin
          {!Gpp_arch.Machine.catalog} merged with descriptors from the
          config file's [(machines ...)] group, [GPP_MACHINES], and
          [--machines] (later layers replace matching ids).  Machine
          names everywhere — [machine]/[-m], the batch axis, crossval —
          resolve against this list. *)
  seed : int64;  (** Seed for the simulated hardware's noise streams. *)
  outlier_probability : float;
      (** Slow-transfer outlier rate of the application link (§V-A). *)
  protocol : Gpp_pcie.Calibrate.protocol option;
      (** Calibration protocol override (sizes and runs). *)
  runs : int option;  (** Runs per measurement mean (default 10). *)
  iterations : int option;
      (** When set, rescale the program's [Repeat] nodes. *)
  use_cache : bool option;
      (** Per-call memo override handed to the core pipeline; [None]
          defers to the global switch. *)
  analytic : Gpp_model.Analytic.params option;
  space : Gpp_transform.Explore.space option;
  policy : Gpp_dataflow.Analyzer.policy option;
  sim : Gpp_gpusim.Gpu_sim.config option;
  cpu : Gpp_cpu.Timing.params option;
  predictor : Gpp_predict.Predictor.t;
      (** The predictor stack projections price through
          ([--predict]/[GPP_PREDICT]/config [(predict (stages ...))];
          default {!Gpp_predict.Predictor.analytic}, byte-identical to
          the pre-predictor pipeline). *)
  predict_lambda : float;
      (** Ridge regularization strength for the Learned stage's
          correction fit (config [(predict (lambda ...))], default
          {!Gpp_predict.Correction.default_lambda}). *)
  lint : bool;  (** Run the Lint stage (diagnostics to stderr). *)
  jobs : int;
      (** Worker domains for the batch runner ([--jobs]/[GPP_JOBS],
          default 1 = sequential).  Output is byte-identical at any
          value; see {!Batch.run}. *)
  cache_enabled : bool;  (** Process-wide cache switch ([--no-cache]). *)
  cache_dir : string option;  (** Persistent-store directory override. *)
  trace : string option;  (** Chrome-trace output file ([--trace]). *)
  verbose : bool;
  listen : string;
      (** [grophecy serve] bind address: [HOST:PORT] (port [0] = pick a
          free one) or [unix:PATH] ([--listen]/[GPP_LISTEN], default
          [127.0.0.1:8080]). *)
  flush_every : int;
      (** [grophecy serve]: flush the persistent cache tier every N
          requests ([--flush-every]/[GPP_FLUSH_EVERY], default 64), so a
          killed server loses at most the last N requests' worth of
          memoized work. *)
}

val default : t

val machine_of_name : string -> (Gpp_arch.Machine.t, string) result
(** Builtin-catalog lookup by id, for callers without a resolved
    scenario (simple CLI commands).  Scenario layers and the serve API
    use {!find_machine} so file-loaded machines resolve too. *)

val find_machine : t -> string -> (Gpp_arch.Machine.t, string) result
(** Lookup in the scenario's resolved [machines] catalog. *)

val machine_names : string list
(** Ids of the builtin catalog. *)

val apply_file : t -> path:string -> (t, Error.t) result
(** Layer a sexp scenario file onto [t].  The file is one list of
    [(key value)] pairs; parameter groups ([analytic], [cpu], [sim],
    [policy], [space], [protocol], [cache]) nest another pair list and
    start from the library defaults, so partial groups override only the
    named fields.  A [(machines <descriptor> ...)] group (see
    {!Machines}) merges into the catalog first, whatever its position,
    so [(machine NAME)] can name a machine the same file defines.
    Unknown keys, malformed sexps, and unreadable files are
    {!Error.Config} naming the file. *)

val apply_env : ?getenv:(string -> string option) -> t -> (t, Error.t) result
(** Layer the [GPP_*] environment variables onto [t].  [getenv] is
    injectable for tests.  Malformed values are {!Error.Config} naming
    the variable. *)

val env_vars : string list
(** The variables {!apply_env} consults. *)

type overrides = {
  o_machines_file : string option;
      (** [--machines FILE]: merge a machine-descriptor catalog over the
          lower layers' catalog before any name resolves. *)
  o_machine : string option;
      (** [-m NAME]: resolved against the final catalog, so it can name
          a machine that [--machines] (or any lower layer) defined. *)
  o_seed : int64 option;
  o_runs : int option;
  o_iterations : int option;
  o_jobs : int option;
  o_no_cache : bool;
  o_cache_dir : string option;
  o_trace : string option;
  o_verbose : bool;
  o_transfer_plan : Gpp_dataflow.Analyzer.plan_policy option;
      (** [--transfer-plan]: overrides the [plan] field of the policy
          layer (config file [policy (plan ...)], environment
          [GPP_TRANSFER_PLAN]). *)
  o_predict : string option;
      (** [--predict NAME[,NAME...]]: the predictor stack, parsed with
          {!Gpp_predict.Predictor.of_string}.  Unknown stage names are
          {!Error.Config} (exit 2) with a nearest-name suggestion. *)
  o_listen : string option;  (** [--listen] for [grophecy serve]. *)
  o_flush_every : int option;  (** [--flush-every] for [grophecy serve]. *)
}
(** The command-line flag layer: [None]/[false] means "flag not given,
    keep the lower layers' value". *)

val no_overrides : overrides

val apply_overrides : t -> overrides -> (t, Error.t) result
(** Layer the flag overrides onto [t].  Loading [o_machines_file] and
    resolving [o_machine] can fail; both are {!Error.Config} (exit 2). *)

val resolve :
  ?getenv:(string -> string option) ->
  ?file:string ->
  ?overrides:overrides ->
  unit ->
  (t, Error.t) result
(** Full layered resolution: defaults, then [file], then environment,
    then [overrides], then {!validate}. *)

val validate : t -> (t, Error.t) result
(** Cross-layer range checks: [runs] and [iterations] at least 1 when
    set, [jobs] within {!Pool.max_jobs}, [flush_every >= 1], and the
    [sim] group's efficiencies in (0, 1], latency jitter in [0, 1] and
    dispatch cycles, drain cycles and noise sigma finite and >= 0.  An
    out-of-range value is an {!Error.Config} (exit 2) whichever layer
    supplied it; [grophecy serve] applies the same checks to request
    parameters (a 400). *)
