(** Shared experiment state.

    Runs one {!Gpp_engine.Batch} over every Table I application/data-size
    pair on one machine (calibrating a single session, exactly as the
    paper derives all results from one set of runs); every table and
    figure then reads from these cached reports. *)

type t

val create : Gpp_engine.Config.t -> (t, Gpp_engine.Error.t) result
(** Analyze every Table I instance under a resolved scenario, exactly
    as [grophecy batch] does on the scenario's machine: its seed,
    simulator, model and predictor parameters, runs and iterations all
    apply.  {!Gpp_engine.Config.default} is the paper's setting, the
    Argonne node.

    If any instance fails to analyze, the one error names every failing
    workload, not just the first, and keeps the first failure's
    category. *)

val session : t -> Gpp_core.Grophecy.session

val machine : t -> Gpp_arch.Machine.t

val instances : t -> (Gpp_workloads.Registry.instance * Gpp_core.Grophecy.report) list
(** Paper order. *)

val find_report : t -> app:string -> size:string -> Gpp_core.Grophecy.report option

val report : t -> app:string -> size:string -> Gpp_core.Grophecy.report
(** @raise Invalid_argument for an unknown pair, naming the pair and the
    known keys. *)

val reports_of_app : t -> string -> (string * Gpp_core.Grophecy.report) list
(** [(size, report)] pairs for one application. *)

val apps : t -> string list
(** Distinct applications, first-appearance order. *)
