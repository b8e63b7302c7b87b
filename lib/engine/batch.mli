(** Batch runner: a workload × machine × iterations matrix through the
    staged pipeline, optionally sharded across worker domains.

    One calibrated session per machine; cells are enumerated in
    machine-major, then workload, then iteration order — the exact order
    the experiment suite has always used, so batches over the paper
    instances reproduce its reports bit-for-bit.  Per-cell failures are
    collected, not fatal: one bad skeleton does not sink the matrix.

    The deterministic phases of each cell (parse through kernel
    simulation) run on a {!Pool} of [jobs] worker domains, while
    transfer pricing — the only computation that advances shared state,
    the per-machine application link's RNG — runs serially in cell-index
    order afterwards.  The draw order does not depend on [jobs], so
    {!to_tsv} is byte-identical at every [jobs] value. *)

type cell = {
  workload : string;  (** Registry key ([app/size]) or [.skel] path. *)
  machine : Gpp_arch.Machine.t;
  iterations : int option;
}

type cell_result = { cell : cell; outcome : (Gpp_core.Grophecy.report, Error.t) result }

type t = {
  config : Config.t;
  sessions : (string * Gpp_core.Grophecy.session) list;
      (** Calibrated session per machine name, in run order. *)
  cells : cell_result list;  (** All cells, in run order. *)
}

val run :
  ?machines:Gpp_arch.Machine.t list ->
  ?iterations:int option list ->
  ?jobs:int ->
  Config.t ->
  workloads:string list ->
  t
(** Run every cell of [workloads × machines × iterations].  [machines]
    defaults to the scenario's machine; [iterations] defaults to
    [[None]] (each program as bundled); [jobs] defaults to the
    scenario's [jobs] field and must satisfy {!Pool.run}'s range
    ([Config.resolve] already enforces it for user input; at [jobs = 1]
    the pool runs on the calling domain).  The scenario's cache
    settings are honoured per cell; calibration, the deterministic cell
    halves, and transfer pricing get obs spans ([batch.calibrate],
    [batch.cell], [batch.price]). *)

val session : t -> machine:string -> Gpp_core.Grophecy.session option
(** The calibrated session for a machine name. *)

val succeeded : t -> (cell * Gpp_core.Grophecy.report) list

val failed : t -> (cell * Error.t) list

val to_tsv : t -> string
(** Stable tab-separated rendering (fixed 6-decimal floats), one row per
    cell in run order; failed cells carry their error category.  The CI
    batch-matrix leg diffs this against a committed golden file. *)

val tsv_header : string
