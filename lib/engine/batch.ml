module Grophecy = Gpp_core.Grophecy
module Measurement = Gpp_core.Measurement
module Obs = Gpp_obs.Obs

type cell = { workload : string; machine : Gpp_arch.Machine.t; iterations : int option }

type cell_result = { cell : cell; outcome : (Grophecy.report, Error.t) result }

type t = {
  config : Config.t;
  sessions : (string * Grophecy.session) list;
  cells : cell_result list;
}

(* Cells are enumerated machine-major, then workload, then iteration —
   the exact order the experiment context has always used, so a batch
   over the paper instances reproduces the suite's reports bit-for-bit.

   Parallelism does not change the output.  The only cross-cell state is
   each machine session's application link, whose stateful RNG advances
   a data-dependent number of draws per transfer (outliers draw extra),
   so transfer pricing must happen in a fixed order.  Every cell is
   therefore split at the Simulate stage: the deterministic phases
   (Parse..Explore plus the kernel simulations, which seed a fresh RNG
   from the session's noise seed) go through the {!Pool}, while transfer
   pricing runs serially in cell-index order.  At [jobs = 1] the pool
   runs the first half in index order on the calling domain; at any
   [jobs] the link draws happen in the same order, so the TSV is
   byte-identical. *)

(* Deterministic per-cell half: resolve, analyze, explore, and simulate
   the kernels.  Runs on worker domains; touches no shared mutable state
   beyond the (domain-safe) memo tables. *)
let run_deterministic ~session (cconfig : Config.t) ~workload =
  match Pipeline.run ~through:Stage.Explore ~session cconfig ~workload with
  | Error e -> Error e
  | Ok state -> (
      let program = Option.get state.Pipeline.program in
      let kernels = Option.get state.Pipeline.kernels in
      match
        Measurement.measure_kernels ?cache:cconfig.Config.use_cache
          ?sim_config:cconfig.Config.sim ?runs:cconfig.Config.runs
          ~seed:session.Grophecy.noise_seed ~machine:cconfig.Config.machine ~kernels program
      with
      | Error e -> Error e
      | Ok (kmeas, ktime) -> Ok (state, kmeas, ktime))

(* Serial per-cell half: price the planned transfers on the machine
   session's stateful link, then finish the pipeline (Project and
   Evaluate are pure in the session's calibrated models). *)
let finish_cell ~session (cconfig : Config.t) (state, kmeas, ktime) =
  let plan = Option.get state.Pipeline.plan in
  let transfers =
    Obs.span "batch.price" @@ fun () ->
    Measurement.price_transfers ?runs:cconfig.Config.runs
      ~memory:
        (Gpp_pcie.Link.memory_of_staging
           cconfig.Config.machine.Gpp_arch.Machine.staging)
      ~link:session.Grophecy.application_link plan
  in
  let measurement = Measurement.of_parts ~kernels:kmeas ~kernel_time:ktime ~transfers in
  let state = { state with Pipeline.measurement = Some measurement } in
  match Pipeline.resume ~session state with
  | Ok state -> Ok (Pipeline.report_exn state)
  | Error e -> Error e

let run ?machines ?(iterations = [ None ]) ?jobs (config : Config.t) ~workloads =
  let machines = match machines with Some ms -> ms | None -> [ config.Config.machine ] in
  let jobs = match jobs with Some j -> j | None -> config.Config.jobs in
  (* Sessions calibrate serially whatever [jobs] is: each owns
     independent RNG streams seeded from the scenario, so calibration
     order cannot affect cell results, and keeping it off the pool makes
     the session list deterministic for free. *)
  let sessions =
    List.map
      (fun (machine : Gpp_arch.Machine.t) ->
        let mconfig = { config with Config.machine } in
        let session = Obs.span "batch.calibrate" (fun () -> Pipeline.session_of mconfig) in
        (machine, mconfig, session))
      machines
  in
  let cells =
    List.concat_map
      (fun (machine, (mconfig : Config.t), session) ->
        List.concat_map
          (fun workload ->
            List.map
              (fun iters ->
                ( { workload; machine; iterations = iters },
                  { mconfig with Config.iterations = iters },
                  session ))
              iterations)
          workloads)
      sessions
  in
  let cells = Array.of_list cells in
  let n = Array.length cells in
  let partial = Array.make n None in
  Pool.run ~jobs n (fun i ->
      let cell, cconfig, session = cells.(i) in
      let r =
        Obs.span "batch.cell" @@ fun () -> run_deterministic ~session cconfig ~workload:cell.workload
      in
      partial.(i) <- Some r);
  let outcomes =
    Array.init n (fun i ->
        let _cell, cconfig, session = cells.(i) in
        match Option.get partial.(i) with
        | Error e -> Error e
        | Ok parts -> finish_cell ~session cconfig parts)
  in
  let cell_results =
    Array.to_list
      (Array.mapi
         (fun i outcome ->
           let cell, _, _ = cells.(i) in
           { cell; outcome })
         outcomes)
  in
  {
    config;
    sessions = List.map (fun (m, _, s) -> (m.Gpp_arch.Machine.name, s)) sessions;
    cells = cell_results;
  }

let session t ~machine =
  List.assoc_opt machine t.sessions

let succeeded t =
  List.filter_map
    (fun { cell; outcome } -> match outcome with Ok r -> Some (cell, r) | Error _ -> None)
    t.cells

let failed t =
  List.filter_map
    (fun { cell; outcome } -> match outcome with Ok _ -> None | Error e -> Some (cell, e))
    t.cells

let tsv_header =
  "workload\tmachine\titerations\tstatus\tmeasured\tkernel_only\ttransfer_only\twith_transfer\tkernel_error\ttransfer_error"

(* Stable text rendering for golden files: fixed six-decimal floats,
   tab-separated, one row per cell in run order.  Failed cells keep
   their row (status = the error category) so a matrix diff shows
   exactly which cell regressed. *)
let to_tsv t =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf tsv_header;
  Buffer.add_char buf '\n';
  List.iter
    (fun { cell; outcome } ->
      let iters = match cell.iterations with None -> "-" | Some n -> string_of_int n in
      (match outcome with
      | Ok (r : Grophecy.report) ->
          let s = r.speedups in
          Printf.bprintf buf "%s\t%s\t%s\tok\t%.6f\t%.6f\t%.6f\t%.6f\t%.6f\t%.6f"
            cell.workload cell.machine.Gpp_arch.Machine.name iters s.Gpp_core.Evaluation.measured
            s.Gpp_core.Evaluation.kernel_only s.Gpp_core.Evaluation.transfer_only
            s.Gpp_core.Evaluation.with_transfer r.kernel_error r.transfer_error
      | Error e ->
          Printf.bprintf buf "%s\t%s\t%s\terror:%s\t-\t-\t-\t-\t-\t-" cell.workload
            cell.machine.Gpp_arch.Machine.name iters (Error.category e));
      Buffer.add_char buf '\n')
    t.cells;
  Buffer.contents buf
