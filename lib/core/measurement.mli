(** "Measured" application performance from the simulated substrate.

    The paper measures a hand-written CUDA implementation that employs
    the transformations GROPHECY suggested (§IV-A); here the
    transaction-level GPU simulator executes the winning candidate's
    characteristics, and the PCIe link simulator executes the planned
    transfers with pinned memory.  Every time is the arithmetic mean of
    a configurable number of runs (default 10, the paper's protocol). *)

type kernel_measurement = {
  kernel_name : string;
  time : float;  (** Mean simulated time of one invocation. *)
}

type transfer_measurement = {
  transfer : Gpp_dataflow.Analyzer.transfer;
  time : float;  (** Mean simulated transfer time. *)
}

type t = {
  kernels : kernel_measurement list;  (** Per distinct kernel. *)
  kernel_time : float;  (** Summed over the invocation schedule. *)
  transfers : transfer_measurement list;
  transfer_time : float;
  total_time : float;
}

val measure_kernels :
  ?cache:bool ->
  ?sim_config:Gpp_gpusim.Gpu_sim.config ->
  ?runs:int ->
  ?seed:int64 ->
  machine:Gpp_arch.Machine.t ->
  kernels:Projection.kernel_projection list ->
  Gpp_skeleton.Program.t ->
  (kernel_measurement list * float, Error.t) result
(** The kernel half of {!measure_parts}: simulate every chosen
    candidate and sum the program's invocation schedule, returning the
    per-kernel means and the scheduled kernel time.  Deterministic in
    its arguments — kernel seeds come from a fresh RNG over [seed], so
    this half is safe to run on worker domains in any order. *)

val expected_transfers :
  ?memory:Gpp_pcie.Link.memory ->
  link:Gpp_pcie.Link.t ->
  Gpp_dataflow.Analyzer.plan ->
  transfer_measurement list
(** Noise-free counterpart of {!price_transfers}: each planned transfer
    at the link's deterministic expected time ({!Gpp_pcie.Link.expected_time}).
    Pure — no RNG draw — so it is safe on any domain in any order; the
    learned-correction trainer and the cross-machine variant scorer use
    it as measured ground truth for transfers. *)

val price_transfers :
  ?runs:int ->
  ?memory:Gpp_pcie.Link.memory ->
  link:Gpp_pcie.Link.t ->
  Gpp_dataflow.Analyzer.plan ->
  transfer_measurement list
(** The transfer half of {!measure_parts}: execute the planned
    transfers on [link] with [memory] staging (default pinned, the
    paper's protocol).  Each draw advances the link's
    stateful RNG, so call order across measurements is part of the
    result — callers that need reproducible output must price in a
    fixed order (the batch runner prices serially in cell order). *)

val of_parts :
  kernels:kernel_measurement list ->
  kernel_time:float ->
  transfers:transfer_measurement list ->
  t
(** Assemble a measurement from the two halves (sums transfer and total
    times). *)

val measure_parts :
  ?cache:bool ->
  ?sim_config:Gpp_gpusim.Gpu_sim.config ->
  ?runs:int ->
  ?seed:int64 ->
  link:Gpp_pcie.Link.t ->
  machine:Gpp_arch.Machine.t ->
  kernels:Projection.kernel_projection list ->
  plan:Gpp_dataflow.Analyzer.plan ->
  Gpp_skeleton.Program.t ->
  (t, Error.t) result
(** Execute the Explore stage's chosen kernels and the Analyze stage's
    planned transfers on the simulated hardware: {!measure_kernels},
    then {!price_transfers} on [link] with the machine's staging mode.
    The link is used as-is (the session's application link has
    outliers enabled, reproducing the noisy application-transfer
    behaviour of §V-A).

    Kernel simulations are seeded deterministically and memoized (see
    {!Gpp_gpusim.Gpu_sim.run_mean}); transfer times come from the
    stateful link and are never cached.  [~cache:false] forces
    re-simulation.  Failures are {!Error.Simulation}. *)

val kernel_time_of : t -> string -> float option

val per_kernel_times : t -> (string * float) list

val pp : Format.formatter -> t -> unit
