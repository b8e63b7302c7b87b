(** Transaction-level GPU kernel simulator — the reproduction's
    "measured" execution path (see DESIGN.md).

    Simulates a kernel launch as a discrete-event system:

    - thread blocks dispatch onto SMs up to the occupancy limit, with a
      per-block dispatch cost; remaining blocks queue and start as slots
      free (wave scheduling, including ragged final waves);
    - each warp alternates compute phases — serialized on its SM's
      issue pipeline (a FIFO server) — with memory phases that reserve
      the shared DRAM channel, pay queueing delay under contention, and
      wait out the access latency (jittered per request);
    - DRAM sustains pattern-dependent bandwidth: streaming bursts
      achieve a high fraction of peak, scattered (gather/scatter)
      transactions a much lower one.

    These contention and second-order effects are exactly what the
    analytic model idealizes away, so simulated times exceed analytic
    projections most for irregular kernels — reproducing the error
    structure of the paper's measurements (§V-B: CFD's kernel time is
    under-predicted far more than the stencils').

    Large grids are wave-sampled: a configurable number of whole waves
    is simulated in full detail and the steady-state per-block rate
    extrapolates the rest.

    Events run in time order, and events at the same time run in the
    order they were scheduled.  That order fixes the order of the RNG
    draws, so the [rng] state a run starts from determines every field
    of its {!result}, the obs counters and the recorded trace, bit for
    bit.  The pending events sit in a calendar queue (Brown, 1988): one
    node per resident warp, in time buckets whose width tracks the mean
    gap between events.  No two (time, scheduling order) keys are
    equal, so it pops exactly the sequence the binary heap it replaced
    popped, and every result is unchanged. *)

type config = {
  streaming_efficiency : float;
      (** Fraction of peak DRAM bandwidth sustained by coalesced
          streaming bursts. *)
  scattered_efficiency : float;
      (** Fraction sustained by isolated/scattered transactions. *)
  latency_jitter : float;
      (** Relative half-width of the per-request uniform latency
          jitter. *)
  block_dispatch_cycles : float;  (** Cost to start one block on an SM. *)
  drain_cycles : float;  (** Pipeline drain at kernel end. *)
  noise_sigma : float;  (** Run-to-run multiplicative noise on the final
                            time. *)
  max_simulated_blocks : int;
      (** Full-detail block budget before wave-sampled extrapolation
          kicks in. *)
}

val default_config : config

type result = {
  kernel_name : string;
  time : float;  (** Seconds, including launch overhead and noise. *)
  busy_time : float;  (** Noise-free simulated execution span. *)
  dram_utilization : float;  (** DRAM busy fraction over the simulated
                                 span. *)
  issue_utilization : float;  (** Mean SM issue-pipeline busy fraction. *)
  simulated_blocks : int;
  total_blocks : int;
  extrapolated : bool;  (** Whether wave sampling was used. *)
  events : int;  (** Discrete events processed (diagnostics). *)
}

val run :
  ?config:config ->
  ?trace:Trace.t ->
  rng:Gpp_util.Rng.t ->
  gpu:Gpp_arch.Gpu.t ->
  Gpp_model.Characteristics.t ->
  (result, string) Result.t
(** Simulate one launch.  [Error] when the characteristics cannot be
    scheduled on the device, when a duration the run schedules by (the
    issue chunk, the DRAM service time, the block dispatch cost or
    either end of the jittered DRAM latency range) is negative or not
    finite, or when the run would schedule 2^62 events or more; all are
    checked before any event runs.  Pass a {!Trace.t}
    to record block, issue, and DRAM activity for inspection or
    Chrome-trace export. *)

val run_mean :
  ?cache:bool ->
  ?config:config ->
  ?runs:int ->
  seed:int64 ->
  gpu:Gpp_arch.Gpu.t ->
  Gpp_model.Characteristics.t ->
  (float, string) Result.t
(** Arithmetic-mean time of [runs] (default 10) independent simulated
    launches — the paper's measurement protocol.

    Because all randomness derives from [seed], the result is a pure
    function of its arguments and is memoized under a structural digest
    of (config, runs, seed, GPU, characteristics); cached and uncached
    calls return bit-identical times.  Pass [~cache:false] (or disable
    {!Gpp_cache.Control}) to re-simulate. *)
