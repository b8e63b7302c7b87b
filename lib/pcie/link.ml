module Units = Gpp_util.Units
module Rng = Gpp_util.Rng
module Pcie_spec = Gpp_arch.Pcie_spec
module Obs = Gpp_obs.Obs

let c_transfers = Obs.counter "pcie.transfers"

let c_bytes = Obs.counter "pcie.bytes"

let c_rng = Obs.counter "rng.draws"

type direction = Host_to_device | Device_to_host

type memory = Pinned | Pageable

let direction_name = function
  | Host_to_device -> "CPU-to-GPU"
  | Device_to_host -> "GPU-to-CPU"

let memory_name = function Pinned -> "pinned" | Pageable -> "pageable"

let memory_of_staging = function
  | Gpp_arch.Machine.Pinned -> Pinned
  | Gpp_arch.Machine.Pageable -> Pageable

type config = {
  spec : Pcie_spec.t;
  host_copy_bandwidth : float;
  dma_efficiency_h2d : float;
  dma_efficiency_d2h : float;
  dma_setup_h2d : float;
  dma_setup_d2h : float;
  pageable_fastpath_bytes : int;
  pageable_fastpath_overhead : float;
  pageable_fastpath_bandwidth : float;
  pageable_setup : float;
  pageable_chunk : int;
  pageable_chunk_overhead : float;
  pageable_overlap_h2d : float;
  pageable_overlap_d2h : float;
  noise_sigma_base : float;
  noise_sigma_small_h2d : float;
  noise_sigma_small_d2h : float;
  outlier_probability : float;
  outlier_slowdown : float * float;
}

let default_config (machine : Gpp_arch.Machine.t) =
  {
    spec = machine.pcie;
    (* A single-threaded memcpy sustains roughly a third of the FSB-era
       peak on the testbed CPU; on newer hosts it scales with the
       memory system. *)
    host_copy_bandwidth = Float.max (Units.gb_per_s 3.5) (machine.cpu.mem_bandwidth *. 0.33);
    dma_efficiency_h2d = 0.72;
    dma_efficiency_d2h = 0.70;
    dma_setup_h2d = Units.us 10.0;
    dma_setup_d2h = Units.us 12.0;
    pageable_fastpath_bytes = 2 * Units.kib;
    pageable_fastpath_overhead = Units.us 5.0;
    pageable_fastpath_bandwidth = Units.gb_per_s 0.35;
    pageable_setup = Units.us 15.0;
    pageable_chunk = 64 * Units.kib;
    pageable_chunk_overhead = Units.us 1.5;
    pageable_overlap_h2d = 0.35;
    pageable_overlap_d2h = 0.20;
    noise_sigma_base = 0.005;
    noise_sigma_small_h2d = 0.075;
    noise_sigma_small_d2h = 0.035;
    outlier_probability = 0.0;
    outlier_slowdown = (1.8, 2.6);
  }

type t = { cfg : config; rng : Rng.t }

let default_seed = 0x6CA1_1B0A_2013_0520L

let create ?(seed = default_seed) cfg = { cfg; rng = Rng.create seed }

let config t = t.cfg

let dma_efficiency cfg = function
  | Host_to_device -> cfg.dma_efficiency_h2d
  | Device_to_host -> cfg.dma_efficiency_d2h

let dma_setup cfg = function
  | Host_to_device -> cfg.dma_setup_h2d
  | Device_to_host -> cfg.dma_setup_d2h

(* Time on the wire for [bytes] of payload: headers are paid per TLP,
   and the DMA engine sustains only a fraction of the raw link rate. *)
let wire_time cfg direction bytes =
  if bytes = 0 then 0.0
  else
    let payload = cfg.spec.max_payload in
    let packets = (bytes + payload - 1) / payload in
    let wire_bytes = bytes + (packets * cfg.spec.header_bytes) in
    float_of_int wire_bytes /. (Pcie_spec.raw_bandwidth cfg.spec *. dma_efficiency cfg direction)

let pinned_time cfg direction bytes = dma_setup cfg direction +. wire_time cfg direction bytes

let pageable_time cfg direction bytes =
  match direction with
  | Host_to_device when bytes <= cfg.pageable_fastpath_bytes ->
      (* The driver copies small sources straight into the command
         buffer: cheaper setup, but a slow uncacheable write path. *)
      cfg.pageable_fastpath_overhead
      +. (float_of_int bytes /. cfg.pageable_fastpath_bandwidth)
      +. wire_time cfg direction bytes
  | Host_to_device | Device_to_host ->
      let overlap =
        match direction with
        | Host_to_device -> cfg.pageable_overlap_h2d
        | Device_to_host -> cfg.pageable_overlap_d2h
      in
      let chunks = max 1 ((bytes + cfg.pageable_chunk - 1) / cfg.pageable_chunk) in
      let t_copy = float_of_int bytes /. cfg.host_copy_bandwidth in
      let t_dma = wire_time cfg direction bytes in
      let longer = Float.max t_copy t_dma and shorter = Float.min t_copy t_dma in
      cfg.pageable_setup
      +. (float_of_int chunks *. cfg.pageable_chunk_overhead)
      +. longer
      +. ((1.0 -. overlap) *. shorter)

let expected_time t direction memory ~bytes =
  if bytes < 0 then invalid_arg "Link.expected_time: negative size";
  match memory with
  | Pinned -> pinned_time t.cfg direction bytes
  | Pageable -> pageable_time t.cfg direction bytes

let transfer_time t direction memory ~bytes =
  Obs.incr c_transfers;
  Obs.add c_bytes bytes;
  let base = expected_time t direction memory ~bytes in
  let cfg = t.cfg in
  (* Latency-dominated transfers see proportionally more jitter
     (interrupts, scheduler wakeups); bulk transfers average it out. *)
  let latency_fraction = dma_setup cfg direction /. base in
  let sigma_small =
    match direction with
    | Host_to_device -> cfg.noise_sigma_small_h2d
    | Device_to_host -> cfg.noise_sigma_small_d2h
  in
  let sigma = cfg.noise_sigma_base +. (sigma_small *. latency_fraction) in
  (* A lognormal draws twice (Box-Muller). *)
  Obs.add c_rng 2;
  let noisy = base *. Rng.lognormal_noise t.rng ~sigma in
  if cfg.outlier_probability > 0.0 then begin
    Obs.incr c_rng;
    if Rng.float t.rng < cfg.outlier_probability then begin
      Obs.incr c_rng;
      let lo, hi = cfg.outlier_slowdown in
      noisy *. Rng.uniform t.rng ~lo ~hi
    end
    else noisy
  end
  else noisy

let mean_transfer_time t ~runs direction memory ~bytes =
  if runs <= 0 then invalid_arg "Link.mean_transfer_time: runs must be positive";
  Obs.span "pcie.transfer" @@ fun () ->
  (* Draw strictly left to right: [List.init]'s application order is
     unspecified, and each draw advances the link's rng, so the mean
     (a float sum over the sample list) would otherwise depend on the
     stdlib's current choice.  test_pcie pins a golden calibration
     value against this order. *)
  let rec draw k acc =
    if k = 0 then List.rev acc
    else draw (k - 1) (transfer_time t direction memory ~bytes :: acc)
  in
  Gpp_util.Stats.mean (draw runs [])

let pinned_bandwidth t direction =
  (* Asymptotic: bytes / wire_time for a large transfer. *)
  let bytes = 512 * Units.mib in
  float_of_int bytes /. wire_time t.cfg direction bytes
