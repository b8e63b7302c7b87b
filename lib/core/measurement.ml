module Program = Gpp_skeleton.Program
module Analyzer = Gpp_dataflow.Analyzer
module Gpu_sim = Gpp_gpusim.Gpu_sim
module Link = Gpp_pcie.Link

type kernel_measurement = { kernel_name : string; time : float }

type transfer_measurement = { transfer : Analyzer.transfer; time : float }

type t = {
  kernels : kernel_measurement list;
  kernel_time : float;
  transfers : transfer_measurement list;
  transfer_time : float;
  total_time : float;
}

(* The measurement splits into two halves with very different
   concurrency behaviour.  [measure_kernels] is deterministic per cell:
   it draws kernel seeds from a fresh RNG created from [seed], so two
   calls with the same inputs agree bit for bit no matter what else ran
   in between — the batch runner executes it on worker domains.
   [price_transfers] draws from the *stateful* link RNG, so the draw
   order across cells is part of the result; the batch runner calls it
   serially, in cell-index order, whatever its job count. *)
let measure_kernels ?cache ?sim_config ?(runs = 10) ?(seed = 0x4A7C_15F3_9E37_79B9L) ~machine
    ~kernels:(chosen : Projection.kernel_projection list) (program : Program.t) =
  let ( let* ) = Result.bind in
  let gpu = machine.Gpp_arch.Machine.gpu in
  let rng = Gpp_util.Rng.create seed in
  let* kernels =
    List.fold_left
      (fun acc (kp : Projection.kernel_projection) ->
        let* acc = acc in
        let kernel_seed = Gpp_util.Rng.next_int64 rng in
        let* time =
          Result.map_error
            (fun m -> Error.simulation ~kernel:kp.Projection.kernel_name m)
            (Gpu_sim.run_mean ?cache ?config:sim_config ~runs ~seed:kernel_seed ~gpu
               kp.Projection.candidate.Gpp_transform.Explore.characteristics)
        in
        Ok ({ kernel_name = kp.Projection.kernel_name; time } :: acc))
      (Ok []) chosen
  in
  let kernels = List.rev kernels in
  let time_of name =
    match List.find_opt (fun km -> km.kernel_name = name) kernels with
    | Some km -> km.time
    | None -> 0.0
  in
  let kernel_time =
    List.fold_left (fun acc name -> acc +. time_of name) 0.0 (Program.flatten_schedule program)
  in
  Ok (kernels, kernel_time)

(* Noise-free counterpart of [price_transfers]: the link's deterministic
   ground truth per planned transfer.  Pure (no RNG draw), so the
   learned-correction trainer and the cross-machine variant scorer can
   run it on any domain, in any order, without perturbing the stateful
   application-link stream the goldens depend on. *)
let expected_transfers ?(memory = Link.Pinned) ~link plan =
  List.map
    (fun (tr : Analyzer.transfer) ->
      let direction =
        match tr.Analyzer.direction with
        | Analyzer.To_device -> Link.Host_to_device
        | Analyzer.From_device -> Link.Device_to_host
      in
      let time = Link.expected_time link direction memory ~bytes:tr.Analyzer.bytes in
      { transfer = tr; time })
    (Analyzer.transfers plan)

let price_transfers ?(runs = 10) ?(memory = Link.Pinned) ~link plan =
  List.map
    (fun (tr : Analyzer.transfer) ->
      let direction =
        match tr.Analyzer.direction with
        | Analyzer.To_device -> Link.Host_to_device
        | Analyzer.From_device -> Link.Device_to_host
      in
      let time = Link.mean_transfer_time link ~runs direction memory ~bytes:tr.Analyzer.bytes in
      { transfer = tr; time })
    (Analyzer.transfers plan)

let of_parts ~kernels ~kernel_time ~transfers =
  let transfer_time = List.fold_left (fun acc tm -> acc +. tm.time) 0.0 transfers in
  { kernels; kernel_time; transfers; transfer_time; total_time = kernel_time +. transfer_time }

(* [measure_parts] consumes exactly what the Explore and Analyze stages
   produced (chosen candidates + transfer plan), so the engine can
   simulate before transfers are priced. *)
let measure_parts ?cache ?sim_config ?runs ?seed ~link ~machine
    ~kernels:(chosen : Projection.kernel_projection list) ~plan (program : Program.t) =
  Gpp_obs.Obs.span "core.measure" @@ fun () ->
  match measure_kernels ?cache ?sim_config ?runs ?seed ~machine ~kernels:chosen program with
  | Error e -> Error e
  | Ok (kernels, kernel_time) ->
      let memory = Link.memory_of_staging machine.Gpp_arch.Machine.staging in
      let transfers = price_transfers ?runs ~memory ~link plan in
      Ok (of_parts ~kernels ~kernel_time ~transfers)

let kernel_time_of t name =
  List.find_opt (fun (km : kernel_measurement) -> km.kernel_name = name) t.kernels
  |> Option.map (fun (km : kernel_measurement) -> km.time)

let per_kernel_times t =
  List.map (fun (km : kernel_measurement) -> (km.kernel_name, km.time)) t.kernels

let pp ppf t =
  Format.fprintf ppf "@[<v>measured:@,";
  List.iter
    (fun km -> Format.fprintf ppf "  %s: %a@," km.kernel_name Gpp_util.Units.pp_time km.time)
    t.kernels;
  Format.fprintf ppf "  kernel time (schedule): %a@," Gpp_util.Units.pp_time t.kernel_time;
  Format.fprintf ppf "  transfer time: %a@,  total: %a@]" Gpp_util.Units.pp_time t.transfer_time
    Gpp_util.Units.pp_time t.total_time
