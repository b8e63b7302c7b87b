module Program = Gpp_skeleton.Program
module Analyzer = Gpp_dataflow.Analyzer
module Explore = Gpp_transform.Explore
module Pricing = Gpp_predict.Pricing

type kernel_projection = {
  kernel_name : string;
  candidate : Explore.candidate;
  time : float;
}

type priced_transfer = { transfer : Analyzer.transfer; time : float }

type t = {
  program : Program.t;
  machine : Gpp_arch.Machine.t;
  pricing : Pricing.t;
  h2d : Gpp_pcie.Model.t;
  d2h : Gpp_pcie.Model.t;
  kernels : kernel_projection list;
  kernel_time : float;
  plan : Analyzer.plan;
  transfers : priced_transfer list;
  transfer_time : float;
  total_time : float;
  predicted_total : float;
}

(* The pipeline is exposed in stages — validate + search ([explore]),
   dataflow analysis (the caller runs [Analyzer.analyze]), and transfer
   pricing ([assemble]) — so the engine's staged runner can inspect each
   intermediate.  [project] is the one-call composition; both paths
   perform the identical computations in the identical order, so their
   results (and cache keys) are bit-for-bit the same. *)

let explore ?cache ?analytic_params ?space ~machine (program : Program.t) =
  let ( let* ) = Result.bind in
  let* () =
    Result.map_error (fun m -> Error.projection m) (Program.validate program)
  in
  let* kernels =
    List.fold_left
      (fun acc (k : Gpp_skeleton.Ir.kernel) ->
        let* acc = acc in
        let* candidate =
          (* The span exists even when the search itself is a memo hit,
             so a traced run always shows the search phase. *)
          Gpp_obs.Obs.span "core.search" @@ fun () ->
          Result.map_error
            (fun m -> Error.projection ~kernel:k.name m)
            (Explore.best ?cache ?params:analytic_params ?space ~gpu:machine.Gpp_arch.Machine.gpu
               ~decls:program.arrays k)
        in
        Ok
          ({
             kernel_name = k.name;
             candidate;
             time = candidate.projection.Gpp_model.Analytic.kernel_time;
           }
          :: acc))
      (Ok []) program.kernels
  in
  Ok (List.rev kernels)

let features ~source ~target (p : t) =
  Gpp_predict.Features.extract ~source ~target ~program:p.program ~plan:p.plan
    ~kernels:(List.map (fun kp -> kp.candidate.Explore.characteristics) p.kernels)

(* Transfer pricing flows through the predictor: [pricing] carries the
   post-[Scaled] models and the optional [Learned] correction.  The
   default identity pricing reproduces the historical
   [~machine ~h2d ~d2h] behaviour bit for bit (same models, no
   correction, [predicted_total = total_time]). *)
let assemble ~(pricing : Pricing.t) ~kernels ~plan (program : Program.t) =
  let machine = Pricing.machine pricing in
  let time_of name =
    match List.find_opt (fun kp -> kp.kernel_name = name) kernels with
    | Some kp -> kp.time
    | None -> 0.0 (* unreachable: schedule validated against kernels *)
  in
  let kernel_time =
    List.fold_left (fun acc name -> acc +. time_of name) 0.0 (Program.flatten_schedule program)
  in
  let price (tr : Analyzer.transfer) =
    let direction =
      match tr.direction with
      | Analyzer.To_device -> Gpp_pcie.Link.Host_to_device
      | Analyzer.From_device -> Gpp_pcie.Link.Device_to_host
    in
    { transfer = tr; time = Pricing.predict pricing direction ~bytes:tr.bytes }
  in
  let transfers =
    Gpp_obs.Obs.span "core.price_transfers" @@ fun () ->
    List.map price (Analyzer.transfers plan)
  in
  let transfer_time = List.fold_left (fun acc pt -> acc +. pt.time) 0.0 transfers in
  let total_time = kernel_time +. transfer_time in
  let p =
    {
      program;
      machine;
      pricing;
      h2d = pricing.Pricing.h2d;
      d2h = pricing.Pricing.d2h;
      kernels;
      kernel_time;
      plan;
      transfers;
      transfer_time;
      total_time;
      predicted_total = total_time;
    }
  in
  match pricing.Pricing.correction with
  | None -> p
  | Some _ ->
      let features = features ~source:pricing.Pricing.source ~target:pricing.Pricing.target p in
      { p with predicted_total = Pricing.corrected_total pricing ~features ~total:total_time }

let project ?cache ?analytic_params ?space ?policy ~pricing (program : Program.t) =
  Gpp_obs.Obs.span "core.project" @@ fun () ->
  let ( let* ) = Result.bind in
  let machine = Pricing.machine pricing in
  let* kernels = explore ?cache ?analytic_params ?space ~machine program in
  let plan = Analyzer.analyze ?policy program in
  Ok (assemble ~pricing ~kernels ~plan program)

let kernel_time_of t name =
  List.find_opt (fun (kp : kernel_projection) -> kp.kernel_name = name) t.kernels
  |> Option.map (fun (kp : kernel_projection) -> kp.time)

let per_kernel_times t =
  List.map (fun (kp : kernel_projection) -> (kp.kernel_name, kp.time)) t.kernels

let pp ppf t =
  Format.fprintf ppf "@[<v>projection for %s on %s@," t.program.Program.name
    t.machine.Gpp_arch.Machine.name;
  List.iter
    (fun kp ->
      Format.fprintf ppf "  %s: %a via %s@," kp.kernel_name Gpp_util.Units.pp_time kp.time
        kp.candidate.Explore.characteristics.Gpp_model.Characteristics.config_label)
    t.kernels;
  Format.fprintf ppf "  kernel time (schedule): %a@," Gpp_util.Units.pp_time t.kernel_time;
  List.iter
    (fun pt ->
      Format.fprintf ppf "  transfer %s %s (%s): %a@,"
        (Analyzer.direction_name pt.transfer.Analyzer.direction)
        pt.transfer.Analyzer.array
        (Gpp_util.Units.bytes_to_string pt.transfer.Analyzer.bytes)
        Gpp_util.Units.pp_time pt.time)
    t.transfers;
  Format.fprintf ppf "  transfer time: %a@,  total: %a" Gpp_util.Units.pp_time t.transfer_time
    Gpp_util.Units.pp_time t.total_time;
  (* Only a trained Learned stage adds output: the default predictor's
     rendering is byte-identical to the pre-predictor pipeline. *)
  (match t.pricing.Pricing.correction with
  | None -> ()
  | Some _ ->
      Format.fprintf ppf "@,  corrected total (%s): %a"
        (Gpp_predict.Predictor.name t.pricing.Pricing.predictor)
        Gpp_util.Units.pp_time t.predicted_total);
  Format.fprintf ppf "@]"
