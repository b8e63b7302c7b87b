module Machine = Gpp_arch.Machine
module Pcie_spec = Gpp_arch.Pcie_spec
module Link = Gpp_pcie.Link
module Model = Gpp_pcie.Model
module Calibrate = Gpp_pcie.Calibrate
module Grophecy = Gpp_core.Grophecy
module Projection = Gpp_core.Projection
module Error = Gpp_core.Error
module Predictor = Gpp_predict.Predictor
module Pricing = Gpp_predict.Pricing
module Correction = Gpp_predict.Correction
module Learn = Gpp_engine.Learn

(* Cross-machine evaluation of the paper's calibration protocol: how far
   does a (alpha, beta) pair calibrated on machine A carry when its
   predictions are scored against machine B?

   For every machine we build a session (staging-aware two-point
   calibration, exactly what `grophecy analyze` runs) and take the
   link's *noise-free* transfer times as that machine's ground truth.
   For every ordered pair (source, target) we then score:

   - transfer accuracy: the source's calibrated models predicting the
     target's ground-truth sweep, mean absolute % error per direction —
     with (source = target) rows giving the same-machine baseline, i.e.
     the residual of two-point calibration against measurement noise;

   - end-to-end accuracy: each workload is projected once per machine
     with its own models; the cross projection reuses the target's
     explored kernels and transfer plan but prices transfers with the
     source's models (Projection.assemble is pure), so the delta
     isolates exactly what mis-calibrated transfer pricing does to the
     projected total.

   Everything here is deterministic in (seed, machines, workloads,
   sizes): sessions draw from per-machine seeded streams and the ground
   truth is noise-free, so the TSV is golden-diffable. *)

type pair = {
  source : Machine.t;
  target : Machine.t;
  h2d_err : float;  (** Mean abs % error over the transfer sweep. *)
  d2h_err : float;
  e2e_err : float;  (** Mean abs % error of the projected total. *)
}

type t = {
  machines : Machine.t list;
  workloads : string list;
  sizes : int list;
  pairs : pair list;  (** Source-major, machine order. *)
}

let default_workloads = [ "vecadd/16M"; "hotspot/512 x 512"; "srad/1024 x 1024" ]

type mctx = {
  machine : Machine.t;
  session : Grophecy.session;
  truth : Link.direction -> bytes:int -> float;
  projections : (string * Projection.t) list;
}

let context ?protocol ?analytic_params ?space ?policy ~seed ~workloads machine =
  let ( let* ) = Result.bind in
  let session = Grophecy.init ~seed ?protocol machine in
  let memory = Link.memory_of_staging machine.Machine.staging in
  let truth direction ~bytes =
    Link.expected_time session.Grophecy.calibration_link direction memory ~bytes
  in
  let* projections =
    List.fold_left
      (fun acc key ->
        let* acc = acc in
        let* instance =
          match Gpp_workloads.Registry.find_by_key key with
          | Some i -> Ok i
          | None -> Error (Error.parse ~source:key (Printf.sprintf "unknown workload %S" key))
        in
        let program = instance.Gpp_workloads.Registry.program 1 in
        let* projection =
          Projection.project ?analytic_params ?space ?policy
            ~pricing:session.Grophecy.pricing program
        in
        Ok ((key, projection) :: acc))
      (Ok []) workloads
  in
  Ok { machine; session; truth; projections = List.rev projections }

let mean = function
  | [] -> 0.0
  | xs -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

let abs_pct ~truth value = Float.abs (value -. truth) /. truth *. 100.0

let transfer_error ~sizes (source : mctx) (target : mctx) direction =
  let model =
    match direction with
    | Link.Host_to_device -> source.session.Grophecy.h2d
    | Link.Device_to_host -> source.session.Grophecy.d2h
  in
  mean
    (List.map
       (fun bytes ->
         abs_pct ~truth:(target.truth direction ~bytes) (Model.predict model ~bytes))
       sizes)

let e2e_error (source : mctx) (target : mctx) =
  (* Unscaled cross pricing: the source's models carried verbatim to the
     target machine, exactly the historical [~machine ~h2d ~d2h] call. *)
  let pricing =
    Pricing.make ~predictor:Predictor.analytic ~source:source.machine ~target:target.machine
      ~h2d:source.session.Grophecy.h2d ~d2h:source.session.Grophecy.d2h ()
  in
  mean
    (List.map
       (fun (_, (own : Projection.t)) ->
         let cross =
           Projection.assemble ~pricing ~kernels:own.Projection.kernels
             ~plan:own.Projection.plan own.Projection.program
         in
         abs_pct ~truth:own.Projection.total_time cross.Projection.total_time)
       target.projections)

let run ?protocol ?analytic_params ?space ?policy ?(seed = 0x1B0A_2013_6CA1_55AAL)
    ?(workloads = default_workloads) ?(max_bytes = 64 * Gpp_util.Units.mib) ~machines () =
  let ( let* ) = Result.bind in
  let sizes = Calibrate.power_of_two_sizes ~max_bytes () in
  let* contexts =
    List.fold_left
      (fun acc machine ->
        let* acc = acc in
        let* ctx = context ?protocol ?analytic_params ?space ?policy ~seed ~workloads machine in
        Ok (ctx :: acc))
      (Ok []) machines
  in
  let contexts = List.rev contexts in
  let pairs =
    List.concat_map
      (fun source ->
        List.map
          (fun target ->
            {
              source = source.machine;
              target = target.machine;
              h2d_err = transfer_error ~sizes source target Link.Host_to_device;
              d2h_err = transfer_error ~sizes source target Link.Device_to_host;
              e2e_err = e2e_error source target;
            })
          contexts)
      contexts
  in
  Ok { machines; workloads; sizes; pairs }

(* --- predictor variants --------------------------------------------- *)

(* The predictor-stack ablation: the same machine grid, but every
   (source, target) pair scored once per predictor variant, against the
   target's *simulated measured* totals rather than its own projection —
   so the numbers answer "how close does variant V get to what the
   target machine actually runs", the question EXPERIMENTS.md tables.

   Measured ground truth is deterministic: kernel times draw from the
   session's noise seed exactly as the Simulate stage does, and transfer
   times are the link's noise-free expected times (no stateful RNG
   advances), so the TSV is golden-diffable. *)

type ventry = {
  projection : Projection.t;  (** The target's own analytic projection. *)
  measured_total : float;  (** Simulated kernel time + expected transfers. *)
}

type vctx = { ctx : mctx; entries : (string * ventry) list }

type variant_row = {
  v_predictor : Predictor.t;
  v_source : Machine.t;
  v_target : Machine.t;
  v_h2d_err : float;  (** Mean abs % error over the transfer sweep. *)
  v_d2h_err : float;
  v_e2e_err : float;  (** Mean abs % error vs the target's measured total. *)
}

type variants = {
  v_machines : Machine.t list;
  v_workloads : string list;
  v_sizes : int list;
  v_predictors : Predictor.t list;
  rows : variant_row list;  (** Predictor-major, then source-major. *)
}

let measured_entries ?sim_config ?runs (ctx : mctx) =
  let ( let* ) = Result.bind in
  let* entries =
    List.fold_left
      (fun acc (key, (p : Projection.t)) ->
        let* acc = acc in
        let* measured_total = Learn.measured_total ?sim_config ?runs ~session:ctx.session p in
        Ok ((key, { projection = p; measured_total }) :: acc))
      (Ok []) ctx.projections
  in
  Ok { ctx; entries = List.rev entries }

let cross_total pricing (e : ventry) =
  let p =
    Projection.assemble ~pricing ~kernels:e.projection.Projection.kernels
      ~plan:e.projection.Projection.plan e.projection.Projection.program
  in
  p.Projection.predicted_total

let variant_errors ~lambda ~sizes ~predictor (source : vctx) (target : vctx) =
  let ( let* ) = Result.bind in
  let pricing =
    Pricing.make ~predictor ~source:source.ctx.machine ~target:target.ctx.machine
      ~h2d:source.ctx.session.Grophecy.h2d ~d2h:source.ctx.session.Grophecy.d2h ()
  in
  let sweep direction =
    mean
      (List.map
         (fun bytes ->
           abs_pct ~truth:(target.ctx.truth direction ~bytes)
             (Pricing.predict pricing direction ~bytes))
         sizes)
  in
  let* e2e_errs =
    List.fold_left
      (fun acc (key, e) ->
        let* acc = acc in
        let* prediction =
          if not (Predictor.has_learned predictor) then Ok (cross_total pricing e)
          else
            (* Leave-one-workload-out: the correction for the held-out
               workload trains on the pair's remaining workloads. *)
            let samples =
              List.filter_map
                (fun (k, e') ->
                  if String.equal k key then None
                  else
                    let base = cross_total pricing e' in
                    if base <= 0.0 then None
                    else
                      Some
                        ( Projection.features ~source:source.ctx.machine
                            ~target:target.ctx.machine e'.projection,
                          e'.measured_total /. base ))
                target.entries
            in
            match Correction.fit ~lambda samples with
            | Error m ->
                Error
                  (Error.config
                     (Printf.sprintf "crossval learned fit (%s -> %s, holding out %s): %s"
                        source.ctx.machine.Machine.id target.ctx.machine.Machine.id key m))
            | Ok corr -> Ok (cross_total (Pricing.with_correction pricing corr) e)
        in
        Ok (abs_pct ~truth:e.measured_total prediction :: acc))
      (Ok []) target.entries
  in
  Ok
    {
      v_predictor = predictor;
      v_source = source.ctx.machine;
      v_target = target.ctx.machine;
      v_h2d_err = sweep Link.Host_to_device;
      v_d2h_err = sweep Link.Device_to_host;
      v_e2e_err = mean (List.rev e2e_errs);
    }

let run_variants ?protocol ?analytic_params ?space ?policy ?sim_config ?runs
    ?(lambda = Correction.default_lambda) ?(seed = 0x1B0A_2013_6CA1_55AAL)
    ?(workloads = default_workloads) ?(max_bytes = 64 * Gpp_util.Units.mib) ~predictors ~machines
    () =
  let ( let* ) = Result.bind in
  let sizes = Calibrate.power_of_two_sizes ~max_bytes () in
  let* contexts =
    List.fold_left
      (fun acc machine ->
        let* acc = acc in
        let* ctx = context ?protocol ?analytic_params ?space ?policy ~seed ~workloads machine in
        let* vctx = measured_entries ?sim_config ?runs ctx in
        Ok (vctx :: acc))
      (Ok []) machines
  in
  let contexts = List.rev contexts in
  let* rows =
    List.fold_left
      (fun acc predictor ->
        List.fold_left
          (fun acc source ->
            List.fold_left
              (fun acc target ->
                let* acc = acc in
                let* row = variant_errors ~lambda ~sizes ~predictor source target in
                Ok (row :: acc))
              acc contexts)
          acc contexts)
      (Ok []) predictors
  in
  Ok
    {
      v_machines = machines;
      v_workloads = workloads;
      v_sizes = sizes;
      v_predictors = predictors;
      rows = List.rev rows;
    }

let variants_tsv_header = "predictor\tsource\ttarget\tsame\th2d_err\td2h_err\te2e_err"

let variants_to_tsv v =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf variants_tsv_header;
  Buffer.add_char buf '\n';
  List.iter
    (fun r ->
      Printf.bprintf buf "%s\t%s\t%s\t%s\t%.3f\t%.3f\t%.3f\n" (Predictor.name r.v_predictor)
        r.v_source.Machine.id r.v_target.Machine.id
        (if r.v_source.Machine.id = r.v_target.Machine.id then "yes" else "no")
        r.v_h2d_err r.v_d2h_err r.v_e2e_err)
    v.rows;
  Buffer.contents buf

let row_is_cross r = r.v_source.Machine.id <> r.v_target.Machine.id

let pp_variants_summary ppf v =
  Format.fprintf ppf "@[<v>predictor variants: %d machines, %d workloads, %d predictors@,"
    (List.length v.v_machines) (List.length v.v_workloads) (List.length v.v_predictors);
  List.iter
    (fun predictor ->
      let mine =
        List.filter (fun r -> Predictor.equal r.v_predictor predictor && row_is_cross r) v.rows
      in
      let transfer =
        mean (List.map (fun r -> 0.5 *. (r.v_h2d_err +. r.v_d2h_err)) mine)
      in
      let e2e = mean (List.map (fun r -> r.v_e2e_err) mine) in
      Format.fprintf ppf "  %-16s cross transfer %7.1f%%  cross e2e %7.1f%%@,"
        (Predictor.name predictor) transfer e2e)
    v.v_predictors;
  Format.fprintf ppf "  (errors vs each target's simulated measured totals)@]"

(* --- rendering ------------------------------------------------------ *)

let tsv_header = "source\ttarget\tsame\tsource_link\ttarget_link\th2d_err\td2h_err\te2e_err"

let to_tsv t =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf tsv_header;
  Buffer.add_char buf '\n';
  List.iter
    (fun p ->
      Printf.bprintf buf "%s\t%s\t%s\t%s\t%s\t%.3f\t%.3f\t%.3f\n" p.source.Machine.id
        p.target.Machine.id
        (if p.source.Machine.id = p.target.Machine.id then "yes" else "no")
        (Pcie_spec.link_label p.source.Machine.pcie)
        (Pcie_spec.link_label p.target.Machine.pcie)
        p.h2d_err p.d2h_err p.e2e_err)
    t.pairs;
  Buffer.contents buf

let is_same p = p.source.Machine.id = p.target.Machine.id

let transfer_err p = 0.5 *. (p.h2d_err +. p.d2h_err)

(* The accuracy/scope tradeoff in one block: the same-machine rows bound
   what calibration can do at all (residual vs measurement noise); the
   cross rows say how quickly that accuracy decays as the target machine
   diverges, and how many targets a single calibration covers at a given
   error budget. *)
let pp_summary ppf t =
  let same, cross = List.partition is_same t.pairs in
  let worst_by f = function
    | [] -> None
    | ps -> Some (List.fold_left (fun a p -> if f p > f a then p else a) (List.hd ps) ps)
  in
  let best_by f = function
    | [] -> None
    | ps -> Some (List.fold_left (fun a p -> if f p < f a then p else a) (List.hd ps) ps)
  in
  let budget = 10.0 in
  let within =
    List.length (List.filter (fun p -> p.e2e_err <= budget) cross)
  in
  Format.fprintf ppf "@[<v>cross-machine calibration: %d machines, %d workloads, %d sizes@,"
    (List.length t.machines) (List.length t.workloads) (List.length t.sizes);
  Format.fprintf ppf "  same-machine transfer error (calibration residual): %.2f%% mean@,"
    (mean (List.map transfer_err same));
  (match (best_by transfer_err cross, worst_by transfer_err cross) with
  | Some b, Some w ->
      Format.fprintf ppf
        "  cross-machine transfer error: %.1f%% mean (best %s->%s %.1f%%, worst %s->%s %.1f%%)@,"
        (mean (List.map transfer_err cross))
        b.source.Machine.id b.target.Machine.id (transfer_err b) w.source.Machine.id
        w.target.Machine.id (transfer_err w)
  | _ -> ());
  (match worst_by (fun p -> p.e2e_err) cross with
  | Some w ->
      Format.fprintf ppf
        "  cross-machine end-to-end error: %.1f%% mean (worst %s->%s %.1f%%)@,"
        (mean (List.map (fun p -> p.e2e_err) cross))
        w.source.Machine.id w.target.Machine.id w.e2e_err
  | None -> ());
  if cross <> [] then
    Format.fprintf ppf
      "  scope: %d/%d cross pairs stay within %.0f%% projected-total error@]" within
      (List.length cross) budget
  else Format.fprintf ppf "  scope: no cross pairs (single machine)@]"
