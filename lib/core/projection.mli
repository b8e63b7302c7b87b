(** End-to-end GPU performance projection (the GROPHECY++ pipeline).

    For each kernel of a program skeleton, explore the transformation
    space and keep the best analytic projection; run the data usage
    analyzer over the kernel sequence; price each planned transfer
    through the predictor stack's {!Gpp_predict.Pricing.t}.  The result
    carries everything the paper's evaluation derives predictions
    from. *)

type kernel_projection = {
  kernel_name : string;
  candidate : Gpp_transform.Explore.candidate;
      (** Winning transformation and its analytic projection. *)
  time : float;  (** Predicted execution time of one invocation. *)
}

type priced_transfer = {
  transfer : Gpp_dataflow.Analyzer.transfer;
  time : float;  (** Predicted by the (possibly rescaled) linear PCIe
                     model. *)
}

type t = {
  program : Gpp_skeleton.Program.t;
  machine : Gpp_arch.Machine.t;  (** The pricing's target machine. *)
  pricing : Gpp_predict.Pricing.t;
      (** The predictor-stack pricing the transfers flowed through. *)
  h2d : Gpp_pcie.Model.t;  (** Model used to price uploads
                               ([pricing.h2d], post-scaling). *)
  d2h : Gpp_pcie.Model.t;  (** Model used to price downloads. *)
  kernels : kernel_projection list;  (** One entry per distinct kernel. *)
  kernel_time : float;
      (** Predicted GPU kernel time summed over the whole invocation
          schedule. *)
  plan : Gpp_dataflow.Analyzer.plan;
  transfers : priced_transfer list;
  transfer_time : float;  (** Sum of predicted transfer times. *)
  total_time : float;  (** [kernel_time + transfer_time]. *)
  predicted_total : float;
      (** The predictor stack's final answer: [total_time] with the
          learned correction applied when one is attached; exactly
          [total_time] otherwise. *)
}

val project :
  ?cache:bool ->
  ?analytic_params:Gpp_model.Analytic.params ->
  ?space:Gpp_transform.Explore.space ->
  ?policy:Gpp_dataflow.Analyzer.policy ->
  pricing:Gpp_predict.Pricing.t ->
  Gpp_skeleton.Program.t ->
  (t, Error.t) result
(** [Error] ({!Error.Projection}) when the program fails validation or
    some kernel admits no feasible GPU transformation.  The machine is
    the pricing's target; build identity pricing from a calibrated pair
    with {!Gpp_predict.Pricing.of_models}.

    The per-kernel transformation searches are memoized (see
    {!Gpp_transform.Explore.search}); [~cache:false] forces them to be
    re-evaluated. *)

val explore :
  ?cache:bool ->
  ?analytic_params:Gpp_model.Analytic.params ->
  ?space:Gpp_transform.Explore.space ->
  machine:Gpp_arch.Machine.t ->
  Gpp_skeleton.Program.t ->
  (kernel_projection list, Error.t) result
(** Stage 1 of {!project}: validate the program and run the
    transformation-space search for every kernel (program order).  The
    engine's staged pipeline calls this directly; {!project} composes it
    with the dataflow analysis and {!assemble}. *)

val assemble :
  pricing:Gpp_predict.Pricing.t ->
  kernels:kernel_projection list ->
  plan:Gpp_dataflow.Analyzer.plan ->
  Gpp_skeleton.Program.t ->
  t
(** Stage 3 of {!project}: price the planned transfers through the
    predictor's pricing, total the kernel schedule, apply the learned
    correction (if attached) to the total, and build the projection
    record.  Pure — never fails. *)

val features : source:Gpp_arch.Machine.t -> target:Gpp_arch.Machine.t -> t -> float array
(** {!Gpp_predict.Features.extract} over the projection's program, plan
    and chosen kernels, for a prediction from [source] onto [target]:
    the learned correction's input, at pricing and at training time. *)

val kernel_time_of : t -> string -> float option
(** Predicted single-invocation time of a named kernel. *)

val per_kernel_times : t -> (string * float) list

val pp : Format.formatter -> t -> unit
