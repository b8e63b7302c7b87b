(* The traced run: replays a workload's pipeline operations one stage at
   a time, with a span around each call into a layer, and reads the obs
   counters, the GC's minor-word counter and the memo statistics around
   the same calls.  Nothing is added under lib/: every span lives here.

   The Simulate stage is split into Measurement.measure_kernels and
   price_transfers exactly as Batch's parallel path splits it, so the
   replay reproduces the untraced outputs byte for byte. *)

module Pipeline = Gpp_engine.Pipeline
module Stage = Gpp_engine.Stage
module Config = Gpp_engine.Config
module Measurement = Gpp_core.Measurement
module Obs = Gpp_obs.Obs
module Memo = Gpp_cache.Memo

(* Layer spans, in pipeline order: the ledger's per-layer time rows. *)
let layers =
  [
    "pcie.calibrate";
    "skeleton.parse";
    "analysis.lint";
    "dataflow.plan";
    "transform.explore";
    "gpusim.kernels";
    "pcie.transfers";
    "predict.pricing";
    "core.project";
    "core.evaluate";
  ]

let layer_of_stage : Stage.id -> string = function
  | Stage.Parse -> "skeleton.parse"
  | Stage.Lint -> "analysis.lint"
  | Stage.Analyze -> "dataflow.plan"
  | Stage.Explore -> "transform.explore"
  | Stage.Simulate -> "gpusim.kernels"
  | Stage.Predict -> "predict.pricing"
  | Stage.Project -> "core.project"
  | Stage.Evaluate -> "core.evaluate"

type t = {
  busy : (string, float) Hashtbl.t;  (** Seconds inside each layer. *)
  memo : (string, int * int) Hashtbl.t;  (** Table -> (hits, misses). *)
  mutable covered : float;  (** Seconds under any span, all ops. *)
  mutable ops : int;
  mutable uncovered : float list;  (** Per op: share no span covers. *)
  mutable events : int;
  mutable words : float;
  mutable candidates : int;
  mutable feasible : int;
  mutable wall : float;  (** Whole traced pass, set by the caller. *)
}

let create () =
  {
    busy = Hashtbl.create 16;
    memo = Hashtbl.create 4;
    covered = 0.;
    ops = 0;
    uncovered = [];
    events = 0;
    words = 0.;
    candidates = 0;
    feasible = 0;
    wall = 0.;
  }

let c_events = Obs.counter "sim.engine.events"
let c_candidates = Obs.counter "transform.candidates"
let c_feasible = Obs.counter "transform.feasible"

let span t name f =
  let t0 = Util.now_s () in
  let r = f () in
  let d = Util.now_s () -. t0 in
  Hashtbl.replace t.busy name (d +. Option.value ~default:0. (Hashtbl.find_opt t.busy name));
  t.covered <- t.covered +. d;
  r

(* One operation: its wall time, and the share of it no span covers. *)
let op t f =
  let covered0 = t.covered in
  let t0 = Util.now_s () in
  let r = f () in
  let d = Util.now_s () -. t0 in
  t.ops <- t.ops + 1;
  t.uncovered <- ((d -. (t.covered -. covered0)) /. d) :: t.uncovered;
  r

let memo_counts () =
  List.map (fun (s : Memo.snapshot) -> (s.name, (s.hits, s.misses))) (Memo.snapshots ())

(* Memo.clear_all resets the counters, so callers that clear between
   rounds account each round's deltas before clearing. *)
let with_memo t f =
  let before = memo_counts () in
  let r = f () in
  List.iter
    (fun (name, (h, m)) ->
      let h0, m0 = Option.value ~default:(0, 0) (List.assoc_opt name before) in
      let ah, am = Option.value ~default:(0, 0) (Hashtbl.find_opt t.memo name) in
      Hashtbl.replace t.memo name (ah + h - h0, am + m - m0))
    (memo_counts ());
  r

let ( let* ) = Result.bind

(* Run one scenario through [through] one stage per call. *)
let stages t ~session ~through (config : Config.t) ~workload =
  let resume id st = span t (layer_of_stage id) (fun () -> Pipeline.resume ~through:id ~session st) in
  let* st =
    span t "skeleton.parse" (fun () -> Pipeline.run ~through:Stage.Parse ~session config ~workload)
  in
  let* st = resume Stage.Lint st in
  let* st = resume Stage.Analyze st in
  let cand0 = Obs.value c_candidates and feas0 = Obs.value c_feasible in
  let* st = resume Stage.Explore st in
  t.candidates <- t.candidates + Obs.value c_candidates - cand0;
  t.feasible <- t.feasible + Obs.value c_feasible - feas0;
  let program = Pipeline.program_exn st in
  let kernels = Option.get st.Pipeline.kernels and plan = Option.get st.Pipeline.plan in
  let events0 = Obs.value c_events and words0 = Gc.minor_words () in
  let* kmeas, ktime =
    span t "gpusim.kernels" (fun () ->
        Measurement.measure_kernels ?cache:config.use_cache ?sim_config:config.sim
          ?runs:config.runs ~seed:session.Gpp_core.Grophecy.noise_seed ~machine:config.machine
          ~kernels program)
  in
  t.words <- t.words +. (Gc.minor_words () -. words0);
  t.events <- t.events + Obs.value c_events - events0;
  let transfers =
    span t "pcie.transfers" (fun () ->
        Measurement.price_transfers ?runs:config.runs
          ~memory:(Gpp_pcie.Link.memory_of_staging config.machine.Gpp_arch.Machine.staging)
          ~link:session.Gpp_core.Grophecy.application_link plan)
  in
  let measurement = Measurement.of_parts ~kernels:kmeas ~kernel_time:ktime ~transfers in
  let st = { st with Pipeline.measurement = Some measurement } in
  let* st = resume Stage.Predict st in
  let* st = resume Stage.Project st in
  if through = Stage.Evaluate then resume Stage.Evaluate st else Ok st

let calibrate t config = span t "pcie.calibrate" (fun () -> Pipeline.session_of config)

(* Counters only count while obs is enabled; the untraced phases run
   with it off, as every CLI run without --trace does. *)
let traced f =
  Obs.reset ();
  Obs.set_enabled true;
  Fun.protect ~finally:(fun () -> Obs.set_enabled false) f

let hit_ratio t table =
  match Hashtbl.find_opt t.memo table with
  | Some (h, m) when h + m > 0 -> float_of_int h /. float_of_int (h + m)
  | _ -> 0.

(* Per-layer rows.  [untraced_s] is the untraced phase's wall time for
   the same operations; the difference is the tracing overhead. *)
let metrics t ~untraced_s =
  let m = Util.metric in
  let per_op s = if t.ops = 0 then 0. else s *. 1000. /. float_of_int t.ops in
  let busy name = Option.value ~default:0. (Hashtbl.find_opt t.busy name) in
  let ratio a b = if b = 0. then 0. else a /. b in
  let uncovered = Util.sorted_of t.uncovered in
  List.map (fun l -> m (l ^ "_ms") "ms" (per_op (busy l)) ~note:"per op") layers
  @ [
      m "transform.feasible_ratio" "ratio"
        (ratio (float_of_int t.feasible) (float_of_int t.candidates))
        ~note:(Printf.sprintf "%d of %d candidates" t.feasible t.candidates);
      m "gpusim.share" "ratio" (ratio (busy "gpusim.kernels") t.wall) ~note:"of traced wall time";
      m "gpusim.events" "count"
        (ratio (float_of_int t.events) (float_of_int t.ops))
        ~note:(Printf.sprintf "per op; %d in all" t.events);
      m "gpusim.ns_per_event" "ns" (ratio (busy "gpusim.kernels" *. 1e9) (float_of_int t.events));
      m "gpusim.words_per_event" "words" (ratio t.words (float_of_int t.events));
      m "cache.transform_search.hit_ratio" "ratio" (hit_ratio t "transform.search");
      m "cache.gpusim_run_mean.hit_ratio" "ratio" (hit_ratio t "gpusim.run_mean");
      m "trace.uncovered_share" "ratio"
        (ratio (List.fold_left ( +. ) 0. t.uncovered) (float_of_int t.ops))
        ~note:
          (Printf.sprintf "mean over %d ops; max %.4f" t.ops
             (if t.ops = 0 then 0. else uncovered.(Array.length uncovered - 1)));
      m "trace.overhead_pct" "%" (100. *. (ratio t.wall untraced_s -. 1.))
        ~note:(Printf.sprintf "traced %.3f s vs untraced %.3f s" t.wall untraced_s);
    ]


