module Machine = Gpp_arch.Machine

type t = {
  machine : Machine.t;
  machines : Machine.t list;
  seed : int64;
  outlier_probability : float;
  protocol : Gpp_pcie.Calibrate.protocol option;
  runs : int option;
  iterations : int option;
  use_cache : bool option;
  analytic : Gpp_model.Analytic.params option;
  space : Gpp_transform.Explore.space option;
  policy : Gpp_dataflow.Analyzer.policy option;
  sim : Gpp_gpusim.Gpu_sim.config option;
  cpu : Gpp_cpu.Timing.params option;
  predictor : Gpp_predict.Predictor.t;
  predict_lambda : float;
  lint : bool;
  jobs : int;
  cache_enabled : bool;
  cache_dir : string option;
  trace : string option;
  verbose : bool;
  listen : string;  (* serve: HOST:PORT or unix:PATH *)
  flush_every : int;  (* serve: flush the disk cache every N requests *)
}

(* Mirrors Grophecy.init's defaults exactly, so [Pipeline.session_of
   default] is the session [Grophecy.init machine] calibrates. *)
let default =
  {
    machine = Machine.argonne_node;
    machines = Machine.catalog;
    seed = 0x1B0A_2013_6CA1_55AAL;
    outlier_probability = 0.05;
    protocol = None;
    runs = None;
    iterations = None;
    use_cache = None;
    analytic = None;
    space = None;
    policy = None;
    sim = None;
    cpu = None;
    predictor = Gpp_predict.Predictor.analytic;
    predict_lambda = Gpp_predict.Correction.default_lambda;
    lint = false;
    jobs = 1;
    cache_enabled = true;
    cache_dir = None;
    trace = None;
    verbose = false;
    listen = "127.0.0.1:8080";
    flush_every = 64;
  }

let machine_names = List.map (fun (m : Machine.t) -> m.Machine.id) Machine.catalog

(* Builtin-catalog lookup, for callers that resolve a name without a
   scenario (simple CLI commands).  Layered resolution and the serve
   API go through [t.machines] instead, so file-loaded machines are
   addressable too. *)
let machine_of_name name = Machines.find Machine.catalog name

let find_machine (t : t) name = Machines.find t.machines name

(* Scalar parsers shared by the file and environment layers. *)

let bool_of_atom s =
  match String.lowercase_ascii s with
  | "true" | "yes" | "on" | "1" -> Ok true
  | "false" | "no" | "off" | "0" -> Ok false
  | _ -> Error (Printf.sprintf "expected a boolean, got %S" s)

let int_of_atom s =
  match int_of_string_opt s with
  | Some n -> Ok n
  | None -> Error (Printf.sprintf "expected an integer, got %S" s)

let pos_int_of_atom s =
  match int_of_string_opt s with
  | Some n when n >= 1 -> Ok n
  | Some n -> Error (Printf.sprintf "expected a positive integer, got %d" n)
  | None -> Error (Printf.sprintf "expected an integer, got %S" s)

let int64_of_atom s =
  match Int64.of_string_opt s with
  | Some n -> Ok n
  | None -> Error (Printf.sprintf "expected an integer seed, got %S" s)

let float_of_atom s =
  match float_of_string_opt s with
  | Some f -> Ok f
  | None -> Error (Printf.sprintf "expected a number, got %S" s)

(* --- configuration file layer (sexp) ------------------------------- *)

exception Bad of string

let bad fmt = Printf.ksprintf (fun m -> raise (Bad m)) fmt

let atom key = function
  | Sexp.Atom a -> a
  | Sexp.List _ -> bad "%s: expected an atom, got a list" key

let get parse key v =
  match parse (atom key v) with Ok x -> x | Error m -> bad "%s: %s" key m

let int_list key = function
  | Sexp.Atom _ -> bad "%s: expected a list of integers" key
  | Sexp.List items -> List.map (get int_of_atom key) items

(* Key/value pairs: each entry of the top-level list is (key value)
   where value is an atom or a nested key/value list for the parameter
   groups. *)
let pairs_of context = function
  | Sexp.Atom _ -> bad "%s: expected a list of (key value) pairs" context
  | Sexp.List items ->
      List.map
        (function
          | Sexp.List [ Sexp.Atom key; value ] -> (key, value)
          | s -> bad "%s: expected (key value), got %s" context (Sexp.to_string s))
        items

let fold_group ~context ~seed ~field value =
  List.fold_left (fun acc (key, v) -> field acc key v) seed (pairs_of context value)

let analytic_group base value =
  fold_group ~context:"analytic" ~seed:(Option.value base ~default:Gpp_model.Analytic.default_params)
    ~field:(fun (p : Gpp_model.Analytic.params) key v ->
      match key with
      | "achieved-bw-fraction" -> { p with achieved_bw_fraction = get float_of_atom key v }
      | "sync-cost-cycles" -> { p with sync_cost_cycles = get float_of_atom key v }
      | _ -> bad "analytic: unknown key %S" key)
    value

let cpu_group base value =
  fold_group ~context:"cpu" ~seed:(Option.value base ~default:Gpp_cpu.Timing.default_params)
    ~field:(fun (p : Gpp_cpu.Timing.params) key v ->
      match key with
      | "ilp-efficiency" -> { p with ilp_efficiency = get float_of_atom key v }
      | "heavy-op-cycles" -> { p with heavy_op_cycles = get float_of_atom key v }
      | "streaming-bw-fraction" ->
          { p with streaming_bw_fraction_override = Some (get float_of_atom key v) }
      | _ -> bad "cpu: unknown key %S" key)
    value

let sim_group base value =
  fold_group ~context:"sim" ~seed:(Option.value base ~default:Gpp_gpusim.Gpu_sim.default_config)
    ~field:(fun (c : Gpp_gpusim.Gpu_sim.config) key v ->
      match key with
      | "streaming-efficiency" -> { c with streaming_efficiency = get float_of_atom key v }
      | "scattered-efficiency" -> { c with scattered_efficiency = get float_of_atom key v }
      | "latency-jitter" -> { c with latency_jitter = get float_of_atom key v }
      | "block-dispatch-cycles" -> { c with block_dispatch_cycles = get float_of_atom key v }
      | "drain-cycles" -> { c with drain_cycles = get float_of_atom key v }
      | "noise-sigma" -> { c with noise_sigma = get float_of_atom key v }
      | "max-simulated-blocks" -> { c with max_simulated_blocks = get int_of_atom key v }
      | _ -> bad "sim: unknown key %S" key)
    value

let policy_group base value =
  fold_group ~context:"policy" ~seed:(Option.value base ~default:Gpp_dataflow.Analyzer.default_policy)
    ~field:(fun (p : Gpp_dataflow.Analyzer.policy) key v ->
      match key with
      | "sparse-exact" -> { p with Gpp_dataflow.Analyzer.sparse_exact = get bool_of_atom key v }
      | "plan" -> { p with Gpp_dataflow.Analyzer.plan = get Gpp_dataflow.Analyzer.plan_policy_of_name key v }
      | _ -> bad "policy: unknown key %S" key)
    value

let space_group base value =
  fold_group ~context:"space" ~seed:(Option.value base ~default:Gpp_transform.Explore.default_space)
    ~field:(fun (s : Gpp_transform.Explore.space) key v ->
      match key with
      | "block-sizes" -> { s with block_sizes = int_list key v }
      | "unroll-factors" -> { s with unroll_factors = int_list key v }
      | "vector-widths" -> { s with vector_widths = int_list key v }
      | "allow-tiling" -> { s with allow_tiling = get bool_of_atom key v }
      | _ -> bad "space: unknown key %S" key)
    value

let protocol_group base value =
  fold_group ~context:"protocol"
    ~seed:(Option.value base ~default:Gpp_pcie.Calibrate.default_protocol)
    ~field:(fun (p : Gpp_pcie.Calibrate.protocol) key v ->
      match key with
      | "small-bytes" -> { p with small_bytes = get int_of_atom key v }
      | "large-bytes" -> { p with large_bytes = get int_of_atom key v }
      | "runs" -> { p with runs = get int_of_atom key v }
      | _ -> bad "protocol: unknown key %S" key)
    value

(* Shared by every layer that names a predictor, so the error text (and
   its Levenshtein suggestion) is identical whether the bad name came
   from a file, GPP_PREDICT, or --predict. *)
let predictor_of_atom s =
  match Gpp_predict.Predictor.of_string s with
  | Ok p -> Ok p
  | Error m -> Error m

let nonneg_float_of_atom s =
  match float_of_string_opt s with
  | Some f when f >= 0.0 -> Ok f
  | Some f -> Error (Printf.sprintf "expected a non-negative number, got %g" f)
  | None -> Error (Printf.sprintf "expected a number, got %S" s)

let predict_group (t : t) value =
  List.fold_left
    (fun (t : t) (key, v) ->
      match key with
      | "stages" -> { t with predictor = get predictor_of_atom key v }
      | "lambda" -> { t with predict_lambda = get nonneg_float_of_atom key v }
      | _ -> bad "predict: unknown key %S" key)
    t (pairs_of "predict" value)

let serve_group (t : t) value =
  List.fold_left
    (fun (t : t) (key, v) ->
      match key with
      | "listen" -> { t with listen = atom key v }
      | "flush-every" -> { t with flush_every = get pos_int_of_atom key v }
      | _ -> bad "serve: unknown key %S" key)
    t (pairs_of "serve" value)

let cache_group (t : t) value =
  List.fold_left
    (fun (t : t) (key, v) ->
      match key with
      | "enabled" -> { t with cache_enabled = get bool_of_atom key v }
      | "dir" -> { t with cache_dir = Some (atom key v) }
      | _ -> bad "cache: unknown key %S" key)
    t (pairs_of "cache" value)

let machines_group (t : t) value =
  match value with
  | Sexp.Atom _ -> bad "machines: expected a list of machine descriptors"
  | Sexp.List descriptors -> (
      match Machines.extend_result ~base:t.machines descriptors with
      | Ok machines -> { t with machines }
      | Error m -> bad "machines: %s" m)

let apply_entry (t : t) key value =
  match key with
  | "machine" -> { t with machine = get (find_machine t) key value }
  | "seed" -> { t with seed = get int64_of_atom key value }
  | "outlier-probability" -> { t with outlier_probability = get float_of_atom key value }
  | "runs" -> { t with runs = Some (get int_of_atom key value) }
  | "iterations" -> { t with iterations = Some (get int_of_atom key value) }
  | "use-cache" -> { t with use_cache = Some (get bool_of_atom key value) }
  | "lint" -> { t with lint = get bool_of_atom key value }
  | "jobs" -> { t with jobs = get pos_int_of_atom key value }
  | "trace" -> { t with trace = Some (atom key value) }
  | "verbose" -> { t with verbose = get bool_of_atom key value }
  | "cache" -> cache_group t value
  | "serve" -> serve_group t value
  | "predict" -> predict_group t value
  | "protocol" -> { t with protocol = Some (protocol_group t.protocol value) }
  | "analytic" -> { t with analytic = Some (analytic_group t.analytic value) }
  | "cpu" -> { t with cpu = Some (cpu_group t.cpu value) }
  | "sim" -> { t with sim = Some (sim_group t.sim value) }
  | "policy" -> { t with policy = Some (policy_group t.policy value) }
  | "space" -> { t with space = Some (space_group t.space value) }
  | "machines" -> machines_group t value
  | key -> bad "unknown key %S" key

(* [machines] groups apply before everything else, whatever their
   position in the file, so [(machine my-box)] can name a machine the
   same file defines. *)
let apply_sexp (t : t) sexp =
  let pairs = pairs_of "config" sexp in
  let is_machines (key, _) = String.equal key "machines" in
  let t =
    List.fold_left (fun t (_, value) -> machines_group t value) t (List.filter is_machines pairs)
  in
  List.fold_left
    (fun t (key, value) -> apply_entry t key value)
    t
    (List.filter (fun p -> not (is_machines p)) pairs)

let apply_file (t : t) ~path =
  match Sexp.parse_file path with
  | Error m -> Error (Error.config ~source:path (Printf.sprintf "%s: %s" path m))
  | Ok sexp -> (
      match apply_sexp t sexp with
      | t -> Ok t
      | exception Bad m -> Error (Error.config ~source:path (Printf.sprintf "%s: %s" path m)))

(* --- environment layer --------------------------------------------- *)

(* The plan choice rides on the policy layer: keep whatever the lower
   layers set (sparse-exact etc.), replacing only the plan field. *)
let set_plan policy plan =
  { (Option.value policy ~default:Gpp_dataflow.Analyzer.default_policy) with
    Gpp_dataflow.Analyzer.plan
  }

let env_vars =
  [
    "GPP_MACHINES";
    "GPP_MACHINE";
    "GPP_SEED";
    "GPP_RUNS";
    "GPP_ITERATIONS";
    "GPP_JOBS";
    "GPP_OUTLIER_PROBABILITY";
    "GPP_NO_CACHE";
    "GPP_CACHE_DIR";
    "GPP_TRACE";
    "GPP_VERBOSE";
    "GPP_TRANSFER_PLAN";
    "GPP_PREDICT";
    "GPP_LISTEN";
    "GPP_FLUSH_EVERY";
  ]

let apply_env ?(getenv = Sys.getenv_opt) (t : t) =
  let ( let* ) = Result.bind in
  let scalar name parse set t =
    match getenv name with
    | None -> Ok t
    | Some raw -> (
        match parse raw with
        | Ok v -> Ok (set t v)
        | Error m -> Error (Error.config ~source:name (Printf.sprintf "%s: %s" name m)))
  in
  (* Catalog file first: GPP_MACHINE may name a machine it defines. *)
  let* t =
    match getenv "GPP_MACHINES" with
    | None -> Ok t
    | Some path -> (
        match Machines.load_file ~base:t.machines path with
        | Ok machines -> Ok { t with machines }
        | Error e -> Error e)
  in
  let* t = scalar "GPP_MACHINE" (find_machine t) (fun t machine -> { t with machine }) t in
  let* t = scalar "GPP_SEED" int64_of_atom (fun t seed -> { t with seed }) t in
  let* t = scalar "GPP_RUNS" int_of_atom (fun t runs -> { t with runs = Some runs }) t in
  let* t =
    scalar "GPP_ITERATIONS" int_of_atom (fun t n -> { t with iterations = Some n }) t
  in
  let* t = scalar "GPP_JOBS" pos_int_of_atom (fun t jobs -> { t with jobs }) t in
  let* t =
    scalar "GPP_OUTLIER_PROBABILITY" float_of_atom
      (fun t outlier_probability -> { t with outlier_probability })
      t
  in
  let* t =
    scalar "GPP_NO_CACHE" bool_of_atom (fun t no -> { t with cache_enabled = not no }) t
  in
  let* t = scalar "GPP_CACHE_DIR" (fun s -> Ok s) (fun t d -> { t with cache_dir = Some d }) t in
  let* t = scalar "GPP_TRACE" (fun s -> Ok s) (fun t f -> { t with trace = Some f }) t in
  let* t = scalar "GPP_VERBOSE" bool_of_atom (fun t verbose -> { t with verbose }) t in
  let* t =
    scalar "GPP_TRANSFER_PLAN" Gpp_dataflow.Analyzer.plan_policy_of_name
      (fun t plan -> { t with policy = Some (set_plan t.policy plan) })
      t
  in
  let* t =
    scalar "GPP_PREDICT" predictor_of_atom (fun t predictor -> { t with predictor }) t
  in
  let* t = scalar "GPP_LISTEN" (fun s -> Ok s) (fun t listen -> { t with listen }) t in
  let* t =
    scalar "GPP_FLUSH_EVERY" pos_int_of_atom (fun t flush_every -> { t with flush_every }) t
  in
  Ok t

(* --- flag layer ----------------------------------------------------- *)

type overrides = {
  o_machines_file : string option;
  o_machine : string option;
  o_seed : int64 option;
  o_runs : int option;
  o_iterations : int option;
  o_jobs : int option;
  o_no_cache : bool;
  o_cache_dir : string option;
  o_trace : string option;
  o_verbose : bool;
  o_transfer_plan : Gpp_dataflow.Analyzer.plan_policy option;
  o_predict : string option;
  o_listen : string option;
  o_flush_every : int option;
}

let no_overrides =
  {
    o_machines_file = None;
    o_machine = None;
    o_seed = None;
    o_runs = None;
    o_iterations = None;
    o_jobs = None;
    o_no_cache = false;
    o_cache_dir = None;
    o_trace = None;
    o_verbose = false;
    o_transfer_plan = None;
    o_predict = None;
    o_listen = None;
    o_flush_every = None;
  }

(* The machine flags can fail (unreadable catalog file, unknown name),
   so the flag layer resolves to a result; both failures are config
   errors (exit 2) like their file/env counterparts. *)
let apply_overrides (t : t) (o : overrides) =
  let ( let* ) = Result.bind in
  let* t =
    match o.o_machines_file with
    | None -> Ok t
    | Some path -> (
        match Machines.load_file ~base:t.machines path with
        | Ok machines -> Ok { t with machines }
        | Error e -> Error e)
  in
  let* t =
    match o.o_machine with
    | None -> Ok t
    | Some name -> (
        match find_machine t name with
        | Ok machine -> Ok { t with machine }
        | Error m -> Error (Error.config m))
  in
  let t = match o.o_seed with Some seed -> { t with seed } | None -> t in
  let t = match o.o_runs with Some runs -> { t with runs = Some runs } | None -> t in
  let t = match o.o_iterations with Some n -> { t with iterations = Some n } | None -> t in
  let t = match o.o_jobs with Some jobs -> { t with jobs } | None -> t in
  let t = if o.o_no_cache then { t with cache_enabled = false } else t in
  let t = match o.o_cache_dir with Some d -> { t with cache_dir = Some d } | None -> t in
  let t = match o.o_trace with Some f -> { t with trace = Some f } | None -> t in
  let t =
    match o.o_transfer_plan with
    | Some plan -> { t with policy = Some (set_plan t.policy plan) }
    | None -> t
  in
  let* t =
    match o.o_predict with
    | None -> Ok t
    | Some s -> (
        match predictor_of_atom s with
        | Ok predictor -> Ok { t with predictor }
        | Error m -> Error (Error.config ~source:"--predict" m))
  in
  let t = match o.o_listen with Some listen -> { t with listen } | None -> t in
  let t = match o.o_flush_every with Some n -> { t with flush_every = n } | None -> t in
  Ok (if o.o_verbose then { t with verbose = true } else t)

(* The simulator's documented ranges: each efficiency is a fraction of
   peak DRAM bandwidth, and a jitter half-width above 1 would draw
   negative DRAM latencies.  NaN fails every comparison, so it is out
   of range too. *)
let sim_out_of_range (c : Gpp_gpusim.Gpu_sim.config) =
  let fraction v = v > 0.0 && v <= 1.0 and non_negative v = Float.is_finite v && v >= 0.0 in
  List.find_opt
    (fun (_, v, ok, _) -> not (ok v))
    [
      ("streaming-efficiency", c.streaming_efficiency, fraction, "> 0 and <= 1");
      ("scattered-efficiency", c.scattered_efficiency, fraction, "> 0 and <= 1");
      ("latency-jitter", c.latency_jitter, (fun v -> v >= 0.0 && v <= 1.0), "0 .. 1");
      ("block-dispatch-cycles", c.block_dispatch_cycles, non_negative, "finite and >= 0");
      ("drain-cycles", c.drain_cycles, non_negative, "finite and >= 0");
      ("noise-sigma", c.noise_sigma, non_negative, "finite and >= 0");
    ]

(* Cross-layer validation, applied to the fully resolved value so a bad
   setting is rejected no matter which layer (file, env, flag) supplied
   it.  Pool.run, the simulators and the iteration rescaling would raise
   Invalid_argument on the same ranges; user input must surface as a
   structured config error (exit 2) instead. *)
let validate (t : t) =
  let out_of_range fmt = Printf.ksprintf (fun m -> Error (Error.config m)) fmt in
  match (t.runs, t.iterations) with
  | Some n, _ when n < 1 -> out_of_range "runs = %d out of range (expected >= 1)" n
  | _, Some n when n < 1 -> out_of_range "iterations = %d out of range (expected >= 1)" n
  | _ when t.jobs < 1 || t.jobs > Pool.max_jobs ->
      out_of_range "jobs = %d out of range (expected 1 .. %d)" t.jobs Pool.max_jobs
  | _ when t.flush_every < 1 ->
      out_of_range "flush-every = %d out of range (expected >= 1)" t.flush_every
  | _ -> (
      match Option.bind t.sim sim_out_of_range with
      | Some (key, v, _, range) ->
          out_of_range "sim: %s = %g out of range (expected %s)" key v range
      | None -> Ok t)

let resolve ?getenv ?file ?(overrides = no_overrides) () =
  let ( let* ) = Result.bind in
  let* t = match file with None -> Ok default | Some path -> apply_file default ~path in
  let* t = apply_env ?getenv t in
  let* t = apply_overrides t overrides in
  validate t
