(* Tests for Gpp_gpusim: the transaction-level GPU simulator. *)

module Sim = Gpp_gpusim.Gpu_sim
module C = Gpp_model.Characteristics
module Rng = Gpp_util.Rng

let gpu = Gpp_arch.Gpu.quadro_fx_5600

let characteristics ?(grid_blocks = 256) ?(threads_per_block = 256) ?(flops = 20.0)
    ?(loads = 2.0) ?(stores = 1.0) ?(load_trans = 4.0) ?(store_trans = 2.0) ?(scattered = 0.0) ()
    =
  C.create ~kernel_name:"simk" ~grid_blocks ~threads_per_block ~flops_per_thread:flops
    ~load_insts_per_thread:loads ~store_insts_per_thread:stores
    ~load_transactions_per_warp:load_trans ~store_transactions_per_warp:store_trans
    ~scattered_fraction:scattered ()

let noiseless = { Sim.default_config with Sim.noise_sigma = 0.0; latency_jitter = 0.0 }

let run ?(config = Sim.default_config) ?(seed = 1L) c =
  Helpers.check_ok "simulation" (Sim.run ~config ~rng:(Rng.create seed) ~gpu c)

let test_result_sanity () =
  let r = run (characteristics ()) in
  Helpers.check_positive "time" r.Sim.time;
  Helpers.check_positive "busy" r.Sim.busy_time;
  Helpers.check_in_range "dram util" ~lo:0.0 ~hi:1.0 r.Sim.dram_utilization;
  Helpers.check_in_range "issue util" ~lo:0.0 ~hi:1.0 r.Sim.issue_utilization;
  Alcotest.(check int) "all blocks simulated" 256 r.Sim.simulated_blocks;
  Alcotest.(check bool) "no extrapolation" false r.Sim.extrapolated;
  Alcotest.(check bool) "events processed" true (r.Sim.events > 0);
  Alcotest.(check bool) "includes launch overhead" true
    (r.Sim.time > gpu.Gpp_arch.Gpu.launch_overhead /. 2.0)

let test_determinism () =
  let a = run ~seed:7L (characteristics ()) and b = run ~seed:7L (characteristics ()) in
  Helpers.close "same seed same time" a.Sim.time b.Sim.time

let test_noise_varies_runs () =
  let rng = Rng.create 5L in
  let samples =
    List.init 10 (fun _ ->
        (Helpers.check_ok "sim" (Sim.run ~rng ~gpu (characteristics ()))).Sim.time)
  in
  Alcotest.(check bool) "noisy runs differ" true
    (List.length (List.sort_uniq Float.compare samples) > 1)

let test_more_work_more_time () =
  let t flops = (run ~config:noiseless (characteristics ~flops ())).Sim.time in
  Alcotest.(check bool) "monotone in compute" true (t 200.0 > t 20.0);
  let t trans = (run ~config:noiseless (characteristics ~load_trans:trans ())).Sim.time in
  Alcotest.(check bool) "monotone in traffic" true (t 64.0 > t 4.0)

let test_scattered_traffic_slower () =
  (* Same loads per thread, but a gather explodes into one transaction
     per lane (32x) where a streaming access coalesces into two — as the
     synthesis step derives them.  The simulator must charge heavily for
     the scattered version on a memory-bound kernel, even though each
     scattered transaction moves half a segment. *)
  let loads = 4.0 in
  let streaming =
    run ~config:noiseless
      (characteristics ~flops:1.0 ~loads ~load_trans:(2.0 *. loads) ~scattered:0.0 ())
  in
  let scattered =
    run ~config:noiseless
      (characteristics ~flops:1.0 ~loads ~load_trans:(32.0 *. loads) ~scattered:1.0 ())
  in
  Alcotest.(check bool) "scatter is slower in the simulator" true
    (scattered.Sim.time > 2.0 *. streaming.Sim.time)

let test_grid_scaling () =
  let t blocks = (run ~config:noiseless (characteristics ~grid_blocks:blocks ())).Sim.time in
  let t256 = t 256 and t1024 = t 1024 in
  (* 4x the blocks: between 2x and 6x the time (waves overlap). *)
  Helpers.check_in_range "grid scaling" ~lo:2.0 ~hi:6.0 (t1024 /. t256)

let test_extrapolation_close_to_full_sim () =
  let c = characteristics ~grid_blocks:4096 () in
  let full =
    run ~config:{ noiseless with Sim.max_simulated_blocks = 100_000 } c
  in
  let sampled = run ~config:{ noiseless with Sim.max_simulated_blocks = 512 } c in
  Alcotest.(check bool) "full sim not extrapolated" false full.Sim.extrapolated;
  Alcotest.(check bool) "sampled extrapolated" true sampled.Sim.extrapolated;
  Alcotest.(check bool) "sampled simulated fewer" true
    (sampled.Sim.simulated_blocks < full.Sim.simulated_blocks);
  Helpers.close_rel ~tolerance:0.1 "wave sampling accurate" full.Sim.time sampled.Sim.time

let test_memory_bound_tracks_bandwidth () =
  (* A strongly memory-bound kernel should complete in roughly
     total-bytes / sustained-bandwidth. *)
  let c = characteristics ~grid_blocks:2048 ~flops:1.0 ~load_trans:64.0 ~store_trans:32.0 () in
  let r = run ~config:{ noiseless with Sim.max_simulated_blocks = 100_000 } c in
  let bytes = C.total_transactions ~gpu c *. C.transaction_bytes ~gpu c in
  let floor_time =
    bytes /. (gpu.Gpp_arch.Gpu.dram_bandwidth *. noiseless.Sim.streaming_efficiency)
  in
  Alcotest.(check bool) "not faster than the DRAM floor" true (r.Sim.busy_time >= floor_time *. 0.95);
  Helpers.check_in_range "within 2x of the floor" ~lo:0.9 ~hi:2.0 (r.Sim.busy_time /. floor_time);
  Alcotest.(check bool) "dram well utilized" true (r.Sim.dram_utilization > 0.5)

let test_unschedulable_error () =
  let c =
    C.create ~kernel_name:"bad" ~grid_blocks:1 ~threads_per_block:512 ~registers_per_thread:63
      ~flops_per_thread:1.0 ~load_insts_per_thread:0.0 ~store_insts_per_thread:0.0
      ~load_transactions_per_warp:0.0 ~store_transactions_per_warp:0.0 ()
  in
  match Sim.run ~rng:(Rng.create 1L) ~gpu c with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected an occupancy error"

let test_run_mean () =
  let c = characteristics () in
  let mean = Helpers.check_ok "mean" (Sim.run_mean ~runs:10 ~seed:3L ~gpu c) in
  let single = run ~seed:3L c in
  Helpers.close_rel ~tolerance:0.2 "mean near a single run" single.Sim.time mean;
  Helpers.check_raises_invalid "zero runs" (fun () ->
      ignore (Sim.run_mean ~runs:0 ~seed:1L ~gpu c))

let test_pure_compute_kernel () =
  let c =
    C.create ~kernel_name:"pure" ~grid_blocks:128 ~threads_per_block:256 ~flops_per_thread:50.0
      ~load_insts_per_thread:0.0 ~store_insts_per_thread:0.0 ~load_transactions_per_warp:0.0
      ~store_transactions_per_warp:0.0 ()
  in
  let r = run ~config:noiseless c in
  Helpers.check_positive "time" r.Sim.time;
  Helpers.close "no dram traffic" 0.0 r.Sim.dram_utilization

let test_agrees_with_model_on_regular_kernels () =
  (* For regular streaming kernels the simulator and the analytic model
     should land within ~50% of each other: the paper's stencil kernels
     show ~0.7-15% kernel errors. *)
  let c = characteristics ~grid_blocks:1024 ~flops:30.0 ~load_trans:6.0 ~store_trans:2.0 () in
  let sim = run ~config:noiseless c in
  let model = Helpers.check_ok "model" (Gpp_model.Analytic.project ~gpu c) in
  Helpers.check_in_range "model/sim agreement" ~lo:0.5 ~hi:1.5
    (model.Gpp_model.Analytic.kernel_time /. sim.Sim.time)

(* Tracing *)

module Trace = Gpp_gpusim.Trace

let test_trace_records_categories () =
  let tr = Trace.create () in
  let r =
    Helpers.check_ok "traced run"
      (Sim.run ~config:noiseless ~trace:tr ~rng:(Rng.create 2L) ~gpu
         (characteristics ~grid_blocks:32 ()))
  in
  Alcotest.(check bool) "events recorded" true (Trace.length tr > 0);
  Alcotest.(check int) "nothing dropped on a small run" 0 (Trace.dropped tr);
  let categories =
    Trace.events tr |> List.map (fun e -> e.Trace.category) |> List.sort_uniq compare
  in
  Alcotest.(check (list string)) "all categories" [ "block"; "compute"; "dram" ] categories;
  (* One block event per simulated block. *)
  let blocks =
    List.length (List.filter (fun e -> e.Trace.category = "block") (Trace.events tr))
  in
  Alcotest.(check int) "one event per block" r.Sim.simulated_blocks blocks;
  (* Event spans stay within the simulated busy window. *)
  Alcotest.(check bool) "span within busy time" true (Trace.span tr <= r.Sim.busy_time +. 1e-9)

let test_trace_chrome_json () =
  let tr = Trace.create () in
  Trace.record tr ~name:"say \"hi\"" ~category:"compute" ~track:3 ~start:1e-6 ~duration:2e-6;
  Trace.record tr ~name:"mem" ~category:"dram" ~track:Trace.dram_track ~start:0.0 ~duration:1e-6;
  let path = Filename.temp_file "gpp-gpusim-trace" ".json" in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  Trace.write_chrome tr (open_out path);
  let json = In_channel.with_open_bin path In_channel.input_all in
  Helpers.check_contains "escaped name" ~needle:"say \\\"hi\\\"" json;
  Helpers.check_contains "complete event" ~needle:"\"ph\":\"X\"" json;
  Helpers.check_contains "microseconds" ~needle:"\"ts\":1.000" json;
  Helpers.check_contains "duration" ~needle:"\"dur\":2.000" json;
  Helpers.check_contains "SM track" ~needle:"\"tid\":3" json;
  Helpers.check_contains "DRAM track" ~needle:(Printf.sprintf "\"tid\":%d" Trace.dram_track) json;
  (* The obs writer's object format, accepted by the trace validator. *)
  match Gpp_obs.Validate.validate_string json with
  | Ok st -> Alcotest.(check int) "two complete events" 2 st.Gpp_obs.Validate.spans
  | Error e -> Alcotest.failf "invalid trace: %s" e

let test_trace_capacity () =
  let tr = Trace.create ~capacity:2 () in
  for i = 1 to 5 do
    Trace.record tr ~name:(string_of_int i) ~category:"compute" ~track:0 ~start:0.0
      ~duration:1.0
  done;
  Alcotest.(check int) "kept two" 2 (Trace.length tr);
  Alcotest.(check int) "dropped three" 3 (Trace.dropped tr);
  Helpers.check_contains "summary mentions drops" ~needle:"3 dropped" (Trace.summary tr)

(* Bit-for-bit pin: every result field (floats as their IEEE bits), the
   simulator's counter totals and a digest of the recorded trace, for
   five kernel shapes on an old and a new GPU.  The goldens only see
   [run_mean] times on the paper workloads; these lines change whenever
   the order events run in (time, then scheduling order), the order of
   the RNG draws or the simulator's arithmetic does. *)

module Obs = Gpp_obs.Obs

let pinned_counters =
  [
    "sim.blocks";
    "sim.waves";
    "sim.warp_phases";
    "sim.dram.requests";
    "sim.dram.transactions";
    "sim.divergence.serializations";
    "sim.engine.events";
    "sim.blocks.extrapolated";
    "rng.draws";
  ]

let pin_kernels =
  [
    ("streaming", characteristics ~grid_blocks:512 ());
    ("scattered", characteristics ~flops:4.0 ~loads:4.0 ~load_trans:128.0 ~scattered:1.0 ());
    ( "zero-dram",
      characteristics ~flops:50.0 ~loads:0.0 ~stores:0.0 ~load_trans:0.0 ~store_trans:0.0 () );
    ( "wave-sampled",
      C.create ~kernel_name:"simk" ~grid_blocks:40_000 ~threads_per_block:128
        ~divergence_factor:1.5 ~syncs_per_thread:2.0 ~int_ops_per_thread:6.0
        ~flops_per_thread:12.0 ~load_insts_per_thread:3.0 ~store_insts_per_thread:1.0
        ~load_transactions_per_warp:6.0 ~store_transactions_per_warp:2.0 ~scattered_fraction:0.25
        () );
    ("ragged", characteristics ~grid_blocks:37 ~threads_per_block:64 ());
  ]

let pin_gpus = [ Gpp_arch.Gpu.quadro_fx_5600; Gpp_arch.Gpu.a100 ]

let bits f = Printf.sprintf "%Lx" (Int64.bits_of_float f)

let trace_digest tr =
  let buf = Buffer.create 4096 in
  List.iter
    (fun (e : Trace.event) ->
      Printf.bprintf buf "%s %s %d %s %s\n" e.name e.category e.track (bits e.start)
        (bits e.duration))
    (Trace.events tr);
  Printf.sprintf "%d/%d/%s" (Trace.length tr) (Trace.dropped tr)
    (Digest.to_hex (Digest.string (Buffer.contents buf)))

(* Every result field, the floats as their IEEE bits. *)
let result_fields (r : Sim.result) =
  ( Printf.sprintf "time=%s busy=%s dram=%s issue=%s" (bits r.time) (bits r.busy_time)
      (bits r.dram_utilization) (bits r.issue_utilization),
    Printf.sprintf "%s blocks=%d/%d extrapolated=%b events=%d" r.kernel_name r.simulated_blocks
      r.total_blocks r.extrapolated r.events )

(* A run as three strings: the float fields, the integer fields with
   the [pinned_counters] totals in order, and the trace. *)
let pin_fields ?(config = Sim.default_config) ~gpu c =
  Obs.reset ();
  Obs.set_enabled true;
  let tr = Trace.create () in
  let r =
    Fun.protect ~finally:(fun () -> Obs.set_enabled false) @@ fun () ->
    Helpers.check_ok "pinned run" (Sim.run ~config ~trace:tr ~rng:(Rng.create 42L) ~gpu c)
  in
  let counters = List.map (fun n -> string_of_int (Obs.value (Obs.counter n))) pinned_counters in
  Obs.reset ();
  let floats, ints = result_fields r in
  [ floats; ints ^ " counters=" ^ String.concat "," counters; "trace=" ^ trace_digest tr ]

(* [pin_kernels] on each of [pin_gpus], in order. *)
let pin_expected =
  [
    (* quadro_fx_5600 *)
    [
      "time=3f1189a3a62a92e8 busy=3f0400981c414c55 dram=3fef99c30e2a9c7f issue=3fdd9c6813e95880";
      "simk blocks=512/512 extrapolated=false events=32768 counters=512,16,16384,12288,24576,0,32768,0,12290";
      "trace=29184/0/ad232dd3ce8e03f0eb87679e00a901ac";
    ];
    [
      "time=3f320ddfb2f3b33d busy=3f30333a76c30436 dram=3feff853c2efef61 issue=3f8c5492b1787361";
      "simk blocks=256/256 extrapolated=false events=24576 counters=256,8,12288,10240,266240,0,24576,0,10242";
      "trace=22784/0/a126ffb718938c77201701249f7d162b";
    ];
    [
      "time=3f0a2668b4f8a2e5 busy=3ef49549e06d6bba dram=0 issue=3fefa11caa01fa11";
      "simk blocks=256/256 extrapolated=false events=4096 counters=256,8,2048,0,0,0,4096,0,2";
      "trace=2304/0/f7ce82f40624b8ee1d64853706a5af21";
    ];
    [
      "time=3f5cf27b079fd3bf busy=3f5cc7252bf0fa42 dram=3fefc552c803fbc5 issue=3fec106f860399a8";
      "simk blocks=2048/40000 extrapolated=true events=81920 counters=2048,32,40960,32768,65536,40960,81920,37952,32770";
      "trace=75776/0/e8c5d8a4908b9975bcb4dcd09f4196b0";
    ];
    [
      "time=3f00c1aa4886ab75 busy=3ec125f0b96d355a dram=3fdae9abcb311f5d issue=3fc937e080c4c8f9";
      "simk blocks=37/37 extrapolated=false events=592 counters=37,1,296,222,444,0,592,0,224";
      "trace=555/0/9a525ca0533ce77e3f93e29f751bf5d5";
    ];
    (* a100 *)
    [
      "time=3ede2867d3061555 busy=3ed2237eec41de3e dram=3fee2fd6b6c23174 issue=3fc44f2e233e1acf";
      "simk blocks=512/512 extrapolated=false events=32768 counters=512,1,16384,12288,24576,0,32768,0,12290";
      "trace=29184/0/a27e5fb209779b59e52d4f7bb176670c";
    ];
    [
      "time=3efd2b789927c368 busy=3efa347ce9bce29f dram=3fefb856991ba093 issue=3f742e94f36e7bcd";
      "simk blocks=256/256 extrapolated=false events=24576 counters=256,1,12288,10240,266240,0,24576,0,10242";
      "trace=22784/0/1980aa780a1a2bad675c978f28cb03bd";
    ];
    [
      "time=3ed2ec76f4cec9af busy=3eb8fcc2826b8d60 dram=0 issue=3fe43a2730abee42";
      "simk blocks=256/256 extrapolated=false events=4096 counters=256,1,2048,0,0,0,4096,0,2";
      "trace=2304/0/6fc38a051bd847af47918f76ed180fb7";
    ];
    [
      "time=3f2746efa71450ab busy=3f26bec3f3bd6e68 dram=3fef77aff61777ca issue=3fe5468791121747";
      "simk blocks=3456/40000 extrapolated=true events=138240 counters=3456,2,69120,55296,110592,69120,138240,36544,55298";
      "trace=127872/0/8ec7f8a12f319a750f5d166b8d3fa37c";
    ];
    [
      "time=3ed34cc8587ec988 busy=3ebb1200de6c3a3d dram=3faca39980875f12 issue=3f8344989effd608";
      "simk blocks=37/37 extrapolated=false events=592 counters=37,1,296,222,444,0,592,0,224";
      "trace=555/0/3eea371e3236367429550f576e0dba08";
    ];
  ]

let test_bit_for_bit_pin () =
  let runs =
    List.concat_map
      (fun (gpu : Gpp_arch.Gpu.t) ->
        List.map (fun (label, c) -> (label ^ " on " ^ gpu.name, pin_fields ~gpu c)) pin_kernels)
      pin_gpus
  in
  Alcotest.(check int) "pinned runs" (List.length pin_expected) (List.length runs);
  List.iter2
    (fun (what, fields) expected -> Alcotest.(check (list string)) what expected fields)
    runs pin_expected

(* Regimes the pinned kernels never reach, each pinned like the above:
   exact ties, buckets far sparser than the events, a saturated DRAM
   channel with long queueing tails, and a single warp.  The event queue
   must pop these in (time, scheduling order) too. *)
let stress_pins =
  [
    ("ties", noiseless, characteristics ~grid_blocks:512 ());
    ( "sparse",
      { Sim.default_config with Sim.block_dispatch_cycles = 1e6 },
      characteristics ~grid_blocks:300 ~threads_per_block:64 () );
    ( "saturated",
      { Sim.default_config with Sim.scattered_efficiency = 0.05 },
      characteristics ~grid_blocks:1024 ~flops:1.0 ~loads:8.0 ~load_trans:256.0 ~scattered:1.0 () );
    ("single-warp", Sim.default_config, characteristics ~grid_blocks:1 ~threads_per_block:32 ());
  ]

(* Recorded before the calendar queue replaced the binary heap, and
   unchanged by it. *)
let stress_expected =
  [
    (* quadro_fx_5600 *)
    [
      "time=3f11dc08c56c975c busy=3f03fd89642ea003 dram=3fef9ea6f6daf7ec issue=3fdda0fd29aed5ff";
      "simk blocks=512/512 extrapolated=false events=32768 counters=512,16,16384,12288,24576,0,32768,0,12290";
      "trace=29184/0/76920f7bc8a7d2c75f548c1a8619641f";
    ];
    [
      "time=3f6248a97ef0f93c busy=3f623f4745a4d3e6 dram=3f641086107d755d issue=3f52cd1ce986a07b";
      "simk blocks=300/300 extrapolated=false events=4800 counters=300,3,2400,1800,3600,0,4800,0,1802";
      "trace=4500/0/5bd56b9ef5bf4cb05acc2b1570ffee9a";
    ];
    [
      "time=3f92024203f0b44f busy=3f92094423045adc dram=3fefffe4d5b5c6dc issue=3f4c393c7dde9aa0";
      "simk blocks=1024/1024 extrapolated=false events=163840 counters=1024,32,81920,73728,2138112,0,163840,0,73730";
      "trace=156672/0/00740a4aac6377c0078a565c01ae0360";
    ];
    [
      "time=3f00f6d77e1ee975 busy=3ebe5f849b4e9810 dram=3f7b42beee23801b issue=3f698b57e2eff624";
      "simk blocks=1/1 extrapolated=false events=8 counters=1,1,4,3,6,0,8,0,5";
      "trace=8/0/88bc9a870faed8481bd24b3530a0a503";
    ];
    (* a100 *)
    [
      "time=3edeb8b8a4ca5068 busy=3ed2237eec41de3e dram=3fee2fd6b6c23174 issue=3fc44f2e233e1acf";
      "simk blocks=512/512 extrapolated=false events=32768 counters=512,1,16384,12288,24576,0,32768,0,12290";
      "trace=29184/0/5ee934ac85c91228875959a0ec61ca84";
    ];
    [
      "time=3f471ec08c89da19 busy=3f474946d849f414 dram=3f48dbd9fdb4f318 issue=3f20b9824d7fafab";
      "simk blocks=300/300 extrapolated=false events=4800 counters=300,1,2400,1800,3600,0,4800,0,1802";
      "trace=4500/0/1d5e21ad6dff2203d7b594f95635faa5";
    ];
    [
      "time=3f5c78d533cd77b4 busy=3f5c83c377fdc21b dram=3feffefdd927d346 issue=3f34431890aa57b8";
      "simk blocks=1024/1024 extrapolated=false events=163840 counters=1024,2,81920,73728,2138112,0,163840,0,73730";
      "trace=156672/0/9a1142bc3a4a228513b8267c3cb3ca55";
    ];
    [
      "time=3ed31b47a6c46c40 busy=3eb8cde0cef2ea1c dram=3f4bf243cb50a4ad issue=3f22cd49b0000e82";
      "simk blocks=1/1 extrapolated=false events=8 counters=1,1,4,3,6,0,8,0,5";
      "trace=8/0/f69e66aa5635906c40faccc114cddc1d";
    ];
  ]

let test_stress_pins () =
  let runs =
    List.concat_map
      (fun (gpu : Gpp_arch.Gpu.t) ->
        List.map
          (fun (label, config, c) -> (label ^ " on " ^ gpu.name, pin_fields ~config ~gpu c))
          stress_pins)
      pin_gpus
  in
  Alcotest.(check int) "pinned runs" (List.length stress_expected) (List.length runs);
  List.iter2
    (fun (what, fields) expected -> Alcotest.(check (list string)) what expected fields)
    runs stress_expected

(* [rng.draws] counts the draws a run makes: a fresh generator advanced
   that many times stands exactly where the run left its generator. *)
let test_rng_draws_counted () =
  List.iter
    (fun (gpu : Gpp_arch.Gpu.t) ->
      List.iter
        (fun (label, c) ->
          Obs.reset ();
          Obs.set_enabled true;
          let rng = Rng.create 42L in
          Fun.protect ~finally:(fun () -> Obs.set_enabled false) (fun () ->
              ignore (Helpers.check_ok "counted run" (Sim.run ~rng ~gpu c)));
          let draws = Obs.value (Obs.counter "rng.draws") in
          Obs.reset ();
          let fresh = Rng.create 42L in
          for _ = 1 to draws do
            ignore (Rng.next_int64 fresh)
          done;
          Alcotest.(check int64)
            (label ^ " on " ^ gpu.name)
            (Rng.next_int64 fresh) (Rng.next_int64 rng))
        pin_kernels)
    pin_gpus

(* Durations the event loop cannot schedule (negative, infinite or NaN),
   and event counts an [int] cannot hold, are an [Error] before any
   event runs, never an exception. *)
let test_bad_durations_are_errors () =
  let expect_error what ?(config = Sim.default_config) c =
    match Sim.run ~config ~rng:(Rng.create 1L) ~gpu c with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "%s: expected an error" what
    | exception e -> Alcotest.failf "%s: raised %s" what (Printexc.to_string e)
  in
  let c = characteristics () in
  List.iter
    (fun (what, config) -> expect_error what ~config c)
    Sim.
      [
        ("zero streaming efficiency", { default_config with streaming_efficiency = 0.0 });
        ("negative streaming efficiency", { default_config with streaming_efficiency = -0.5 });
        ("NaN streaming efficiency", { default_config with streaming_efficiency = Float.nan });
        ("negative dispatch", { default_config with block_dispatch_cycles = -10.0 });
        ("infinite dispatch", { default_config with block_dispatch_cycles = Float.infinity });
        ("infinite jitter", { default_config with latency_jitter = Float.infinity });
        ("negative jitter", { default_config with latency_jitter = -0.1 });
        ("negative latencies", { default_config with latency_jitter = 1.5 });
      ];
  expect_error "negative issue chunk" (characteristics ~flops:(-100.0) ());
  expect_error "NaN issue chunk" (characteristics ~flops:Float.nan ());
  expect_error "too many events" (characteristics ~loads:1e17 ())

(* Generated kernels on both GPUs: each FIFO server is busy for no more
   than the simulated span (work conservation), and the same seed gives
   bitwise-equal results. *)
let test_generated_kernels =
  let gen =
    QCheck2.Gen.(
      let* gpu = oneofl pin_gpus in
      let* seed = map Int64.of_int nat in
      let* grid_blocks = int_range 1 700 in
      let* threads_per_block = oneofl [ 32; 64; 128; 256 ] in
      let* flops = float_range 0.0 64.0 in
      let* loads = float_range 0.0 6.0 in
      let* stores = float_range 0.0 3.0 in
      let* load_trans = float_range 0.0 48.0 in
      let* store_trans = float_range 0.0 16.0 in
      let* scattered = float_range 0.0 1.0 in
      let* divergence_factor = float_range 1.0 2.0 in
      let* syncs_per_thread = float_range 0.0 3.0 in
      return
        ( gpu,
          seed,
          C.create ~kernel_name:"gen" ~grid_blocks ~threads_per_block ~divergence_factor
            ~syncs_per_thread ~flops_per_thread:flops ~load_insts_per_thread:loads
            ~store_insts_per_thread:stores ~load_transactions_per_warp:load_trans
            ~store_transactions_per_warp:store_trans ~scattered_fraction:scattered () ))
  in
  let config = { Sim.default_config with Sim.max_simulated_blocks = 256 } in
  Helpers.qtest ~count:60 "generated kernels: utilization in [0, 1], seed-deterministic" gen
    (fun (gpu, seed, c) ->
      let run () = Sim.run ~config ~rng:(Rng.create seed) ~gpu c in
      let in_unit v = v >= 0.0 && v <= 1.0 in
      match (run (), run ()) with
      | Ok a, Ok b ->
          in_unit a.Sim.dram_utilization
          && in_unit a.Sim.issue_utilization
          && result_fields a = result_fields b
      | _ -> false)

(* Issue chunks, dispatch costs and DRAM latencies from 1e-300 s to
   1e300 s, so event times span the whole float range and may overflow
   to infinity.  A duration the GPU or config cannot express overflows
   too, and [run] must reject it.  Either way a run is an [Ok] or an
   [Error], never an exception, and the same seed gives the same bits. *)
let test_extreme_durations =
  let duration =
    QCheck2.Gen.(
      map2 (fun m e -> m *. (10.0 ** float_of_int e)) (float_range 1.0 10.0) (int_range (-300) 299))
  in
  let gen =
    QCheck2.Gen.(
      let* durations = triple duration duration duration in
      let* seed = map Int64.of_int nat in
      let* grid_blocks = int_range 1 48 in
      let* threads_per_block = oneofl [ 32; 64; 128 ] in
      let* budget = int_range 1 64 in
      return (durations, seed, (grid_blocks, threads_per_block, budget)))
  in
  let print ((issue_chunk, dispatch, latency), seed, (blocks, threads, budget)) =
    Printf.sprintf "issue chunk %h, dispatch %h, latency %h, seed %Ld, %d blocks of %d, budget %d"
      issue_chunk dispatch latency seed blocks threads budget
  in
  Helpers.qtest ~count:150 ~print "extreme durations: Ok or Error, seed-deterministic" gen
    (fun ((issue_chunk, dispatch, latency), seed, (grid_blocks, threads_per_block, budget)) ->
      (* One cycle is one DRAM latency.  A thread issues four
         instructions, two of them memory instructions, so an issue
         chunk is a third of four instructions' issue cycles. *)
      let cycle = latency in
      let gpu =
        {
          Gpp_arch.Gpu.quadro_fx_5600 with
          clock_ghz = 1e-9 /. cycle;
          dram_latency_cycles = 1;
          issue_cycles = issue_chunk *. 3.0 /. (4.0 *. cycle);
        }
      in
      let config =
        {
          Sim.default_config with
          Sim.block_dispatch_cycles = dispatch /. cycle;
          max_simulated_blocks = budget;
        }
      in
      let c =
        characteristics ~grid_blocks ~threads_per_block ~flops:2.0 ~loads:1.0 ~stores:1.0 ()
      in
      let run () =
        match Sim.run ~config ~rng:(Rng.create seed) ~gpu c with
        | Ok r -> Ok (result_fields r)
        | Error e -> Error e
        | exception e -> QCheck2.Test.fail_reportf "raised %s" (Printexc.to_string e)
      in
      run () = run ())

let () =
  Alcotest.run "gpp_gpusim"
    [
      ( "simulator",
        [
          Alcotest.test_case "result sanity" `Quick test_result_sanity;
          Alcotest.test_case "determinism" `Quick test_determinism;
          Alcotest.test_case "noise" `Quick test_noise_varies_runs;
          Alcotest.test_case "monotone in work" `Quick test_more_work_more_time;
          Alcotest.test_case "scatter penalty" `Quick test_scattered_traffic_slower;
          Alcotest.test_case "grid scaling" `Quick test_grid_scaling;
          Alcotest.test_case "wave sampling" `Quick test_extrapolation_close_to_full_sim;
          Alcotest.test_case "bandwidth floor" `Quick test_memory_bound_tracks_bandwidth;
          Alcotest.test_case "unschedulable" `Quick test_unschedulable_error;
          Alcotest.test_case "run_mean" `Quick test_run_mean;
          Alcotest.test_case "pure compute" `Quick test_pure_compute_kernel;
          Alcotest.test_case "model agreement" `Quick test_agrees_with_model_on_regular_kernels;
          Alcotest.test_case "bit-for-bit pin" `Quick test_bit_for_bit_pin;
          Alcotest.test_case "stress pins" `Quick test_stress_pins;
          Alcotest.test_case "rng draws counted" `Quick test_rng_draws_counted;
          Alcotest.test_case "bad durations are errors" `Quick test_bad_durations_are_errors;
          test_generated_kernels;
          test_extreme_durations;
        ] );
      ( "trace",
        [
          Alcotest.test_case "records categories" `Quick test_trace_records_categories;
          Alcotest.test_case "chrome json" `Quick test_trace_chrome_json;
          Alcotest.test_case "capacity" `Quick test_trace_capacity;
        ] );
    ]
