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
        ] );
      ( "trace",
        [
          Alcotest.test_case "records categories" `Quick test_trace_records_categories;
          Alcotest.test_case "chrome json" `Quick test_trace_chrome_json;
          Alcotest.test_case "capacity" `Quick test_trace_capacity;
        ] );
    ]
