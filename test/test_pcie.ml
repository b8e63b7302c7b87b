(* Tests for Gpp_pcie: link simulator, linear model, calibration. *)

module Link = Gpp_pcie.Link
module Model = Gpp_pcie.Model
module Calibrate = Gpp_pcie.Calibrate
module Units = Gpp_util.Units
module Stats = Gpp_util.Stats
module Obs = Gpp_obs.Obs

let make_link ?seed () =
  Link.create ?seed (Link.default_config Gpp_arch.Machine.argonne_node)

(* Link: deterministic expectations *)

let test_expected_monotone () =
  let link = make_link () in
  List.iter
    (fun (direction, memory) ->
      let prev = ref 0.0 in
      List.iter
        (fun bytes ->
          let t = Link.expected_time link direction memory ~bytes in
          if t < !prev then
            Alcotest.failf "%s/%s not monotone at %d bytes" (Link.direction_name direction)
              (Link.memory_name memory) bytes;
          prev := t)
        (Calibrate.power_of_two_sizes ~max_bytes:(512 * Units.mib) ()))
    [
      (Link.Host_to_device, Link.Pinned);
      (Link.Host_to_device, Link.Pageable);
      (Link.Device_to_host, Link.Pinned);
      (Link.Device_to_host, Link.Pageable);
    ]

let test_expected_latency_floor () =
  let link = make_link () in
  let cfg = Link.config link in
  Helpers.close_rel ~tolerance:0.01 "1-byte pinned h2d is the setup latency"
    cfg.Link.dma_setup_h2d
    (Link.expected_time link Link.Host_to_device Link.Pinned ~bytes:1);
  Helpers.check_raises_invalid "negative size" (fun () ->
      ignore (Link.expected_time link Link.Host_to_device Link.Pinned ~bytes:(-1)))

let test_pinned_bandwidth_near_paper () =
  let link = make_link () in
  (* Paper: ~2.5 GB/s pinned on the PCIe v1 x16 testbed. *)
  Helpers.check_in_range "h2d bandwidth" ~lo:2.2e9 ~hi:2.8e9
    (Link.pinned_bandwidth link Link.Host_to_device);
  Helpers.check_in_range "d2h bandwidth" ~lo:2.1e9 ~hi:2.7e9
    (Link.pinned_bandwidth link Link.Device_to_host)

let test_pinned_vs_pageable_shape () =
  let link = make_link () in
  (* Paper Figure 3: pinned wins everywhere except tiny h2d transfers. *)
  let pinned b = Link.expected_time link Link.Host_to_device Link.Pinned ~bytes:b in
  let pageable b = Link.expected_time link Link.Host_to_device Link.Pageable ~bytes:b in
  Alcotest.(check bool) "pageable faster at 256 B" true (pageable 256 < pinned 256);
  Alcotest.(check bool) "pinned faster at 64 KiB" true (pinned (64 * Units.kib) < pageable (64 * Units.kib));
  Alcotest.(check bool) "pinned faster at 512 MiB" true
    (pinned (512 * Units.mib) < pageable (512 * Units.mib));
  (* d2h: pinned always wins. *)
  List.iter
    (fun b ->
      Alcotest.(check bool)
        (Printf.sprintf "pinned d2h wins at %d" b)
        true
        (Link.expected_time link Link.Device_to_host Link.Pinned ~bytes:b
        < Link.expected_time link Link.Device_to_host Link.Pageable ~bytes:b))
    [ 1; 1024; Units.mib; 64 * Units.mib ]

let test_pinned_large_speedup_magnitude () =
  let link = make_link () in
  let b = 512 * Units.mib in
  let speedup =
    Link.expected_time link Link.Host_to_device Link.Pageable ~bytes:b
    /. Link.expected_time link Link.Host_to_device Link.Pinned ~bytes:b
  in
  (* Paper Figure 3: around 1.5x for large h2d transfers. *)
  Helpers.check_in_range "large-transfer pinned speedup" ~lo:1.2 ~hi:2.0 speedup

(* Link: noise and determinism *)

let test_link_determinism () =
  let a = make_link ~seed:99L () and b = make_link ~seed:99L () in
  for _ = 1 to 20 do
    Helpers.close "same seed, same sample"
      (Link.transfer_time a Link.Host_to_device Link.Pinned ~bytes:4096)
      (Link.transfer_time b Link.Host_to_device Link.Pinned ~bytes:4096)
  done

let test_link_noise_varies () =
  let link = make_link () in
  let samples =
    List.init 20 (fun _ -> Link.transfer_time link Link.Host_to_device Link.Pinned ~bytes:4096)
  in
  Alcotest.(check bool) "samples differ" true
    (List.length (List.sort_uniq Float.compare samples) > 1);
  let expected = Link.expected_time link Link.Host_to_device Link.Pinned ~bytes:4096 in
  List.iter (fun s -> Helpers.check_in_range "noise bounded" ~lo:(0.5 *. expected) ~hi:(2.0 *. expected) s) samples

let test_mean_transfer_time () =
  let link = make_link () in
  let expected = Link.expected_time link Link.Device_to_host Link.Pinned ~bytes:Units.mib in
  let mean = Link.mean_transfer_time link ~runs:50 Link.Device_to_host Link.Pinned ~bytes:Units.mib in
  Helpers.close_rel ~tolerance:0.05 "mean near expectation" expected mean;
  Helpers.check_raises_invalid "zero runs" (fun () ->
      ignore (Link.mean_transfer_time link ~runs:0 Link.Device_to_host Link.Pinned ~bytes:1))

let test_outlier_mode () =
  let cfg =
    {
      (Link.default_config Gpp_arch.Machine.argonne_node) with
      Link.outlier_probability = 1.0;
      outlier_slowdown = (2.0, 2.0);
      noise_sigma_base = 0.0;
      noise_sigma_small_h2d = 0.0;
      noise_sigma_small_d2h = 0.0;
    }
  in
  let link = Link.create cfg in
  let expected = Link.expected_time link Link.Host_to_device Link.Pinned ~bytes:Units.mib in
  let sample = Link.transfer_time link Link.Host_to_device Link.Pinned ~bytes:Units.mib in
  Helpers.close_rel ~tolerance:0.001 "forced outlier doubles" (2.0 *. expected) sample

(* [rng.draws] counts every draw a transfer makes: two for the
   lognormal noise (Box-Muller), one more for the outlier test when
   outliers are on, and one more again when the outlier fires. *)
let test_rng_draws_counted () =
  let counted link =
    Obs.reset ();
    Obs.set_enabled true;
    let sample =
      Fun.protect ~finally:(fun () -> Obs.set_enabled false) @@ fun () ->
      Link.transfer_time link Link.Host_to_device Link.Pinned ~bytes:Units.mib
    in
    let draws = Obs.value (Obs.counter "rng.draws") in
    Obs.reset ();
    (sample, draws)
  in
  (* Without noise a sample is the expected time, or twice it when the
     outlier fires. *)
  let quiet =
    {
      (Link.default_config Gpp_arch.Machine.argonne_node) with
      Link.outlier_slowdown = (2.0, 2.0);
      noise_sigma_base = 0.0;
      noise_sigma_small_h2d = 0.0;
      noise_sigma_small_d2h = 0.0;
    }
  in
  let off = Link.create quiet in
  for _ = 1 to 10 do
    Alcotest.(check int) "outliers off" 2 (snd (counted off))
  done;
  let on = Link.create { quiet with Link.outlier_probability = 0.5 } in
  let expected = Link.expected_time on Link.Host_to_device Link.Pinned ~bytes:Units.mib in
  let fired = ref 0 in
  for _ = 1 to 20 do
    let sample, draws = counted on in
    if sample > expected then begin
      incr fired;
      Alcotest.(check int) "outlier fires" 4 draws
    end
    else Alcotest.(check int) "outlier does not fire" 3 draws
  done;
  Alcotest.(check bool) "both outcomes drawn" true (!fired > 0 && !fired < 20)

(* Model *)

let test_model_basics () =
  let m =
    Model.create ~alpha:1e-5 ~beta:4e-10 ~direction:Link.Host_to_device ~memory:Link.Pinned
  in
  Helpers.close "predict 0" 1e-5 (Model.predict m ~bytes:0);
  Helpers.close "predict linear" (1e-5 +. 4e-10 *. 1e6) (Model.predict m ~bytes:1_000_000);
  Helpers.close_rel ~tolerance:0.001 "bandwidth" 2.5e9 (Model.bandwidth m);
  Helpers.close "latency" 1e-5 (Model.latency m);
  Helpers.check_raises_invalid "negative bytes" (fun () -> ignore (Model.predict m ~bytes:(-1)));
  Helpers.check_raises_invalid "bad alpha" (fun () ->
      ignore (Model.create ~alpha:(-1.0) ~beta:1.0 ~direction:Link.Host_to_device ~memory:Link.Pinned));
  Helpers.check_raises_invalid "bad beta" (fun () ->
      ignore (Model.create ~alpha:0.0 ~beta:0.0 ~direction:Link.Host_to_device ~memory:Link.Pinned))

let test_model_break_even () =
  let mk alpha beta =
    Model.create ~alpha ~beta ~direction:Link.Host_to_device ~memory:Link.Pinned
  in
  (* Higher latency, higher bandwidth: crossover where the lines meet. *)
  let pinned = mk 10e-6 4e-10 and pageable = mk 5e-6 6e-10 in
  (match Model.break_even_bytes pinned ~against:pageable with
  | Some d ->
      (* 10e-6 + 4e-10 d = 5e-6 + 6e-10 d  =>  d = 25000 *)
      Alcotest.(check int) "crossover" 25000 d
  | None -> Alcotest.fail "expected a crossover");
  (* Strictly better model: wins from zero. *)
  Alcotest.(check (option int)) "dominates" (Some 0)
    (Model.break_even_bytes (mk 1e-6 1e-10) ~against:(mk 2e-6 2e-10));
  (* Strictly worse: never. *)
  Alcotest.(check (option int)) "never" None
    (Model.break_even_bytes (mk 2e-6 2e-10) ~against:(mk 1e-6 1e-10))

(* Calibration *)

let test_two_point_calibration () =
  let link = make_link () in
  let h2d, d2h = Calibrate.calibrate_pinned_pair link in
  let cfg = Link.config link in
  (* Alpha is measured from a 1-byte transfer: close to the setup cost. *)
  Helpers.close_rel ~tolerance:0.15 "alpha h2d" cfg.Link.dma_setup_h2d (Model.latency h2d);
  Helpers.close_rel ~tolerance:0.15 "alpha d2h" cfg.Link.dma_setup_d2h (Model.latency d2h);
  (* Beta recovers the asymptotic pinned bandwidth. *)
  Helpers.close_rel ~tolerance:0.05 "beta h2d"
    (Link.pinned_bandwidth link Link.Host_to_device)
    (Model.bandwidth h2d);
  Helpers.close_rel ~tolerance:0.05 "beta d2h"
    (Link.pinned_bandwidth link Link.Device_to_host)
    (Model.bandwidth d2h)

let test_validation_error_bounds () =
  (* Paper Section V-A: max 6.4% / 3.3%, mean 2.0% / 0.8%.  Assert the
     same order of magnitude on the reproduction. *)
  let link = make_link () in
  let sizes = Calibrate.power_of_two_sizes ~max_bytes:(512 * Units.mib) () in
  List.iter
    (fun (direction, mean_bound, max_bound) ->
      let model = Calibrate.calibrate link direction Link.Pinned in
      let sweep = Calibrate.measure_sweep link direction Link.Pinned ~sizes in
      let errors =
        List.map
          (fun (bytes, measured) ->
            Stats.error_magnitude ~predicted:(Model.predict model ~bytes) ~measured)
          sweep
      in
      Helpers.check_in_range "mean error" ~lo:0.0 ~hi:mean_bound (Stats.mean errors);
      Helpers.check_in_range "max error" ~lo:0.0 ~hi:max_bound (snd (Stats.min_max errors));
      (* Error is essentially zero above 1 MiB. *)
      let large =
        List.filteri (fun i _ -> List.nth sizes i > Units.mib) errors
      in
      Helpers.check_in_range "large-size error" ~lo:0.0 ~hi:1.5 (Stats.mean large))
    [ (Link.Host_to_device, 4.0, 10.0); (Link.Device_to_host, 2.0, 6.0) ]

let test_power_of_two_sizes () =
  Alcotest.(check (list int)) "small range" [ 1; 2; 4; 8 ]
    (Calibrate.power_of_two_sizes ~max_bytes:8 ());
  Alcotest.(check int) "count to 512 MiB" 30
    (List.length (Calibrate.power_of_two_sizes ~max_bytes:(512 * Units.mib) ()));
  Helpers.check_raises_invalid "bad bounds" (fun () ->
      ignore (Calibrate.power_of_two_sizes ~min_bytes:0 ~max_bytes:8 ()))

let test_least_squares_calibration () =
  let link = make_link () in
  let sizes = Calibrate.power_of_two_sizes ~max_bytes:(64 * Units.mib) () in
  let sweep = Calibrate.measure_sweep link Link.Host_to_device Link.Pinned ~sizes in
  let model = Calibrate.least_squares_model link Link.Host_to_device Link.Pinned ~sweep in
  (* The fit recovers a bandwidth in the right range. *)
  Helpers.check_in_range "fit bandwidth" ~lo:2e9 ~hi:3e9 (Model.bandwidth model)

let test_calibrate_all () =
  let link = make_link () in
  Alcotest.(check int) "four combinations" 4 (List.length (Calibrate.calibrate_all link))

(* Golden calibration: exact bit patterns from the default-seeded link.
   These pin the rng draw *order* — [mean_transfer_time] and the
   calibration sweeps must consume samples strictly left to right, not
   in [List.init]'s unspecified application order — and double as a
   cross-process determinism anchor for the persistent cache (a value
   computed in one process must equal the one a later process would
   recompute).  A mismatch means the sampling order, the rng, or the
   link model changed: all of them invalidate recorded experiments, so
   the change must be deliberate (update the constants and bump the
   affected memo schemas). *)

let check_bits name expected actual =
  if not (Int64.equal (Int64.bits_of_float expected) (Int64.bits_of_float actual)) then
    Alcotest.failf "%s: expected %h, got %h" name expected actual

let test_golden_calibration () =
  let h2d, d2h = Calibrate.calibrate_pinned_pair (make_link ()) in
  check_bits "h2d alpha" 0x1.58070ef2267b6p-17 (Model.latency h2d);
  check_bits "h2d bandwidth" 0x1.295ef50a8bf2cp+31 (Model.bandwidth h2d);
  check_bits "d2h alpha" 0x1.9469463a4d277p-17 (Model.latency d2h);
  check_bits "d2h bandwidth" 0x1.208fa44742848p+31 (Model.bandwidth d2h);
  check_bits "mean of ten 4 KiB pinned h2d draws" 0x1.89939ca63c019p-17
    (Link.mean_transfer_time (make_link ()) ~runs:10 Link.Host_to_device Link.Pinned ~bytes:4096)

let () =
  Alcotest.run "gpp_pcie"
    [
      ( "link",
        [
          Alcotest.test_case "monotone in size" `Quick test_expected_monotone;
          Alcotest.test_case "latency floor" `Quick test_expected_latency_floor;
          Alcotest.test_case "bandwidth near paper" `Quick test_pinned_bandwidth_near_paper;
          Alcotest.test_case "pinned vs pageable shape" `Quick test_pinned_vs_pageable_shape;
          Alcotest.test_case "pinned speedup magnitude" `Quick test_pinned_large_speedup_magnitude;
          Alcotest.test_case "determinism" `Quick test_link_determinism;
          Alcotest.test_case "noise varies" `Quick test_link_noise_varies;
          Alcotest.test_case "mean transfer time" `Quick test_mean_transfer_time;
          Alcotest.test_case "outlier mode" `Quick test_outlier_mode;
          Alcotest.test_case "rng draws counted" `Quick test_rng_draws_counted;
        ] );
      ( "model",
        [
          Alcotest.test_case "basics" `Quick test_model_basics;
          Alcotest.test_case "break even" `Quick test_model_break_even;
        ] );
      ( "calibration",
        [
          Alcotest.test_case "two-point" `Quick test_two_point_calibration;
          Alcotest.test_case "validation error bounds" `Quick test_validation_error_bounds;
          Alcotest.test_case "power-of-two sizes" `Quick test_power_of_two_sizes;
          Alcotest.test_case "least squares" `Quick test_least_squares_calibration;
          Alcotest.test_case "all combinations" `Quick test_calibrate_all;
          Alcotest.test_case "golden values" `Quick test_golden_calibration;
        ] );
    ]
