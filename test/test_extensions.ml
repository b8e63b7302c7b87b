(* Tests for the future-work extensions: allocation cost, memory-type
   choice, temporal fusion, and transfer/compute overlap. *)

module Link = Gpp_pcie.Link
module Allocation = Gpp_pcie.Allocation
module Memory_choice = Gpp_pcie.Memory_choice
module Fusion = Gpp_transform.Fusion
module Overlap = Gpp_core.Overlap
module Units = Gpp_util.Units

let machine = Gpp_arch.Machine.argonne_node

let link = lazy (Link.create (Link.default_config machine))

(* Allocation *)

let test_allocation_costs () =
  let pinned = Allocation.allocation_time Link.Pinned ~bytes:Units.mib in
  let pageable = Allocation.allocation_time Link.Pageable ~bytes:Units.mib in
  Alcotest.(check bool) "pinning is much more expensive" true (pinned > 5.0 *. pageable);
  (* Costs grow with size (per-page terms). *)
  Alcotest.(check bool) "grows with size" true
    (Allocation.allocation_time Link.Pinned ~bytes:(16 * Units.mib) > pinned);
  (* Zero-byte allocation still pays the base cost. *)
  Helpers.check_positive "base cost" (Allocation.allocation_time Link.Pinned ~bytes:0);
  Helpers.check_raises_invalid "negative" (fun () ->
      ignore (Allocation.allocation_time Link.Pinned ~bytes:(-1)))

let test_allocation_amortization () =
  let one = Allocation.amortized_time Link.Pinned ~bytes:Units.mib ~reuses:1 in
  let ten = Allocation.amortized_time Link.Pinned ~bytes:Units.mib ~reuses:10 in
  Helpers.close_rel ~tolerance:1e-9 "amortizes linearly" (one /. 10.0) ten;
  Helpers.check_raises_invalid "zero reuses" (fun () ->
      ignore (Allocation.amortized_time Link.Pinned ~bytes:1 ~reuses:0))

(* Memory choice *)

let h2d_models = lazy (Memory_choice.models_for (Lazy.force link) Link.Host_to_device)

let test_choice_one_shot_small_prefers_pageable () =
  let d = Memory_choice.choose (Lazy.force h2d_models) ~bytes:(64 * Units.kib) ~reuses:1 in
  Alcotest.(check bool) "one-shot small: pageable" true (d.Memory_choice.memory = Link.Pageable);
  Helpers.check_positive "saving" d.Memory_choice.saving

let test_choice_reused_large_prefers_pinned () =
  let d = Memory_choice.choose (Lazy.force h2d_models) ~bytes:(64 * Units.mib) ~reuses:100 in
  Alcotest.(check bool) "reused large: pinned" true (d.Memory_choice.memory = Link.Pinned)

let test_choice_consistency () =
  let models = Lazy.force h2d_models in
  let d = Memory_choice.choose models ~bytes:(4 * Units.mib) ~reuses:3 in
  (* The decision must pick the smaller total. *)
  let winner, loser =
    if d.Memory_choice.memory = Link.Pinned then
      (d.Memory_choice.pinned_total, d.Memory_choice.pageable_total)
    else (d.Memory_choice.pageable_total, d.Memory_choice.pinned_total)
  in
  Alcotest.(check bool) "winner cheaper" true (winner <= loser);
  Helpers.close ~tolerance:1e-12 "saving = gap" (loser -. winner) d.Memory_choice.saving

let test_break_even_monotone_in_size () =
  let models = Lazy.force h2d_models in
  let be bytes = Memory_choice.break_even_reuses models ~bytes in
  (* Large buffers justify pinning after fewer reuses than small ones. *)
  match (be (64 * Units.kib), be (64 * Units.mib)) with
  | Some small, Some large ->
      Alcotest.(check bool) "large breaks even earlier" true (large <= small)
  | None, Some _ -> () (* small never pays: even stronger *)
  | _, None -> Alcotest.fail "64 MiB should justify pinning"

let test_break_even_is_tight () =
  let models = Lazy.force h2d_models in
  match Memory_choice.break_even_reuses models ~bytes:Units.mib with
  | None -> Alcotest.fail "1 MiB should eventually justify pinning"
  | Some n ->
      let at k = (Memory_choice.choose models ~bytes:Units.mib ~reuses:k).Memory_choice.memory in
      Alcotest.(check bool) "wins at n" true (at n = Link.Pinned);
      if n > 1 then Alcotest.(check bool) "loses at n-1" true (at (n - 1) = Link.Pageable)

(* Fusion *)

let gpu = machine.Gpp_arch.Machine.gpu

let hotspot_iterated = Gpp_workloads.Hotspot.program ~iterations:50 ~n:512 ()

let test_fusion_eligibility () =
  Alcotest.(check bool) "iterated hotspot eligible" true
    (Fusion.eligible hotspot_iterated <> None);
  (* One iteration: nothing to fuse. *)
  Alcotest.(check bool) "single iteration not eligible" true
    (Fusion.eligible (Gpp_workloads.Hotspot.program ~iterations:1 ~n:512 ()) = None);
  (* Two kernels per iteration: not a single repeated stencil. *)
  Alcotest.(check bool) "srad not eligible" true
    (Fusion.eligible (Gpp_workloads.Srad.program ~iterations:50 ~n:512 ()) = None);
  (* No stencil: not eligible. *)
  Alcotest.(check bool) "vecadd not eligible" true
    (Fusion.eligible (Gpp_workloads.Vecadd.program ~n:4096) = None)

let test_fusion_factor_one_matches_tiled_synthesis () =
  let e = Option.get (Fusion.eligible hotspot_iterated) in
  let config = { (Gpp_transform.Synthesize.scalar ~threads_per_block:256) with
      Gpp_transform.Synthesize.shared_tiling = true } in
  let fused =
    Helpers.check_ok "f=1"
      (Fusion.fused_characteristics ~gpu ~decls:hotspot_iterated.Gpp_skeleton.Program.arrays
         e.Fusion.kernel ~config ~factor:1)
  in
  let plain =
    Helpers.check_ok "tiled"
      (Gpp_transform.Synthesize.characteristics ~gpu
         ~decls:hotspot_iterated.Gpp_skeleton.Program.arrays e.Fusion.kernel config)
  in
  (* Same grid and same order of magnitude of global loads. *)
  Alcotest.(check int) "same grid"
    plain.Gpp_model.Characteristics.grid_blocks fused.Gpp_model.Characteristics.grid_blocks;
  Helpers.check_in_range "comparable loads" ~lo:0.3 ~hi:3.0
    (fused.Gpp_model.Characteristics.load_insts_per_thread
    /. plain.Gpp_model.Characteristics.load_insts_per_thread)

let test_fusion_reduces_per_step_traffic () =
  let e = Option.get (Fusion.eligible hotspot_iterated) in
  let config = { (Gpp_transform.Synthesize.scalar ~threads_per_block:256) with
      Gpp_transform.Synthesize.shared_tiling = true } in
  let chars factor =
    Helpers.check_ok "chars"
      (Fusion.fused_characteristics ~gpu ~decls:hotspot_iterated.Gpp_skeleton.Program.arrays
         e.Fusion.kernel ~config ~factor)
  in
  let f1 = chars 1 and f4 = chars 4 in
  (* Per fused step, the tile round trip amortizes: loads per step drop. *)
  Alcotest.(check bool) "per-step loads drop" true
    (f4.Gpp_model.Characteristics.load_insts_per_thread /. 4.0
    < f1.Gpp_model.Characteristics.load_insts_per_thread);
  (* But compute per launch grows superlinearly (halo redundancy). *)
  Alcotest.(check bool) "redundant compute" true
    (f4.Gpp_model.Characteristics.flops_per_thread
    > 4.0 *. f1.Gpp_model.Characteristics.flops_per_thread);
  Alcotest.(check bool) "bigger tile in shared memory" true
    (f4.Gpp_model.Characteristics.shared_mem_per_block
    > f1.Gpp_model.Characteristics.shared_mem_per_block)

let test_fusion_infeasible_factor () =
  let e = Option.get (Fusion.eligible hotspot_iterated) in
  let config =
    { (Gpp_transform.Synthesize.scalar ~threads_per_block:64) with
      Gpp_transform.Synthesize.shared_tiling = true }
  in
  (* Tile side 8; factor 8 needs halo 16 >= 8: infeasible. *)
  ignore
    (Helpers.check_error "halo exceeds tile"
       (Fusion.fused_characteristics ~gpu ~decls:hotspot_iterated.Gpp_skeleton.Program.arrays
          e.Fusion.kernel ~config ~factor:8))

let test_fusion_plan_covers_iterations () =
  let p = Helpers.check_ok "plan" (Fusion.plan ~gpu hotspot_iterated ~factor:4) in
  (* 50 iterations at factor 4: 13 launches. *)
  Alcotest.(check int) "launch count" 13 p.Fusion.launches;
  Helpers.close_rel ~tolerance:1e-9 "total = launches x launch"
    (float_of_int p.Fusion.launches *. p.Fusion.launch_time)
    p.Fusion.total_time

let test_fusion_best_factor_sorted () =
  let plans = Helpers.check_ok "best" (Fusion.best_factor ~gpu hotspot_iterated) in
  Alcotest.(check bool) "non-empty" true (plans <> []);
  let totals = List.map (fun p -> p.Fusion.total_time) plans in
  Alcotest.(check bool) "sorted" true (List.sort Float.compare totals = totals);
  ignore
    (Helpers.check_error "ineligible program"
       (Fusion.best_factor ~gpu (Gpp_workloads.Vecadd.program ~n:4096)))

(* Overlap *)

let session = lazy (Gpp_core.Grophecy.init machine)

let projection_of program =
  let s = Lazy.force session in
  Helpers.check_core "project"
    (Gpp_core.Projection.project ~pricing:s.Gpp_core.Grophecy.pricing program)

let test_overlap_chunk_one_is_serial () =
  let p = projection_of (Gpp_workloads.Srad.program ~n:512 ()) in
  let o = Overlap.project ~chunks:1 p in
  Helpers.close_rel ~tolerance:1e-6 "1 chunk = serial" o.Overlap.serial_total
    o.Overlap.overlapped_total;
  Helpers.close ~tolerance:1e-12 "no saving" 0.0 o.Overlap.saving

let test_overlap_saves_on_transfer_bound () =
  let p = projection_of (Gpp_workloads.Srad.program ~n:1024 ()) in
  let o = Overlap.project ~chunks:8 p in
  Alcotest.(check bool) "streaming saves time" true (o.Overlap.saving > 0.0);
  Alcotest.(check bool) "never worse than serial" true
    (o.Overlap.overlapped_total <= o.Overlap.serial_total);
  (* Lower bound: streaming can hide transfers, never the kernel. *)
  Alcotest.(check bool) "bounded below by kernel time" true
    (o.Overlap.overlapped_total >= p.Gpp_core.Projection.kernel_time)

let test_overlap_best_chunks () =
  let p = projection_of (Gpp_workloads.Cfd.program ~nelem:97_000 ()) in
  let best = Overlap.best_chunks p in
  List.iter
    (fun chunks ->
      Alcotest.(check bool) "best is minimal" true
        ((Overlap.project ~chunks p).Overlap.overlapped_total
        >= best.Overlap.overlapped_total -. 1e-12))
    [ 1; 2; 4; 8; 16 ];
  Helpers.check_raises_invalid "bad chunks" (fun () -> ignore (Overlap.project ~chunks:0 p))

let test_overlap_cannot_flip_stassuij () =
  (* Even best-case streaming keeps Stassuij a slowdown: the bus is the
     bottleneck. *)
  let program = Gpp_workloads.Stassuij.program () in
  let p = projection_of program in
  let o = Overlap.best_chunks p in
  let cpu = Gpp_core.Evaluation.cpu_time ~machine program in
  Alcotest.(check bool) "still a loss when streamed" true
    (cpu /. o.Overlap.overlapped_total < 1.0)

(* Roofline sweep *)

let test_roofline_shape () =
  let ctx = Helpers.check_core "context" (Gpp_experiments.Context.create Gpp_engine.Config.default) in
  let pts = Gpp_experiments.Extensions.roofline_points ctx in
  (* Model and simulator agree within 50% everywhere. *)
  List.iter
    (fun (p : Gpp_experiments.Extensions.roofline_point) ->
      Helpers.check_in_range
        (Printf.sprintf "agreement at %.0f flops" p.flops_per_thread)
        ~lo:0.5 ~hi:1.5
        (p.model_time /. p.sim_time))
    pts;
  (* Low intensity is memory-bound and flat; high intensity is
     compute-bound and grows. *)
  let first = List.hd pts and last = List.nth pts (List.length pts - 1) in
  Alcotest.(check bool) "starts memory-bound" true
    (first.model_bound = Gpp_model.Analytic.Memory_bound);
  Alcotest.(check bool) "ends compute-bound" true
    (last.model_bound = Gpp_model.Analytic.Compute_bound);
  Alcotest.(check bool) "compute slope" true (last.sim_time > 2.0 *. first.sim_time);
  let second = List.nth pts 1 in
  Helpers.close_rel ~tolerance:0.05 "memory plateau" first.sim_time second.sim_time

let () =
  Alcotest.run "extensions"
    [
      ( "allocation",
        [
          Alcotest.test_case "costs" `Quick test_allocation_costs;
          Alcotest.test_case "amortization" `Quick test_allocation_amortization;
        ] );
      ( "memory_choice",
        [
          Alcotest.test_case "one-shot small" `Quick test_choice_one_shot_small_prefers_pageable;
          Alcotest.test_case "reused large" `Quick test_choice_reused_large_prefers_pinned;
          Alcotest.test_case "consistency" `Quick test_choice_consistency;
          Alcotest.test_case "break-even monotone" `Quick test_break_even_monotone_in_size;
          Alcotest.test_case "break-even tight" `Quick test_break_even_is_tight;
        ] );
      ( "fusion",
        [
          Alcotest.test_case "eligibility" `Quick test_fusion_eligibility;
          Alcotest.test_case "factor one" `Quick test_fusion_factor_one_matches_tiled_synthesis;
          Alcotest.test_case "traffic vs redundancy" `Quick test_fusion_reduces_per_step_traffic;
          Alcotest.test_case "infeasible factor" `Quick test_fusion_infeasible_factor;
          Alcotest.test_case "plan" `Quick test_fusion_plan_covers_iterations;
          Alcotest.test_case "best factor" `Quick test_fusion_best_factor_sorted;
        ] );
      ( "overlap",
        [
          Alcotest.test_case "one chunk is serial" `Quick test_overlap_chunk_one_is_serial;
          Alcotest.test_case "saves on transfer-bound" `Quick test_overlap_saves_on_transfer_bound;
          Alcotest.test_case "best chunks" `Quick test_overlap_best_chunks;
          Alcotest.test_case "stassuij stays a loss" `Quick test_overlap_cannot_flip_stassuij;
        ] );
      ("roofline", [ Alcotest.test_case "shape" `Slow test_roofline_shape ]);
    ]
