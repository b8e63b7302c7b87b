(* Tests for Gpp_dataflow: the data usage analyzer (paper Section III-B). *)

module Analyzer = Gpp_dataflow.Analyzer
module Ir = Gpp_skeleton.Ir
module Ix = Gpp_skeleton.Index_expr
module Decl = Gpp_skeleton.Decl
module Program = Gpp_skeleton.Program

let input_of plan array =
  List.find_opt (fun (t : Analyzer.transfer) -> t.Analyzer.array = array) plan.Analyzer.to_device

let output_of plan array =
  List.find_opt (fun (t : Analyzer.transfer) -> t.Analyzer.array = array) plan.Analyzer.from_device

let test_chain_basics () =
  let n = 1024 in
  let plan = Analyzer.analyze (Helpers.chain_program ~n ()) in
  (* input is read before written: uploaded. *)
  (match input_of plan "input" with
  | Some t -> Alcotest.(check int) "input bytes" (4 * n) t.Analyzer.bytes
  | None -> Alcotest.fail "input should be uploaded");
  (* middle is produced on the device before it is consumed: no upload. *)
  Alcotest.(check bool) "middle not uploaded" true (input_of plan "middle" = None);
  (* middle is hinted as a temporary: not downloaded either. *)
  Alcotest.(check bool) "middle not downloaded" true (output_of plan "middle" = None);
  (* output is written: downloaded. *)
  (match output_of plan "output" with
  | Some t -> Alcotest.(check int) "output bytes" (4 * n) t.Analyzer.bytes
  | None -> Alcotest.fail "output should be downloaded");
  Alcotest.(check int) "input total" (4 * n) (Analyzer.input_bytes plan);
  Alcotest.(check int) "output total" (4 * n) (Analyzer.output_bytes plan);
  Alcotest.(check int) "grand total" (8 * n) (Analyzer.total_bytes plan)

let test_without_temporary_hint () =
  let p = Helpers.chain_program () in
  let plan = Analyzer.analyze { p with Program.temporaries = [] } in
  (* Without the hint, the intermediate array is downloaded too. *)
  Alcotest.(check bool) "middle downloaded" true (output_of plan "middle" <> None)

let test_read_modify_write () =
  let n = 256 in
  let arrays = [ Decl.dense "acc" ~dims:[ n ] ] in
  let kernel =
    Ir.kernel "rmw"
      ~loops:[ Ir.loop "i" ~extent:n ]
      ~body:[ Ir.load "acc" [ Ix.var "i" ]; Ir.compute 1.0; Ir.store "acc" [ Ix.var "i" ] ]
  in
  let p =
    Program.create ~name:"rmw" ~arrays ~kernels:[ kernel ] ~schedule:[ Program.Call "rmw" ] ()
  in
  let plan = Analyzer.analyze p in
  (* Read before written on the device: both directions. *)
  Alcotest.(check int) "uploaded" (4 * n) (Analyzer.input_bytes plan);
  Alcotest.(check int) "downloaded" (4 * n) (Analyzer.output_bytes plan)

let test_write_only_no_upload () =
  let n = 64 in
  let arrays = [ Decl.dense "out" ~dims:[ n ] ] in
  let kernel =
    Ir.kernel "init"
      ~loops:[ Ir.loop "i" ~extent:n ]
      ~body:[ Ir.compute 1.0; Ir.store "out" [ Ix.var "i" ] ]
  in
  let p =
    Program.create ~name:"init" ~arrays ~kernels:[ kernel ] ~schedule:[ Program.Call "init" ] ()
  in
  let plan = Analyzer.analyze p in
  Alcotest.(check int) "nothing uploaded" 0 (Analyzer.input_bytes plan);
  Alcotest.(check int) "result downloaded" (4 * n) (Analyzer.output_bytes plan)

let test_iteration_invariance () =
  (* The paper's key property: a fixed amount of data transfers no
     matter the iteration count (Section IV-B). *)
  let sizes_at iterations =
    let p = Gpp_workloads.Hotspot.program ~iterations ~n:128 () in
    let plan = Analyzer.analyze p in
    (Analyzer.input_bytes plan, Analyzer.output_bytes plan)
  in
  let base = sizes_at 1 in
  List.iter
    (fun n -> Alcotest.(check (pair int int)) (Printf.sprintf "%d iterations" n) base (sizes_at n))
    [ 2; 7; 100 ]

let test_each_array_transferred_once () =
  let plan = Analyzer.analyze (Gpp_workloads.Cfd.program ~nelem:1000 ()) in
  let names = List.map (fun (t : Analyzer.transfer) -> t.Analyzer.array) plan.Analyzer.to_device in
  Alcotest.(check (list string)) "unique per array" (List.sort_uniq compare names)
    (List.sort compare names)

let test_partial_section_upload () =
  (* A kernel reading only the first half of an array uploads half. *)
  let arrays = [ Decl.dense "a" ~dims:[ 100 ]; Decl.dense "o" ~dims:[ 100 ] ] in
  let kernel =
    Ir.kernel "half"
      ~loops:[ Ir.loop "i" ~extent:50 ]
      ~body:[ Ir.load "a" [ Ix.var "i" ]; Ir.compute 1.0; Ir.store "o" [ Ix.var "i" ] ]
  in
  let p =
    Program.create ~name:"half" ~arrays ~kernels:[ kernel ] ~schedule:[ Program.Call "half" ] ()
  in
  let plan = Analyzer.analyze p in
  Alcotest.(check int) "half uploaded" (4 * 50) (Analyzer.input_bytes plan);
  Alcotest.(check int) "half downloaded" (4 * 50) (Analyzer.output_bytes plan)

let test_producer_covers_consumer_halo () =
  (* Producer writes the whole array; consumer reads it with a halo.
     Nothing extra is uploaded: the device copy is complete. *)
  let n = 64 in
  let arrays = [ Decl.dense "a" ~dims:[ n ]; Decl.dense "b" ~dims:[ n ]; Decl.dense "c" ~dims:[ n ] ] in
  let producer =
    Ir.kernel "produce"
      ~loops:[ Ir.loop "i" ~extent:n ]
      ~body:[ Ir.load "a" [ Ix.var "i" ]; Ir.compute 1.0; Ir.store "b" [ Ix.var "i" ] ]
  in
  let consumer =
    Ir.kernel "consume"
      ~loops:[ Ir.loop "i" ~extent:n ]
      ~body:
        [
          Ir.load "b" [ Ix.offset (Ix.var "i") (-1) ];
          Ir.load "b" [ Ix.var "i" ];
          Ir.compute 1.0;
          Ir.store "c" [ Ix.var "i" ];
        ]
  in
  let p =
    Program.create ~name:"halo" ~arrays
      ~kernels:[ producer; consumer ]
      ~schedule:[ Program.Call "produce"; Program.Call "consume" ]
      ~temporaries:[ "b" ] ()
  in
  let plan = Analyzer.analyze p in
  Alcotest.(check bool) "b never uploaded" true (input_of plan "b" = None);
  Alcotest.(check int) "only a uploaded" (4 * n) (Analyzer.input_bytes plan)

let test_sparse_policies () =
  let arrays = [ Decl.sparse "s" ~nnz:100 ~dims:[ 10000 ]; Decl.dense "o" ~dims:[ 100 ] ] in
  let kernel =
    Ir.kernel "touch"
      ~loops:[ Ir.loop "i" ~extent:100 ]
      ~body:[ Ir.load "s" [ Ix.var "i" ]; Ir.compute 1.0; Ir.store "o" [ Ix.var "i" ] ]
  in
  let p =
    Program.create ~name:"sparse" ~arrays ~kernels:[ kernel ] ~schedule:[ Program.Call "touch" ] ()
  in
  let conservative = Analyzer.analyze p in
  let exact =
    Analyzer.analyze ~policy:{ Analyzer.default_policy with Analyzer.sparse_exact = true } p
  in
  (match input_of conservative "s" with
  | Some t ->
      Alcotest.(check int) "whole capacity" (4 * 10000) t.Analyzer.bytes;
      Alcotest.(check bool) "flagged conservative" true t.Analyzer.conservative
  | None -> Alcotest.fail "sparse array should upload");
  match input_of exact "s" with
  | Some t -> Alcotest.(check int) "nnz only" (4 * 100) t.Analyzer.bytes
  | None -> Alcotest.fail "sparse array should upload"

let test_paper_transfer_sizes () =
  (* Table I cross-check: per-element transfer sizes of the skeletons. *)
  let check_instance name expected_in expected_out plan =
    Alcotest.(check int) (name ^ " input") expected_in (Analyzer.input_bytes plan);
    Alcotest.(check int) (name ^ " output") expected_out (Analyzer.output_bytes plan)
  in
  let n = 10_000 in
  let cfd = Analyzer.analyze (Gpp_workloads.Cfd.program ~nelem:n ()) in
  (* variables 20 B + neighbors 16 B + normals 32 B + areas 4 B = 72 B/elem in;
     variables 20 B/elem out. *)
  check_instance "cfd" (72 * n) (20 * n) cfd;
  let g = 128 in
  let hotspot = Analyzer.analyze (Gpp_workloads.Hotspot.program ~n:g ()) in
  check_instance "hotspot" (2 * 4 * g * g) (4 * g * g) hotspot;
  let srad = Analyzer.analyze (Gpp_workloads.Srad.program ~n:g ()) in
  check_instance "srad" (4 * g * g) (4 * g * g) srad;
  let st = Analyzer.analyze (Gpp_workloads.Stassuij.program ()) in
  (* xmat + ymat complex in, ymat out, plus the three CSR vectors. *)
  let dense = 132 * 2048 * 16 in
  let csr = (1716 * 8) + (1716 * 4) + (133 * 4) in
  check_instance "stassuij" ((2 * dense) + csr) dense st

(* Property tests over randomly generated (valid) programs. *)

let array_pool = [ "a0"; "a1"; "a2"; "a3" ]

let pool_extent = 64

let random_program_gen =
  QCheck2.Gen.(
    let stmt_gen =
      let* array = oneofl array_pool in
      let* is_store = bool in
      let* offset = int_range (-1) 1 in
      let expr = Ix.offset (Ix.var "i") offset in
      return (if is_store then Ir.store array [ expr ] else Ir.load array [ expr ])
    in
    let kernel_gen name =
      let* extent = int_range 2 pool_extent in
      let* stmts = list_size (int_range 1 5) stmt_gen in
      return (Ir.kernel name ~loops:[ Ir.loop "i" ~extent ] ~body:(stmts @ [ Ir.compute 1.0 ]))
    in
    let* kernel_count = int_range 1 3 in
    let names = List.init kernel_count (Printf.sprintf "k%d") in
    let* kernels =
      List.fold_right
        (fun name acc ->
          let* ks = acc in
          let* k = kernel_gen name in
          return (k :: ks))
        names (return [])
    in
    let* repeat_count = int_range 1 4 in
    let* use_repeat = bool in
    let calls = List.map (fun n -> Program.Call n) names in
    let schedule = if use_repeat then [ Program.Repeat (repeat_count, calls) ] else calls in
    let* temporaries =
      List.fold_right
        (fun name acc ->
          let* ts = acc in
          let* keep = bool in
          return (if keep then name :: ts else ts))
        array_pool (return [])
    in
    let arrays = List.map (fun name -> Decl.dense name ~dims:[ pool_extent ]) array_pool in
    return (Program.create ~temporaries ~name:"random" ~arrays ~kernels ~schedule ()))

let written_arrays (p : Program.t) =
  List.concat_map
    (fun k ->
      List.filter_map
        (fun (_, (r : Ir.array_ref)) -> if r.Ir.access = Ir.Store then Some r.Ir.array else None)
        (Ir.refs k))
    p.Program.kernels
  |> List.sort_uniq compare

let read_arrays (p : Program.t) =
  List.concat_map
    (fun k ->
      List.filter_map
        (fun (_, (r : Ir.array_ref)) -> if r.Ir.access = Ir.Load then Some r.Ir.array else None)
        (Ir.refs k))
    p.Program.kernels
  |> List.sort_uniq compare

let test_random_programs_valid =
  Helpers.qtest ~count:200 "generated programs validate and analyze" random_program_gen
    (fun p ->
      match Program.validate p with
      | Error _ -> false
      | Ok () ->
          let plan = Analyzer.analyze p in
          Analyzer.input_bytes plan >= 0 && Analyzer.output_bytes plan >= 0)

let test_random_iteration_invariance =
  Helpers.qtest ~count:200 "transfer set independent of iteration count" random_program_gen
    (fun p ->
      let at n =
        let plan = Analyzer.analyze (Program.with_iterations p n) in
        (Analyzer.input_bytes plan, Analyzer.output_bytes plan)
      in
      at 1 = at 7)

let test_random_transfer_soundness =
  Helpers.qtest ~count:200 "uploads are read somewhere; downloads written and not temporary"
    random_program_gen (fun p ->
      let plan = Analyzer.analyze p in
      let reads = read_arrays p and writes = written_arrays p in
      let footprint name =
        Decl.footprint_bytes (List.find (fun (d : Decl.t) -> d.Decl.name = name) p.Program.arrays)
      in
      List.for_all
        (fun (t : Analyzer.transfer) ->
          List.mem t.Analyzer.array reads && t.Analyzer.bytes <= footprint t.Analyzer.array)
        plan.Analyzer.to_device
      && List.for_all
           (fun (t : Analyzer.transfer) ->
             List.mem t.Analyzer.array writes
             && (not (List.mem t.Analyzer.array p.Program.temporaries))
             && t.Analyzer.bytes <= footprint t.Analyzer.array)
           plan.Analyzer.from_device)

let test_random_temporaries_monotone =
  Helpers.qtest ~count:200 "dropping temporary hints never shrinks downloads" random_program_gen
    (fun p ->
      let with_hints = Analyzer.analyze p in
      let without = Analyzer.analyze { p with Program.temporaries = [] } in
      Analyzer.output_bytes without >= Analyzer.output_bytes with_hints
      && Analyzer.input_bytes without = Analyzer.input_bytes with_hints)

(* --- plan-policy ablation: minimal vs conservative ------------------- *)

let minimal_policy = { Analyzer.default_policy with Analyzer.plan = Analyzer.Minimal }

(* Minimal prices only statically live references but tracks device
   residency with the same conservative write set, so it can never plan
   more than conservative — per direction and per array. *)
let test_random_minimal_le_conservative =
  Helpers.qtest ~count:200 "minimal plan never exceeds conservative" random_program_gen (fun p ->
      let c = Analyzer.analyze p and m = Analyzer.analyze ~policy:minimal_policy p in
      let le_side side_m side_c =
        List.for_all
          (fun (mt : Analyzer.transfer) ->
            match
              List.find_opt (fun (t : Analyzer.transfer) -> t.Analyzer.array = mt.Analyzer.array) side_c
            with
            | Some ct -> mt.Analyzer.bytes <= ct.Analyzer.bytes
            | None -> false)
          side_m
      in
      le_side m.Analyzer.to_device c.Analyzer.to_device
      && le_side m.Analyzer.from_device c.Analyzer.from_device
      && Analyzer.input_bytes m <= Analyzer.input_bytes c
      && Analyzer.output_bytes m <= Analyzer.output_bytes c)

(* --- fixpoint engine vs the unrolled schedule ------------------------ *)

let rec flatten_invocations = function
  | Program.Call _ as c -> [ c ]
  | Program.Repeat (n, body) ->
      List.concat (List.init n (fun _ -> List.concat_map flatten_invocations body))

(* The engine iterates Repeat bodies to a fixed point instead of
   walking every iteration; the resulting plan must equal the one from
   the literally unrolled straight-line schedule, under both
   policies. *)
let test_random_fixpoint_matches_unrolled =
  Helpers.qtest ~count:200 "plan over Repeat equals plan over the unrolled schedule"
    random_program_gen (fun p ->
      let unrolled =
        { p with Program.schedule = List.concat_map flatten_invocations p.Program.schedule }
      in
      Analyzer.analyze p = Analyzer.analyze unrolled
      && Analyzer.analyze ~policy:minimal_policy p
         = Analyzer.analyze ~policy:minimal_policy unrolled)

(* --- lattice laws the engine's termination argument rests on --------- *)

module FI = Gpp_fixpoint.Fixpoint.Interval

let interval_gen =
  QCheck2.Gen.(
    let* which = int_range 0 8 in
    if which = 0 then return FI.Bot
    else
      let* lo = int_range (-100) 100 in
      let* len = int_range 0 100 in
      return (FI.of_bounds (lo, lo + len)))

let interval_pair_gen = QCheck2.Gen.pair interval_gen interval_gen

let test_interval_join_commutes =
  Helpers.qtest ~count:500 "interval join commutes" interval_pair_gen (fun (a, b) ->
      FI.join a b = FI.join b a)

let test_interval_join_associates =
  Helpers.qtest ~count:500 "interval join associates"
    QCheck2.Gen.(triple interval_gen interval_gen interval_gen)
    (fun (a, b, c) -> FI.join a (FI.join b c) = FI.join (FI.join a b) c)

let test_interval_join_upper_bound =
  Helpers.qtest ~count:500 "interval join bounds both operands" interval_pair_gen (fun (a, b) ->
      let j = FI.join a b in
      FI.leq a j && FI.leq b j && FI.join a a = a)

let test_interval_widening_terminates =
  (* Iterating x <- widen x (join x b) must stabilize after at most two
     steps (each unstable bound jumps to +-infinity once) while staying
     above the plain join. *)
  Helpers.qtest ~count:500 "interval widening stabilizes in two steps" interval_pair_gen
    (fun (a, b) ->
      let step x = FI.widen x (FI.join x b) in
      let x1 = step a in
      let x2 = step x1 in
      let x3 = step x2 in
      FI.leq (FI.join a b) x1 && x3 = x2)

module SL = Gpp_dataflow.Section_lattice
module Section = Gpp_brs.Section

let fact_gen =
  QCheck2.Gen.(
    let entry_gen =
      let* array = oneofl array_pool in
      let* lo = int_range 0 40 in
      let* len = int_range 0 20 in
      let* stride = int_range 1 4 in
      return (array, Section.make array [ Section.dim_exn ~lo ~hi:(lo + len) ~stride ])
    in
    let* entries = list_size (int_range 0 6) entry_gen in
    return
      (List.fold_left
         (fun acc (array, s) -> SL.add_section array s acc)
         SL.empty entries))

let fact_pair_gen = QCheck2.Gen.pair fact_gen fact_gen

let test_section_lattice_join_upper_bound =
  Helpers.qtest ~count:500 "section-map join bounds both operands" fact_pair_gen (fun (a, b) ->
      let j = SL.join a b in
      SL.leq a j && SL.leq b j && SL.leq a a)

(* Whether two maps denote the same elements, point by point over the
   generator's whole domain.  [SL.equal] cannot decide this: it is
   [leq] both ways, and [leq] is sound but incomplete, so two joins of
   the same sets that split them into different sections can compare
   unequal. *)
let same_elements x y =
  List.for_all
    (fun array ->
      let rx = SL.find array x and ry = SL.find array y in
      List.for_all
        (fun i -> Gpp_brs.Region.mem rx [ i ] = Gpp_brs.Region.mem ry [ i ])
        (List.init (pool_extent + 1) Fun.id))
    array_pool

let test_section_lattice_join_commutes =
  Helpers.qtest ~count:500 "section-map join commutes up to the elements it denotes"
    fact_pair_gen (fun (a, b) ->
      let ab = SL.join a b in
      let equal_is_sound (x, y) = (not (SL.equal x y)) || same_elements x y in
      same_elements ab (SL.join b a) && List.for_all equal_is_sound [ (a, b); (a, ab); (b, ab) ])

let test_section_lattice_widening_terminates =
  Helpers.qtest ~count:500 "section-map widening stabilizes" fact_pair_gen (fun (a, b) ->
      let step x = SL.widen x (SL.join x b) in
      let x1 = step a in
      let x2 = step x1 in
      let x3 = step x2 in
      SL.leq (SL.join a b) x1 && SL.equal x3 x2)

(* --- the engine itself, on a hand-built schedule --------------------- *)

module Trace_lattice = struct
  type t = string list (* sorted kernel-name set *)

  let leq a b = List.for_all (fun x -> List.mem x b) a
  let join a b = List.sort_uniq compare (a @ b)
  let widen = join
end

module Trace_walk = Gpp_fixpoint.Fixpoint.Make (Trace_lattice)

let test_fixpoint_forward_loop_invariant () =
  let schedule =
    [ Program.Call "a"; Program.Repeat (3, [ Program.Call "b" ]); Program.Call "c" ]
  in
  let transfer ~index:_ kernel fact = List.sort_uniq compare (kernel :: fact) in
  let r = Trace_walk.forward ~schedule ~transfer ~init:[] in
  Alcotest.(check int) "one point per call site" 3 (List.length r.Trace_walk.points);
  Alcotest.(check (list string)) "exit fact" [ "a"; "b"; "c" ] r.Trace_walk.exit_fact;
  (match r.Trace_walk.points with
  | [ pa; pb; pc ] ->
      Alcotest.(check int) "pre-order indices" 0 pa.Trace_walk.index;
      Alcotest.(check int) "loop body index" 1 pb.Trace_walk.index;
      Alcotest.(check int) "post-loop index" 2 pc.Trace_walk.index;
      (* The loop-body fact is the invariant: it includes [b] flowing
         around the back edge, not just the entry fact. *)
      Alcotest.(check (list string)) "loop invariant before b" [ "a"; "b" ] pb.Trace_walk.before;
      Alcotest.(check (list string)) "fact before c" [ "a"; "b" ] pc.Trace_walk.before
  | _ -> Alcotest.fail "expected three points");
  Alcotest.(check bool) "body iterated to a fixed point" true
    (r.Trace_walk.stats.Gpp_fixpoint.Fixpoint.loop_iterations >= 2)

let test_fixpoint_backward_orientation () =
  (* Backward: [before] still means "before the invocation executes". *)
  let schedule = [ Program.Call "a"; Program.Call "b" ] in
  let transfer ~index:_ kernel fact = List.sort_uniq compare (kernel :: fact) in
  let r = Trace_walk.backward ~schedule ~transfer ~exit_:[] in
  match r.Trace_walk.points with
  | [ pa; pb ] ->
      Alcotest.(check string) "first point is a" "a" pa.Trace_walk.kernel;
      Alcotest.(check (list string)) "everything live before a" [ "a"; "b" ] pa.Trace_walk.before;
      Alcotest.(check (list string)) "only b live before b" [ "b" ] pb.Trace_walk.before;
      Alcotest.(check (list string)) "entry fact" [ "a"; "b" ] r.Trace_walk.exit_fact
  | _ -> Alcotest.fail "expected two points"

let test_direction_names () =
  Alcotest.(check string) "in" "to device" (Analyzer.direction_name Analyzer.To_device);
  Alcotest.(check string) "out" "from device" (Analyzer.direction_name Analyzer.From_device)

let () =
  Alcotest.run "gpp_dataflow"
    [
      ( "analyzer",
        [
          Alcotest.test_case "producer/consumer chain" `Quick test_chain_basics;
          Alcotest.test_case "no temporary hint" `Quick test_without_temporary_hint;
          Alcotest.test_case "read-modify-write" `Quick test_read_modify_write;
          Alcotest.test_case "write-only" `Quick test_write_only_no_upload;
          Alcotest.test_case "iteration invariance" `Quick test_iteration_invariance;
          Alcotest.test_case "one transfer per array" `Quick test_each_array_transferred_once;
          Alcotest.test_case "partial sections" `Quick test_partial_section_upload;
          Alcotest.test_case "producer covers halo" `Quick test_producer_covers_consumer_halo;
          Alcotest.test_case "sparse policies" `Quick test_sparse_policies;
          Alcotest.test_case "paper transfer sizes" `Quick test_paper_transfer_sizes;
          Alcotest.test_case "direction names" `Quick test_direction_names;
        ] );
      ( "properties",
        [
          test_random_programs_valid;
          test_random_iteration_invariance;
          test_random_transfer_soundness;
          test_random_temporaries_monotone;
          test_random_minimal_le_conservative;
          test_random_fixpoint_matches_unrolled;
        ] );
      ( "lattice laws",
        [
          test_interval_join_commutes;
          test_interval_join_associates;
          test_interval_join_upper_bound;
          test_interval_widening_terminates;
          test_section_lattice_join_upper_bound;
          test_section_lattice_join_commutes;
          test_section_lattice_widening_terminates;
        ] );
      ( "fixpoint engine",
        [
          Alcotest.test_case "forward loop invariant" `Quick test_fixpoint_forward_loop_invariant;
          Alcotest.test_case "backward orientation" `Quick test_fixpoint_backward_orientation;
        ] );
    ]
