(* Bring your own kernel: projecting a brand-new workload.

   The paper's Figure 1 walks through matrix multiplication as the
   pedagogical input to the framework.  This example builds that code
   skeleton from scratch with the public API — array declarations, loop
   nest, access patterns, operation counts — and runs the complete
   GROPHECY++ pipeline on it: transformation search, analytic kernel
   projection, data usage analysis, transfer pricing, and the final
   porting verdict.  This is the workflow a user follows for their own
   CPU code.

   Run with:  dune exec examples/custom_workload.exe *)

module Ir = Gpp_skeleton.Ir
module Ix = Gpp_skeleton.Index_expr
module Decl = Gpp_skeleton.Decl
module Program = Gpp_skeleton.Program

(* C = A * B for n x n single-precision matrices:

     for (i = 0; i < n; i++)        // parallel
       for (j = 0; j < n; j++)      // parallel
         for (k = 0; k < n; k++)    // reduction
           C[i][j] += A[i][k] * B[k][j];

   The skeleton records exactly what the comment says: two parallel
   loops, one serial reduction, three affine array references, and one
   fused multiply-add per innermost iteration. *)
let matmul_program ~n =
  let arrays =
    [ Decl.dense "a" ~dims:[ n; n ]; Decl.dense "b" ~dims:[ n; n ]; Decl.dense "c" ~dims:[ n; n ] ]
  in
  let kernel =
    Ir.kernel "matmul"
      ~loops:
        [
          Ir.loop "i" ~extent:n;
          Ir.loop "j" ~extent:n;
          Ir.loop ~parallel:false "k" ~extent:n;
        ]
      ~body:
        [
          Ir.load "a" [ Ix.var "i"; Ix.var "k" ];
          Ir.load "b" [ Ix.var "k"; Ix.var "j" ];
          Ir.compute ~int_ops:1.0 2.0;
          (* The accumulator lives in a register across the reduction;
             C is touched once per (i, j). *)
          Ir.branch ~divergent:false ~probability:(1.0 /. float_of_int n)
            [ Ir.load "c" [ Ix.var "i"; Ix.var "j" ]; Ir.store "c" [ Ix.var "i"; Ix.var "j" ] ];
        ]
  in
  Program.create ~name:(Printf.sprintf "matmul-%d" n) ~arrays ~kernels:[ kernel ]
    ~schedule:[ Program.Call "matmul" ] ()

let () =
  let n = 1024 in
  let program = matmul_program ~n in
  (* Always validate a hand-built skeleton: it catches unbound loop
     variables, rank mismatches, and schedule typos. *)
  (match Program.validate program with
  | Ok () -> Format.printf "skeleton validated: %s@.@." program.Program.name
  | Error e -> failwith e);

  let machine = Gpp_arch.Machine.argonne_node in
  let config = { Gpp_engine.Config.default with machine } in
  let session = Gpp_engine.Pipeline.session_of config in
  match Gpp_engine.Pipeline.analyze_program ~session config program with
  | Error e -> failwith (Gpp_engine.Error.to_string e)
  | Ok report ->
      let projection = report.projection in
      Format.printf "what GROPHECY++ decided:@.%a@.@." Gpp_core.Projection.pp projection;
      List.iter
        (fun (kp : Gpp_core.Projection.kernel_projection) ->
          Format.printf "chosen transformation for %s:@.  %a@.@." kp.kernel_name
            Gpp_model.Characteristics.pp
            kp.candidate.Gpp_transform.Explore.characteristics)
        projection.Gpp_core.Projection.kernels;
      Format.printf "transfer plan from the BRS dataflow analysis:@.%a@.@."
        Gpp_dataflow.Analyzer.pp_plan projection.Gpp_core.Projection.plan;
      let s = report.speedups in
      Format.printf
        "verdict for %dx%d matmul: kernel-only %.1fx, end-to-end %.2fx (measured %.2fx)@." n n
        s.Gpp_core.Evaluation.kernel_only s.Gpp_core.Evaluation.with_transfer
        s.Gpp_core.Evaluation.measured;
      if s.Gpp_core.Evaluation.with_transfer > 1.5 then
        Format.printf
          "matmul reuses every transferred element n times, so unlike vector addition@.\
           the transfer cost amortizes and the port is worthwhile.@."
