(* Shared assertion helpers for the test suites. *)

let close ?(tolerance = 1e-9) msg expected actual =
  if Float.abs (expected -. actual) > tolerance then
    Alcotest.failf "%s: expected %g, got %g (tolerance %g)" msg expected actual tolerance

let close_rel ?(tolerance = 0.05) msg expected actual =
  if expected = 0.0 then close ~tolerance msg expected actual
  else if Float.abs ((actual -. expected) /. expected) > tolerance then
    Alcotest.failf "%s: expected %g within %g%%, got %g" msg expected (tolerance *. 100.0) actual

let check_positive msg v = if v <= 0.0 then Alcotest.failf "%s: expected positive, got %g" msg v

let check_non_negative msg v =
  if v < 0.0 then Alcotest.failf "%s: expected non-negative, got %g" msg v

let check_in_range msg ~lo ~hi v =
  if v < lo || v > hi then Alcotest.failf "%s: expected in [%g, %g], got %g" msg lo hi v

let check_ok msg = function
  | Ok v -> v
  | Error e -> Alcotest.failf "%s: unexpected error: %s" msg e

let check_error msg = function
  | Ok _ -> Alcotest.failf "%s: expected an error" msg
  | Error (e : string) -> e

(* Variants of the two above for the structured core/engine errors. *)
let check_core msg = function
  | Ok v -> v
  | Error e -> Alcotest.failf "%s: unexpected error: %s" msg (Gpp_core.Error.to_string e)

let check_core_error msg = function
  | Ok _ -> Alcotest.failf "%s: expected an error" msg
  | Error (e : Gpp_core.Error.t) -> e

(* The whole pipeline on a hand-built program, in the default scenario
   (or [config]) moved to the session's machine. *)
let analyze ?(config = Gpp_engine.Config.default) (session : Gpp_core.Grophecy.session) program =
  Gpp_engine.Pipeline.analyze_program ~session { config with machine = session.machine } program

let check_raises_invalid msg f =
  match f () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.failf "%s: expected Invalid_argument" msg

let contains_substring ~needle haystack =
  let nl = String.length needle and hl = String.length haystack in
  let rec go i = i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1)) in
  nl = 0 || go 0

let check_contains msg ~needle haystack =
  if not (contains_substring ~needle haystack) then
    Alcotest.failf "%s: expected %S to appear" msg needle

(* The paper's testbed with one byte of shared memory per SM and
   32-thread blocks: no Table I kernel has a feasible transform on it,
   so every paper workload fails to project. *)
let tiny_machine =
  let m = Gpp_arch.Machine.argonne_node in
  {
    m with
    Gpp_arch.Machine.id = "tiny";
    name = "tiny smem";
    gpu = { m.gpu with Gpp_arch.Gpu.shared_mem_per_sm = 1; max_threads_per_block = 32 };
  }

let qtest ?(count = 200) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

(* A small well-formed program used across suites: two kernels in a
   producer/consumer chain over 1-D arrays, plus a temporary. *)
let chain_program ?(n = 1024) () =
  let module Ir = Gpp_skeleton.Ir in
  let module Ix = Gpp_skeleton.Index_expr in
  let module Decl = Gpp_skeleton.Decl in
  let arrays =
    [
      Decl.dense "input" ~dims:[ n ];
      Decl.dense "middle" ~dims:[ n ];
      Decl.dense "output" ~dims:[ n ];
    ]
  in
  let producer =
    Ir.kernel "producer"
      ~loops:[ Ir.loop "i" ~extent:n ]
      ~body:[ Ir.load "input" [ Ix.var "i" ]; Ir.compute 2.0; Ir.store "middle" [ Ix.var "i" ] ]
  in
  let consumer =
    Ir.kernel "consumer"
      ~loops:[ Ir.loop "i" ~extent:n ]
      ~body:[ Ir.load "middle" [ Ix.var "i" ]; Ir.compute 3.0; Ir.store "output" [ Ix.var "i" ] ]
  in
  Gpp_skeleton.Program.create ~name:"chain" ~arrays ~kernels:[ producer; consumer ]
    ~schedule:[ Gpp_skeleton.Program.Call "producer"; Gpp_skeleton.Program.Call "consumer" ]
    ~temporaries:[ "middle" ] ()
