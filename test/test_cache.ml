(* The projection cache: fingerprint stability, memo accounting and LRU
   eviction, the bypass paths, and the regression the whole design rests
   on — cached and uncached pipeline runs produce bit-identical
   reports. *)

module F = Gpp_cache.Fingerprint
module Memo = Gpp_cache.Memo
module Control = Gpp_cache.Control
module Ir = Gpp_skeleton.Ir
module Ix = Gpp_skeleton.Index_expr
module Decl = Gpp_skeleton.Decl
module Program = Gpp_skeleton.Program

(* Every test must see the cache in its default (enabled, empty) state
   regardless of alcotest's execution order. *)
let fresh f () =
  Control.set_enabled true;
  Memo.clear_all ();
  Fun.protect ~finally:(fun () -> Control.set_enabled true) f

(* Fingerprints *)

let mk_kernel ?(name = "k") ?(extent = 1024) ?(flops = 2.0) () =
  Ir.kernel name
    ~loops:[ Ir.loop "i" ~extent ]
    ~body:[ Ir.load "a" [ Ix.var "i" ]; Ir.compute flops; Ir.store "b" [ Ix.var "i" ] ]

let mk_program ?(elem_bytes = 4) () =
  let kernel = mk_kernel () in
  Program.create ~name:"p"
    ~arrays:[ Decl.dense ~elem_bytes "a" ~dims:[ 1024 ]; Decl.dense ~elem_bytes "b" ~dims:[ 1024 ] ]
    ~kernels:[ kernel ]
    ~schedule:[ Program.Call "k" ]
    ()

let test_kernel_fingerprint_stable () =
  (* Separately constructed but structurally equal values must digest
     identically — the cache key cannot depend on physical identity. *)
  Alcotest.(check string)
    "equal kernels, equal digests"
    (Ir.fingerprint (mk_kernel ()))
    (Ir.fingerprint (mk_kernel ()));
  Alcotest.(check string)
    "equal programs, equal digests"
    (Program.fingerprint (mk_program ()))
    (Program.fingerprint (mk_program ()))

let test_kernel_fingerprint_sensitive () =
  let base = Ir.fingerprint (mk_kernel ()) in
  let differs what fp = Alcotest.(check bool) (what ^ " changes digest") false (String.equal base fp) in
  differs "extent" (Ir.fingerprint (mk_kernel ~extent:2048 ()));
  differs "flops" (Ir.fingerprint (mk_kernel ~flops:3.0 ()));
  differs "name" (Ir.fingerprint (mk_kernel ~name:"other" ()));
  let pbase = Program.fingerprint (mk_program ()) in
  Alcotest.(check bool)
    "elem_bytes changes program digest" false
    (String.equal pbase (Program.fingerprint (mk_program ~elem_bytes:8 ())))

let test_fingerprint_encoding_unambiguous () =
  (* Length-prefixing must keep adjacent fields from bleeding into each
     other: ("ab","c") and ("a","bc") are different keys. *)
  let digest parts = F.of_value (fun fp () -> List.iter (F.add_string fp) parts) () in
  Alcotest.(check bool)
    "string boundaries preserved" false
    (String.equal (digest [ "ab"; "c" ]) (digest [ "a"; "bc" ]));
  let fd v = F.of_value F.add_float v in
  Alcotest.(check bool) "+0. and -0. are distinct bit patterns" false (String.equal (fd 0.0) (fd (-0.0)));
  Alcotest.(check string) "float digest reproducible" (fd 1.5) (fd 1.5)

(* Memo accounting *)

let test_memo_hit_miss () =
  let memo = Memo.create ~capacity:8 ~name:"test.hit-miss" () in
  let calls = ref 0 in
  let compute () = incr calls; !calls in
  Alcotest.(check int) "first lookup computes" 1 (Memo.find_or_add memo ~key:"a" compute);
  Alcotest.(check int) "second lookup is served cached" 1 (Memo.find_or_add memo ~key:"a" compute);
  Alcotest.(check int) "distinct key recomputes" 2 (Memo.find_or_add memo ~key:"b" compute);
  let s = Memo.snapshot memo in
  Alcotest.(check int) "hits" 1 s.hits;
  Alcotest.(check int) "misses" 2 s.misses;
  Alcotest.(check int) "entries" 2 s.entries;
  Alcotest.(check int) "no evictions" 0 s.evictions;
  Alcotest.(check int) "no bypasses" 0 s.bypasses;
  Alcotest.(check bool) "non-zero footprint" true (s.bytes > 0)

let test_memo_lru_eviction () =
  let memo = Memo.create ~capacity:2 ~name:"test.lru" () in
  let stored = ref [] in
  let compute key () = stored := key :: !stored; key in
  ignore (Memo.find_or_add memo ~key:"a" (compute "a"));
  ignore (Memo.find_or_add memo ~key:"b" (compute "b"));
  (* Touch "a" so "b" becomes least recently used, then overflow. *)
  ignore (Memo.find_or_add memo ~key:"a" (compute "a!"));
  ignore (Memo.find_or_add memo ~key:"c" (compute "c"));
  Alcotest.(check string) "survivor still cached" "a" (Memo.find_or_add memo ~key:"a" (compute "a!!"));
  Alcotest.(check string) "victim was evicted" "b2" (Memo.find_or_add memo ~key:"b" (compute "b2"));
  let s = Memo.snapshot memo in
  Alcotest.(check int) "evictions counted" 2 s.evictions;
  Alcotest.(check int) "entries bounded by capacity" 2 s.entries;
  Alcotest.(check (list string)) "computed exactly when missed" [ "b2"; "c"; "b"; "a" ] !stored

let test_memo_exception_not_stored () =
  let memo = Memo.create ~name:"test.exn" () in
  (match Memo.find_or_add memo ~key:"k" (fun () -> failwith "boom") with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "expected the exception to propagate");
  Alcotest.(check int) "failed compute left nothing behind" 7
    (Memo.find_or_add memo ~key:"k" (fun () -> 7));
  Alcotest.(check int) "no entry from the failed call" 1 (Memo.snapshot memo).entries

(* Bypass *)

let test_memo_bypass () =
  let memo = Memo.create ~name:"test.bypass" () in
  let calls = ref 0 in
  let compute () = incr calls; !calls in
  Alcotest.(check int) "bypassed call computes" 1 (Memo.find_or_add ~cache:false memo ~key:"k" compute);
  Alcotest.(check int) "and does not store" 2 (Memo.find_or_add ~cache:false memo ~key:"k" compute);
  Control.without_cache (fun () ->
      Alcotest.(check int) "global disable also bypasses" 3 (Memo.find_or_add memo ~key:"k" compute));
  Alcotest.(check bool) "flag restored afterwards" true (Control.is_enabled ());
  let s = Memo.snapshot memo in
  Alcotest.(check int) "bypasses counted" 3 s.bypasses;
  Alcotest.(check int) "no entries written" 0 s.entries;
  (* With caching back on, the same key is a plain miss-then-hit. *)
  Alcotest.(check int) "cache works again" 4 (Memo.find_or_add memo ~key:"k" compute);
  Alcotest.(check int) "hit after re-enable" 4 (Memo.find_or_add memo ~key:"k" compute)

let snapshot_named name =
  match List.find_opt (fun (s : Memo.snapshot) -> String.equal s.name name) (Memo.snapshots ()) with
  | Some s -> s
  | None -> Alcotest.failf "no registered cache named %s" name

let test_search_memoized () =
  let machine = Gpp_arch.Machine.argonne_node in
  let program = mk_program () in
  let kernel = List.hd program.Program.kernels in
  let search () =
    Gpp_transform.Explore.search ~gpu:machine.Gpp_arch.Machine.gpu ~decls:program.Program.arrays
      kernel
  in
  let first = search () in
  let before = snapshot_named "transform.search" in
  let again = search () in
  let after = snapshot_named "transform.search" in
  Alcotest.(check int) "second search hits" (before.hits + 1) after.hits;
  Alcotest.(check int) "no extra miss" before.misses after.misses;
  Alcotest.(check bool) "hit returns the cached list" true (first == again);
  let bypassed =
    Gpp_transform.Explore.search ~cache:false ~gpu:machine.Gpp_arch.Machine.gpu
      ~decls:program.Program.arrays kernel
  in
  let final = snapshot_named "transform.search" in
  Alcotest.(check int) "~cache:false bypasses" (after.bypasses + 1) final.bypasses;
  Alcotest.(check int) "recomputed list has same length" (List.length first) (List.length bypassed)

(* Cached vs uncached pipeline equivalence *)

let report_exn = function
  | Ok r -> r
  | Error e -> Alcotest.failf "analyze failed: %s" (Gpp_core.Error.to_string e)

let analyze_fresh () =
  (* A fresh session per run: Grophecy.init and the transfer
     measurements are deliberately uncached (the link is stateful), so
     identical seeds must reproduce them exactly. *)
  let session = Gpp_core.Grophecy.init Gpp_arch.Machine.argonne_node in
  report_exn (Helpers.analyze session (Gpp_workloads.Vecadd.program ~n:100_000))

let test_cached_vs_uncached_identical () =
  let uncached = Control.without_cache (fun () -> analyze_fresh ()) in
  Memo.clear_all ();
  let cold = analyze_fresh () in
  let warm = analyze_fresh () in
  let sim = snapshot_named "gpusim.run_mean" in
  Alcotest.(check bool) "warm run actually hit the simulation cache" true (sim.hits > 0);
  let check_same what (a : Gpp_core.Grophecy.report) (b : Gpp_core.Grophecy.report) =
    let exact name x y =
      if not (Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)) then
        Alcotest.failf "%s: %s differs (%h vs %h)" what name x y
    in
    exact "projected kernel time" a.projection.Gpp_core.Projection.kernel_time
      b.projection.Gpp_core.Projection.kernel_time;
    exact "projected transfer time" a.projection.Gpp_core.Projection.transfer_time
      b.projection.Gpp_core.Projection.transfer_time;
    exact "measured total" a.measurement.Gpp_core.Measurement.total_time
      b.measurement.Gpp_core.Measurement.total_time;
    exact "kernel error" a.kernel_error b.kernel_error;
    exact "transfer error" a.transfer_error b.transfer_error;
    Alcotest.(check string)
      (what ^ ": full report renders identically")
      (Format.asprintf "%a" Gpp_core.Grophecy.pp_report a)
      (Format.asprintf "%a" Gpp_core.Grophecy.pp_report b)
  in
  check_same "cold vs uncached" cold uncached;
  check_same "warm vs uncached" warm uncached

let () =
  let t name fn = Alcotest.test_case name `Quick (fresh fn) in
  Alcotest.run "cache"
    [
      ( "fingerprint",
        [
          t "structurally equal values digest identically" test_kernel_fingerprint_stable;
          t "perturbations change the digest" test_kernel_fingerprint_sensitive;
          t "encoding is unambiguous" test_fingerprint_encoding_unambiguous;
        ] );
      ( "memo",
        [
          t "hit/miss accounting" test_memo_hit_miss;
          t "LRU eviction" test_memo_lru_eviction;
          t "exceptions are not stored" test_memo_exception_not_stored;
        ] );
      ( "bypass",
        [ t "per-call and global bypass" test_memo_bypass; t "search memoization" test_search_memoized ]
      );
      ( "equivalence",
        [ t "cached and uncached reports are bit-identical" test_cached_vs_uncached_identical ] );
    ]
