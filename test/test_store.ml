(* The persistent (disk) tier of the projection cache: framing and
   checksum round-trips, the corruption matrix (every damaged store must
   load as cache misses, never as an error), restart-equivalent
   memo persistence down to the float bit pattern, and golden key
   vectors guarding against silent fingerprint-format drift (which
   would invalidate every cache on disk without anyone noticing). *)

module Store = Gpp_cache.Store
module Memo = Gpp_cache.Memo
module Control = Gpp_cache.Control
module Crc32 = Gpp_cache.Crc32
module F = Gpp_cache.Fingerprint

let tmp_dir =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "gpp-store-test.%d" (int_of_float (Unix.gettimeofday () *. 1e3) mod 1_000_000))
  in
  (try Sys.mkdir dir 0o755 with Sys_error _ -> ());
  dir

let fresh_path =
  let n = ref 0 in
  fun () ->
    incr n;
    Store.path ~dir:tmp_dir ~table:(Printf.sprintf "t%d" !n)

let entry key payload = { Store.key; payload }

let entries_testable =
  Alcotest.(list (pair string string))

let pairs es = List.map (fun (e : Store.entry) -> (e.key, e.payload)) es

let read_file path = In_channel.with_open_bin path In_channel.input_all

let write_file path data = Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc data)

(* CRC-32 reference vectors (IEEE, reflected — same as gzip/PNG). *)
let test_crc32_vectors () =
  let check name expected s =
    Alcotest.(check int32) name expected (Crc32.string s)
  in
  check "empty" 0l "";
  check "check string" 0xCBF43926l "123456789";
  check "single byte" 0xE8B7BE43l "a";
  Alcotest.(check int32) "split = whole"
    (Crc32.string "hello world")
    (Crc32.strings [ "hello"; " "; "world" ])

(* Round trips *)

let test_save_load_roundtrip () =
  let path = fresh_path () in
  let entries = [ entry "k1" "v1"; entry "k2" (String.make 1000 '\000'); entry "" "" ] in
  (match Store.save ~path ~tag:"t" entries with
  | Ok bytes -> Alcotest.(check bool) "non-empty file" true (bytes > 0)
  | Error e -> Alcotest.failf "save failed: %s" e);
  let r = Store.load ~path ~tag:"t" in
  Alcotest.(check (option string)) "no header error" None
    (Option.map Store.describe_header_error r.Store.header);
  Alcotest.(check int) "nothing corrupt" 0 r.Store.corrupt;
  Alcotest.(check entries_testable) "entries survive byte-exact" (pairs entries)
    (pairs r.Store.entries)

let test_save_is_atomic_rename () =
  let path = fresh_path () in
  (match Store.save ~path ~tag:"t" [ entry "k" "v" ] with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "save failed: %s" e);
  Alcotest.(check bool) "no staging file left behind" false
    (Sys.file_exists (Filename.chop_suffix path Store.suffix ^ Store.temp_suffix))

(* Corruption matrix: every damaged store loads as a (partial) cache
   miss without raising, and `verify` pins the damage. *)

let saved_entries = [ entry "alpha" "payload-one"; entry "beta" "payload-two"; entry "gamma" "payload-three" ]

let saved_store () =
  let path = fresh_path () in
  (match Store.save ~path ~tag:"t" saved_entries with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "save failed: %s" e);
  path

let test_corrupt_truncated () =
  let path = saved_store () in
  let data = read_file path in
  write_file path (String.sub data 0 (String.length data - 7));
  let r = Store.load ~path ~tag:"t" in
  Alcotest.(check (option string)) "header still fine" None
    (Option.map Store.describe_header_error r.Store.header);
  Alcotest.(check int) "the cut tail is one corrupt region" 1 r.Store.corrupt;
  Alcotest.(check entries_testable) "intact prefix still loads"
    (pairs [ entry "alpha" "payload-one"; entry "beta" "payload-two" ])
    (pairs r.Store.entries);
  let v = Store.verify ~path in
  Alcotest.(check int) "verify counts the corruption" 1 v.Store.vcorrupt

let test_corrupt_flipped_byte () =
  let path = saved_store () in
  let data = Bytes.of_string (read_file path) in
  (* Flip a byte inside the second entry's payload (header is 8+4+4+1
     bytes for tag "t"; entry 1 is 8+5+11+4 bytes). *)
  let pos = 17 + 28 + 8 + 4 + 3 in
  Bytes.set data pos (Char.chr (Char.code (Bytes.get data pos) lxor 0xFF));
  write_file path (Bytes.to_string data);
  let r = Store.load ~path ~tag:"t" in
  Alcotest.(check int) "one entry dropped" 1 r.Store.corrupt;
  Alcotest.(check entries_testable) "other entries unaffected"
    (pairs [ entry "alpha" "payload-one"; entry "gamma" "payload-three" ])
    (pairs r.Store.entries);
  let v = Store.verify ~path in
  Alcotest.(check int) "verify sees 3 entries" 3 v.Store.total;
  Alcotest.(check int) "verify flags exactly one" 1 v.Store.vcorrupt

let test_corrupt_stale_version () =
  let path = saved_store () in
  let data = Bytes.of_string (read_file path) in
  Bytes.set_int32_le data 8 99l;
  write_file path (Bytes.to_string data);
  let r = Store.load ~path ~tag:"t" in
  Alcotest.(check entries_testable) "whole file skipped" [] (pairs r.Store.entries);
  (match r.Store.header with
  | Some (Store.Bad_version 99) -> ()
  | other ->
      Alcotest.failf "expected Bad_version 99, got %s"
        (match other with Some e -> Store.describe_header_error e | None -> "no error"))

let test_corrupt_stale_tag () =
  let path = saved_store () in
  let r = Store.load ~path ~tag:"another-schema" in
  Alcotest.(check entries_testable) "whole file skipped" [] (pairs r.Store.entries);
  match r.Store.header with
  | Some (Store.Bad_tag "t") -> ()
  | _ -> Alcotest.fail "expected Bad_tag"

let test_corrupt_empty_file () =
  let path = fresh_path () in
  write_file path "";
  let r = Store.load ~path ~tag:"t" in
  Alcotest.(check entries_testable) "no entries" [] (pairs r.Store.entries);
  (match r.Store.header with
  | Some Store.Truncated_header -> ()
  | _ -> Alcotest.fail "expected Truncated_header");
  let v = Store.verify ~path in
  Alcotest.(check bool) "verify reports it" true (v.Store.vheader <> None)

let test_corrupt_bad_magic () =
  let path = saved_store () in
  let data = Bytes.of_string (read_file path) in
  Bytes.set data 0 'X';
  write_file path (Bytes.to_string data);
  match (Store.load ~path ~tag:"t").Store.header with
  | Some Store.Bad_magic -> ()
  | _ -> Alcotest.fail "expected Bad_magic"

let test_missing_file_is_cold () =
  let r = Store.load ~path:(Filename.concat tmp_dir "never-written.gppc") ~tag:"t" in
  match r.Store.header with
  | Some Store.Missing -> Alcotest.(check int) "no corruption reported" 0 r.Store.corrupt
  | _ -> Alcotest.fail "expected Missing"

let test_leftover_temp_file_ignored () =
  let dir = Filename.concat tmp_dir "tmpcase" in
  (try Sys.mkdir dir 0o755 with Sys_error _ -> ());
  let path = Store.path ~dir ~table:"w" in
  (match Store.save ~path ~tag:"t" saved_entries with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "save failed: %s" e);
  (* A concurrent writer died mid-stage: its temp file must neither be
     listed nor loaded, and clear sweeps it. *)
  write_file (Filename.concat dir ("w" ^ Store.temp_suffix)) "half-written garbage";
  Alcotest.(check (list string)) "only the real store is listed" [ path ] (Store.list_dir ~dir);
  let r = Store.load ~path ~tag:"t" in
  Alcotest.(check int) "store loads cleanly" 0 r.Store.corrupt;
  Alcotest.(check int) "clear removes store and leftover" 2 (Store.clear_dir ~dir);
  Alcotest.(check (list string)) "directory swept" [] (Store.list_dir ~dir)

(* Memo persistence: flush + clear + load behaves like a process
   restart, bit-identically. *)

let test_memo_restart_roundtrip () =
  Control.set_enabled true;
  Control.set_disk_enabled true;
  let dir = Filename.concat tmp_dir "restart" in
  let memo : float Memo.t = Memo.create ~name:"test.restart" ~capacity:16 () in
  Memo.persist ~schema:1 memo;
  let v1 = Float.of_string "0x1.921fb54442d18p+1" in
  let v2 = -0.0 in
  ignore (Memo.find_or_add memo ~key:"pi" (fun () -> v1));
  ignore (Memo.find_or_add memo ~key:"negzero" (fun () -> v2));
  Memo.flush_disk ~dir ();
  Memo.clear memo;
  Memo.load_disk ~dir ();
  let recompute = ref 0 in
  let r1 = Memo.find_or_add memo ~key:"pi" (fun () -> incr recompute; 0.0) in
  let r2 = Memo.find_or_add memo ~key:"negzero" (fun () -> incr recompute; 0.0) in
  Alcotest.(check int) "both served from disk, nothing recomputed" 0 !recompute;
  Alcotest.(check bool) "pi round-trips bit-identically" true
    (Int64.equal (Int64.bits_of_float v1) (Int64.bits_of_float r1));
  Alcotest.(check bool) "-0. round-trips bit-identically" true
    (Int64.equal (Int64.bits_of_float v2) (Int64.bits_of_float r2));
  match (Memo.snapshot memo).Memo.disk with
  | Some d ->
      Alcotest.(check int) "disk stats: loaded" 2 d.Memo.loaded;
      Alcotest.(check int) "disk stats: nothing rejected" 0 d.Memo.rejected
  | None -> Alcotest.fail "expected disk stats after a load"

let test_memo_schema_bump_invalidates () =
  Control.set_enabled true;
  Control.set_disk_enabled true;
  let dir = Filename.concat tmp_dir "schema" in
  let old_memo : int Memo.t = Memo.create ~name:"test.schema" ~capacity:4 () in
  Memo.persist ~schema:1 old_memo;
  ignore (Memo.find_or_add old_memo ~key:"k" (fun () -> 42));
  Memo.flush_disk ~dir ();
  (* A "new build" whose value type changed shape bumps the schema; the
     old file must be skipped wholesale, not misdecoded. *)
  let new_memo : string Memo.t = Memo.create ~name:"test.schema" ~capacity:4 () in
  Memo.persist ~schema:2 new_memo;
  Memo.load_disk ~dir ();
  let computed = ref false in
  let v = Memo.find_or_add new_memo ~key:"k" (fun () -> computed := true; "fresh") in
  Alcotest.(check bool) "stale schema forces a recompute" true !computed;
  Alcotest.(check string) "fresh value" "fresh" v

(* Incremental flush: a periodic flush mid-run persists everything
   inserted so far, so a kill (no exit flush) only loses the entries
   computed after the last flush — not everything since startup. *)
let test_memo_incremental_flush_survives_kill () =
  Control.set_enabled true;
  Control.set_disk_enabled true;
  let dir = Filename.concat tmp_dir "kill" in
  let memo : int Memo.t = Memo.create ~name:"test.kill" ~capacity:16 () in
  Memo.persist memo;
  ignore (Memo.find_or_add memo ~key:"a" (fun () -> 1));
  ignore (Memo.find_or_add memo ~key:"b" (fun () -> 2));
  Memo.flush_disk ~dir ();
  (* Computed after the periodic flush, then the process is killed —
     no further flush ever runs. *)
  ignore (Memo.find_or_add memo ~key:"c" (fun () -> 3));
  (* "Restart": a fresh table under the same name reloads the store. *)
  let reborn : int Memo.t = Memo.create ~name:"test.kill" ~capacity:16 () in
  Memo.persist reborn;
  Memo.load_disk ~dir ();
  let recompute = ref 0 in
  let a = Memo.find_or_add reborn ~key:"a" (fun () -> incr recompute; 0) in
  let b = Memo.find_or_add reborn ~key:"b" (fun () -> incr recompute; 0) in
  Alcotest.(check int) "flushed entries survive the kill" 0 !recompute;
  Alcotest.(check (pair int int)) "values intact" (1, 2) (a, b);
  let c = Memo.find_or_add reborn ~key:"c" (fun () -> incr recompute; 33) in
  Alcotest.(check int) "only the unflushed tail is lost" 1 !recompute;
  Alcotest.(check int) "tail recomputes fine" 33 c

(* flush_disk is idempotent: with no mutations since the last flush the
   store file is not rewritten at all (observable by tampering with the
   file — a skipped flush leaves the tampering in place), and a single
   mutation re-arms it. *)
let test_memo_flush_skips_when_clean () =
  Control.set_enabled true;
  Control.set_disk_enabled true;
  let dir = Filename.concat tmp_dir "idem" in
  let memo : int Memo.t = Memo.create ~name:"test.idem" ~capacity:16 () in
  Memo.persist memo;
  ignore (Memo.find_or_add memo ~key:"k" (fun () -> 7));
  Alcotest.(check bool) "mutations pending before flush" true (Memo.dirty_entries () > 0);
  Memo.flush_disk ~dir ();
  Alcotest.(check int) "flush syncs every table" 0 (Memo.dirty_entries ());
  let path = Store.path ~dir ~table:"test.idem" in
  write_file path "tampered";
  Memo.flush_disk ~dir ();
  Alcotest.(check string) "clean flush skips the rewrite" "tampered" (read_file path);
  ignore (Memo.find_or_add memo ~key:"k2" (fun () -> 8));
  Memo.flush_disk ~dir ();
  Alcotest.(check bool) "one mutation re-arms the flush" true (read_file path <> "tampered");
  let r = Store.load ~path ~tag:(Printf.sprintf "test.idem;schema=1;ocaml=%s;word=%d" Sys.ocaml_version Sys.word_size) in
  Alcotest.(check int) "rewritten store holds both entries" 2 (List.length r.Store.entries)

(* Lookups and inserts proceed while another domain flushes in a loop:
   no corruption, no deadlock, and the final flush captures the full
   keyspace. *)
let test_memo_flush_concurrent_with_lookups () =
  Control.set_enabled true;
  Control.set_disk_enabled true;
  let dir = Filename.concat tmp_dir "conc" in
  let memo : int Memo.t = Memo.create ~name:"test.conc" ~capacity:128 () in
  Memo.persist memo;
  let stop = Atomic.make false in
  let flushes = Atomic.make 0 in
  let flusher =
    Domain.spawn (fun () ->
        while not (Atomic.get stop) do
          Memo.flush_disk ~dir ();
          Atomic.incr flushes
        done)
  in
  (* Keep the lookup traffic going until every key has been inserted and
     several flushes have landed underneath it, so the two genuinely
     overlap.  The flusher can finish its first flushes before this
     domain makes its first lookup, so only flushes that land after the
     loop starts count, and the loop never stops short of the keyspace
     the final check reloads. *)
  let landed_before = Atomic.get flushes in
  let i = ref 0 in
  while (!i < 100 || Atomic.get flushes < landed_before + 3) && !i < 5_000_000 do
    let k = !i mod 100 in
    let v = Memo.find_or_add memo ~key:(Printf.sprintf "k%d" k) (fun () -> k * 3) in
    if v <> k * 3 then failwith (Printf.sprintf "corrupt value for k%d: %d" k v);
    incr i
  done;
  Atomic.set stop true;
  Domain.join flusher;
  Alcotest.(check bool) "flusher made progress" true (Atomic.get flushes > 0);
  Memo.flush_disk ~dir ();
  let reborn : int Memo.t = Memo.create ~name:"test.conc" ~capacity:128 () in
  Memo.persist reborn;
  Memo.load_disk ~dir ();
  let recompute = ref 0 in
  for k = 0 to 99 do
    ignore (Memo.find_or_add reborn ~key:(Printf.sprintf "k%d" k) (fun () -> incr recompute; k * 3))
  done;
  Alcotest.(check int) "final flush captured the full keyspace" 0 !recompute

let test_no_cache_disables_disk () =
  Control.set_enabled true;
  Control.set_disk_enabled true;
  let dir = Filename.concat tmp_dir "nocache" in
  let memo : int Memo.t = Memo.create ~name:"test.nocache" ~capacity:4 () in
  Memo.persist memo;
  ignore (Memo.find_or_add memo ~key:"k" (fun () -> 1));
  Control.set_enabled false;
  Memo.flush_disk ~dir ();
  Control.set_enabled true;
  Alcotest.(check bool) "globally disabled cache never writes stores" false
    (Sys.file_exists (Store.path ~dir ~table:"test.nocache"));
  Control.set_disk_enabled false;
  Memo.flush_disk ~dir ();
  Alcotest.(check bool) "disk switch alone also blocks" false
    (Sys.file_exists (Store.path ~dir ~table:"test.nocache"));
  Control.set_disk_enabled true;
  Memo.flush_disk ~dir ();
  Alcotest.(check bool) "enabled again, the flush lands" true
    (Sys.file_exists (Store.path ~dir ~table:"test.nocache"))

(* Cache-dir resolution chain *)

let test_dir_resolution () =
  Unix.putenv "GPP_CACHE_DIR" "/tmp/from-env";
  Alcotest.(check string) "GPP_CACHE_DIR wins the env chain" "/tmp/from-env"
    (Control.default_dir ());
  Unix.putenv "GPP_CACHE_DIR" "";
  Unix.putenv "XDG_CACHE_HOME" "/tmp/xdg";
  Alcotest.(check string) "then XDG_CACHE_HOME/grophecy"
    (Filename.concat "/tmp/xdg" "grophecy")
    (Control.default_dir ());
  Unix.putenv "XDG_CACHE_HOME" "";
  Unix.putenv "HOME" "/tmp/home";
  Alcotest.(check string) "then ~/.cache/grophecy" "/tmp/home/.cache/grophecy"
    (Control.default_dir ());
  Control.set_dir "/tmp/explicit";
  Alcotest.(check string) "--cache-dir beats everything" "/tmp/explicit" (Control.dir ())

(* Properties *)

let entry_gen =
  QCheck.(
    pair (string_gen_of_size Gen.(0 -- 32) Gen.char) (string_gen_of_size Gen.(0 -- 256) Gen.char))

let prop_roundtrip =
  QCheck.Test.make ~count:50 ~name:"store round-trips arbitrary binary entries"
    (QCheck.list_of_size (QCheck.Gen.int_range 0 20) entry_gen)
    (fun raw ->
      let entries = List.map (fun (k, p) -> entry k p) raw in
      let path = fresh_path () in
      match Store.save ~path ~tag:"prop" entries with
      | Error e -> QCheck.Test.fail_reportf "save failed: %s" e
      | Ok _ ->
          let r = Store.load ~path ~tag:"prop" in
          r.Store.corrupt = 0 && r.Store.header = None && pairs r.Store.entries = raw)

let prop_floats_bit_identical =
  QCheck.Test.make ~count:200 ~name:"floats survive the disk tier bit-identically"
    QCheck.float (fun f ->
      let path = fresh_path () in
      let payload = Marshal.to_string f [] in
      match Store.save ~path ~tag:"f" [ entry "k" payload ] with
      | Error e -> QCheck.Test.fail_reportf "save failed: %s" e
      | Ok _ -> (
          match (Store.load ~path ~tag:"f").Store.entries with
          | [ e ] ->
              Int64.equal (Int64.bits_of_float f)
                (Int64.bits_of_float (Marshal.from_string e.Store.payload 0))
          | _ -> false))

(* Golden key vectors: fingerprints of fixed structures, checked against
   test/golden_keys.expected.  A mismatch means the fingerprint format
   changed — which silently invalidates every store file in the wild —
   so it must be a conscious decision (regenerate the file and say so in
   the changelog), never an accident. *)

let golden_values () =
  let module Ir = Gpp_skeleton.Ir in
  let module Ix = Gpp_skeleton.Index_expr in
  let module Decl = Gpp_skeleton.Decl in
  let kernel =
    Ir.kernel "golden"
      ~loops:[ Ir.loop "i" ~extent:4096 ]
      ~body:[ Ir.load "a" [ Ix.var "i" ]; Ir.compute 2.0; Ir.store "b" [ Ix.var "i" ] ]
  in
  let characteristics =
    Gpp_model.Characteristics.create ~kernel_name:"golden" ~grid_blocks:32 ~threads_per_block:128
      ~flops_per_thread:2.0 ~load_insts_per_thread:1.0 ~store_insts_per_thread:1.0
      ~load_transactions_per_warp:2.0 ~store_transactions_per_warp:2.0 ()
  in
  [
    ( "primitives",
      F.of_value
        (fun fp () ->
          F.add_string fp "grophecy";
          F.add_int fp 2013;
          F.add_int64 fp 0x1B0A_2013_6CA1_55AAL;
          F.add_float fp 2.5e9;
          F.add_float fp (-0.0);
          F.add_bool fp true;
          F.add_int_list fp [ 64; 128; 256 ];
          F.add_list fp F.add_string [ "a"; "bc" ])
        () );
    ("kernel", Ir.fingerprint kernel);
    ("decl", Decl.fingerprint (Decl.dense "a" ~elem_bytes:8 ~dims:[ 64; 64 ]));
    ("gpu", Gpp_arch.Gpu.fingerprint Gpp_arch.Machine.argonne_node.Gpp_arch.Machine.gpu);
    ("characteristics", Gpp_model.Characteristics.fingerprint characteristics);
    ( "analytic-params",
      F.of_value Gpp_model.Analytic.add_params_fingerprint Gpp_model.Analytic.default_params );
  ]

let test_golden_key_vectors () =
  let actual =
    golden_values ()
    |> List.map (fun (name, digest) -> Printf.sprintf "%s %s\n" name digest)
    |> String.concat ""
  in
  let expected = In_channel.with_open_text "golden_keys.expected" In_channel.input_all in
  if not (String.equal expected actual) then
    Alcotest.failf
      "fingerprint format drift — cache keys no longer match the pinned vectors, which \
       silently invalidates every persistent store in the wild.  If the change is \
       intentional, update test/golden_keys.expected to:\n%s" actual

let () =
  let t name fn = Alcotest.test_case name `Quick fn in
  Alcotest.run "store"
    [
      ("crc32", [ t "reference vectors" test_crc32_vectors ]);
      ( "roundtrip",
        [ t "save/load" test_save_load_roundtrip; t "atomic rename" test_save_is_atomic_rename ]
      );
      ( "corruption-matrix",
        [
          t "truncated file" test_corrupt_truncated;
          t "flipped byte" test_corrupt_flipped_byte;
          t "stale version" test_corrupt_stale_version;
          t "stale tag" test_corrupt_stale_tag;
          t "empty file" test_corrupt_empty_file;
          t "bad magic" test_corrupt_bad_magic;
          t "missing file" test_missing_file_is_cold;
          t "leftover temp file" test_leftover_temp_file_ignored;
        ] );
      ( "memo-persistence",
        [
          t "restart round-trip is bit-identical" test_memo_restart_roundtrip;
          t "schema bump invalidates" test_memo_schema_bump_invalidates;
          t "incremental flush survives a kill" test_memo_incremental_flush_survives_kill;
          t "clean flush skips the rewrite" test_memo_flush_skips_when_clean;
          t "flush concurrent with lookups" test_memo_flush_concurrent_with_lookups;
          t "--no-cache disables the disk tier" test_no_cache_disables_disk;
        ] );
      ("resolution", [ t "cache-dir chain" test_dir_resolution ]);
      ( "properties",
        List.map QCheck_alcotest.to_alcotest [ prop_roundtrip; prop_floats_bit_identical ] );
      ("golden", [ t "key vectors" test_golden_key_vectors ]);
    ]
