(* Tests for Gpp_analysis: the static-analysis pass framework, the lint
   driver, and the renderers.

   The core contract: every seeded-defect fixture triggers exactly the
   diagnostic code it was built to trigger, and every bundled workload
   skeleton lints clean under --strict (no errors, no warnings). *)

module D = Gpp_analysis.Diagnostic
module Driver = Gpp_analysis.Driver
module Render = Gpp_analysis.Render
module Pass = Gpp_analysis.Pass
module Section = Gpp_brs.Section
module Ir = Gpp_skeleton.Ir
module Ix = Gpp_skeleton.Index_expr
module Decl = Gpp_skeleton.Decl
module Program = Gpp_skeleton.Program

let lint_source source =
  match Gpp_skeleton.Parser.parse source with
  | Ok program -> Driver.run program
  | Error e -> Alcotest.failf "fixture failed to parse: %s" e

let codes (report : Driver.report) =
  List.map (fun (d : D.t) -> d.code) report.Driver.diagnostics

let check_fires ?(msg = "") code report =
  if not (List.mem code (codes report)) then
    Alcotest.failf "expected %s to fire%s; got [%s]" code
      (if msg = "" then "" else " (" ^ msg ^ ")")
      (String.concat ", " (codes report))

let check_silent code report =
  if List.mem code (codes report) then
    Alcotest.failf "expected %s NOT to fire; got [%s]" code (String.concat ", " (codes report))

let severity_of code (report : Driver.report) =
  match List.find_opt (fun (d : D.t) -> d.code = code) report.diagnostics with
  | Some d -> d.severity
  | None -> Alcotest.failf "no %s diagnostic in report" code

(* Seeded-defect fixtures: each skeleton is clean except for the one
   defect its test asserts on. *)

let clean_base =
  {|
program clean
array a dense 4096
array out dense 4096
kernel k
  loop i parallel 4096
  load a [i]
  compute flops 1
  store out [i]
end
schedule
  call k
end
|}

let test_clean_program () =
  let report = lint_source clean_base in
  Alcotest.(check int) "no diagnostics" 0 (List.length report.Driver.diagnostics);
  Alcotest.(check bool) "strict-clean" true (Driver.clean ~strict:true report);
  Alcotest.(check int) "exit 0" 0 (Driver.exit_code ~strict:true report)

let test_gpp101_store_out_of_bounds () =
  let report =
    lint_source
      {|
program fx101
array a dense 4096
array out dense 4096
kernel k
  loop i parallel 4096
  load a [i]
  store out [i+1]
end
schedule
  call k
end
|}
  in
  check_fires "GPP101" report;
  Alcotest.(check bool) "error severity" true (severity_of "GPP101" report = D.Error);
  Alcotest.(check bool) "fails non-strict" false (Driver.clean ~strict:false report)

let test_gpp102_halo_load () =
  let report =
    lint_source
      {|
program fx102
array a dense 4096
array out dense 4096
kernel k
  loop i parallel 4096
  load a [i-1]
  load a [i]
  load a [i+1]
  store out [i]
end
schedule
  call k
end
|}
  in
  check_fires "GPP102" report;
  check_silent "GPP101" report;
  Alcotest.(check bool) "info only" true (severity_of "GPP102" report = D.Info);
  Alcotest.(check bool) "still strict-clean" true (Driver.clean ~strict:true report)

let test_gpp103_fully_out_of_bounds () =
  let report =
    lint_source
      {|
program fx103
array a dense 4096
array out dense 4096
kernel k
  loop i parallel 4096
  load a [i+4096]
  store out [i]
end
schedule
  call k
end
|}
  in
  check_fires "GPP103" report;
  Alcotest.(check bool) "error severity" true (severity_of "GPP103" report = D.Error)

let test_gpp201_parallel_independent_store () =
  let report =
    lint_source
      {|
program fx201
array a dense 4096
array out dense 4096
kernel k
  loop i parallel 4096
  load a [i]
  store out [0]
end
schedule
  call k
end
|}
  in
  check_fires "GPP201" report;
  Alcotest.(check bool) "error severity" true (severity_of "GPP201" report = D.Error)

let test_gpp201_serial_loop_is_fine () =
  (* The same subscript shape under a serial loop is a legal
     accumulator, not a race. *)
  let report =
    lint_source
      {|
program fx201ok
array a dense 4096
array out dense 1
kernel k
  loop i serial 4096
  load a [i]
  store out [0]
end
schedule
  call k
end
|}
  in
  check_silent "GPP201" report

let test_gpp202_overlapping_stores () =
  let report =
    lint_source
      {|
program fx202
array a dense 4096
array out dense 4097
kernel k
  loop i parallel 4096
  load a [i]
  store out [i]
  store out [i+1]
end
schedule
  call k
end
|}
  in
  check_fires "GPP202" report;
  Alcotest.(check bool) "warning severity" true (severity_of "GPP202" report = D.Warning);
  Alcotest.(check bool) "strict fails" false (Driver.clean ~strict:true report);
  Alcotest.(check bool) "non-strict passes" true (Driver.clean ~strict:false report)

let test_gpp203_read_after_write () =
  let report =
    lint_source
      {|
program fx203
array a dense 4096
kernel k
  loop i parallel 4096
  load a [i+1]
  compute flops 1
  store a [i]
end
schedule
  call k
end
|}
  in
  check_fires "GPP203" report

let test_gpp203_in_place_update_is_fine () =
  (* Identical subscripts: the same-element read-modify-write idiom
     (srad_update, stassuij's accumulator) is race-free. *)
  let report =
    lint_source
      {|
program fx203ok
array a dense 4096
kernel k
  loop i parallel 4096
  load a [i]
  compute flops 1
  store a [i]
end
schedule
  call k
end
|}
  in
  check_silent "GPP203" report;
  check_silent "GPP202" report

let test_gpp301_dead_temporary_write () =
  let report =
    lint_source
      {|
program fx301
array a dense 4096
array t dense 4096
array out dense 4096
temporary t
kernel k
  loop i parallel 4096
  load a [i]
  store t [i]
  store out [i]
end
schedule
  call k
end
|}
  in
  check_fires "GPP301" report;
  Alcotest.(check bool) "warning severity" true (severity_of "GPP301" report = D.Warning)

let test_gpp301_consumed_temporary_is_fine () =
  let report =
    lint_source
      {|
program fx301ok
array a dense 4096
array t dense 4096
array out dense 4096
temporary t
kernel producer
  loop i parallel 4096
  load a [i]
  store t [i]
end
kernel consumer
  loop i parallel 4096
  load t [i]
  store out [i]
end
schedule
  call producer
  call consumer
end
|}
  in
  check_silent "GPP301" report;
  (* ... and the consumer's re-read of device-resident t is the
     GPP302 note. *)
  check_fires "GPP302" report;
  Alcotest.(check bool) "info severity" true (severity_of "GPP302" report = D.Info)

let test_gpp303_conservative_fallback () =
  let report =
    lint_source
      {|
program fx303
array idx dense 4096
array table dense 65536
array out dense 4096
kernel gather
  loop i parallel 4096
  load idx [i]
  load table via idx
  store out [i]
end
schedule
  call gather
end
|}
  in
  check_fires "GPP303" report;
  (* The scattered gather is also the canonical GPP401 case. *)
  check_fires "GPP401" report

let test_gpp401_strided_access () =
  let report =
    lint_source
      {|
program fx401
array a dense 4096 64
array out dense 4096
kernel colwalk
  loop i parallel 4096
  load a [i, 0]
  store out [i]
end
schedule
  call colwalk
end
|}
  in
  (* Adjacent threads are one 64-element row apart: 256 B stride vs a
     64 B coalescing segment. *)
  check_fires "GPP401" report;
  Alcotest.(check bool) "info severity" true (severity_of "GPP401" report = D.Info)

let test_gpp402_divergent_branch () =
  let report =
    lint_source
      {|
program fx402
array a dense 4096
array out dense 4096
kernel k
  loop i parallel 4096
  load a [i]
  branch 0.5 {
    compute flops 10
  }
  store out [i]
end
schedule
  call k
end
|}
  in
  check_fires "GPP402" report

let test_gpp402_uniform_branch_is_fine () =
  let report =
    lint_source
      {|
program fx402ok
array a dense 4096
array out dense 4096
kernel k
  loop i parallel 4096
  load a [i]
  branch 0.5 uniform {
    compute flops 10
  }
  store out [i]
end
schedule
  call k
end
|}
  in
  check_silent "GPP402" report

let test_perf_lints_skip_cold_kernels () =
  let report =
    lint_source
      {|
program coldfx
array a dense 16
array out dense 16
kernel tiny
  loop i parallel 16
  load a [i]
  branch 0.5 {
    compute flops 10
  }
  store out [i]
end
schedule
  call tiny
end
|}
  in
  check_silent "GPP402" report

(* Program-level checks are easiest to seed through the IR API (the
   parser now rejects duplicate names at parse time). *)

let simple_kernel ?(name = "k") ?(array = "a") ?(out = "out") n =
  Ir.kernel name
    ~loops:[ Ir.loop "i" ~extent:n ]
    ~body:[ Ir.load array [ Ix.var "i" ]; Ir.compute 1.0; Ir.store out [ Ix.var "i" ] ]

let test_gpp501_duplicate_arrays () =
  let program =
    Program.create ~name:"fx501"
      ~arrays:[ Decl.dense "a" ~dims:[ 64 ]; Decl.dense "a" ~dims:[ 64 ]; Decl.dense "out" ~dims:[ 64 ] ]
      ~kernels:[ simple_kernel 64 ]
      ~schedule:[ Program.Call "k" ] ()
  in
  check_fires "GPP501" (Driver.run program)

let test_gpp502_duplicate_kernels () =
  let program =
    Program.create ~name:"fx502"
      ~arrays:[ Decl.dense "a" ~dims:[ 64 ]; Decl.dense "out" ~dims:[ 64 ] ]
      ~kernels:[ simple_kernel 64; simple_kernel 64 ]
      ~schedule:[ Program.Call "k" ] ()
  in
  let report = Driver.run program in
  check_fires "GPP502" report;
  (* Duplicate kernels also fail Program.validate, which must surface
     as GPP001 rather than crash the BRS-based passes. *)
  check_fires "GPP001" report;
  Alcotest.(check bool) "marked invalid" false report.Driver.valid

let test_gpp503_unused_array () =
  let report =
    lint_source
      {|
program fx503
array a dense 4096
array ghost dense 4096
array out dense 4096
kernel k
  loop i parallel 4096
  load a [i]
  store out [i]
end
schedule
  call k
end
|}
  in
  check_fires "GPP503" report

let test_gpp504_unscheduled_kernel () =
  let report =
    lint_source
      {|
program fx504
array a dense 4096
array out dense 4096
kernel k
  loop i parallel 4096
  load a [i]
  store out [i]
end
kernel orphan
  loop i parallel 4096
  load a [i]
  store out [i]
end
schedule
  call k
end
|}
  in
  check_fires "GPP504" report

let test_gpp505_never_written_temporary () =
  let report =
    lint_source
      {|
program fx505
array a dense 4096
array out dense 4096
temporary a
kernel k
  loop i parallel 4096
  load a [i]
  store out [i]
end
schedule
  call k
end
|}
  in
  check_fires "GPP505" report

let test_indirect_index_array_counts_as_referenced () =
  (* The via-array of an indirect access is a use: no GPP503. *)
  let report =
    lint_source
      {|
program fxvia
array idx dense 4096
array table dense 65536
array out dense 4096
kernel gather
  loop i parallel 4096
  load table via idx
  store out [i]
end
schedule
  call gather
end
|}
  in
  check_silent "GPP503" report

(* GPP6xx transfer-flow fixtures: conservative-vs-minimal plan diffs,
   loop-invariant uploads, and interval reachability. *)

let payload_int code key (report : Driver.report) =
  match List.find_opt (fun (d : D.t) -> d.code = code) report.Driver.diagnostics with
  | None -> Alcotest.failf "no %s diagnostic in report" code
  | Some d -> (
      match List.assoc_opt key d.D.payload with
      | Some (D.Int i) -> i
      | _ -> Alcotest.failf "%s: missing integer payload %s" code key)

let test_gpp601_redundant_upload () =
  (* Every read of [a] sits under a probability-0 branch, so the
     conservative upload is never consumed and the minimal plan elides
     it. *)
  let report =
    lint_source
      {|
program fx601
array a dense 4096
array out dense 4096
kernel k
  loop i parallel 4096
  branch 0.0 uniform {
    load a [i]
  }
  compute flops 1
  store out [i]
end
schedule
  call k
end
|}
  in
  check_fires "GPP601" report;
  Alcotest.(check bool) "warning severity" true (severity_of "GPP601" report = D.Warning);
  Alcotest.(check int) "priced at the full upload" (4 * 4096) (payload_int "GPP601" "bytes" report);
  check_silent "GPP602" report

let test_gpp602_dead_download () =
  (* The only store to [out] can never execute: the download in the
     conservative plan carries data the device never produces. *)
  let report =
    lint_source
      {|
program fx602
array a dense 4096
array out dense 4096
kernel k
  loop i parallel 4096
  load a [i]
  compute flops 1
  branch 0.0 uniform {
    store out [i]
  }
end
schedule
  call k
end
|}
  in
  check_fires "GPP602" report;
  Alcotest.(check bool) "warning severity" true (severity_of "GPP602" report = D.Warning);
  check_silent "GPP601" report

let test_gpp603_hoistable_upload () =
  (* [coeff] is read inside the 4-iteration schedule loop and never
     written by it: the upload is loop-invariant and the plan hoists
     it, saving 3 of the 4 per-iteration copies. *)
  let report =
    lint_source
      {|
program fx603
array coeff dense 4096
array state dense 4096
kernel step
  loop i parallel 4096
  load coeff [i]
  load state [i]
  compute flops 2
  store state [i]
end
schedule
  repeat 4 {
    call step
  }
end
|}
  in
  check_fires "GPP603" report;
  Alcotest.(check bool) "info severity" true (severity_of "GPP603" report = D.Info);
  Alcotest.(check int) "iterations" 4 (payload_int "GPP603" "iterations" report);
  Alcotest.(check int) "per-iteration bytes" (4 * 4096)
    (payload_int "GPP603" "per_iteration_bytes" report);
  Alcotest.(check int) "saves n-1 copies" (3 * 4 * 4096)
    (payload_int "GPP603" "saved_bytes" report);
  Alcotest.(check bool) "still strict-clean" true (Driver.clean ~strict:true report)

let test_gpp603_silent_without_iteration () =
  (* The same program with a single-iteration loop has nothing to
     hoist. *)
  let report =
    lint_source
      {|
program fx603ok
array coeff dense 4096
array state dense 4096
kernel step
  loop i parallel 4096
  load coeff [i]
  load state [i]
  compute flops 2
  store state [i]
end
schedule
  repeat 1 {
    call step
  }
end
|}
  in
  check_silent "GPP603" report

let test_gpp604_unreachable_extent () =
  (* [a] declares 100 elements but the interval hull of its only
     subscript reaches 0..49; [out]'s declaration matches its use
     exactly, so only [a] is flagged. *)
  let report =
    lint_source
      {|
program fx604
array a dense 100
array out dense 50
kernel half
  loop i parallel 50
  load a [i]
  compute flops 1
  store out [i]
end
schedule
  call half
end
|}
  in
  check_fires "GPP604" report;
  Alcotest.(check bool) "info severity" true (severity_of "GPP604" report = D.Info);
  Alcotest.(check int) "one array flagged" 1
    (List.length (List.filter (fun (d : D.t) -> d.code = "GPP604") report.Driver.diagnostics));
  Alcotest.(check int) "declared extent in payload" 100 (payload_int "GPP604" "dim0_extent" report);
  (match List.find_opt (fun (d : D.t) -> d.code = "GPP604") report.Driver.diagnostics with
  | Some d -> Alcotest.(check (option string)) "anchored on a" (Some "a") d.D.location.array
  | None -> Alcotest.fail "GPP604 should fire");
  Alcotest.(check bool) "still strict-clean" true (Driver.clean ~strict:true report)

(* Every bundled workload must lint strict-clean: info-level notes are
   expected (halo loads, gathers), warnings and errors are not. *)

let test_bundled_workloads_strict_clean () =
  List.iter
    (fun (inst : Gpp_workloads.Registry.instance) ->
      let report = Driver.run (inst.program 1) in
      let offenders =
        List.filter (fun (d : D.t) -> d.severity <> D.Info) report.Driver.diagnostics
      in
      if offenders <> [] then
        Alcotest.failf "%s not strict-clean: %s"
          (Gpp_workloads.Registry.key inst)
          (String.concat "; "
             (List.map (fun d -> Format.asprintf "%a" D.pp d) offenders));
      Alcotest.(check int)
        (Gpp_workloads.Registry.key inst ^ " exit code")
        0
        (Driver.exit_code ~strict:true report))
    Gpp_workloads.Registry.all

let test_bundled_workloads_roundtrip_clean () =
  (* The .skel export of a workload must lint identically to the
     program it was exported from (the CI gate runs the linter over
     exports). *)
  List.iter
    (fun (inst : Gpp_workloads.Registry.instance) ->
      let original = inst.program 1 in
      let reparsed =
        Helpers.check_ok "reparse"
          (Gpp_skeleton.Parser.parse (Gpp_skeleton.Printer.to_skel original))
      in
      let a = Driver.run original and b = Driver.run reparsed in
      Alcotest.(check (list string)) (Gpp_workloads.Registry.key inst) (codes a) (codes b))
    Gpp_workloads.Registry.all

(* Driver mechanics *)

let test_report_sorted_and_deduped () =
  let report =
    lint_source
      {|
program fxsort
array a dense 4096
array out dense 4096
kernel k
  loop i parallel 4096
  load a [i+1]
  load a [i+1]
  store out [0]
end
schedule
  call k
end
|}
  in
  (* Two identical halo loads collapse to one diagnostic... *)
  Alcotest.(check int) "deduplicated" 1
    (List.length (List.filter (fun (d : D.t) -> d.code = "GPP102") report.Driver.diagnostics));
  (* ...and errors sort before infos. *)
  (match report.Driver.diagnostics with
  | first :: _ -> Alcotest.(check string) "errors first" "GPP201" first.D.code
  | [] -> Alcotest.fail "expected diagnostics");
  Alcotest.(check int) "errors counted" 1 (Driver.errors report);
  (* The halo-load info, plus GPP604 on both arrays: [a] never touches
     element 0 and [out] only touches element 0. *)
  Alcotest.(check int) "infos counted" 3 (Driver.infos report)

let test_code_index_covers_report_codes () =
  let indexed = List.map (fun (c : Pass.code_doc) -> c.code) (Driver.code_index ()) in
  let sorted = List.sort String.compare indexed in
  Alcotest.(check (list string)) "index is sorted and unique" sorted (List.sort_uniq String.compare indexed);
  List.iter
    (fun code ->
      Alcotest.(check bool) (code ^ " indexed") true (List.mem code indexed))
    [ "GPP001"; "GPP101"; "GPP203"; "GPP301"; "GPP402"; "GPP505" ]

(* JSON output is schema-checked through the shared parser. *)

module Json = Gpp_util.Json

let json_exn text =
  match Json.parse text with Ok v -> v | Error e -> Alcotest.failf "JSON parse: %s" e

let field obj key = Json.member key obj

let field_exn msg obj key =
  match field obj key with Some v -> v | None -> Alcotest.failf "%s: missing field %s" msg key

let as_string msg = function Json.Str s -> s | _ -> Alcotest.failf "%s: expected a string" msg

let as_int msg = function
  | Json.Int i -> Int64.to_int i
  | _ -> Alcotest.failf "%s: expected an integer" msg

let is_code s =
  String.length s = 6
  && String.sub s 0 3 = "GPP"
  && String.for_all (fun c -> c >= '0' && c <= '9') (String.sub s 3 3)

let defect_soup =
  {|
program soup
array a dense 4096
array ghost dense 4096
array t dense 4096
array out dense 4097
temporary t
kernel k
  loop i parallel 4096
  load a [i+1]
  store t [i]
  store out [i]
  store out [i+1]
  branch 0.3 {
    compute flops 2
  }
end
schedule
  call k
end
|}

let test_json_schema_roundtrip () =
  let report = lint_source defect_soup in
  Alcotest.(check bool) "fixture has findings" true (report.Driver.diagnostics <> []);
  let json = json_exn (Render.to_json report) in
  Alcotest.(check string) "program name" report.Driver.program_name
    (as_string "program" (field_exn "root" json "program"));
  (match field_exn "root" json "valid" with
  | Json.Bool b -> Alcotest.(check bool) "valid flag" report.Driver.valid b
  | _ -> Alcotest.fail "valid: expected a bool");
  let summary = field_exn "root" json "summary" in
  Alcotest.(check int) "errors" (Driver.errors report)
    (as_int "errors" (field_exn "summary" summary "errors"));
  Alcotest.(check int) "warnings" (Driver.warnings report)
    (as_int "warnings" (field_exn "summary" summary "warnings"));
  Alcotest.(check int) "infos" (Driver.infos report)
    (as_int "infos" (field_exn "summary" summary "infos"));
  (match field_exn "root" json "passes" with
  | Json.Arr passes ->
      Alcotest.(check (list string)) "passes round-trip" report.Driver.passes_run
        (List.map (as_string "pass") passes)
  | _ -> Alcotest.fail "passes: expected an array");
  match field_exn "root" json "diagnostics" with
  | Json.Arr diags ->
      Alcotest.(check int) "diagnostic count" (List.length report.Driver.diagnostics)
        (List.length diags);
      List.iter2
        (fun (expected : D.t) j ->
          let code = as_string "code" (field_exn "diag" j "code") in
          Alcotest.(check string) "code round-trips" expected.D.code code;
          Alcotest.(check bool) ("well-formed code " ^ code) true (is_code code);
          let sev = as_string "severity" (field_exn "diag" j "severity") in
          Alcotest.(check string) "severity round-trips" (D.severity_name expected.D.severity) sev;
          Alcotest.(check string) "message round-trips" expected.D.message
            (as_string "message" (field_exn "diag" j "message"));
          (match field_exn "diag" j "payload" with
          | Json.Obj payload ->
              Alcotest.(check (list string)) "payload keys"
                (List.map fst expected.D.payload)
                (List.map fst payload)
          | _ -> Alcotest.fail "payload: expected an object");
          (* Optional location fields, when present, must be strings
             matching the diagnostic. *)
          List.iter
            (fun (key, expected_loc) ->
              match (field j key, expected_loc) with
              | None, None -> ()
              | Some v, Some loc -> Alcotest.(check string) key loc (as_string key v)
              | Some _, None -> Alcotest.failf "%s present but not in diagnostic" key
              | None, Some _ -> Alcotest.failf "%s missing from JSON" key)
            [
              ("kernel", expected.D.location.kernel);
              ("array", expected.D.location.array);
              ("detail", expected.D.location.detail);
            ])
        report.Driver.diagnostics diags
  | _ -> Alcotest.fail "diagnostics: expected an array"

let test_json_reports_array () =
  let reports = [ lint_source clean_base; lint_source defect_soup ] in
  match json_exn (Render.to_json_list reports) with
  | Json.Arr [ a; b ] ->
      Alcotest.(check string) "first" "clean" (as_string "program" (field_exn "r" a "program"));
      Alcotest.(check string) "second" "soup" (as_string "program" (field_exn "r" b "program"))
  | _ -> Alcotest.fail "expected a two-element JSON array"

(* SARIF export: schema-shape checks through the same JSON parser —
   one run, one reportingDescriptor per indexed code, one result per
   diagnostic with a consistent ruleId/ruleIndex pair. *)

let as_array msg = function Json.Arr items -> items | _ -> Alcotest.failf "%s: expected an array" msg

let test_sarif_schema () =
  let reports = [ lint_source clean_base; lint_source defect_soup ] in
  let diagnostics = List.concat_map (fun (r : Driver.report) -> r.Driver.diagnostics) reports in
  let sarif = json_exn (Gpp_analysis.Sarif.of_reports reports) in
  Alcotest.(check string) "version" "2.1.0"
    (as_string "version" (field_exn "root" sarif "version"));
  Helpers.check_contains "schema uri names 2.1.0" ~needle:"sarif-schema-2.1.0"
    (as_string "$schema" (field_exn "root" sarif "$schema"));
  match as_array "runs" (field_exn "root" sarif "runs") with
  | [ run ] ->
      let driver = field_exn "tool" (field_exn "run" run "tool") "driver" in
      Alcotest.(check string) "driver name" "grophecy"
        (as_string "name" (field_exn "driver" driver "name"));
      let rules = as_array "rules" (field_exn "driver" driver "rules") in
      Alcotest.(check int) "one rule per indexed code"
        (List.length (Driver.code_index ()))
        (List.length rules);
      let rule_ids = List.map (fun r -> as_string "rule id" (field_exn "rule" r "id")) rules in
      List.iter
        (fun r ->
          let id = as_string "rule id" (field_exn "rule" r "id") in
          Alcotest.(check bool) ("well-formed rule id " ^ id) true (is_code id);
          List.iter
            (fun key -> ignore (field_exn ("rule " ^ id) r key))
            [ "shortDescription"; "fullDescription"; "help"; "defaultConfiguration" ])
        rules;
      let results = as_array "results" (field_exn "run" run "results") in
      Alcotest.(check int) "one result per diagnostic" (List.length diagnostics)
        (List.length results);
      List.iter2
        (fun (expected : D.t) r ->
          let rule_id = as_string "ruleId" (field_exn "result" r "ruleId") in
          Alcotest.(check string) "ruleId is the code" expected.D.code rule_id;
          let index = as_int "ruleIndex" (field_exn "result" r "ruleIndex") in
          Alcotest.(check string) "ruleIndex points at the rule" rule_id (List.nth rule_ids index);
          Alcotest.(check string) "level from severity"
            (match expected.D.severity with
            | D.Error -> "error"
            | D.Warning -> "warning"
            | D.Info -> "note")
            (as_string "level" (field_exn "result" r "level"));
          let locations = as_array "locations" (field_exn "result" r "locations") in
          let logical =
            match locations with
            | [ l ] -> as_array "logicalLocations" (field_exn "location" l "logicalLocations")
            | _ -> Alcotest.fail "expected one location"
          in
          match logical with
          | [ l ] ->
              let fqn = as_string "fqn" (field_exn "logical" l "fullyQualifiedName") in
              Helpers.check_contains "qualified by program" ~needle:"soup" fqn
          | _ -> Alcotest.fail "expected one logical location")
        diagnostics results
  | _ -> Alcotest.fail "runs: expected a one-element array"

(* Code lookup behind --explain and the --codes filter. *)

let test_find_code_lookup () =
  (match Driver.find_code "gpp601" with
  | Some doc -> Alcotest.(check string) "case-insensitive" "GPP601" doc.Pass.code
  | None -> Alcotest.fail "gpp601 should resolve");
  (match Driver.find_code "  GPP101  " with
  | Some doc -> Alcotest.(check string) "trimmed" "GPP101" doc.Pass.code
  | None -> Alcotest.fail "padded GPP101 should resolve");
  Alcotest.(check bool) "unknown code is None" true (Driver.find_code "GPP999" = None);
  (* Every indexed code resolves to itself and documents a fix. *)
  List.iter
    (fun (c : Pass.code_doc) ->
      match Driver.find_code c.code with
      | Some doc ->
          Alcotest.(check string) "self-lookup" c.code doc.Pass.code;
          Alcotest.(check bool) (c.code ^ " has explanation") true (doc.explanation <> "");
          Alcotest.(check bool) (c.code ^ " has fix") true (doc.fix <> "")
      | None -> Alcotest.failf "indexed code %s does not resolve" c.code)
    (Driver.code_index ())

let test_nearest_code_suggestion () =
  Alcotest.(check string) "missing final digit" "GPP101" (Driver.nearest_code "GPP10");
  Alcotest.(check string) "trailing typo" "GPP301" (Driver.nearest_code "GPP301x");
  Alcotest.(check string) "ties break alphabetically" "GPP601" (Driver.nearest_code "GPP600")

(* Section laws the bounds and race passes lean on. *)

let dim_gen =
  QCheck2.Gen.(
    let* lo = int_range (-40) 40 in
    let* len = int_range 0 50 in
    let* stride = int_range 1 6 in
    return (Section.dim_exn ~lo ~hi:(lo + len) ~stride))

(* Same-rank groups, so intersect/union are defined across all of
   them. *)
let section_pair_gen =
  QCheck2.Gen.(
    let* rank = int_range 1 2 in
    let* d1 = list_size (return rank) dim_gen in
    let* d2 = list_size (return rank) dim_gen in
    return (Section.make "a" d1, Section.make "a" d2))

let section_triple_gen =
  QCheck2.Gen.(
    let* rank = int_range 1 2 in
    let* d1 = list_size (return rank) dim_gen in
    let* d2 = list_size (return rank) dim_gen in
    let* d3 = list_size (return rank) dim_gen in
    return (Section.make "a" d1, Section.make "a" d2, Section.make "a" d3))

let test_intersect_commutative =
  Helpers.qtest ~count:500 "intersect commutes" section_pair_gen (fun (s1, s2) ->
      match (Section.intersect s1 s2, Section.intersect s2 s1) with
      | None, None -> true
      | Some a, Some b -> Section.equal a b
      | Some _, None | None, Some _ -> false)

let test_union_upper_bound =
  Helpers.qtest ~count:500 "union contains both operands" section_pair_gen (fun (s1, s2) ->
      let u = Section.union s1 s2 in
      Section.contains ~outer:u ~inner:s1 && Section.contains ~outer:u ~inner:s2)

let test_containment_monotone_under_union =
  Helpers.qtest ~count:500 "containment is monotone under union" section_triple_gen
    (fun (outer, inner, extra) ->
      (* Growing the outer section by a union can never lose a
         containment — the property that keeps the race pass's
         region accumulation sound. *)
      QCheck2.assume (Section.contains ~outer ~inner);
      Section.contains ~outer:(Section.union outer extra) ~inner)

let test_overlap_symmetric =
  Helpers.qtest ~count:500 "overlap is symmetric" section_pair_gen (fun (s1, s2) ->
      Section.overlap s1 s2 = Section.overlap s2 s1)

(* Parser satellite: path-qualified errors, duplicate-name rejection. *)

let test_parser_duplicate_kernel_rejected () =
  let e =
    Helpers.check_error "duplicate kernel"
      (Gpp_skeleton.Parser.parse
         {|
program dup
array a dense 16
kernel k
  loop i parallel 16
  load a [i]
end
kernel k
  loop i parallel 16
  load a [i]
end
schedule
  call k
end
|})
  in
  Helpers.check_contains "mentions the duplicate" ~needle:"duplicate kernel name k" e

let test_parser_duplicate_array_rejected () =
  let e =
    Helpers.check_error "duplicate array"
      (Gpp_skeleton.Parser.parse
         {|
program dup
array a dense 16
array a dense 32
kernel k
  loop i parallel 16
  load a [i]
end
schedule
  call k
end
|})
  in
  Helpers.check_contains "mentions the duplicate" ~needle:"duplicate array name a" e;
  Helpers.check_contains "carries the line" ~needle:"line 4" e

let test_parser_error_carries_path () =
  let e =
    Helpers.check_error "path prefix"
      (Gpp_skeleton.Parser.parse ~path:"broken.skel" "program p\nnonsense here\n")
  in
  Helpers.check_contains "path first" ~needle:"broken.skel: line 2" e

let test_parse_file_error_carries_path () =
  let path = Filename.temp_file "gpp_lint_fixture" ".skel" in
  Out_channel.with_open_text path (fun oc ->
      output_string oc "program p\narray a dense 16\nbogus\n");
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let e = Helpers.check_error "parse_file" (Gpp_skeleton.Parser.parse_file path) in
      Helpers.check_contains "path in message" ~needle:path e;
      Helpers.check_contains "line in message" ~needle:"line 3" e)

let test_parse_file_validation_error_carries_path () =
  let path = Filename.temp_file "gpp_lint_fixture" ".skel" in
  Out_channel.with_open_text path (fun oc ->
      output_string oc
        "program p\narray a dense 16\nkernel k\n  loop i parallel 16\n  load a [i]\nend\nschedule\n  call missing\nend\n");
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let e = Helpers.check_error "parse_file" (Gpp_skeleton.Parser.parse_file path) in
      Helpers.check_contains "path in message" ~needle:path e;
      Helpers.check_contains "validation text" ~needle:"undefined kernel" e)

let () =
  Alcotest.run "analysis"
    [
      ( "fixtures",
        [
          Alcotest.test_case "clean program" `Quick test_clean_program;
          Alcotest.test_case "GPP101 store out of bounds" `Quick test_gpp101_store_out_of_bounds;
          Alcotest.test_case "GPP102 halo load" `Quick test_gpp102_halo_load;
          Alcotest.test_case "GPP103 fully out of bounds" `Quick test_gpp103_fully_out_of_bounds;
          Alcotest.test_case "GPP201 independent store" `Quick test_gpp201_parallel_independent_store;
          Alcotest.test_case "GPP201 serial ok" `Quick test_gpp201_serial_loop_is_fine;
          Alcotest.test_case "GPP202 overlapping stores" `Quick test_gpp202_overlapping_stores;
          Alcotest.test_case "GPP203 read after write" `Quick test_gpp203_read_after_write;
          Alcotest.test_case "GPP203 in-place ok" `Quick test_gpp203_in_place_update_is_fine;
          Alcotest.test_case "GPP301 dead temporary" `Quick test_gpp301_dead_temporary_write;
          Alcotest.test_case "GPP301 consumed ok + GPP302" `Quick test_gpp301_consumed_temporary_is_fine;
          Alcotest.test_case "GPP303 conservative fallback" `Quick test_gpp303_conservative_fallback;
          Alcotest.test_case "GPP401 strided access" `Quick test_gpp401_strided_access;
          Alcotest.test_case "GPP402 divergent branch" `Quick test_gpp402_divergent_branch;
          Alcotest.test_case "GPP402 uniform ok" `Quick test_gpp402_uniform_branch_is_fine;
          Alcotest.test_case "perf lints skip cold kernels" `Quick test_perf_lints_skip_cold_kernels;
          Alcotest.test_case "GPP501 duplicate arrays" `Quick test_gpp501_duplicate_arrays;
          Alcotest.test_case "GPP502 duplicate kernels" `Quick test_gpp502_duplicate_kernels;
          Alcotest.test_case "GPP503 unused array" `Quick test_gpp503_unused_array;
          Alcotest.test_case "GPP504 unscheduled kernel" `Quick test_gpp504_unscheduled_kernel;
          Alcotest.test_case "GPP505 idle temporary" `Quick test_gpp505_never_written_temporary;
          Alcotest.test_case "via-array is a use" `Quick test_indirect_index_array_counts_as_referenced;
          Alcotest.test_case "GPP601 redundant upload" `Quick test_gpp601_redundant_upload;
          Alcotest.test_case "GPP602 dead download" `Quick test_gpp602_dead_download;
          Alcotest.test_case "GPP603 hoistable upload" `Quick test_gpp603_hoistable_upload;
          Alcotest.test_case "GPP603 single iteration ok" `Quick test_gpp603_silent_without_iteration;
          Alcotest.test_case "GPP604 unreachable extent" `Quick test_gpp604_unreachable_extent;
        ] );
      ( "workloads",
        [
          Alcotest.test_case "bundled strict-clean" `Quick test_bundled_workloads_strict_clean;
          Alcotest.test_case "export round-trip" `Quick test_bundled_workloads_roundtrip_clean;
        ] );
      ( "driver",
        [
          Alcotest.test_case "sorted and deduped" `Quick test_report_sorted_and_deduped;
          Alcotest.test_case "code index" `Quick test_code_index_covers_report_codes;
          Alcotest.test_case "find_code lookup" `Quick test_find_code_lookup;
          Alcotest.test_case "nearest_code suggestion" `Quick test_nearest_code_suggestion;
        ] );
      ( "json",
        [
          Alcotest.test_case "schema round-trip" `Quick test_json_schema_roundtrip;
          Alcotest.test_case "multi-report array" `Quick test_json_reports_array;
          Alcotest.test_case "SARIF schema shape" `Quick test_sarif_schema;
        ] );
      ( "section laws",
        [
          test_intersect_commutative;
          test_union_upper_bound;
          test_containment_monotone_under_union;
          test_overlap_symmetric;
        ] );
      ( "parser",
        [
          Alcotest.test_case "duplicate kernel rejected" `Quick test_parser_duplicate_kernel_rejected;
          Alcotest.test_case "duplicate array rejected" `Quick test_parser_duplicate_array_rejected;
          Alcotest.test_case "error carries path" `Quick test_parser_error_carries_path;
          Alcotest.test_case "parse_file error carries path" `Quick test_parse_file_error_carries_path;
          Alcotest.test_case "validation error carries path" `Quick
            test_parse_file_validation_error_carries_path;
        ] );
    ]
