(* Tests for Gpp_util: RNG, statistics, units, tables, plots, JSON. *)

module Json = Gpp_util.Json
module Rng = Gpp_util.Rng
module Stats = Gpp_util.Stats
module Units = Gpp_util.Units

(* Rng *)

let test_rng_determinism () =
  let a = Rng.create 42L and b = Rng.create 42L in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.next_int64 a) (Rng.next_int64 b)
  done

let test_rng_copy_independent () =
  let a = Rng.create 7L in
  ignore (Rng.next_int64 a);
  let b = Rng.copy a in
  Alcotest.(check int64) "copy continues identically" (Rng.next_int64 a) (Rng.next_int64 b);
  (* Advancing one does not affect the other. *)
  ignore (Rng.next_int64 a);
  ignore (Rng.next_int64 a);
  let x = Rng.next_int64 a and y = Rng.next_int64 b in
  Alcotest.(check bool) "streams diverge after unequal advances" true (x <> y)

let test_rng_split_differs () =
  let parent = Rng.create 1L in
  let child = Rng.split parent in
  let xs = List.init 20 (fun _ -> Rng.next_int64 parent) in
  let ys = List.init 20 (fun _ -> Rng.next_int64 child) in
  Alcotest.(check bool) "split stream differs from parent" true (xs <> ys)

let test_rng_float_range =
  Helpers.qtest "float in [0,1)" QCheck2.Gen.int64 (fun seed ->
      let rng = Rng.create seed in
      let v = Rng.float rng in
      v >= 0.0 && v < 1.0)

let test_rng_uniform_range =
  Helpers.qtest "uniform in [lo,hi)"
    QCheck2.Gen.(triple int64 (float_range (-100.) 100.) (float_range 0.001 50.))
    (fun (seed, lo, width) ->
      let rng = Rng.create seed in
      let v = Rng.uniform rng ~lo ~hi:(lo +. width) in
      v >= lo && v < lo +. width)

(* A fill is [n] [uniform] calls: the same bits in the same order, and
   the generator left at the same state.  The cells past [n] keep their
   contents. *)
let test_rng_fill_uniform =
  Helpers.qtest "fill_uniform = n sequential uniform draws"
    QCheck2.Gen.(quad int64 (float_range (-100.) 100.) (float_range 0.0 50.) (int_range 0 300))
    (fun (seed, lo, width, n) ->
      let hi = lo +. width in
      let filled = Rng.create seed and drawn = Rng.create seed in
      let a = Array.make (n + 3) Float.nan in
      Rng.fill_uniform filled ~lo ~hi a n;
      let bits = Int64.bits_of_float in
      List.for_all
        (fun i -> bits a.(i) = bits (Rng.uniform drawn ~lo ~hi))
        (List.init n Fun.id)
      && List.for_all (fun i -> Float.is_nan a.(i)) [ n; n + 1; n + 2 ]
      && Rng.next_int64 filled = Rng.next_int64 drawn)

let test_rng_int_bound =
  Helpers.qtest "int in [0,bound)"
    QCheck2.Gen.(pair int64 (int_range 1 1000))
    (fun (seed, bound) ->
      let rng = Rng.create seed in
      let v = Rng.int rng ~bound in
      v >= 0 && v < bound)

let test_rng_gaussian_moments () =
  let rng = Rng.create 2024L in
  let n = 20000 in
  let samples = List.init n (fun _ -> Rng.gaussian rng ~mu:3.0 ~sigma:2.0) in
  Helpers.close ~tolerance:0.1 "mean" 3.0 (Stats.mean samples);
  Helpers.close ~tolerance:0.1 "stddev" 2.0 (Stats.stddev samples)

let test_rng_lognormal_median () =
  let rng = Rng.create 5L in
  let samples = List.init 10001 (fun _ -> Rng.lognormal_noise rng ~sigma:0.1) in
  Helpers.close ~tolerance:0.02 "median near 1" 1.0 (Stats.median samples);
  List.iter (fun s -> Helpers.check_positive "noise factor" s) samples

(* Known answers.  The raw streams are SplitMix64's published vectors;
   the derived draws, taken in order from one seed-42 stream, were
   recorded from the boxed-[int64] implementation, with floats as their
   IEEE bits.  A change to the state representation must keep them all,
   and so also how many raw draws each derived draw consumes. *)
let test_rng_known_answers () =
  let hex = Printf.sprintf "%016Lx" in
  let bits f = hex (Int64.bits_of_float f) in
  let first_three seed =
    let rng = Rng.create seed in
    let a = Rng.next_int64 rng in
    let b = Rng.next_int64 rng in
    let c = Rng.next_int64 rng in
    String.concat " " [ hex a; hex b; hex c ]
  in
  Alcotest.(check string)
    "seed 0" "e220a8397b1dcdaf 6e789e6aa1b965f4 06c45d188009454f" (first_three 0L);
  Alcotest.(check string)
    "seed 1234567" "599ed017fb08fc85 2c73f08458540fa5 883ebce5a3f27c77" (first_three 1234567L);
  let rng = Rng.create 42L in
  Alcotest.(check string) "float" "3fe7bae644c5fd6d" (bits (Rng.float rng));
  Alcotest.(check string)
    "uniform" "bfba1e6f0a174784"
    (bits (Rng.uniform rng ~lo:(-0.15) ~hi:0.15));
  Alcotest.(check string)
    "gaussian" "bfe914a9e9d234f8"
    (bits (Rng.gaussian rng ~mu:1.0 ~sigma:2.0));
  Alcotest.(check string)
    "lognormal_noise" "3ff055e6bd067ab4"
    (bits (Rng.lognormal_noise rng ~sigma:0.012));
  Alcotest.(check int) "int" 462 (Rng.int rng ~bound:1000);
  Alcotest.(check bool) "bool 1" false (Rng.bool rng);
  Alcotest.(check bool) "bool 2" true (Rng.bool rng);
  Alcotest.(check bool) "bool 3" false (Rng.bool rng);
  let child = Rng.split rng in
  Alcotest.(check string) "split" "20250ec3a5ad4a25" (hex (Rng.next_int64 child));
  let copy = Rng.copy rng in
  Alcotest.(check string) "after split" "7e348a0e451650be" (hex (Rng.next_int64 rng));
  Alcotest.(check string) "copy" "7e348a0e451650be" (hex (Rng.next_int64 copy))

(* Stats *)

let test_mean_and_variance () =
  Helpers.close "mean" 2.0 (Stats.mean [ 1.0; 2.0; 3.0 ]);
  (* Sample variance (Bessel's correction): sum of squares 2 over n-1 = 2. *)
  Helpers.close "variance" 1.0 (Stats.variance [ 1.0; 2.0; 3.0 ]);
  Helpers.close "stddev" 1.0 (Stats.stddev [ 1.0; 2.0; 3.0 ]);
  Helpers.close "singleton variance" 0.0 (Stats.variance [ 42.0 ]);
  Helpers.close "singleton stddev" 0.0 (Stats.stddev [ 42.0 ]);
  Helpers.check_raises_invalid "empty mean" (fun () -> Stats.mean [])

let test_geomean () =
  Helpers.close "geomean" 4.0 (Stats.geomean [ 2.0; 8.0 ]);
  Helpers.check_raises_invalid "non-positive" (fun () -> Stats.geomean [ 1.0; 0.0 ])

let test_median () =
  Helpers.close "odd" 3.0 (Stats.median [ 5.0; 1.0; 3.0 ]);
  Helpers.close "even" 2.5 (Stats.median [ 4.0; 1.0; 2.0; 3.0 ])

let test_min_max () =
  let lo, hi = Stats.min_max [ 3.0; -1.0; 2.0 ] in
  Helpers.close "min" (-1.0) lo;
  Helpers.close "max" 3.0 hi

let test_error_magnitude () =
  Helpers.close "over-prediction" 50.0 (Stats.error_magnitude ~predicted:3.0 ~measured:2.0);
  Helpers.close "under-prediction" 50.0 (Stats.error_magnitude ~predicted:1.0 ~measured:2.0);
  Helpers.close "signed" (-50.0) (Stats.percent_difference ~predicted:1.0 ~measured:2.0);
  Helpers.check_raises_invalid "zero measured" (fun () ->
      Stats.error_magnitude ~predicted:1.0 ~measured:0.0)

let test_mean_error_magnitude () =
  Helpers.close "pairs" 25.0 (Stats.mean_error_magnitude [ (1.0, 2.0); (2.0, 2.0) ])

let test_least_squares_exact () =
  let points = List.init 10 (fun i -> (float_of_int i, 3.0 +. (2.0 *. float_of_int i))) in
  let fit = Stats.least_squares points in
  Helpers.close "intercept" 3.0 fit.Stats.intercept;
  Helpers.close "slope" 2.0 fit.Stats.slope;
  Helpers.close "r2" 1.0 fit.Stats.r_squared

let test_least_squares_errors () =
  Helpers.check_raises_invalid "one point" (fun () -> Stats.least_squares [ (1.0, 1.0) ]);
  Helpers.check_raises_invalid "degenerate x" (fun () ->
      Stats.least_squares [ (1.0, 1.0); (1.0, 2.0) ])

let test_least_squares_recovers_line =
  Helpers.qtest ~count:50 "fit recovers arbitrary line"
    QCheck2.Gen.(pair (float_range (-10.) 10.) (float_range (-10.) 10.))
    (fun (a, b) ->
      let points = List.init 5 (fun i -> (float_of_int i, a +. (b *. float_of_int i))) in
      let fit = Stats.least_squares points in
      Float.abs (fit.Stats.intercept -. a) < 1e-6 && Float.abs (fit.Stats.slope -. b) < 1e-6)

let test_summarize () =
  let s = Stats.summarize [ 1.0; 2.0; 3.0 ] in
  Alcotest.(check int) "n" 3 s.Stats.n;
  Helpers.close "mean" 2.0 s.Stats.sum_mean;
  Helpers.close "min" 1.0 s.Stats.sum_min;
  Helpers.close "max" 3.0 s.Stats.sum_max

(* Units *)

let test_unit_constants () =
  Alcotest.(check int) "kib" 1024 Units.kib;
  Alcotest.(check int) "mib" (1024 * 1024) Units.mib;
  Alcotest.(check int) "4 MiB" (4 * Units.mib) (Units.bytes_of_mib 4.0);
  Helpers.close "mib roundtrip" 3.5 (Units.mib_of_bytes (Units.bytes_of_mib 3.5));
  Helpers.close "us" 1e-5 (Units.us 10.0);
  Helpers.close "ms roundtrip" 2.5 (Units.ms_of_seconds (Units.ms 2.5));
  Helpers.close "gb/s" 2.5e9 (Units.gb_per_s 2.5)

let test_unit_formatting () =
  Alcotest.(check string) "bytes" "512 B" (Units.bytes_to_string 512);
  Alcotest.(check string) "kib" "2.0 KiB" (Units.bytes_to_string 2048);
  Alcotest.(check string) "mib" "512.0 MiB" (Units.bytes_to_string (512 * Units.mib));
  Alcotest.(check string) "time us" "13.00 us" (Units.time_to_string 13e-6);
  Alcotest.(check string) "time ms" "4.620 ms" (Units.time_to_string 4.62e-3);
  Alcotest.(check string) "bandwidth" "2.50 GB/s" (Units.bandwidth_to_string 2.5e9)

let test_parse_bytes () =
  let check s expected =
    match Units.parse_bytes s with
    | Some v -> Alcotest.(check int) s expected v
    | None -> Alcotest.failf "parse_bytes %S returned None" s
  in
  check "97000" 97000;
  check "4 KiB" 4096;
  check "512MiB" (512 * Units.mib);
  check "1.5 GiB" (3 * Units.gib / 2);
  check "64kb" (64 * Units.kib);
  check "2M" (2 * Units.mib);
  Alcotest.(check (option int)) "garbage" None (Units.parse_bytes "abc");
  Alcotest.(check (option int)) "bad suffix" None (Units.parse_bytes "12 pb");
  Alcotest.(check (option int)) "negative" None (Units.parse_bytes "-5")

(* Sizes outside an int byte count must be rejected, not silently
   wrapped by [int_of_float] into a garbage (possibly negative) count. *)
let test_bytes_overflow () =
  Alcotest.(check (option int)) "overflowing GiB count" None
    (Units.parse_bytes "99999999999999 GiB");
  Alcotest.(check (option int)) "overflowing plain count" None
    (Units.parse_bytes "99999999999999999999");
  Alcotest.(check (option int)) "infinite value" None (Units.parse_bytes "1e999 KiB");
  (* Largest whole GiB count that still fits an int on 64-bit. *)
  (match Units.parse_bytes "4294967295 GiB" with
  | Some v -> Alcotest.(check bool) "near-max GiB is positive" true (v > 0)
  | None -> Alcotest.fail "4294967295 GiB should parse");
  Helpers.check_raises_invalid "bytes_of_gib overflow" (fun () ->
      ignore (Units.bytes_of_gib 1e30));
  Helpers.check_raises_invalid "bytes_of_gib nan" (fun () -> ignore (Units.bytes_of_gib Float.nan));
  Helpers.check_raises_invalid "bytes_of_gib infinity" (fun () ->
      ignore (Units.bytes_of_gib Float.infinity));
  Helpers.check_raises_invalid "bytes_of_kib negative" (fun () ->
      ignore (Units.bytes_of_kib (-1.0)));
  Helpers.check_raises_invalid "bytes_of_mib overflow" (fun () ->
      ignore (Units.bytes_of_mib 1e18));
  Alcotest.(check int) "max_int boundary itself is rejected, below is fine" (4 * Units.gib)
    (Units.bytes_of_gib 4.0)

let test_parse_format_roundtrip =
  Helpers.qtest "format then parse is identity on whole KiB"
    QCheck2.Gen.(int_range 1 4096)
    (fun kib ->
      let bytes = kib * Units.kib in
      match Units.parse_bytes (Units.bytes_to_string bytes) with
      | Some parsed ->
          (* Formatting rounds to one decimal; allow that loss. *)
          Float.abs (float_of_int (parsed - bytes)) /. float_of_int bytes < 0.06
      | None -> false)

(* Ascii table / plot *)

let test_table_rendering () =
  let t =
    Gpp_util.Ascii_table.create ~title:"T"
      ~columns:[ ("a", Gpp_util.Ascii_table.Left); ("b", Gpp_util.Ascii_table.Right) ]
      ()
  in
  Gpp_util.Ascii_table.add_row t [ "x"; "1" ];
  Gpp_util.Ascii_table.add_separator t;
  Gpp_util.Ascii_table.add_row t [ "longer"; "22" ];
  let rendered = Gpp_util.Ascii_table.render t in
  Helpers.check_contains "has title" ~needle:"T" rendered;
  Helpers.check_contains "contains cell" ~needle:"longer" rendered;
  Helpers.check_contains "right-aligned number" ~needle:"22" rendered;
  Helpers.check_raises_invalid "bad row width" (fun () ->
      Gpp_util.Ascii_table.add_row t [ "only one" ])

let test_plot_rendering () =
  let series =
    Gpp_util.Ascii_plot.series ~label:"s" ~glyph:'*'
      [ (1.0, 1.0); (10.0, 100.0); (100.0, 10000.0) ]
  in
  let plot =
    Gpp_util.Ascii_plot.create ~x_scale:Gpp_util.Ascii_plot.Log ~y_scale:Gpp_util.Ascii_plot.Log
      ~title:"quadratic" ~x_label:"x" ~y_label:"y" [ series ]
  in
  let rendered = Gpp_util.Ascii_plot.render plot in
  Alcotest.(check bool) "mentions glyph" true (String.contains rendered '*');
  Alcotest.(check bool) "mentions legend" true (String.length rendered > 50)

let test_plot_empty () =
  let plot =
    Gpp_util.Ascii_plot.create ~title:"empty" ~x_label:"x" ~y_label:"y"
      [ Gpp_util.Ascii_plot.series ~label:"none" ~glyph:'.' [] ]
  in
  Alcotest.(check bool) "renders something" true
    (String.length (Gpp_util.Ascii_plot.render plot) > 0)

let test_plot_drops_nonpositive_on_log () =
  let plot =
    Gpp_util.Ascii_plot.create ~x_scale:Gpp_util.Ascii_plot.Log ~title:"log" ~x_label:"x"
      ~y_label:"y"
      [ Gpp_util.Ascii_plot.series ~label:"s" ~glyph:'o' [ (-1.0, 1.0); (0.0, 2.0); (10.0, 3.0) ] ]
  in
  (* Must not raise despite non-positive x values on a log axis. *)
  Alcotest.(check bool) "renders" true (String.length (Gpp_util.Ascii_plot.render plot) > 0)

(* JSON *)

(* Byte strings weighted toward the bytes an escaper can get wrong:
   control bytes, the quote, the backslash, DEL, and non-ASCII. *)
let awkward_string =
  let open QCheck2.Gen in
  string_of
    (frequency
       [
         (3, char_range ' ' '~');
         (2, oneofl [ '\x00'; '\x01'; '\b'; '\x0c'; '\n'; '\r'; '\t'; '\x1f'; '"'; '\\'; '\x7f' ]);
         (1, char_range '\x80' '\xff');
       ])

let test_codec_strings_roundtrip =
  Helpers.qtest "parse (string s) = Str s" awkward_string (fun s ->
      Json.parse (Json.string s) = Ok (Json.Str s))

let test_codec_int64_roundtrip =
  Helpers.qtest "int64 lexemes stay exact"
    QCheck2.Gen.(oneof [ int64; oneofl [ Int64.min_int; Int64.max_int; 0L; 9007199254740993L ] ])
    (fun i -> Json.parse (Int64.to_string i) = Ok (Json.Int i))

(* The one escaping rule, pinned: short escapes for \n \r \t, \u00XX for
   the other control bytes, DEL and non-ASCII verbatim. *)
let test_codec_escape_rule () =
  List.iter
    (fun (raw, escaped) -> Alcotest.(check string) (String.escaped raw) escaped (Json.escape raw))
    [
      ("\n", {|\n|});
      ("\r", {|\r|});
      ("\t", {|\t|});
      ("\x01", {|\u0001|});
      ("\x7f", "\x7f");
      ("\"", {|\"|});
      ("\\", {|\\|});
      ("plain \xc3\xa9", "plain \xc3\xa9");
    ]

let test_codec_parse_cases () =
  let ok text expected =
    match Json.parse text with
    | Ok v -> Alcotest.(check bool) text true (v = expected)
    | Error e -> Alcotest.failf "%s: %s" text e
  in
  let bad text =
    match Json.parse text with
    | Ok _ -> Alcotest.failf "%s: expected a parse error" text
    | Error _ -> ()
  in
  (* \u escapes decode to UTF-8, surrogate pairs included. *)
  ok {|"a\u002fb"|} (Json.Str "a/b");
  ok {|"\u00e9"|} (Json.Str "\xc3\xa9");
  ok {|"\u20ac"|} (Json.Str "\xe2\x82\xac");
  ok {|"\ud83d\ude00"|} (Json.Str "\xf0\x9f\x98\x80");
  bad {|"\ud83d"|};
  bad {|"\ude00"|};
  bad {|"\ud83dx"|};
  (* Integer lexemes are exact; everything else is a float. *)
  ok "9007199254740993" (Json.Int 9007199254740993L);
  ok "-0" (Json.Int 0L);
  ok "1e30" (Json.Float 1e30);
  ok "2.5" (Json.Float 2.5);
  ok "99999999999999999999" (Json.Float 1e20);
  bad "01";
  bad "1.";
  bad "-";
  ok {| {"k": [true, false, null], "n": {}} |}
    (Json.Obj [ ("k", Json.Arr [ Json.Bool true; Json.Bool false; Json.Null ]); ("n", Json.Obj []) ]);
  bad "{\"a\":1,}";
  bad "[1] 2";
  bad "\"raw \n newline\"";
  Alcotest.(check (option (float 0.))) "number of Int" (Some 3.) (Json.number (Json.Int 3L));
  Alcotest.(check bool) "member" true
    (Json.member "b" (Json.Obj [ ("a", Json.Null); ("b", Json.Bool true) ]) = Some (Json.Bool true))

let () =
  Alcotest.run "gpp_util"
    [
      ( "rng",
        [
          Alcotest.test_case "determinism" `Quick test_rng_determinism;
          Alcotest.test_case "copy" `Quick test_rng_copy_independent;
          Alcotest.test_case "split" `Quick test_rng_split_differs;
          test_rng_float_range;
          test_rng_uniform_range;
          test_rng_fill_uniform;
          test_rng_int_bound;
          Alcotest.test_case "gaussian moments" `Quick test_rng_gaussian_moments;
          Alcotest.test_case "lognormal median" `Quick test_rng_lognormal_median;
          Alcotest.test_case "known answers" `Quick test_rng_known_answers;
        ] );
      ( "stats",
        [
          Alcotest.test_case "mean/variance" `Quick test_mean_and_variance;
          Alcotest.test_case "geomean" `Quick test_geomean;
          Alcotest.test_case "median" `Quick test_median;
          Alcotest.test_case "min_max" `Quick test_min_max;
          Alcotest.test_case "error magnitude" `Quick test_error_magnitude;
          Alcotest.test_case "mean error magnitude" `Quick test_mean_error_magnitude;
          Alcotest.test_case "least squares exact" `Quick test_least_squares_exact;
          Alcotest.test_case "least squares errors" `Quick test_least_squares_errors;
          test_least_squares_recovers_line;
          Alcotest.test_case "summarize" `Quick test_summarize;
        ] );
      ( "units",
        [
          Alcotest.test_case "constants" `Quick test_unit_constants;
          Alcotest.test_case "formatting" `Quick test_unit_formatting;
          Alcotest.test_case "parsing" `Quick test_parse_bytes;
          Alcotest.test_case "overflow guards" `Quick test_bytes_overflow;
          test_parse_format_roundtrip;
        ] );
      ( "rendering",
        [
          Alcotest.test_case "table" `Quick test_table_rendering;
          Alcotest.test_case "plot" `Quick test_plot_rendering;
          Alcotest.test_case "plot empty" `Quick test_plot_empty;
          Alcotest.test_case "plot log guards" `Quick test_plot_drops_nonpositive_on_log;
        ] );
      ( "json",
        [
          test_codec_strings_roundtrip;
          test_codec_int64_roundtrip;
          Alcotest.test_case "escape table" `Quick test_codec_escape_rule;
          Alcotest.test_case "parse cases" `Quick test_codec_parse_cases;
        ] );
    ]
