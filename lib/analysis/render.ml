module D = Diagnostic

let pp_text ppf (report : Driver.report) =
  let e = Driver.errors report and w = Driver.warnings report and i = Driver.infos report in
  Format.fprintf ppf "@[<v>lint %s:@," report.program_name;
  List.iter (fun d -> Format.fprintf ppf "  %a@," D.pp d) report.diagnostics;
  if e + w + i = 0 then Format.fprintf ppf "  clean: no findings@,"
  else
    Format.fprintf ppf "  %d error%s, %d warning%s, %d note%s@," e
      (if e = 1 then "" else "s")
      w
      (if w = 1 then "" else "s")
      i
      (if i = 1 then "" else "s");
  Format.fprintf ppf "@]"

module Json = Gpp_util.Json

let payload_to_json = function
  | D.String s -> Json.string s
  | D.Int i -> string_of_int i
  | D.Float f -> Json.float f
  | D.Bool b -> if b then "true" else "false"

let diagnostic_to_json (d : D.t) =
  let optional key = function Some v -> [ (key, Json.string v) ] | None -> [] in
  Json.obj
    ([
       ("code", Json.string d.code);
       ("severity", Json.string (D.severity_name d.severity));
     ]
    @ optional "kernel" d.location.kernel
    @ optional "array" d.location.array
    @ optional "detail" d.location.detail
    @ [
        ("message", Json.string d.message);
        ("payload", Json.obj (List.map (fun (k, v) -> (k, payload_to_json v)) d.payload));
      ])

let to_json (report : Driver.report) =
  Json.obj
    [
      ("program", Json.string report.program_name);
      ("valid", if report.valid then "true" else "false");
      ( "summary",
        Json.obj
          [
            ("errors", string_of_int (Driver.errors report));
            ("warnings", string_of_int (Driver.warnings report));
            ("infos", string_of_int (Driver.infos report));
          ] );
      ("passes", Json.arr (List.map Json.string report.passes_run));
      ("diagnostics", Json.arr (List.map diagnostic_to_json report.diagnostics));
    ]

let to_json_list reports = Json.arr (List.map to_json reports)
