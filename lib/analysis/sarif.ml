(* SARIF 2.1.0 writer (see sarif.mli).  Field names and nesting follow
   the OASIS sarif-schema-2.1.0; only the required subset plus logical
   locations and properties is emitted. *)

module D = Diagnostic
module Json = Gpp_util.Json

let schema_uri =
  "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/Schemata/sarif-schema-2.1.0.json"

let level_of_severity = function
  | D.Error -> "error"
  | D.Warning -> "warning"
  | D.Info -> "note"

let text s = Json.obj [ ("text", Json.string s) ]

let rule_of_doc (doc : Pass.code_doc) =
  Json.obj
    [
      ("id", Json.string doc.code);
      ("shortDescription", text doc.summary);
      ("fullDescription", text doc.explanation);
      ("help", text doc.fix);
      ( "defaultConfiguration",
        Json.obj [ ("level", Json.string (level_of_severity doc.severity)) ] );
    ]

(* program/kernel/array, most specific part last; SARIF wants a single
   fully-qualified name per logical location. *)
let logical_location ~program (d : D.t) =
  let parts =
    [ Some program; d.location.kernel; d.location.array ] |> List.filter_map Fun.id
  in
  let kind =
    match (d.location.kernel, d.location.array) with
    | _, Some _ -> "variable"
    | Some _, None -> "function"
    | None, None -> "module"
  in
  Json.obj
    [
      ("fullyQualifiedName", Json.string (String.concat "/" parts));
      ("kind", Json.string kind);
    ]

let result_of ~program ~rule_index_of (d : D.t) =
  let properties =
    ("program", Json.string program)
    :: (match d.location.detail with
       | Some detail -> [ ("detail", Json.string detail) ]
       | None -> [])
    @ List.map (fun (k, v) -> (k, Render.payload_to_json v)) d.payload
  in
  Json.obj
    ([ ("ruleId", Json.string d.code) ]
    @ (match rule_index_of d.code with
      | Some i -> [ ("ruleIndex", string_of_int i) ]
      | None -> [])
    @ [
        ("level", Json.string (level_of_severity d.severity));
        ("message", text d.message);
        ( "locations",
          Json.arr
            [ Json.obj [ ("logicalLocations", Json.arr [ logical_location ~program d ]) ] ]
        );
        ("properties", Json.obj properties);
      ])

let of_reports (reports : Driver.report list) =
  let rules = Driver.code_index () in
  let rule_index_of code =
    let rec go i = function
      | [] -> None
      | (doc : Pass.code_doc) :: rest -> if doc.code = code then Some i else go (i + 1) rest
    in
    go 0 rules
  in
  let results =
    List.concat_map
      (fun (r : Driver.report) ->
        List.map (result_of ~program:r.Driver.program_name ~rule_index_of) r.Driver.diagnostics)
      reports
  in
  let driver =
    Json.obj
      [
        ("name", Json.string "grophecy");
        ("version", Json.string "1.0.0");
        ("rules", Json.arr (List.map rule_of_doc rules));
      ]
  in
  Json.obj
    [
      ("$schema", Json.string schema_uri);
      ("version", Json.string "2.1.0");
      ( "runs",
        Json.arr
          [
            Json.obj
              [
                ("tool", Json.obj [ ("driver", driver) ]);
                ("results", Json.arr results);
              ];
          ] );
    ]
