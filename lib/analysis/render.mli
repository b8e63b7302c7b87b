(** Report renderers for [grophecy lint]. *)

val pp_text : Format.formatter -> Driver.report -> unit
(** Human-readable listing: one line per diagnostic plus a summary
    tally (or a "clean" line when there is nothing to say). *)

val to_json : Driver.report -> string
(** Machine-readable report:
    {v
    { "program": ..., "valid": ...,
      "summary": {"errors": n, "warnings": n, "infos": n},
      "passes": [...],
      "diagnostics": [
        {"code": ..., "severity": ..., "message": ...,
         "kernel"?: ..., "array"?: ..., "detail"?: ...,
         "payload": {...}}, ...] }
    v}
    Location fields are omitted when absent; payload values keep their
    types (string/int/float/bool). *)

val to_json_list : Driver.report list -> string
(** Several programs linted in one invocation, as a JSON array. *)

val payload_to_json : Diagnostic.payload_value -> string
(** A diagnostic payload value as JSON, keeping its type; shared with
    the SARIF exporter ({!Sarif}). *)
