type t =
  | Parse of { source : string option; message : string }
  | Lint of { program : string; errors : int; warnings : int }
  | Projection of { kernel : string option; message : string }
  | Calibration of { machine : string option; message : string }
  | Simulation of { kernel : string option; message : string }
  | Cache of { path : string option; message : string }
  | Io of { path : string option; message : string }
  | Config of { source : string option; message : string }
  | Usage of string

let parse ?source message = Parse { source; message }

let projection ?kernel message = Projection { kernel; message }

let simulation ?kernel message = Simulation { kernel; message }

let calibration ?machine message = Calibration { machine; message }

let cache ?path message = Cache { path; message }

let io ?path message = Io { path; message }

let config ?source message = Config { source; message }

let usage message = Usage message

(* The payload messages are complete sentences as the CLI has always
   printed them (several are golden-tested downstream), so rendering is
   just the message — the constructors exist for programmatic dispatch,
   not for prefixing. *)
let message = function
  | Parse { message; _ }
  | Projection { message; _ }
  | Calibration { message; _ }
  | Simulation { message; _ }
  | Cache { message; _ }
  | Io { message; _ }
  | Config { message; _ } ->
      message
  | Lint { program; errors; warnings } ->
      Printf.sprintf "%s: lint found %d error(s) and %d warning(s)" program errors warnings
  | Usage message -> message

let with_message e message =
  match e with
  | Parse p -> Parse { p with message }
  | Projection p -> Projection { p with message }
  | Calibration p -> Calibration { p with message }
  | Simulation p -> Simulation { p with message }
  | Cache p -> Cache { p with message }
  | Io p -> Io { p with message }
  | Config p -> Config { p with message }
  | Usage _ -> Usage message
  | Lint _ -> Projection { kernel = None; message }

let category = function
  | Parse _ -> "parse"
  | Lint _ -> "lint"
  | Projection _ -> "projection"
  | Calibration _ -> "calibration"
  | Simulation _ -> "simulation"
  | Cache _ -> "cache"
  | Io _ -> "io"
  | Config _ -> "config"
  | Usage _ -> "usage"

(* One exit-code space for every consumer (documented in the CLI man
   page): 2 for requests that could never succeed (unknown workload,
   malformed input or configuration), 1 for operations that were asked
   for correctly but failed. *)
let exit_code = function
  | Parse _ | Config _ | Usage _ -> 2
  | Lint _ | Projection _ | Calibration _ | Simulation _ | Cache _ | Io _ -> 1

let pp ppf e = Format.pp_print_string ppf (message e)

let to_string = message
