(* Self-contained Chrome-trace validation: the shared JSON parser plus
   structural checks over the event array, so CI can gate on trace
   well-formedness without any external tooling (`grophecy trace
   selftest`). *)

module Json = Gpp_util.Json

(* Trace-level checks. *)

type stats = {
  events : int;
  spans : int;  (* matched B/E pairs *)
  instants : int;
  counter_samples : int;
  max_depth : int;
}

let err fmt = Printf.ksprintf (fun s -> Error s) fmt

let validate_events events =
  (* B/E nesting is tracked per (pid, tid): concurrent domains each
     write their own properly nested track, and tracks interleave
     freely in the event stream. *)
  let open_spans : (float * float, string list) Hashtbl.t = Hashtbl.create 4 in
  let spans_of track = Option.value (Hashtbl.find_opt open_spans track) ~default:[] in
  let stats = ref { events = 0; spans = 0; instants = 0; counter_samples = 0; max_depth = 0 } in
  let rec go i = function
    | [] ->
        let leftovers =
          Hashtbl.fold (fun _ spans acc -> List.rev_append spans acc) open_spans []
        in
        if leftovers <> [] then
          err "unmatched begin event(s) at end of trace: %s" (String.concat ", " leftovers)
        else Ok !stats
    | ev :: rest -> (
        let get_str k = match Json.member k ev with Some (Json.Str s) -> Some s | _ -> None in
        let get_num k = Option.bind (Json.member k ev) Json.number in
        match ev with
        | Json.Obj _ -> (
            let name = get_str "name" in
            match get_str "ph" with
            | None -> err "event %d: missing \"ph\"" i
            | Some ph -> (
                let need_ts_ids () =
                  match (get_num "ts", get_num "pid", get_num "tid") with
                  | None, _, _ -> err "event %d (%s): missing numeric \"ts\"" i ph
                  | _, None, _ | _, _, None -> err "event %d (%s): missing \"pid\"/\"tid\"" i ph
                  | Some ts, _, _ when ts < 0.0 -> err "event %d (%s): negative ts" i ph
                  | _ -> Ok ()
                in
                let track () =
                  (Option.value (get_num "pid") ~default:0.0,
                   Option.value (get_num "tid") ~default:0.0)
                in
                let count f = stats := f !stats in
                match ph with
                | "B" -> (
                    match (name, need_ts_ids ()) with
                    | None, _ -> err "event %d: begin event without a name" i
                    | _, (Error _ as e) -> e
                    | Some nm, Ok () ->
                        let track = track () in
                        let spans = nm :: spans_of track in
                        Hashtbl.replace open_spans track spans;
                        count (fun s ->
                            {
                              s with
                              events = s.events + 1;
                              max_depth = max s.max_depth (List.length spans);
                            });
                        go (i + 1) rest)
                | "E" -> (
                    match need_ts_ids () with
                    | Error _ as e -> e
                    | Ok () -> (
                        match spans_of (track ()) with
                        | [] -> err "event %d: end event with no span open" i
                        | top :: deeper -> (
                            match name with
                            | Some nm when nm <> top ->
                                err "event %d: end event %S closes open span %S" i nm top
                            | _ ->
                                Hashtbl.replace open_spans (track ()) deeper;
                                count (fun s ->
                                    { s with events = s.events + 1; spans = s.spans + 1 });
                                go (i + 1) rest)))
                | "X" -> (
                    match (name, need_ts_ids (), get_num "dur") with
                    | None, _, _ -> err "event %d: complete event without a name" i
                    | _, (Error _ as e), _ -> e
                    | _, _, None -> err "event %d: complete event without \"dur\"" i
                    | Some _, Ok (), Some _ ->
                        count (fun s -> { s with events = s.events + 1; spans = s.spans + 1 });
                        go (i + 1) rest)
                | "i" | "I" -> (
                    match (name, need_ts_ids ()) with
                    | None, _ -> err "event %d: instant event without a name" i
                    | _, (Error _ as e) -> e
                    | Some _, Ok () ->
                        count (fun s -> { s with events = s.events + 1; instants = s.instants + 1 });
                        go (i + 1) rest)
                | "C" -> (
                    match (name, need_ts_ids (), Json.member "args" ev) with
                    | None, _, _ -> err "event %d: counter event without a name" i
                    | _, (Error _ as e), _ -> e
                    | _, _, (None | Some (Json.Obj [])) ->
                        err "event %d: counter event without args" i
                    | Some _, Ok (), Some (Json.Obj _) ->
                        count (fun s ->
                            { s with events = s.events + 1; counter_samples = s.counter_samples + 1 });
                        go (i + 1) rest
                    | Some _, Ok (), Some _ -> err "event %d: counter args must be an object" i)
                | "M" ->
                    count (fun s -> { s with events = s.events + 1 });
                    go (i + 1) rest
                | ph -> err "event %d: unsupported phase %S" i ph))
        | _ -> err "event %d: not a JSON object" i)
  in
  go 0 events

let validate_string s =
  match Json.parse s with
  | Error e -> err "invalid JSON: %s" e
  | Ok json -> (
      match json with
      | Json.Arr events -> validate_events events
      | Json.Obj _ -> (
          match Json.member "traceEvents" json with
          | Some (Json.Arr events) -> validate_events events
          | Some _ -> Error "\"traceEvents\" is not an array"
          | None -> Error "top-level object has no \"traceEvents\" array")
      | _ -> Error "trace must be an array or an object with \"traceEvents\"")

let validate_file path =
  match In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error e -> Error e
  | contents -> validate_string contents

let pp_stats ppf s =
  Format.fprintf ppf "%d events: %d span pair(s), %d instant(s), %d counter sample(s), max depth %d"
    s.events s.spans s.instants s.counter_samples s.max_depth
