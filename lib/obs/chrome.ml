(* Streaming Chrome trace-event JSON writer.

   Emits the "JSON Object Format" understood by chrome://tracing and
   Perfetto: {"traceEvents":[...], ...}.  Events are written as they
   happen — nothing is buffered beyond the out_channel — so a crashed
   run still leaves a readable prefix (both viewers accept a truncated
   event array).  Timestamps are microseconds relative to the writer's
   creation, which keeps them small and diff-friendly. *)

type t = {
  oc : out_channel;
  epoch : float;  (* absolute microseconds at creation *)
  mutable events : int;
  mutable closed : bool;
}

module Json = Gpp_util.Json

let create ~epoch oc =
  output_string oc "{\"traceEvents\":[";
  { oc; epoch; events = 0; closed = false }

let ts t abs_us = abs_us -. t.epoch

let emit t fmt =
  if t.closed then Printf.ifprintf t.oc fmt
  else begin
    if t.events > 0 then output_string t.oc ",\n";
    t.events <- t.events + 1;
    Printf.fprintf t.oc fmt
  end

(* Category = the dotted prefix of the span name ("transform.search" ->
   "transform"), which groups events into colored families in the
   viewers without callers passing a category everywhere. *)
let category name =
  match String.index_opt name '.' with Some i -> String.sub name 0 i | None -> name

(* [tid] separates concurrent timelines: the obs layer passes one tid
   per domain so B/E events nest properly on each track.  Default 1 —
   single-domain traces are unchanged. *)

let duration_begin t ~name ?(tid = 1) ~ts:abs () =
  emit t "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"B\",\"ts\":%.3f,\"pid\":1,\"tid\":%d}"
    (Json.escape name) (Json.escape (category name)) (ts t abs) tid

let duration_end t ~name ?(tid = 1) ~ts:abs () =
  emit t "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"E\",\"ts\":%.3f,\"pid\":1,\"tid\":%d}"
    (Json.escape name) (Json.escape (category name)) (ts t abs) tid

let instant t ~name ?detail ?(tid = 1) ~ts:abs () =
  match detail with
  | None ->
      emit t "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"i\",\"ts\":%.3f,\"pid\":1,\"tid\":%d,\"s\":\"t\"}"
        (Json.escape name) (Json.escape (category name)) (ts t abs) tid
  | Some d ->
      emit t
        "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"i\",\"ts\":%.3f,\"pid\":1,\"tid\":%d,\"s\":\"t\",\"args\":{\"detail\":\"%s\"}}"
        (Json.escape name) (Json.escape (category name)) (ts t abs) tid (Json.escape d)

let complete t ~name ~cat ~tid ~ts:abs ~dur =
  emit t "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":%d}"
    (Json.escape name) (Json.escape cat) (ts t abs) dur tid

let counter t ~name ~value ~ts:abs =
  emit t "{\"name\":\"%s\",\"cat\":\"counter\",\"ph\":\"C\",\"ts\":%.3f,\"pid\":1,\"tid\":1,\"args\":{\"%s\":%d}}"
    (Json.escape name) (ts t abs) (Json.escape name) value

let metadata t ~name ~value =
  emit t "{\"name\":\"%s\",\"ph\":\"M\",\"ts\":0,\"pid\":1,\"tid\":1,\"args\":{\"name\":\"%s\"}}"
    (Json.escape name) (Json.escape value)

let close t =
  if not t.closed then begin
    t.closed <- true;
    output_string t.oc "],\"displayTimeUnit\":\"ms\"}\n";
    close_out_noerr t.oc
  end

let event_count t = t.events
