(** Chrome-trace validation without external tooling.

    {!Gpp_util.Json.parse} plus structural checks over the trace-event
    array: every element is an object with a known ["ph"], numeric
    [ts]/[pid]/[tid], names where required, and — the property the
    qcheck suite leans on — every ["B"] begin event is closed by a
    matching ["E"] end event in LIFO order. *)

type stats = {
  events : int;
  spans : int;  (** Matched B/E pairs (plus X complete events). *)
  instants : int;
  counter_samples : int;
  max_depth : int;  (** Deepest B-nesting observed. *)
}

val validate_string : string -> (stats, string) result
(** Accepts a bare event array or the [{"traceEvents": [...]}] object
    format ({!Chrome} emits the latter). *)

val validate_file : string -> (stats, string) result

val pp_stats : Format.formatter -> stats -> unit
