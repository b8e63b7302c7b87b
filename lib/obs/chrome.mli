(** Streaming Chrome trace-event JSON writer.

    Produces the trace-event "JSON Object Format" that
    [chrome://tracing] and Perfetto open directly:
    [{"traceEvents":[...], "displayTimeUnit":"ms"}].  Events stream to
    the underlying channel as they are emitted; timestamps are
    microseconds relative to the writer's epoch.  All events carry
    [pid = 1]; duration and instant events accept a [tid] (default 1)
    so each domain's spans nest on their own timeline track.  Strings
    are escaped by {!Gpp_util.Json.escape}. *)

type t

val create : epoch:float -> out_channel -> t
(** [create ~epoch oc] writes the object header and returns a writer.
    [epoch] is the absolute time (in microseconds, same clock as every
    [~ts] below) subtracted from every emitted timestamp. *)

val duration_begin : t -> name:string -> ?tid:int -> ts:float -> unit -> unit
(** A ["ph":"B"] event.  The category is derived from the dotted prefix
    of [name] ("transform.search" → "transform"). *)

val duration_end : t -> name:string -> ?tid:int -> ts:float -> unit -> unit
(** The matching ["ph":"E"] event; [name] must equal the innermost open
    begin event's name on the same [tid] (the writer does not check —
    {!Validate} does). *)

val instant : t -> name:string -> ?detail:string -> ?tid:int -> ts:float -> unit -> unit
(** A thread-scoped ["ph":"i"] instant event (cache hits, flushes...),
    optionally carrying a [detail] argument. *)

val complete : t -> name:string -> cat:string -> tid:int -> ts:float -> dur:float -> unit
(** A ["ph":"X"] complete event: a span of [dur] microseconds starting
    at [ts], with an explicit category.  The GPU simulator's timeline
    export writes one per recorded block, compute chunk, and DRAM
    service window. *)

val counter : t -> name:string -> value:int -> ts:float -> unit
(** A ["ph":"C"] counter sample. *)

val metadata : t -> name:string -> value:string -> unit
(** A ["ph":"M"] metadata event (e.g. process_name). *)

val close : t -> unit
(** Write the closing bracket and close the channel.  Idempotent; after
    closing, every emit is a silent no-op. *)

val event_count : t -> int
