(** Execution traces of simulated kernel launches.

    When a trace collector is passed to {!Gpu_sim.run}, the simulator
    records block lifetimes, per-warp compute chunks, and DRAM service
    windows.  The result can be summarized as text or exported in the
    Chrome trace-event format (load [chrome://tracing] or Perfetto on
    the JSON file) to see wave scheduling, issue serialization, and
    memory contention visually. *)

type event = {
  name : string;
  category : string;  (** ["block"], ["compute"], or ["dram"]. *)
  track : int;  (** SM index; {!dram_track} for the memory channel. *)
  start : float;  (** Seconds of simulated time. *)
  duration : float;
}

val dram_track : int
(** Track id used for DRAM service windows. *)

type t

val create : ?capacity:int -> unit -> t
(** Collector holding up to [capacity] events (default 200_000); later
    events are counted but dropped. *)

val record :
  t -> name:string -> category:string -> track:int -> start:float -> duration:float -> unit

val events : t -> event list
(** In recording order. *)

val length : t -> int

val dropped : t -> int

val span : t -> float
(** Latest event end time. *)

val write_chrome : t -> out_channel -> unit
(** Write the events as a Chrome trace through {!Gpp_obs.Chrome}: one
    complete (["X"]) event each, with microsecond timestamps and the
    track as [tid], then close the channel. *)

val summary : t -> string
(** Aggregate text summary: event counts and busy time per category. *)
