(** The full experiment suite: every table and figure of the paper plus
    the ablations, in presentation order. *)

type entry = {
  id : string;
  title : string;
  run : Context.t -> Output.t;
}

val paper : entry list
(** Figures 2-12 and Tables I-II. *)

val ablations : entry list

val extensions : entry list
(** The paper's §VII future-work items, implemented. *)

val all : entry list

val find : string -> entry option
(** Lookup by id (["fig2"] ... ["table2"], ["ablation-..."]). *)

val ids : unit -> string list

val listing : string
(** One [id title] line per experiment, ids padded to 26 columns:
    what [grophecy experiment --list] prints and [GET /experiments]
    returns. *)

val select : string list -> (entry list, Gpp_engine.Error.t) result
(** The entries for [ids], in the given order; [[]] selects the whole
    suite.  An unknown id is a {!Gpp_engine.Error.Usage} that names it
    and every known id. *)

val run :
  ?machine:Gpp_arch.Machine.t ->
  ?seed:int64 ->
  entry list ->
  emit:(string -> unit) ->
  (Context.t, Gpp_engine.Error.t) result
(** Build the shared context ({!Context.create}, in the obs span
    [experiment.context]), then run each entry in order (span
    [experiment.ID]) and hand [emit] its rendering plus a separating
    blank line: the bytes [grophecy experiment ID] prints for it.  The
    context comes back for callers that also export it. *)
