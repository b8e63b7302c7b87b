(** JSON (RFC 8259): the one escaper, emitter, and parser.

    Emission is string-building: callers render values with {!string},
    {!float}, [string_of_int] and friends, then nest them with {!obj}
    and {!arr}.  Every JSON writer in the tree — lint and SARIF
    reports, the Chrome-trace writer, the serve API — goes through
    {!escape}, so there is exactly one escaping rule.

    Parsing builds a {!t} tree.  Integer lexemes that fit an [int64]
    stay exact ({!Int}); [\u] escapes, surrogate pairs included, decode
    to UTF-8. *)

val escape : string -> string
(** The body of a JSON string literal (no surrounding quotes).  The
    double quote, the backslash, newline, carriage return and tab get
    their two-character escapes; every other byte below [0x20] becomes
    a six-character [\u00XX] escape; all remaining bytes — DEL and
    non-ASCII included — pass through unchanged. *)

val string : string -> string
(** A quoted, {!escape}d string literal. *)

val float : float -> string
(** A finite float as a JSON number: integral values below [1e15] print
    without a fraction, others with 17 significant digits.  NaN and the
    infinities, which JSON cannot express, become strings. *)

val obj : (string * string) list -> string
(** An object from [(key, rendered value)] pairs; keys are escaped,
    values must already be rendered JSON. *)

val arr : string list -> string
(** An array of already rendered values. *)

type t =
  | Null
  | Bool of bool
  | Int of int64
      (** A number written without fraction or exponent that fits an
          [int64], kept exact. *)
  | Float of float  (** Any other number. *)
  | Str of string
  | Arr of t list
  | Obj of (string * t) list  (** Members in document order. *)

val parse : string -> (t, string) result
(** One JSON value, optionally surrounded by whitespace.  Errors name
    the byte offset.  A lone surrogate escape is an error. *)

val member : string -> t -> t option
(** The first member named [key] of an object; [None] for a missing
    key or a non-object. *)

val number : t -> float option
(** The value of {!Int} or {!Float}; [None] for anything else. *)
