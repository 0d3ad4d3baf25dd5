(** The one output-format surface shared by every `ndp_run` subcommand and
    by the bench harness.

    Historically each reporting path grew its own format story: `check`
    rendered diagnostics as human/sexp/jsonl, bench had a bespoke [--json],
    and new commands would have invented a fourth dialect. [Render] fixes
    the vocabulary: a command builds one {!Json.t} document (plus an
    optional human renderer) and every format is derived from it, so
    [--format human|sexp|json|jsonl] means the same thing everywhere. *)

type format = Human | Sexp | Json | Jsonl

val all_formats : (string * format) list
(** [(name, format)] pairs, in CLI presentation order — feed to
    [Cmdliner.Arg.enum]. *)

(** A minimal JSON document model (no external dependency). *)
module Json : sig
  type t =
    | Null
    | Bool of bool
    | Int of int
    | Float of float
    | Str of string
    | List of t list
    | Obj of (string * t) list

  val escape : string -> string
  (** A quoted JSON string literal with the mandatory escapes. *)

  val to_string : t -> string
  (** Compact single-line rendering. Non-finite floats render as [null]
      (JSON has no spelling for them). *)

  val parse : string -> (t, string) result
  (** Parse one JSON document (the dialect {!to_string} writes; RFC 8259).
      Numbers without a fraction or exponent that fit in an OCaml [int]
      parse as [Int], everything else as [Float], so
      [parse (to_string doc) = Ok doc] for every document the renderer can
      produce (non-finite floats excepted — they serialize as [null]).
      The error string names the offset of the first syntax error. *)

  val member : string -> t -> t option
  (** [member key (Obj kvs)] is the value bound to [key]; [None] on a
      missing key or a non-object. *)
end

val sexp_atom : string -> string
(** An s-expression atom: [s] bare when it is a non-empty run of
    letters, digits and [-_./], otherwise double-quoted with ['"'] and
    ['\\'] backslash-escaped, so the output parses back. *)

(** Prometheus text-exposition lexical helpers, composed by
    [Metrics.to_prometheus] (the semantic assembly lives there because
    [Metrics] depends on [Render], not the reverse). *)
module Prom : sig
  val mangle : string -> string
  (** Map a dotted instrument name to a valid Prometheus metric name:
      characters outside [[a-zA-Z0-9_:]] become ['_'], a leading digit is
      prefixed with ['_']. *)

  val split_series : string -> string * (string * string) list
  (** Split an exploded registry sample name ([base] or [base{label}])
      into the family name and its label pairs: [k=v] labels become
      [(k, v)]; a label without ['='] is kept whole as [("label", l)]. *)

  val escape_label_value : string -> string
  (** Backslash-escape backslash, double-quote and newline for a quoted
      label value. *)

  val labels_to_string : (string * string) list -> string
  (** [{k="v",...}], or [""] for no labels. Keys are {!mangle}d, values
      {!escape_label_value}d. *)

  val float_repr : float -> string
  (** Prometheus float spelling: integers bare, non-finite as
      [NaN]/[+Inf]/[-Inf]. *)

  val sample_line : string -> (string * string) list -> string -> string
  (** [name{labels} value]. *)
end

val output : format -> human:(unit -> string) -> Json.t -> string
(** Render one document under the requested format. [human] is consulted
    only for {!Human}; {!Json} is the compact document; {!Jsonl} emits one
    line per element of a top-level [List] (or per field of a top-level
    [Obj], as [{"key": ..., "value": ...}] lines); {!Sexp} is a generic
    s-expression view of the document: objects become [(key value)] pair
    lists, arrays plain lists. *)
