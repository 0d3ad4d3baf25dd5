(** Request-scoped nestable spans.

    A span log is an event log ({!Trace.t}) that records spans: named
    phases with structural parent links (derived from an explicit
    open-span stack), wall-clock durations, simulated-cycle counts and
    key=value attributes. Handles are inert — [enter]/[exit] on a log that
    records no spans cost one branch and allocate nothing, the same
    discipline as disabled {!Metrics} handles.

    A log lives on one domain — the pipeline records spans only on the
    calling domain — and nothing merges logs, so traced output is
    byte-identical at any [--jobs]. *)

type attr = Trace.attr = Int of int | Str of string

type t = Trace.t
(** The log: a sink's [spans] and [trace] may be one and the same, and
    then its Chrome document ({!Trace.to_chrome}) carries the spans. *)

type span = Trace.span
(** A handle for one open (or finished) span. *)

val none : t
(** The disabled log — every operation is an inert branch. *)

val create : ?clock:(unit -> float) -> unit -> t
(** A log recording spans only. [clock] defaults to
    {!Trace.default_clock} [()]. *)

val default_clock : unit -> unit -> float
(** {!Trace.default_clock}. *)

val enabled : t -> bool
(** The log records spans. *)

val count : t -> int
(** Spans recorded so far. *)

val depth : t -> int
(** Currently open (entered, not yet exited) spans. *)

val enter : t -> string -> span
(** Open a span named [name]; its parent is the innermost open span. *)

val exit : ?cycles:int -> t -> span -> unit
(** Close [span], stamping its wall duration and adding [cycles] to its
    simulated-cycle count. Unclosed children are popped (their durations
    clamp to 0) so an exception path cannot wedge the stack. *)

val attr_int : t -> span -> string -> int -> unit

val attr_str : t -> span -> string -> string -> unit

val with_span : ?cycles:int -> t -> string -> (unit -> 'a) -> 'a
(** [with_span t name f] brackets [f ()] in a span, exception-safely. *)

val to_json : ?wall:bool -> t -> Render.Json.t
(** The spans as [{"count": n, "spans": [...]}]. [wall:false] omits
    the wall-clock ["ms"] field — the deterministic projection the
    determinism tests compare byte-for-byte. *)

val summary : t -> (string * (int * float * int)) list
(** Per-name aggregate [(count, total wall ms, total cycles)],
    name-sorted. *)

val summary_table : t -> string
(** Human rendering of {!summary}. *)
