(** Request-scoped nestable spans.

    A collector records a log of named spans with structural parent links
    (derived from an explicit open-span stack), wall-clock durations,
    simulated-cycle counts and key=value attributes. Handles are inert —
    [enter]/[exit] on a disabled collector cost one branch and allocate
    nothing, the same discipline as disabled {!Metrics} handles.

    A collector lives on one domain — the pipeline records spans only on
    the calling domain — and nothing merges collectors, so traced output
    is byte-identical at any [--jobs]. *)

type attr = Int of int | Str of string

type t
(** A span collector. *)

type span
(** A handle for one open (or finished) span. *)

val none : t
(** The disabled collector — every operation is an inert branch. *)

val create : ?clock:(unit -> float) -> unit -> t
(** A live collector. [clock] defaults to {!default_clock} [()]. *)

val default_clock : unit -> unit -> float
(** [Unix.gettimeofday], unless the [NDP_FAKE_CLOCK] environment variable
    is set (non-empty, non-"0"), in which case a process-global monotone
    counter stepping 1/1024 s per call — golden tests use it to make
    durations byte-reproducible. *)

val enabled : t -> bool

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
(** The span log as [{"count": n, "spans": [...]}]. [wall:false] omits
    the wall-clock ["ms"] field — the deterministic projection the
    determinism tests compare byte-for-byte. *)

val summary : t -> (string * (int * float * int)) list
(** Per-name aggregate [(count, total wall ms, total cycles)],
    name-sorted. *)

val summary_table : t -> string
(** Human rendering of {!summary}. *)

val chrome_events : ?pid:int -> t -> Render.Json.t list
(** Chrome trace "X" slices (wall microseconds) on their own [pid] track
    (default 1), nested by ts/dur containment — feed to
    [Trace.to_chrome ~spans]. *)
