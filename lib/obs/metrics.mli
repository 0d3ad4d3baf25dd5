(** Named, typed metrics registry.

    Subsystems create instruments (counters, dense-indexed counter vectors,
    gauges, histograms) once, at structure-creation time, and bump them
    through the returned handles on the hot path. A handle created from a
    disabled registry is inert: bumping it is a single predictable branch
    and no per-event allocation, so instrumented code pays nothing when
    observability is off (the default).

    Determinism: instruments are write-only — they never feed back into
    simulation or compilation decisions — and {!to_alist} orders samples by
    name, so enabling metrics cannot perturb results and dumps are stable.

    One registry per domain: a registry is not synchronized, so code
    running under [Pool.parallel_map] gives each task its own registry
    and reads it back on that task. Nothing merges registries. *)

type t
(** A registry. *)

val create : unit -> t
(** A fresh enabled registry. *)

val none : t
(** The shared inert registry: every instrument created from it is a no-op
    and {!to_alist} is empty. *)

val enabled : t -> bool

(** {1 Instruments} *)

type counter

val counter : ?fresh:bool -> t -> string -> counter
(** [counter reg name] registers (or retrieves — same name, same handle) a
    monotonically increasing integer. [fresh] (default [false]) zeroes a
    retrieved instrument, here and for {!vec} and {!histogram}: a
    structure rebinding its instruments for a new run passes it, so a
    reused registry reports that run alone. *)

val add : counter -> int -> unit

val incr : counter -> unit

val counter_value : counter -> int

val counter_fn : t -> string -> (unit -> int) -> unit
(** A derived counter: the closure is evaluated at {!to_alist} time and
    samples as a counter. Used for integers a structure already keeps
    exact on its own (the simulator's aggregate stats, the serve caches'
    hit counts), so publishing them costs nothing per event. *)

type vec

val vec : ?fresh:bool -> t -> string -> size:int -> label:(int -> string) -> vec
(** A dense family of counters indexed by [0..size-1] — one slot per link,
    node or bank. [label i] renders slot [i]'s sample name suffix, e.g.
    ["noc.link_flits{1,0->2,0}"]. Registering an existing name returns the
    existing family (sizes must agree). *)

val vadd : vec -> int -> int -> unit
(** [vadd v i n] adds [n] to slot [i]. Out-of-range slots are ignored. *)

val vec_value : vec -> int -> int

type gauge

val gauge : t -> string -> gauge
(** A last-value-wins float. *)

val set_gauge : gauge -> float -> unit

val gauge_fn : t -> string -> (unit -> float) -> unit
(** A derived gauge: the closure is evaluated at {!to_alist} time, never
    on the hot path. Used for values a structure already tracks (cache hit
    counts, resident pages) so publishing them costs nothing per event. *)

type histogram

val histogram : ?buckets:float array -> ?fresh:bool -> t -> string -> histogram
(** Distribution with cumulative-style buckets (default: powers of two
    from 1 to 2^20). *)

val observe : histogram -> float -> unit

val observe_int : histogram -> int -> unit
(** [observe_int h x] is [observe h (float_of_int x)], except that a
    disabled histogram allocates nothing. *)

(** {1 Reading} *)

type sample =
  | Counter_v of int
  | Gauge_v of float
  | Histogram_v of { counts : int array; bounds : float array; sum : float; count : int }

val to_alist : t -> (string * sample) list
(** All samples, sorted by name. Vector slots explode into
    [name{label}] entries (zero-valued slots are skipped); derived gauges
    are evaluated here. *)

val find : t -> string -> sample option
(** Lookup one exploded sample by name (same names as {!to_alist}). *)

val percentile : counts:int array -> bounds:float array -> float -> float
(** [percentile ~counts ~bounds q] estimates the [q]-quantile
    ([0.0 <= q <= 1.0]) of a histogram sample by linear interpolation
    within the containing bucket (lower bound 0 for the first bucket; the
    overflow bucket clamps to the largest bound). Returns [0.0] for an
    empty histogram. *)

val to_json : t -> Render.Json.t
(** [Obj] keyed by sample name; counters as ints, gauges as floats,
    histograms as
    [{"count":..,"sum":..,"p50":..,"p95":..,"p99":..,"buckets":[[le,count],..]}]. *)

val to_prometheus : t -> string
(** Prometheus text exposition of the whole registry: one [# TYPE] line
    per family, then name-sorted [name{labels} value] sample lines.
    Instrument names are mangled ([Render.Prom.mangle]); exploded-vec
    labels become label pairs; histograms emit cumulative
    [_bucket{le=...}] series (ending at [le="+Inf"]) plus [_sum] and
    [_count]. Deterministic for a deterministic registry, with no
    duplicate series. *)
