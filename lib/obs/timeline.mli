(** Cycle-resolved counter timelines.

    A timeline periodically snapshots registered samplers — closures over
    counters the simulator already maintains — every [interval] simulated
    cycles, producing one compact series per instrument. Samples are
    delta-encoded (both timestamp and value), bounded by a per-instrument
    capacity (later boundary crossings are counted as dropped, mirroring
    [Trace]'s ring discipline). A timeline lives on the domain that ticks
    it; nothing merges timelines.

    The driver calls {!tick} with a monotone "now" (the engine uses the
    running [finish_time] envelope); the timeline samples at most once per
    crossed interval boundary, so ticking is a single compare on the hot
    path. A disabled timeline ({!none}) makes every operation a single
    always-false branch. *)

type t

val none : t
(** The shared inert timeline — the default everywhere. *)

val create : ?capacity:int -> interval:int -> unit -> t
(** [capacity] bounds the samples kept per instrument (default 4096).
    [interval <= 0] yields a disabled timeline. *)

val enabled : t -> bool

val interval : t -> int
(** Sampling period in simulated cycles; [0] when disabled. *)

val register : t -> string -> (unit -> int) -> unit
(** Register (or re-bind) a named sampler. Re-registering an existing name
    swaps the closure but keeps the recorded series, so a fresh engine can
    adopt a sink that already carries history. *)

val tick : t -> now:int -> unit
(** Sample every instrument if [now] has crossed the next interval
    boundary (at the boundary timestamp). [now] must be monotone
    non-decreasing across calls. *)

val flush : t -> now:int -> unit
(** Take a final off-boundary sample at [now] so every series ends at the
    run's last cycle. Idempotent for a given [now]. *)

type series = { name : string; samples : (int * int) list; dropped : int }
(** Decoded [(timestamp, value)] pairs in time order. *)

val series : t -> series list
(** All series, sorted by name. *)

val to_json : t -> Render.Json.t
(** [{"interval": N, "series": [{"name", "dropped", "samples": [[ts,v],..]},..]}]. *)

val chrome_counter_events : t -> Render.Json.t list
(** One Perfetto/Chrome counter event ([ph = "C"]) per sample, for
    appending to a [Trace.to_chrome] document's [traceEvents]. *)
