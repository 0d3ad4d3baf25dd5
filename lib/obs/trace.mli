(** The event log: one append-only buffer for everything recorded over
    time. Three kinds of entry share it, each tagged with its clock:
    - simulator events (cycles): task and message intervals and sync
      instants, emitted by the engine and network;
    - counter samples (cycles): registered samplers read every [interval]
      simulated cycles, one series per instrument;
    - spans (wall clock): nestable phases with key=value attributes,
      recorded through {!Span}.

    Each kind is switched on at {!create}; a switched-off kind costs one
    branch per emit and allocates nothing. The log keeps the first
    [capacity] entries and counts the rest as dropped. A log lives on one
    domain and nothing merges logs, so its output is byte-identical at
    any [--jobs]. One renderer serves every kind: a Chrome [trace_event]
    document (for Perfetto / [chrome://tracing]) or the same events as
    JSONL. *)

type t

val none : t
(** The shared log with every kind off — the default everywhere. *)

val create :
  ?capacity:int ->
  ?clock:(unit -> float) ->
  ?events:bool ->
  ?interval:int ->
  ?spans:bool ->
  unit ->
  t
(** A log keeping the first [capacity] entries (default 65536, at least
    1). [events] (default [true]) records simulator events; [interval]
    (default 0, off when [<= 0]) samples the registered counters every
    [interval] cycles; [spans] (default [false]) records spans, timed by
    [clock] (default {!default_clock} [()]). With every kind off it is
    {!none}. *)

val default_clock : unit -> unit -> float
(** [Unix.gettimeofday], unless the [NDP_FAKE_CLOCK] environment variable
    is set (non-empty, non-"0"), in which case a process-global monotone
    counter stepping 1/1024 s per call — golden tests use it to make
    durations byte-reproducible. *)

val length : t -> int
(** Entries held, of every kind. *)

val dropped : t -> int
(** Entries refused once the log was full, of every kind. *)

val total : t -> int
(** Simulator events ever emitted, held or dropped. Message ids and the
    Chrome document's [otherData.emitted] count these. *)

(** {1 Simulator events} *)

type kind = Task | Message | Sync

type event = {
  kind : kind;
  name : string;
  node : int; (** executing node; for messages, the source node *)
  start_ts : int; (** cycle the event begins (issue / departure) *)
  end_ts : int; (** cycle it ends (finish / arrival) *)
  id : int; (** task id, consumer task id for syncs, sequence no. for messages *)
  args : (string * int) list; (** extra integer attributes, e.g. dst, bytes, group *)
}

val task : t -> name:string -> node:int -> start:int -> finish:int -> id:int -> group:int -> unit

val message : t -> src:int -> dst:int -> depart:int -> arrival:int -> bytes:int -> unit

val sync : t -> node:int -> ts:int -> producer:int -> consumer:int -> unit

val events : t -> event list
(** Held simulator events, in emission order. *)

(** {1 Counter samples} *)

val interval : t -> int
(** Sampling period in cycles; [0] when the log takes no samples. *)

val register : t -> string -> (unit -> int) -> unit
(** Register (or re-bind) a named sampler. Re-registering a name starts
    a new run: it swaps the closure and keeps the series, whose samples
    restart at cycle 0 as the new run's simulator events do, so a fresh
    engine can adopt a log that already carries history. *)

val tick : t -> now:int -> unit
(** Sample every instrument, at the boundary timestamp, if [now] has
    crossed the next interval boundary: one compare when nothing is due.
    [now] must not decrease across calls. *)

val flush : t -> now:int -> unit
(** Take a final off-boundary sample at [now] so every series ends at the
    run's last cycle. Idempotent for a given [now]. *)

type series = { name : string; samples : (int * int) list; dropped : int }
(** One instrument's held [(timestamp, value)] pairs in time order, and
    how many of its samples the full log refused. *)

val series : t -> series list
(** All series, sorted by name. *)

val series_json : t -> Render.Json.t
(** [{"interval": N, "series": [{"name", "dropped", "samples": [[ts,v],..]},..]}]. *)

(** {1 Spans} — the primitives behind {!Span}. *)

type attr = Int of int | Str of string

type span = private {
  sp_id : int; (** enter order among the log's spans *)
  sp_parent : int; (** -1 for roots *)
  sp_depth : int;
  sp_name : string;
  sp_start : float; (** seconds since the log was created *)
  mutable sp_stop : float; (** below [sp_start] while the span is open *)
  mutable sp_cycles : int;
  mutable sp_attrs : (string * attr) list;
}

val records_spans : t -> bool

val depth : t -> int
(** Spans entered and not yet exited. *)

val enter : t -> string -> span

val exit : ?cycles:int -> t -> span -> unit

val attr : t -> span -> string -> attr -> unit

val spans : t -> span list
(** Held spans, in enter order. *)

val wall_ms : span -> float
(** Wall duration; 0 for a span never exited. *)

val attr_json : attr -> Render.Json.t

(** {1 Rendering} *)

val to_chrome : t -> string
(** One Chrome [trace_event] JSON document:
    [{"traceEvents": [...], "displayTimeUnit": "ns", "otherData": {"emitted", "dropped"}}].
    First the simulator events, sorted by start cycle (so timestamps are
    non-decreasing): tasks and messages are complete ("X") events with
    [pid] 0 and [tid] = node, cycles as microseconds; syncs are instant
    ("i") events. Then each counter series ("C" events on pid 0) in time
    order, by name. Then the spans as "X" slices in wall microseconds on
    their own pid 1 track, nested by ts/dur containment. *)

val to_jsonl : t -> string
(** The events of {!to_chrome}, in the same order, one JSON object per
    line. *)
