(** Ring-buffered event tracer.

    The engine and network emit task, message and sync events as they
    replay a schedule; the buffer keeps the most recent [capacity] events
    (dropping the oldest first and counting the drops) so tracing a large
    run is bounded-memory. Events render as Chrome [trace_event] JSON —
    load the file in Perfetto / [chrome://tracing] to see the schedule laid
    out per node and compare it against the paper's expected placement —
    or as JSONL for scripted consumers.

    A disabled tracer ({!none}) makes every emit a single branch, so
    instrumented code pays nothing when tracing is off. *)

type kind = Task | Message | Sync

type event = {
  kind : kind;
  name : string;
  node : int; (** executing node; for messages, the source node *)
  start_ts : int; (** cycle the span begins (issue / departure) *)
  end_ts : int; (** cycle the span ends (finish / arrival) *)
  id : int; (** task id, consumer task id for syncs, sequence no. for messages *)
  args : (string * int) list; (** extra integer attributes, e.g. dst, bytes, group *)
}

type t

val create : ?capacity:int -> unit -> t
(** An enabled tracer keeping the last [capacity] events (default 65536;
    clamped to at least 1). *)

val none : t
(** The shared disabled tracer. *)

val enabled : t -> bool

val emit : t -> event -> unit

val task : t -> name:string -> node:int -> start:int -> finish:int -> id:int -> group:int -> unit

val message : t -> src:int -> dst:int -> depart:int -> arrival:int -> bytes:int -> unit

val sync : t -> node:int -> ts:int -> producer:int -> consumer:int -> unit

val events : t -> event list
(** Surviving events, oldest first (emission order). *)

val length : t -> int
(** Number of surviving events. *)

val total : t -> int
(** Number of events ever emitted. *)

val dropped : t -> int
(** [total - length]: events overwritten by the ring. *)

val to_chrome : ?counters:Render.Json.t list -> ?spans:Span.t -> t -> string
(** One Chrome [trace_event] JSON document:
    [{"traceEvents": [...], "displayTimeUnit": "ns", ...}]. Tasks and
    messages are complete ("X") events with [pid] 0 and [tid] = node
    (cycles as microseconds); syncs are instant ("i") events. Events are
    sorted by start cycle, so timestamps are globally (and per-node)
    non-decreasing. [counters] are pre-rendered extra events — e.g.
    {!Timeline.chrome_counter_events} counter tracks — appended after the
    task events (Perfetto orders by timestamp itself). [spans] appends
    {!Span.chrome_events} slices: request-scoped wall-clock phases on
    their own pid track, nested next to the cycle-domain tracks. *)

val to_jsonl : t -> string
(** One JSON object per line, same field names as {!to_chrome} events,
    same ordering. *)
