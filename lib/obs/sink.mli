(** The observability handle threaded through the simulator and compiler:
    one metrics registry, one event tracer, one data-movement attribution
    ledger and one counter timeline. Subsystem constructors
    ([Machine.create], [Engine.create], [Pipeline.Job.run], ...) take
    [?obs:Sink.t] defaulting to {!none}, so unobserved runs pay only the
    inert-handle branches. *)

type t = {
  metrics : Metrics.t;
  trace : Trace.t;
  ledger : Ledger.t;
  timeline : Timeline.t;
  spans : Span.t;
}

val none : t
(** Everything disabled — the default everywhere. *)

val create :
  ?metrics:bool ->
  ?trace:bool ->
  ?ledger:bool ->
  ?timeline_interval:int ->
  ?spans:bool ->
  unit ->
  t
(** Enable the requested parts. [metrics] and [trace] default to [true];
    the profiling layers default to off ([ledger = false],
    [timeline_interval = 0], [spans = false]) so existing callers keep
    their exact pre-profiling behaviour. Callers that already hold a
    {!Span.t} (e.g. a per-request collector) substitute it with a record
    update: [{ sink with Sink.spans }]. *)
