(** The observability handle threaded through the simulator and compiler:
    one metrics registry, one data-movement attribution ledger and the
    event log ({!Trace}) — the simulator records its events and counter
    samples into [trace], the pipeline its phase spans into [spans].
    Subsystem constructors ([Machine.create], [Engine.create],
    [Pipeline.Job.run], ...) take [?obs:Sink.t] defaulting to {!none}, so
    unobserved runs pay only the inert-handle branches.

    A sink reused for a second run reports that run alone in its registry
    and ledger: each run rebinds and zeroes the simulator's instruments
    and clears the ledger. Its log keeps appending: each run's simulator
    events and counter samples restart at cycle 0. *)

type t = { metrics : Metrics.t; trace : Trace.t; ledger : Ledger.t; spans : Span.t }

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
(** Enable the requested parts. [metrics] and [trace] (simulator events)
    default to [true]; the profiling layers default to off
    ([ledger = false], [timeline_interval = 0], [spans = false]).
    [trace], [timeline_interval] (counter sampling period in cycles) and
    [spans] switch the kinds of one log, which fills both [trace] and
    [spans]. Callers that already hold a span log (e.g. a per-request
    collector) substitute it with a record update:
    [{ sink with Sink.spans }]. *)
