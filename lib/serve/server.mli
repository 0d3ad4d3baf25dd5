(** The compile-as-a-service daemon: answers {!Protocol} requests, fans
    a sweep's replays and a batch's jobs across a domain pool, and
    memoizes both rendered response bodies and captured schedules in
    content-addressed LRU caches.

    Two caches, two granularities:
    - the {e result} cache maps [digest(op + params + Key.job)] to the
      rendered response body string, so a repeated identical request is
      answered from memory with byte-identical bytes;
    - the {e schedule} cache maps [Key.job_digest] (capture forced on) to
      the full captured {!Ndp_core.Pipeline.result}, so a [Compile] and
      the [Sweep]s of the same job that follow it share one compile and
      sweep variants replay the captured task stream without recompiling.

    The capacities are fixed: 256 rendered bodies, and one captured
    schedule (the last), since a capture is a whole compiled job and the
    only recorded sharing pattern is a compile followed by sweeps of
    that job.

    Instruments in the registry:
    [serve.requests], [serve.errors], [serve.request_ms] (aggregate plus
    a lazily-registered [serve.request_ms{op=..}] histogram per op) and
    [serve.cache_{hits,misses,evictions}{cache=results|schedules}].

    Every request is traced: [handle] opens a per-request span collector
    with a root "request" span, threads it through the service layer (so
    uncached pipeline work records its phase spans under it) and stamps
    the reply with a monotone sequence number, the request latency and
    the collector. Tracing never touches the response body, so cached
    bodies stay byte-identical. *)

type t

type reply = {
  seq : int;  (** server-wide request sequence number (the request id) *)
  ok : bool;
  cached : bool;
  key : string;
  body : string;
  ms : float;  (** request latency by the server's clock *)
  spans : Ndp_obs.Span.t;  (** per-request span log, root span "request" *)
}

val create :
  ?jobs:int ->
  ?metrics:Ndp_obs.Metrics.t ->
  ?clock:(unit -> float) ->
  ?access_log:out_channel ->
  ?slow_ms:float ->
  unit ->
  t
(** [jobs] sizes the embedded pool, which runs a sweep's replays and a
    batch's jobs. [metrics] defaults to a fresh enabled registry.
    [clock] (default {!Ndp_obs.Span.default_clock}, so
    [NDP_FAKE_CLOCK] applies) times requests and spans. [access_log]
    makes {!serve_channels} append one JSONL line per request;
    [slow_ms] makes it print a span breakdown to stderr for requests
    slower than the threshold. *)

val registry : t -> Ndp_obs.Metrics.t

val handle : t -> Protocol.request -> reply
(** In-process dispatch — the tests and the bench exercise exactly the
    path the socket loop uses. Never raises: failures come back as
    [{ok = false}] with an [{"error": ..}] body. *)

val serve_channels : t -> in_channel -> out_channel -> unit
(** One framed session over arbitrary channels (the [--stdio] mode and
    the per-connection loop). Returns on EOF, corrupt framing, or after
    answering [Shutdown] (which also marks the server stopped). After
    each well-formed request it writes the access-log line and, past the
    [slow_ms] threshold, the slow-log breakdown. *)

val serve : t -> socket_path:string -> unit
(** Bind a Unix-domain socket (unlinking any stale file), then accept and
    serve sessions one at a time until a [Shutdown] request; unlinks the
    socket on the way out. Parallelism comes from the pool within a
    sweep or batch request, so replies for a given request order are
    deterministic. Ignores SIGPIPE for the process, so a client that closes before its
    reply ends only that connection. *)

val shutdown : t -> unit
(** Tear down the embedded pool. *)
