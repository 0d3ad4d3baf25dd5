(** Aggregate counters collected by the execution engine.

    The type is opaque: readers go through the named accessors or
    {!to_alist}, writers through the typed bump functions. The counters
    are plain integers that always count, whether or not observability is
    on. [Engine.reset] {!publish}es them to an enabled metrics registry
    as derived counters ([Metrics.counter_fn]) named [sim.l1_hits],
    [sim.hops], ..., read at dump time, so one [Metrics.to_alist] dump
    interleaves the aggregate stats with the per-link / per-node /
    per-bank families without the registry ever holding the counts. *)

type t

val create : unit -> t
(** Fresh zeroed counters. *)

(** {1 Accessors} *)

val l1_hits : t -> int
val l1_misses : t -> int
val l2_hits : t -> int
val l2_misses : t -> int
val mcdram_accesses : t -> int
val ddr_accesses : t -> int

val hops : t -> int
(** Total link traversals weighted by flits. *)

val messages : t -> int

val latency_sum : t -> int
(** Network latency summed across all messages. *)

val latency_max : t -> int

val ops : t -> int
(** Weighted operation units executed. *)

val syncs : t -> int
(** Point-to-point synchronizations performed. *)

val tasks : t -> int

val finish_time : t -> int
(** Simulated completion cycle. *)

val load_wait : t -> int
(** Cycles tasks waited on memory operands. *)

val result_wait : t -> int
(** Cycles tasks waited on partial results. *)

val invalidations : t -> int
(** L1 copies killed by remote stores. *)

val prefetches : t -> int
(** Next-line prefetch fills issued. *)

val l1_hit_rate : t -> float

val l2_hit_rate : t -> float

val avg_latency : t -> float
(** 0.0 when no messages were sent. *)

val to_alist : t -> (string * int) list
(** Every counter as [(name, value)], in a fixed documented order
    (the declaration order above, [l1_hits] first). *)

val equal : t -> t -> bool
(** All counters equal — the metrics-on/off determinism check. *)

val publish : t -> (string -> (unit -> int) -> unit) -> unit
(** [publish t register] calls [register name read] once per counter, in
    {!to_alist} order; [read ()] is the counter's current value. *)

(** {1 Bumps (simulator-internal writers)} *)

val incr_l1_hits : t -> unit
val incr_l1_misses : t -> unit
val incr_l2_hits : t -> unit
val incr_l2_misses : t -> unit
val incr_mcdram_accesses : t -> unit
val incr_ddr_accesses : t -> unit
val add_hops : t -> int -> unit
val incr_messages : t -> unit

val note_latency : t -> int -> unit
(** Adds to [latency_sum] and raises [latency_max]. *)

val add_ops : t -> int -> unit
val add_syncs : t -> int -> unit
val incr_tasks : t -> unit

val note_finish : t -> int -> unit
(** Raises [finish_time] to the given cycle if later. *)

val add_load_wait : t -> int -> unit
val add_result_wait : t -> int -> unit
val incr_invalidations : t -> unit
val incr_prefetches : t -> unit

val pp : Format.formatter -> t -> unit
(** Human summary. Average latency renders as ["-"] on runs with no
    messages (never ["nan"]). *)
