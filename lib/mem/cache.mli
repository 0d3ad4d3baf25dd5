(** Generic set-associative cache with LRU replacement.

    Addresses are tracked at cache-line granularity; callers pass raw
    addresses and the cache derives the block number. *)

type t

val create : size_bytes:int -> assoc:int -> line_bytes:int -> unit -> t

val publish : t -> Ndp_obs.Metrics.t -> string -> unit
(** [publish t metrics name] registers the derived gauges [<name>.hits],
    [.misses] and [.evictions] in an enabled [metrics] registry (a no-op on
    a disabled one). They read the cache's own counters at dump time, so
    the access path does not change. *)

val access : t -> int -> bool
(** [access t addr] looks the line up, updates recency and inserts on miss
    (allocate-on-miss). Returns [true] on hit. *)

val probe : t -> int -> bool
(** Lookup without any state change. *)

val insert : t -> int -> unit
(** Force the line in (e.g. fill after a remote fetch), evicting LRU. *)

val invalidate : t -> int -> unit
(** Drop the line if present (coherence invalidation). *)

val hits : t -> int
val misses : t -> int

val evictions : t -> int
(** Valid lines displaced by fills (capacity/conflict victims). *)

val clear : t -> unit
(** Drop all contents and statistics: the cache is then indistinguishable
    from a freshly created one of the same geometry. *)

val num_sets : t -> int
val assoc : t -> int
