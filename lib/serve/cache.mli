(** Bounded, mutex-protected LRU cache with eviction accounting.

    Keys are canonical content strings (see {!Key}), values are whatever
    the owner stores (rendered response bodies, captured schedules,
    pipeline results), and capacity is enforced by least-recently-used
    eviction; the experiment drivers' memo ([Experiments.Common]) is one
    with a capacity of [max_int], which never evicts. Hit/miss/eviction
    counts are exact integers ({!stats}, feeding the daemon's
    deterministic [cache-stats] response), which the registry passed at
    creation reads as [serve.cache_{hits,misses,evictions}{cache=NAME}]
    derived counters.

    Thread-safety: all operations take an internal mutex. {!find_or_add}
    computes outside the lock — concurrent callers may both compute a
    missing key, but the first writer wins, so every reader observes one
    value (runs are deterministic, so the loser's value was bit-identical
    anyway). *)

type 'a t

type stats = { entries : int; hits : int; misses : int; evictions : int }

val create : ?metrics:Ndp_obs.Metrics.t -> name:string -> capacity:int -> unit -> 'a t
(** [metrics] defaults to the disabled registry (instruments inert,
    {!stats} still exact). [capacity] is clamped to at least 1. *)

val name : _ t -> string

val capacity : _ t -> int

val find : 'a t -> string -> 'a option
(** Lookup without insertion; refreshes recency on hit but does not count
    toward hit/miss totals. *)

val find_or_add : 'a t -> string -> (unit -> 'a) -> 'a * bool
(** [find_or_add t key compute] returns [(value, was_hit)]. On a miss,
    [compute] runs outside the lock and the result is inserted, evicting
    least-recently-used entries while over capacity. *)

val stats : _ t -> stats
