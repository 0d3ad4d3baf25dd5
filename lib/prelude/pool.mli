(** Fixed-size domain work pool.

    A pool owns [jobs - 1] worker domains plus the calling domain (which
    helps execute tasks while it waits), so [parallel_map] runs up to
    [jobs] tasks concurrently. Results are returned in input order and
    the first (lowest-index) exception is re-raised after every task of
    the call has finished, so a failing element cannot leave orphan tasks
    running behind the caller's back.

    Nested use is safe: a [parallel_map] issued from inside a pool task
    (or on a pool of size 1) degrades to an ordinary serial [List.map]
    on the calling domain, so library code can accept a pool without
    caring whether it is already running under one. *)

type t

val default_jobs : unit -> int
(** Parallelism used when [create] is not given [jobs]: the [NDP_JOBS]
    environment variable if set to a positive integer, otherwise
    [Domain.recommended_domain_count ()]. *)

val create : ?jobs:int -> unit -> t
(** Spawn a pool of [jobs] (default {!default_jobs}). Values below 1 are
    clamped to 1; a pool of size 1 spawns no domains and runs everything
    inline. The pool registers an [at_exit] shutdown, so leaking one
    cannot hang process exit. *)

val size : t -> int
(** The parallelism [create] granted (including the calling domain). *)

val parallel_map : t -> ('a -> 'b) -> 'a list -> 'b list
(** [parallel_map t f xs] applies [f] to every element of [xs], possibly
    concurrently, and returns the results in input order. If one or more
    applications raise, every task still runs to completion and then the
    exception of the lowest-index failure is re-raised (with its
    backtrace). *)

val shutdown : t -> unit
(** Stop and join the worker domains. Idempotent; the pool afterwards
    behaves as a size-1 (inline) pool. *)

val with_pool : ?jobs:int -> (t -> 'a) -> 'a
(** [create], run, then [shutdown] (also on exception). *)
