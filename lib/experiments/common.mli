(** Shared run cache and parallel cell executor for the experiment
    drivers: the same (app, scheme, config, tweaks) simulation backs
    several figures, so results are memoized per process (an
    [Ndp_serve.Cache] that never evicts, keyed by [Ndp_serve.Key.job]),
    and each driver fans its per-app cells across a domain pool. The
    cache computes outside its lock and the first writer wins, so cells
    may call {!run} concurrently. *)

type t

val create : ?jobs:int -> unit -> t
(** [jobs] sizes the embedded domain pool;
    defaults to {!Ndp_prelude.Pool.default_jobs}. *)

val pool : t -> Ndp_prelude.Pool.t
(** The embedded pool, for drivers that parallelize non-app work. *)

val apps : t -> Ndp_core.Kernel.t list
(** The twelve-application suite, constructed once. *)

val run :
  t ->
  ?config:Ndp_sim.Config.t ->
  ?tweaks:Ndp_core.Pipeline.tweaks ->
  Ndp_core.Pipeline.scheme ->
  Ndp_core.Kernel.t ->
  Ndp_core.Pipeline.result
(** Memoized {!Ndp_core.Pipeline.Job.run}. Safe to call from pool
    workers. *)

val parallel_map : t -> ('a -> 'b) -> 'a list -> 'b list
(** Ordered map over the embedded pool; see
    {!Ndp_prelude.Pool.parallel_map}. *)

val map_apps : t -> (Ndp_core.Kernel.t -> 'a) -> 'a list
(** Evaluate one cell per suite application across the pool, results in
    suite order. The experiment drivers compute row data here and then
    render rows serially, so tables are byte-identical to a serial run. *)

val default_of : t -> Ndp_core.Kernel.t -> Ndp_core.Pipeline.result
(** The baseline run under the default config. *)

val ours_of : t -> Ndp_core.Kernel.t -> Ndp_core.Pipeline.result
(** The full partitioned scheme under the default config. *)

val improvement : base:int -> opt:int -> float
(** Percent reduction. *)

val geomean_improvement : (float * 'a) list -> float
