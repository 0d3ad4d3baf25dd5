(** Shared run cache and parallel cell executor for the experiment
    drivers: the same (app, scheme, config, tweaks) simulation backs
    several figures, so results are memoized per process (an
    [Ndp_serve.Cache] that never evicts, keyed by [Ndp_serve.Key.job]),
    and each driver fans its per-app cells across a domain pool. The
    cache computes outside its lock and the first writer wins, so cells
    may call {!run} concurrently. *)

type t

val create : unit -> t
(** The embedded domain pool has {!Ndp_prelude.Pool.default_jobs}
    domains. *)

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
