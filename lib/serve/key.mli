(** Canonical content keys for compiled schedules and simulation results.

    A key is a string that covers {e every} input the pipeline's output
    depends on — kernel IR content, the full [Config.t] (the machine), the
    placement scheme with every pass option, counterfactual tweaks, the
    fault plan (spec and seed) and the repair/validate/capture switches.
    The compiler's fixed constants (window bound, predictor capacity,
    fault retry parameters) are not inputs and are not keyed. Two jobs
    with equal keys produce byte-identical results (runs are
    deterministic), so keys address the serve daemon's schedule and result
    caches and [Experiments.Common]'s in-process memo cache.

    Floats are rendered in hex ([%h]) so distinct values can never round
    to the same key; list-valued fields serialize element-wise so equal
    lengths cannot collide. *)

val config : Ndp_sim.Config.t -> string
(** Covers every [Config.t] field; the serve tests' perturbation table
    destructures [Config.t] exhaustively, so a new field must be added
    here too. *)

val tweaks : Ndp_core.Pipeline.tweaks -> string
(** [""] for {!Ndp_core.Pipeline.no_tweaks}; otherwise every field,
    with [mc_overrides] serialized pairwise. *)

val scheme : Ndp_core.Pipeline.scheme -> string
(** Scheme tag plus, for [Partitioned], every field of the one pass
    options record ({!Ndp_core.Context.part_options}): window policy,
    switches, balance threshold (hex) and fusion bound. *)

val kernel : Ndp_core.Kernel.t -> string
(** [name:md5] where the digest covers the program text (statements,
    loop bounds, sweeps), the array layout, index-array contents and hot
    arrays — same-named kernels with different bodies key apart. *)

val fault : Ndp_fault.Plan.t option -> string
(** [""] for [None]; otherwise the plan's seed and its resolved event
    list. *)

val job : Ndp_core.Pipeline.Job.t -> string
(** The canonical key of a whole pipeline job: all of the above plus the
    repair/validate/capture flags, ['#']-joined. *)

val digest : string -> string
(** Hex MD5 of a canonical key — the fixed-width content address used on
    the wire and as cache index. *)

val job_digest : Ndp_core.Pipeline.Job.t -> string
(** [digest (job j)]. *)
