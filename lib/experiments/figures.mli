(** Figures 13-24 of the paper, regenerated on the simulated manycore.

    Each driver prints the same per-application series the paper plots,
    plus the geometric-mean summary quoted in the text. *)

val fig13 : Common.t -> unit
(** Average/maximum per-statement data-movement reduction. *)

val fig14 : Common.t -> unit
(** Average/maximum degree of subcomputation parallelism per statement. *)

val fig15 : Common.t -> unit
(** Synchronizations per statement after minimization. *)

val fig16 : Common.t -> unit
(** L1 hit-rate improvement over the default placement. *)

val fig17 : Common.t -> unit
(** Execution-time reduction: our scheme, ideal network, ideal data
    analysis. *)

val fig18 : Common.t -> unit
(** Isolated contribution of each metric (S1 L1, S2 movement,
    S3 parallelism, S4 syncs), normalized to default execution. *)

val fig19 : Common.t -> unit
(** Average/maximum on-chip network latency reduction. *)

val link_heatmap : ?app:string -> Common.t -> unit
(** Per-node outgoing flit totals on the mesh (from the
    [noc.link_flits{..}] metric family), default vs partitioned — the
    table form of the paper's traffic heatmaps. *)

val attribution : Common.t -> unit
(** Predicted (compile-time MST / window estimate) vs. measured (ledger)
    data movement per application, default and partitioned — plus the
    measured/predicted ratio, the honesty check on the cost model. Runs a
    ledger-enabled pipeline per (app, scheme) outside the memo cache. *)

val degradation : ?app:string -> Common.t -> unit
(** Slowdown versus number of killed links (seed-chosen, 0-8), for the
    default placement, the partitioned scheme and the partitioned scheme
    with schedule repair — each normalized to its own fault-free run. The
    graceful-degradation curve; bypasses the experiment memo cache. *)

val fig20 : Common.t -> unit
(** Execution-time improvement under fixed window sizes 1-8 and the
    adaptive per-nest choice. *)

val fig21 : Common.t -> unit
(** L1 hit rates under the same window sweep. *)

val fig22 : Common.t -> unit
(** Cluster mode x memory mode x {original, optimized} grid, normalized
    to (quadrant, flat, original). *)

val fig23 : Common.t -> unit
(** Our computation mapping vs profile-based data-to-MC mapping vs the
    combined scheme. *)

val fig24 : Common.t -> unit
(** Energy savings: our scheme and the two ideal scenarios. *)

val summary : Common.t -> unit
(** One table with the headline per-application improvements (execution
    time, data movement, L1 hit rate, energy) — the numbers the paper's
    abstract quotes. *)
