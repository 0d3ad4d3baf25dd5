(** End-to-end driver: compile a kernel under a placement scheme and
    execute it on the simulated manycore, producing the metrics the
    paper's evaluation reports.

    Compilation and execution are interleaved per window, so the compiler's
    L2 miss predictor is trained by the access stream it actually induces
    (the profiling-on-beginning-iterations effect of Section 4.5), and the
    simulated L1s see exactly the schedule the compiler produced. *)

(** The pass options, re-exported from {!Context} where they are
    defined and documented: the [Partitioned] scheme's one options
    record, read by the context as is. *)

type window_policy = Context.window_policy = Adaptive | Fixed of int

type part_options = Context.part_options = {
  window : window_policy;
  reuse_aware : bool;
  sync_minimize : bool;
  level_based : bool;
  balance_threshold : float;
  ideal_data : bool;
  use_inspector : bool;
  fuse : bool;
  fuse_capacity : int option;
}

type scheme = Default | Partitioned of part_options

val partitioned_defaults : part_options
(** {!Context.partitioned_defaults}: the paper's full scheme. *)

val scheme_name : scheme -> string

(** Counterfactual knobs for the isolation schemes (Figure 18) and the
    data-mapping comparison (Figure 23). *)
type tweaks = {
  l1_boost : float; (** S1: convert L1 misses to hits with this probability *)
  distance_factor : float; (** S2: scale message path lengths; 1.0 = off *)
  mc_overrides : (int * int) list; (** Figure 23 page->MC re-homing *)
  cost_scale : float; (** S3: divide per-task compute cost; 1.0 = off *)
  extra_syncs : int; (** S4: add syncs to every statement task *)
}

val no_tweaks : tweaks

(** Evidence the schedule validator ([Ndp_analysis.Validate]) checks
    against: which instances were compiled into which tasks, in emission
    order, and under which ordering regime. Captured only for a job with
    [validate = true]; empty otherwise. *)
type schedule_trace =
  | Serialized of {
      t_nest : string;
      t_metas : Window.meta list;
      t_tasks : Ndp_sim.Task.t list;
          (** default scheme: each task runs to completion before the next
              is issued, so emission order is a total happens-before *)
    }
  | Windowed of {
      t_nest : string;
      t_metas : Window.meta list;
      t_compiled : Window.compiled;
          (** one window of the partitioned scheme; ordering comes from
              result operands, surviving sync arcs and per-node program
              order of the emitted task list *)
    }

type result = {
  kernel_name : string;
  scheme_name : string;
  stats : Ndp_sim.Stats.t;
  energy : Ndp_sim.Energy.breakdown;
  exec_time : int;
  group_hops : int array; (** flit-hops per statement instance *)
  group_avg_latency : float array; (** mean network latency per instance *)
  parallelism : float array; (** subcomputation parallelism per instance *)
  group_syncs : int array; (** surviving synchronizations per instance *)
  sync_arcs : int; (** surviving synchronizations, whole run *)
  num_instances : int;
  offload_mix : Ndp_sim.Task.op_mix;
  analyzable_fraction : float;
  predictor_accuracy : float;
  windows_chosen : (string * int) list; (** per loop nest *)
  est_movement_total : int; (** compiler's own movement estimate *)
  tasks_emitted : int;
  remapped_tasks : int;
      (** subcomputations repair placed on a different node than the
          fault-free compiler would (avoided-node evictions plus
          degraded-weight rebalancing); always 0 without [repair] *)
  node_finish : int array; (** per-node completion times *)
  node_busy : int array; (** per-node busy cycles (occupancy) *)
  fusion_decisions : Fusion.decision list;
      (** fusion chains applied, aggregated per (nest, chain statement
          signature); empty unless the scheme fuses. Fusion is skipped
          under fault repair (a remap would strand the L1-resident
          intermediate). *)
  traces : schedule_trace list; (** empty unless the job sets [validate] *)
  emitted : Ndp_sim.Task.t list list;
      (** the task stream as issued to the engine, one sublist per engine
          call, before counterfactual tweaks; empty unless the job sets
          [capture]. Feed to {!replay} to re-simulate the schedule
          under a different cost model without recompiling. *)
}

(** The entry point: a pipeline request as one record.

    Everything that determines a compile+simulate outcome lives in one
    value, so the CLI, the serving daemon ([Ndp_serve]) and the tests
    build requests the same way, [Ndp_serve.Key] can hash them, and
    {!run_batch} can ship lists of them across a pool. *)
module Job : sig
  type t = {
    scheme : scheme;
    kernel : Kernel.t;
    config : Ndp_sim.Config.t;
    tweaks : tweaks;
    faults : Ndp_fault.Plan.t option;
    repair : bool;
    validate : bool; (** capture {!schedule_trace}s for the validator *)
    capture : bool; (** capture the emitted task stream for {!replay} *)
  }

  val make :
    ?config:Ndp_sim.Config.t ->
    ?tweaks:tweaks ->
    ?faults:Ndp_fault.Plan.t ->
    ?repair:bool ->
    ?validate:bool ->
    ?capture:bool ->
    scheme ->
    Kernel.t ->
    t
  (** Defaults: default config, no tweaks, no faults, no repair, no
      validation traces, no capture. *)

  val run : ?obs:Ndp_obs.Sink.t -> t -> result
  (** Compile the job's kernel under its scheme and simulate it.

      [validate] additionally records a {!schedule_trace} per emitted
      window (or per nest under the default scheme) so the schedule can
      be re-checked against ground-truth dependences after the run.
      [obs] threads an observability sink through the machine and engine
      (per-link, cache, core metric families plus task/message trace
      events) and records each nest's chosen window size as a
      [core.window_size{nest=..}] gauge; observability never changes the
      result.

      [faults] injects an {!Ndp_fault.Plan} into the simulated machine
      (link degradation/kill retries, node stalls, MC backpressure);
      omitting it leaves every code path byte-identical to the fault-free
      simulator. [repair] (meaningful only with [faults]) additionally
      hands the plan to the compiler: partitioning runs Kruskal over the
      surviving mesh with degraded link weights, the iteration assignment
      and the balance pass avoid stalled or isolated nodes and
      {!Schedule.repair} sweeps up anything still placed on one. Every
      subcomputation that ends up on a different node than under the
      fault-free assignment is counted in [remapped_tasks] and the
      [fault.remapped_tasks] counter. *)
end

(** {1 Batched and replayed simulation} *)

val run_batch : ?pool:Ndp_prelude.Pool.t -> Job.t list -> result list
(** Run every job, concurrently when given a [pool], returning results in
    input order. Each job is an independent simulation — its own machine,
    engine, context and inspector — so a batch is deterministic at any
    pool size and each result is byte-identical to the corresponding solo
    {!Job.run}. Jobs run unobserved; a caller that wants a job's metrics
    runs it with {!Job.run} [~obs]. *)

type replayed = {
  rp_stats : Ndp_sim.Stats.t;
  rp_energy : Ndp_sim.Energy.breakdown;
  rp_exec_time : int;
  rp_node_finish : int array;
  rp_node_busy : int array;
}

val replay :
  ?config:Ndp_sim.Config.t ->
  ?tweaks:tweaks ->
  ?obs:Ndp_obs.Sink.t ->
  Kernel.t ->
  Ndp_sim.Task.t list list ->
  replayed
(** Re-simulate a task stream captured by a [capture] job, skipping
    compilation. The replay runs on the machine the domain's previous
    replay left behind, reset in place ({!Ndp_sim.Machine.reset}), when
    its shape matches the config, and on a new one otherwise; either way
    the result is that of a fresh machine. The machine is kept for the
    next replay unless [obs] enables metrics or counter samples (their
    samplers read it). With the capture run's config and
    tweaks the replay is cycle-identical to the original simulation; with
    a different config it answers how the {e fixed} schedule performs
    under that cost model — the amortized inner loop of [bench sweep].
    Address-shape parameters (mesh dimensions, line/page size) must match
    the capture config, since operands carry resolved virtual addresses.
    Replay is fault-free: counterfactual hardware sweeps assume a healthy
    mesh. *)

val profile_page_accesses :
  ?config:Ndp_sim.Config.t -> Kernel.t -> (int * int) list
(** [(virtual page, node)] samples under the default placement — the
    profile input of the Figure 23 data-to-MC mapping. *)

val static_context : ?config:Ndp_sim.Config.t -> scheme -> Kernel.t -> Context.t
(** The compilation context exactly as {!Job.run} would build it for the
    scheme — hot ranges, inspector execution, resolver choice, context
    options — but on a fresh machine alone: no engine, no observability,
    and the domain's idle machine pair is neither taken nor reset. This is
    the entry point for static analysis passes that must see the same
    compile-time world as the pipeline. *)

val nest_stream : Context.t -> Ndp_ir.Loop.nest -> first_group:int -> Window.meta list * int
(** The statement-instance stream of one nest in execution order, with the
    default iteration assignment applied — [(metas, next_first_group)]. *)
