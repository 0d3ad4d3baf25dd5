(** Event-driven execution of task graphs on the simulated machine.

    The engine keeps per-node clocks and the network's link occupancy
    across calls, so windows compiled and executed in program order see
    realistic contention. Tasks must arrive producer-before-consumer. *)

type t

val create : ?obs:Ndp_obs.Sink.t -> ?faults:Ndp_fault.Plan.t -> Machine.t -> t
(** With [obs], every executed task emits a trace event (label, node,
    start/finish cycle, task id, group) plus an instant event per
    synchronizing task, and per-node task/busy/sync vectors
    ([core.tasks{node}], ...) are registered in [obs.metrics]. The
    engine's {!stats} counters are published to [obs.metrics] as derived
    [sim.*] counters when it is enabled. Observability never changes
    scheduling or timing.

    With [faults], a task issued on a node during one of the plan's stall
    windows waits until the window closes; the lost cycles accumulate in
    the [fault.stall_cycles] counter. *)

val reset : ?obs:Ndp_obs.Sink.t -> ?faults:Ndp_fault.Plan.t -> t -> unit
(** Return the engine to exactly the state [create ?obs ?faults] builds
    on the same machine, reusing its storage: node clocks, busy counters,
    the task and group tables (cleared at the capacity they grew to)
    start over, {!stats} are fresh counters (the previous run's are left
    as they were), the tweaks are cleared and the
    fault plan and observability handles are rebound. [create] allocates
    the storage and then calls [reset]. The engine's machine is not
    touched; reset it with {!Machine.reset}. *)

val set_tweaks : t -> cost_scale:float -> extra_syncs:int -> unit
(** Counterfactual task knobs for the isolation schemes (Figure 18),
    applied as each task executes, for the rest of the run: compute cost
    is divided by [cost_scale] when above 1.0 (at least 1 unit remains),
    and every task awaits [extra_syncs] more synchronizations. The tasks
    themselves are not changed. *)

val machine : t -> Machine.t

val stats : t -> Stats.t

val run : ?on_load:(va:int -> Machine.level -> unit) -> t -> Task.t list -> unit
(** Execute the tasks. [on_load] observes the level that actually served
    every [Load] operand (used to confirm compile-time predictions).
    Executing a task allocates nothing beyond the machine's first-touch
    records ({!Machine.load}). *)

val group_hops : t -> int -> int
(** Flit-hops attributed to a statement-instance group so far. *)

val group_latency : t -> int -> int * int
(** [(sum, count)] of network latencies attributed to a group. *)

val finish_of : t -> int -> int option
(** Finish time of a task id, if it has executed. *)

val elapsed : t -> int
(** Latest completion time across all nodes. *)

val node_clocks : t -> int array
(** Copy of each node's busy-until time. *)

val node_busy : t -> int array
(** Total busy cycles per node (sum of task spans). *)
