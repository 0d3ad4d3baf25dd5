(** Pass 2: schedule validation — a static race detector over compiled
    schedules.

    Sync minimization ([Sync_min] via [Transitive.reduction]) prunes
    synchronization arcs it believes are transitively implied, and the
    compiler's resolver is weaker than ground truth (it cannot see through
    uninspected indirect references). A bug in either produces a schedule
    that looks plausible and simulates fine but is racy. This pass
    re-derives the dependence set with the runtime (ground-truth) resolver
    and proves every dependence is still ordered by what the schedule
    actually guarantees:

    - a {e result arc}: the consumer holds a [Task.Result] operand and
      blocks on the producer's message;
    - a {e surviving sync arc}: an explicit handshake [Sync_min] kept;
    - {e same-node program order}: a node executes its emitted task list
      in order (globally, under the serialized default scheme).

    The validator checks the statement-level contract the compiler
    enforces: the producer's final task (which performs the store) must
    happen-before the consumer's final task. Dependences are checked
    within each compiled window — the scope over which the sync graph is
    built and minimized.

    Violations are reported as [E301] (definite race), [W301] (may-race:
    at least one side unresolvable even at runtime) or [E302] (incomplete
    trace), naming the dependence kind, both statement instances and their
    assigned mesh nodes. *)

type trace = {
  v_kernel : string;
  v_nest : string;
  v_metas : Ndp_core.Window.meta list; (** instances, window order *)
  v_tasks : Ndp_sim.Task.t list; (** emission order *)
  v_sync_arcs : (int * int) list; (** surviving handshakes *)
  v_roots : (int * int) list; (** statement group -> final task id *)
  v_serialized : bool; (** emission order is a total order *)
}

val of_pipeline_trace : kernel:string -> Ndp_core.Pipeline.schedule_trace -> trace

val check : resolver:Ndp_ir.Dependence.resolver -> trace -> Diagnostic.t list
(** Re-derive dependences over the trace's instances with [resolver] and
    report every one the schedule leaves unordered. Tests tamper with the
    trace (dropping a sync arc or result operand) to prove detection.
    Cost: one bitset closure over the trace's n tasks, [O(n^2 * ceil (n / 63))]
    word operations, then a constant-time lookup per dependence. *)

val ground_truth_resolver : Ndp_core.Kernel.t -> Ndp_ir.Dependence.resolver
(** Runtime resolver over a fresh, already-run inspector: resolves every
    reference the kernel's index arrays cover. *)

val check_result : kernel:Ndp_core.Kernel.t -> Ndp_core.Pipeline.result -> Diagnostic.t list
(** Validate every trace a [validate] job captured. *)

val check_kernel :
  ?config:Ndp_sim.Config.t -> Ndp_core.Pipeline.scheme -> Ndp_core.Kernel.t -> Diagnostic.t list
(** Compile-and-validate one kernel under one scheme. *)
