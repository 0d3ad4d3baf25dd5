(** Subcomputation scheduling (Algorithm 1, lines 33-58; Section 4.3).

    The statement MST is rooted at the store node and walked from the
    leaves: each tree node combines its local data with the partial results
    arriving from its children, and forwards one partial result to its
    parent. A node with two or more children is a join and synchronizes on
    its children (Figure 6). The final subcomputation always runs on the
    store node — the result is never migrated (Section 4.5). Intermediate
    subcomputations may be deflected to a neighbouring tree node by the
    load balancer (10% rule, division counted 10x). *)

type t = {
  tasks : Ndp_sim.Task.t list; (** producers before consumers *)
  root_task : int; (** final task id *)
  join_arcs : (int * int) list; (** producer -> consumer sync arcs at joins *)
  parallelism : int; (** antichain width of the task graph *)
  offload_mix : Ndp_sim.Task.op_mix; (** ops moved off the store node *)
  placements : (int * int) list; (** (VA line, node) L1 placements *)
}

val schedule : Context.t -> group:int -> Splitter.t -> t
(** Schedule a split instance, walking the MST straight off its edge list
    and drawing operators from the staged shape. Raises [Invalid_argument]
    when the edges are not a tree containing the store node. *)

val repair : Context.t -> t -> t
(** When the context carries a repair plan, remap every task placed on an
    avoided node (stalled, or isolated by killed links) to its nearest
    healthy node under the fault-aware distance (ties to the lowest id),
    rewriting L1 placements to match and counting moves in
    [ctx.remapped_tasks]. Identity without a plan. Must be applied before
    cross-node dependence arcs are derived. *)
