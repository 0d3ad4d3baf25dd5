(** High-level code generation (Section 4.5, Figure 8): render the
    per-node subcomputation programs produced by the scheduler, with
    explicit [sync(...)] waits, in the style of the paper's example. *)

val emit : Ndp_sim.Task.t list -> string
(** Group the tasks by node and print each node's program. *)
