(** The highly-optimized default computation placement the paper compares
    against (Section 6.1): the iteration space is divided into chunks and
    each chunk is assigned to the core that is most beneficial from an
    LLC/MC-locality viewpoint, using profile (ground-truth) data. Every
    statement instance then executes entirely on its chunk's node. *)

val assign_iterations : Context.t -> Ndp_ir.Loop.nest -> Staged.stream -> int array
(** Node per iteration index. Chunks are contiguous runs of iterations;
    each chunk goes to the distinct node minimizing total distance to the
    home banks of the data the chunk touches. *)

val compile_instance : Context.t -> group:int -> node:int -> Staged.meta -> Ndp_sim.Task.t
(** One task per statement instance: fetch every operand to [node],
    compute, store the result to its home. *)
