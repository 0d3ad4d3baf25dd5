(** Data location detection (Section 4.1) — the [GetNode] function of
    Algorithm 1.

    For an analyzable reference the compiler resolves the virtual address,
    translates it under the page-coloring assumption, and asks the L2 miss
    predictor whether the home bank or the servicing memory controller
    should count as the data's location. The variable2node map overrides
    both when an earlier subcomputation in the window already fetched the
    line into some node's L1. *)

type t = {
  ref_ : Ndp_ir.Reference.t;
  index : int; (** the reference's index in its staged shape *)
  node : int; (** compile-time location on the mesh *)
  in_l1 : bool; (** found in the variable2node map *)
  predicted_hit : bool option; (** [Some] when the predictor was consulted *)
  va : int option; (** virtual address, when resolvable at compile time *)
  bytes : int;
}

val locate : Context.t -> store_node:int -> Staged.meta -> int -> t
(** Locate reference [k] of a staged instance (0 = output, [k + 1] =
    input [k]) from its staged compiler-view address. References the
    compiler cannot resolve are pinned to [store_node], matching default
    execution for that operand. *)

val line_of : Context.t -> int -> int
(** Cache-line number of a virtual address. *)
