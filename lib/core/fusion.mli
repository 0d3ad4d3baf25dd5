(** Producer→consumer statement fusion (pre-MST coalescing).

    Within one nest, a statement whose output has exactly one live reader
    — the next statement of a chain, in the same window chunk — can run
    on the same node as that reader with its write-back elided: the
    intermediate value stays in the node's L1 and never crosses the NoC.
    The pass plans such chains before MST scheduling; every member of a
    chain is forced to execute whole on the chain's node (a single
    Kruskal vertex), and all stores but the tail's become L1-local.

    Legality ("first-kill" rule, under the all-pairs dependence analysis):
    the live readers of instance [i] are the flow-dependence consumers
    positioned before the first output dependence from [i] (the first
    re-write of the element kills later reads). A store is elided only
    when those live readers are exactly the single in-chain consumer,
    both statements are fully affine, no may-dependence touches either
    instance, the output array is local to the nest (never read through
    an index-array indirection, never referenced by another nest), both
    instances share a window chunk and a default node, and the chain's
    line-granular footprint fits the capacity bound. A capacity bound of
    0 disables fusion entirely (the identity pass).

    Profitability: fusing forces each member to run unsplit at the chain
    node, so operands that the MST split would have consumed near their
    homes all travel there instead. A chain segment is kept only when the
    write-back links its elisions save exceed that unsplit penalty,
    priced with {!Splitter} estimates on a {!Context.fork_for_estimate}
    copy (real compilation state is untouched). *)

type slot = {
  f_node : int; (** the chain's node: every member executes whole here *)
  f_elide : bool; (** elide this member's write-back (L1-local store) *)
}

type decision = {
  d_nest : string;
  d_stmts : int list;
      (** statement indices (within the nest body) of the chain,
          producer first *)
  d_arrays : string list; (** intermediate arrays whose stores are elided *)
  d_instances : int; (** fused chain instances over the stream *)
  d_elided_stores : int;
  d_pred_saved_flit_hops : int;
      (** predicted NoC saving: one line write-back from the chain node to
          the output's home bank per elided store *)
}

val plan :
  Context.t ->
  nest:string ->
  window:int ->
  capacity:int ->
  shared:(string, unit) Hashtbl.t ->
  default_node:int array ->
  Staged.meta array ->
  Ndp_ir.Dependence.dep array ->
  slot option array * decision list
(** Plan fusion over one nest's full instance stream. [window] is the
    chunk size the stream will be compiled under (chains never straddle a
    chunk boundary), [capacity] the footprint bound in bytes, [shared]
    the arrays fusion must never elide (referenced by another nest or
    used as an index array), [default_node] the default placement per
    instance and [deps] the nest-wide dependence analysis (indices into
    the instance array). The returned slot array is parallel to the
    instance array; [None] means the instance is not fused. Decisions are
    aggregated per (chain statement signature), sorted for determinism. *)
