(** Single-statement splitting (Algorithm 1, lines 1-32).

    The statement's references are classified into nested sets by operator
    priority; processing proceeds innermost set first, running Kruskal's
    algorithm per level with already-processed sets treated as single
    components (their member nodes collectively form one vertex, and the
    distance to a component is the minimum distance to any member). The
    union of the per-level MST edges is a spanning tree over the distinct
    physical nodes holding the statement's data, rooted at the store node.
    The splitter reads only staged data ({!Staged}) and resolves no
    reference; levels live on the context's int scratch stacks. A
    parenthesized group without array references forms no component. *)

type t = {
  meta : Staged.meta; (** the instance split *)
  locs : Location.t array; (** each input located, in input order *)
  edges : Ndp_graph.Kruskal.edge list;
      (** tree edges over physical node ids; total weight = the minimized
          data movement in links *)
  store_node : int;
  store : (int * int) option; (** runtime (va, bytes) of the output *)
  est_movement : int; (** sum of edge weights — Equation 1 with unit size *)
  whole : bool; (** collapsed by {!unsplit}: every item consumed at the store node *)
}

val split : Context.t -> store_node:int -> Staged.meta -> t

val default_movement : Context.t -> store_node:int -> Staged.meta -> int
(** Links traversed by the default execution (every operand fetched to the
    store node) — the 13 of Figure 3. *)

val unsplit : t -> t
(** Collapse a split back to whole-statement execution at the store node:
    no tree edges, every item consumed there. Used when the MST cannot
    beat the default movement. *)

val items_at : t -> (int * Location.t list) list
(** Data consumed at each physical node, grouped in the fold order of an
    int-keyed [Hashtbl] filled in location order. After {!unsplit} it is
    the operand order of the statement executed whole. *)

val predictions : t -> (int * bool) list
(** (va, predicted L2 hit) pairs made while locating, in location order. *)
