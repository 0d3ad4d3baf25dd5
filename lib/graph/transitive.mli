(** Reachability and redundant-edge elimination on directed graphs.

    The synchronization minimizer drops a point-to-point synchronization
    [a -> b] whenever a longer chain from [a] to [b] already orders the two
    subcomputations (Section 4.5 of the paper), and the race validator
    re-proves every dependence against the closure of what survives. *)

type reach
(** The reachability relation of a graph over vertices [0..n-1]: one
    bitset row of [ceil (n / Sys.int_size)] words per vertex, in one flat
    [int array] — [n * ceil (n / Sys.int_size)] words in all. *)

val closure : n:int -> (int * int) list -> reach
(** [closure ~n edges] is the transitive closure (paths of length >= 1) of
    [edges] over vertices [0..n-1]. Any digraph is accepted: cycles and
    self loops included. Warshall's algorithm over the bitset rows, so it
    costs [O(n^2 * ceil (n / Sys.int_size))] word operations plus one word
    per edge. Raises [Invalid_argument] if an edge names a vertex outside
    [0..n-1]. *)

val reachable : reach -> int -> int -> bool
(** [reachable r i j]: is there a path of length >= 1 from [i] to [j]?
    Constant time. Raises [Invalid_argument] outside [0..n-1]. *)

val reduction : n:int -> (int * int) list -> (int * int) list
(** Transitive reduction: the subset of edges that are not implied by any
    other path. Input must be a DAG; raises [Invalid_argument] on cycles. *)

val is_dag : n:int -> (int * int) list -> bool
