(** Node coordinates on the 2D mesh. *)

type t = { x : int; y : int }

val make : int -> int -> t

val manhattan : t -> t -> int
(** [manhattan a b = |a.x - b.x| + |a.y - b.y|], the minimum number of mesh
    links between the two nodes (Section 2 of the paper). *)
