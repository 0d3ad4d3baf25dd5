(** Disjoint-set forest with union by rank and path compression. *)

type t

val create : int -> t
(** [create n] makes [n] singleton sets labelled [0 .. n-1]. *)

val reset : t -> unit
(** Return every element to its own singleton set, as freshly created —
    lets hot callers reuse one instance instead of allocating per use. *)

val capacity : t -> int
(** The [n] the structure was created with. *)

val union : t -> int -> int -> bool
(** Merge the two sets; [false] when already in the same set. *)

val same : t -> int -> int -> bool

val count : t -> int
(** Number of disjoint sets currently present. *)
