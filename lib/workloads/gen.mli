(** Deterministic index-array generation for the irregular kernels. *)

val permutation : seed:int -> int -> int array
(** Random permutation of [0..n-1]. *)

val uniform : seed:int -> n:int -> range:int -> int array
(** [n] uniform indices into [0..range-1]. *)

val clustered : seed:int -> n:int -> range:int -> spread:int -> int array
(** Indices with spatial locality: a slowly drifting base plus a bounded
    random offset — the shape of neighbor lists and interaction lists. *)
