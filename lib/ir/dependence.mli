(** Dependence analysis over statement instances.

    The partitioner works on concrete statement instances (a statement in a
    given loop iteration), so dependences are computed by resolving each
    reference to the element it touches. References a resolver cannot
    analyze (indirect subscripts without inspector data) yield conservative
    {e may}-dependences against every access to the same array. *)

type instance = {
  stmt_idx : int; (** position of the statement in program order *)
  stmt : Stmt.t;
  env : Env.t;
}

type kind = Flow | Anti | Output

type dep = {
  src : int; (** index into the analyzed instance list *)
  dst : int;
  kind : kind;
  may : bool; (** [true] when at least one side was unresolvable *)
}

type resolver = Reference.t -> Env.t -> int option
(** Maps a reference under an iteration environment to the address of the
    element it touches; [None] when not compile-time analyzable. *)

val analyze : resolver -> instance list -> dep list
(** All pairwise dependences with [src < dst] in list order, sorted by
    ascending (src, dst): one resolver call per (instance, reference),
    then {!analyze_accesses}. *)

type accesses = {
  first : int array;
      (** instance [i]'s accesses are [first.(i) .. first.(i+1) - 1], its
          output first, then its inputs in order; length [n + 1] *)
  ids : int array; (** dense array id per access; equal ids, equal arrays *)
  addrs : int array; (** element address per access, or {!unresolved} *)
}

val unresolved : int
(** Address of an access the resolver could not analyze. *)

val analyze_accesses : accesses -> dep list
(** The analysis proper. Lists of at most 12 instances (a compilation
    window) are scanned all-pairs. Longer ones are pre-bucketed by
    resolved address in an int-keyed table and, for unresolvable
    references, by array id, so only pairs that can actually conflict are
    compared; affine streams cost O(n * dependence-chain length) instead
    of O(n{^ 2}). The analysis is pairwise, so analyzing a contiguous
    slice of the list finds exactly the dependences with both ends in it.
    Both paths give the result of comparing every pair. *)

val slice : chunk:int -> n:int -> dep list -> dep list array
(** [slice ~chunk ~n deps] cuts the analysis [deps] of an [n]-instance
    list into the list's consecutive [chunk]-instance pieces (the last may
    be shorter): piece [c] holds the dependences with both ends in it,
    rebased to the piece, in [deps]'s order. For the analysis of the whole
    list that is exactly what analyzing piece [c] alone finds. One pass;
    raises [Invalid_argument] unless [chunk > 0]. *)

val kind_to_string : kind -> string

type index
(** Precomputed (src, dst) lookup over a dependence list. *)

val index_deps : dep list -> index
(** O(n) construction; queries through {!serialized} are O(1). *)

val serialized : index -> src:int -> dst:int -> bool
(** Whether any dependence orders the two instances. *)
