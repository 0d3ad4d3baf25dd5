(** Loop nests and whole kernels. *)

type loop_var = { var : string; lo : int; hi : int }
(** Iterates [lo, lo+1, ..., hi-1]. *)

type nest = {
  nest_name : string;
  vars : loop_var list; (** outermost first *)
  body : Stmt.t list;
  sweeps : int;
      (** repetitions of the whole iteration space — the outer timing loop
          of the paper's loop-dominated applications; the first sweep is
          the cold phase, later sweeps run against warm caches *)
}

type program = {
  prog_name : string;
  arrays : Array_decl.t list;
  nests : nest list;
}

val nest : ?sweeps:int -> string -> loop_var list -> Stmt.t list -> nest

val iterations : nest -> Env.t list
(** All iteration environments in lexicographic order, repeated once per
    sweep. *)

val base_trip_count : nest -> int
(** Iterations of a single sweep. *)

val trip_count : nest -> int

val program : string -> arrays:Array_decl.t list -> nests:nest list -> program

val all_statements : program -> Stmt.t list
