(** What the per-statement kernel reads, computed once: each statement's
    static shape and each (instance, reference) address. Immutable once
    built. *)

type shape = {
  stmt : Ndp_ir.Stmt.t;
  nested : Ndp_ir.Nested_set.t; (** the level-based nested set *)
  flat : Ndp_ir.Nested_set.t; (** every input at one level (the ablation) *)
  ops : Ndp_ir.Op.t array; (** operators, left to right *)
  ops_list : Ndp_ir.Op.t list;
  refs : Ndp_ir.Reference.t array; (** the output at 0, then the inputs in order *)
  affine : bool array; (** per reference: compile-time analyzable *)
  ids : int array; (** per reference: array id (declaration index, or past it) *)
  bytes : int array; (** per reference: element size; 0 when undeclared *)
  width : int; (** bound on the components of any nested-set level *)
}

type meta = {
  group : int; (** global statement-instance id *)
  default_node : int; (** node the default placement would use *)
  inst : Ndp_ir.Dependence.instance;
  shape : shape;
  addrs : int array; (** a whole stream's runtime addresses, {!none} if unresolved *)
  at : int; (** reference [k] of this instance is [addrs.(at + k)] *)
}

val none : int
(** The unresolved address. *)

val make : Context.t -> (int * int * Ndp_ir.Dependence.instance) list -> meta list
(** Stage explicit [(group, default node, instance)] triples; the pipeline
    stages whole nests with {!stream}. *)

val runtime_va : meta -> int -> int
(** Runtime address of reference [k] (0 = output, [k + 1] = input [k]). *)

val compiler_va : Context.t -> meta -> int -> int
(** The compiler's view of reference [k]: the runtime address when the
    reference is affine or [Context.indirect_known], {!none} otherwise. *)

val accesses : Context.t -> meta array -> lo:int -> hi:int -> Ndp_ir.Dependence.accesses
(** Compiler-view accesses of [metas.(lo .. hi - 1)]. *)

val deps : Context.t -> meta list -> Ndp_ir.Dependence.dep list
(** Compiler-view dependence analysis of a list of staged instances. *)

type stream = {
  envs : Ndp_ir.Env.t array; (** iterations in execution order *)
  body : shape array; (** the nest's statements *)
  offsets : int array; (** first reference of statement [s] within an iteration *)
  stride : int; (** references per iteration *)
  stream_addrs : int array;
      (** reference [k] of statement [s] in iteration [i] is at
          [i * stride + offsets.(s) + k] *)
}

val stream : Context.t -> Ndp_ir.Loop.nest -> stream
(** A loop nest staged: every (instance, reference) resolved once. *)
