(** Shared compilation state threaded through the partitioning pass. *)

type options = {
  reuse_aware : bool;
      (** consult the variable2node map when locating data (multi-statement
          L1 reuse, Section 4.3) *)
  sync_minimize : bool; (** transitive-closure sync elimination (Section 4.5) *)
  level_based : bool;
      (** honour nested-set priority levels; when [false] the splitter
          flattens the statement (ablation) *)
  balance_threshold : float; (** load-balance slack, 0.10 in the paper *)
  ideal_location : bool;
      (** resolve locations from ground truth instead of the predictor
          (the "ideal data analysis" scenario, Section 6.4) *)
}

val default_options : Ndp_sim.Config.t -> options

type t = {
  machine : Ndp_sim.Machine.t;
  config : Ndp_sim.Config.t;
  predictor : Ndp_mem.Miss_predictor.t;
  runtime_resolve : Ndp_ir.Dependence.resolver; (** ground truth *)
  indirect_known : bool;
      (** the inspector has run, or ideal data analysis: the compiler sees
          the runtime address of indirect references too *)
  arrays : Ndp_ir.Array_decl.t list;
  decls : Ndp_ir.Array_decl.t array; (** [arrays] staged for scanning *)
  scratch_guf : Ndp_graph.Union_find.t; (** splitter scratch, mesh-sized *)
  mutable scratch_mst : Ndp_graph.Union_find.t; (** splitter scratch, grown on demand *)
  scratch_ints : int array array; (** splitter stacks, see {!scratch_ints} *)
  loads : int array; (** accumulated op cost per node, for balancing *)
  mutable loads_total : int; (** running sum of [loads] *)
  var2node : (int, int * int) Hashtbl.t;
      (** VA cache line -> (node holding it in L1, statement stamp) *)
  var2node_fifo : int Queue.t;
  var2node_cap : int;
  mutable stmt_clock : int;
  mutable next_task : int;
  repair : Ndp_fault.Plan.t option;
      (** when set, partitioning plans against the faulted mesh *)
  mutable remapped_tasks : int;
      (** subcomputations moved off avoided nodes by {!Schedule.repair} *)
  options : options;
}

val create :
  machine:Ndp_sim.Machine.t ->
  runtime_resolve:Ndp_ir.Dependence.resolver ->
  indirect_known:bool ->
  arrays:Ndp_ir.Array_decl.t list ->
  ?repair:Ndp_fault.Plan.t ->
  options:options ->
  unit ->
  t

val distance : t -> int -> int -> int
(** Inter-node distance as the partitioner should see it: Manhattan hops
    normally; the fault-aware XY-route cost when a repair plan is set. *)

val avoided : t -> int -> bool
(** True when a repair plan marks the node as one to place no work on. *)

val fresh_task_id : t -> int

val bytes_of : t -> Ndp_ir.Reference.t -> int

val scratch_guf : t -> Ndp_graph.Union_find.t
(** The context's statement-global union-find scratch, reset to all
    singletons. Valid until the next [scratch_guf] call on this context. *)

val scratch_mst : t -> at_least:int -> Ndp_graph.Union_find.t
(** Per-MST union-find scratch with at least [at_least] elements, reset to
    all singletons. Valid until the next [scratch_mst] call. *)

val scratch_ints : t -> slot:int -> at_least:int -> int array
(** Int scratch [slot] (0 to 3), at least [at_least] cells, contents
    unspecified: the splitter's stacks and the scheduler's level counts.
    Forked contexts share their parent's. *)

val mesh : t -> Ndp_noc.Mesh.t

val clear_reuse : t -> unit
(** Reset the variable2node map (at window boundaries). *)

val note_cached : t -> line:int -> node:int -> unit
(** Record that a cache line was fetched into a node's L1, evicting the
    oldest entry when the modelled L1 capacity is exceeded. *)

val cached_node : t -> line:int -> int option
(** A placement is only trusted for a bounded number of subsequent
    statements ([reuse_horizon]) — the compile-time model of L1 pollution
    that makes very large windows unattractive (Section 4.4). *)

val advance_statement : t -> unit
(** Note that one statement of the current window has been scheduled. *)

val reuse_horizon : int

val add_load : t -> node:int -> cost:int -> unit

val balanced : t -> node:int -> cost:int -> bool
(** The 10%-rule: adding [cost] to [node] must not push it more than the
    threshold above the most loaded other node. *)

val fork_for_estimate : t -> t
(** Copy with private load/reuse/task-counter state, sharing the machine,
    the predictor and the splitter scratch — used by the window-size
    preprocessing, which must not disturb real compilation state. *)
