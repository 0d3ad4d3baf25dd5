(** Window-based multi-statement scheduling (Sections 4.3-4.4).

    A window is a run of consecutive statement instances. Within a window
    the variable2node map propagates L1 placements from already-scheduled
    subcomputations to later MSTs, inter-statement dependences are turned
    into ordered result arcs, and the synchronization graph is minimized.
    The window-size preprocessing prices each nest under every window
    size from 1 to the configured maximum and keeps the size with the
    least estimated data movement. *)

type meta = Staged.meta = {
  group : int; (** global statement-instance id *)
  default_node : int; (** node the default placement would use *)
  inst : Ndp_ir.Dependence.instance;
  shape : Staged.shape; (** the statement's staged shape *)
  addrs : int array; (** the stream's staged runtime addresses *)
  at : int; (** this instance's first reference in [addrs] *)
}

type stmt_report = {
  r_group : int;
  est_movement : int;
  default_est : int;
  parallelism : int;
  task_count : int;
  offload_mix : Ndp_sim.Task.op_mix;
  syncs : int; (** surviving synchronizations charged to this statement *)
}

type compiled = {
  tasks : (Ndp_sim.Task.t * int) list Lazy.t;
      (** tasks with their dependency level (1 = no result operands),
          sorted level-major so ready subcomputations precede waiting
          ones in every node's generated program *)
  reports : stmt_report list Lazy.t;
  est_movement : int; (** total of the reports' [est_movement] *)
  sync_count : int; (** surviving synchronization arcs *)
  predictions : (int * bool) list Lazy.t; (** (va, predicted hit) in issue order *)
  roots : (int * int) list;
      (** (statement group, final task id) per compiled instance — the
          task that performs the output store *)
  sync_arcs : (int * int) list;
      (** the surviving cross-node synchronization arcs themselves, as
          (producer task, consumer task); [sync_count] is their length *)
}

val compile :
  ?deps:Ndp_ir.Dependence.dep list ->
  ?fusion:Fusion.slot option array ->
  Context.t ->
  meta list ->
  compiled
(** Compile one window. Clears and then populates the variable2node map.
    Emission-only parts — [tasks], [reports], [predictions] — are computed
    when first forced, so an estimate that reads only [est_movement] and
    [sync_count] never pays for them. Force them on the domain that
    compiled the window.
    [deps], when given, must be the dependence analysis of exactly these
    instances (indices local to the list) and skips the analysis here —
    the pipeline analyzes each chunk (or slices a fused nest's whole
    analysis) inside its [deps] span, and the window-size preprocessing
    slices one analysis of the nest sample per chunk. [fusion], when given, is the
    fusion plan sliced to this window (parallel to the meta list): a
    fused member executes whole on its chain's node, and its write-back
    becomes L1-local when the slot elides it. An absent array or all-
    [None] slots compile exactly as without [fusion]. *)

type curve
(** The analytic window model: per-instance movement estimates over a
    stream prefix, for the window sizes the curve was built for. *)

val curve : Context.t -> meta list -> sizes:int list -> curve
(** One un-chunked walk over [metas], on a fork of the context. Each
    instance gets the margin-ruled estimate [compile] reports as
    [est_movement], with its L1 providers (the earlier instances whose
    placements it reuses) in view, and a cold re-split only where one of
    [sizes] cuts a provider off into an earlier chunk. No schedule is run
    and no dependence analyzed. Raises [Invalid_argument] on a size < 1. *)

val movement : curve -> window:int -> int -> int
(** [movement c ~window i]: instance [i]'s movement, in links, under
    windows of [window]. Raises [Invalid_argument] unless [window] is one
    of the curve's sizes. *)

val choose_size : Context.t -> meta list -> max:int -> int
(** The preprocessing step of Section 4.4: pick the window size in
    [1..max] minimizing total estimated data movement plus synchronization
    over the first {!preprocessing_sample} instances of one loop nest.
    Movement is read off one {!curve} of the sample for sizes [1..max];
    synchronization is one handshake per distinct cross-node dependence
    pair that shares a chunk. Only candidates within 10% of the analytic
    minimum are re-scored by compiling the sample under them, with the
    nest sample's dependences analyzed once and sliced per chunk; exact
    ties go to the smaller size. Nests with only non-affine references
    short-circuit to size 1. *)

val preprocessing_sample : int
(** Length of the instance-stream prefix {!choose_size} prices. *)

val sync_links_of : Context.t -> int
(** Cost of one synchronization handshake expressed in links — the unit
    that makes movement and synchronization commensurable in the
    preprocessing objective. *)

val all_non_affine : meta list -> bool
(** No reference of any instance is compile-time analyzable: the movement
    estimate cannot discriminate between window sizes (everything resolves
    through the inspector), so sizing falls back to 1 with a W402 lint. *)

val chunk : 'a list -> int -> 'a list list
