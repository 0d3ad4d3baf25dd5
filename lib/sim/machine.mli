(** The simulated manycore: per-node L1s, distributed SNUCA L2 banks,
    corner memory controllers, MCDRAM/DDR backing store and the mesh
    network. Implements the access flow of Figure 1: L1 miss -> home L2
    bank -> (on L2 miss) memory controller -> fill back. *)

type t

(** The level of the hierarchy that served a load. *)
type level =
  | L1  (** the requester's own L1 (or the S1 boost) *)
  | L2  (** the line's home L2 bank *)
  | Memory  (** an L2 miss, served through a memory controller *)

val create : ?obs:Ndp_obs.Sink.t -> ?faults:Ndp_fault.Plan.t -> Config.t -> t
(** With [obs], the machine registers per-node L1 hit/miss vectors
    ([mem.l1_hits{node}], ...), per-bank L2 vectors
    ([mem.l2_bank_hits{bank}], ...), per-MC request counts, derived cache
    hit/miss/eviction gauges and the network's per-link families in
    [obs.metrics], and message traffic in [obs.trace]. Disabled by
    default; observability never changes timing or [stats].

    With [faults], the plan is forwarded to the internal {!Network} (link
    degradation and kill-retry penalties) and memory latency behind a
    backpressured controller is multiplied by the plan's MC factor,
    surfaced as [fault.mc_penalty_cycles]. Without a plan, timing is
    byte-identical to the pre-fault simulator. *)

val reset : ?obs:Ndp_obs.Sink.t -> ?faults:Ndp_fault.Plan.t -> t -> Config.t -> unit
(** Return the machine to exactly the state [create ?obs ?faults config]
    builds, reusing its storage (the caches' tag arrays, the TLB, the
    network's per-link table); [create] itself allocates that storage and
    then calls [reset]. Caches and TLB are emptied, the sharer and frame
    tables return to their creation capacity, MC overrides, hot ranges and
    the L1 boost are cleared, both RNGs are reseeded from [config.seed],
    the network is reset ({!Network.reset}) and the config, fault plan and
    observability handles are rebound. A run on a reset machine is
    indistinguishable from one on a fresh machine — results and metric
    dumps alike — and allocates the same whatever the machine ran before.

    [config] must have the machine's shape ({!Config.same_shape});
    raises [Invalid_argument] otherwise. Metrics registered by an earlier
    [obs] keep reading this machine's caches and pages, so a machine must
    not be reset while an earlier run's registry is still to be dumped. *)

val set_hot_ranges : t -> (int * int) list -> unit
(** Virtual-address [(base, length_bytes)] ranges placed in MCDRAM under
    the flat and hybrid memory modes (the VTune-guided placement of
    Section 6.1). *)

val set_l1_boost : t -> float -> unit
(** With probability [p], convert an L1 miss into a hit. Used by the S1
    isolation scheme (Figure 18) to impose the optimized code's L1 profile
    on the default placement. *)

val set_mc_overrides : t -> (int * int) list -> unit
(** [(virtual_page, mc_node)] pairs that redirect L2-miss service for those
    pages — the profile-based data-to-MC mapping of Figure 23. *)

val load : t -> node:int -> va:int -> bytes:int -> time:int -> stats:Stats.t -> int
(** Returns the cycle at which the data reaches the requesting core; the
    level that served it is then {!last_level}. Allocates only on the
    first touch of a line or page (its sharer set, its frame). *)

val last_level : t -> level
(** The level that served the most recent {!load}. *)

val store : t -> node:int -> va:int -> bytes:int -> time:int -> stats:Stats.t -> int
(** Write-back of a result to its home L2 bank; returns completion time.
    The writing core does not stall on it. *)

val store_local : t -> node:int -> va:int -> bytes:int -> time:int -> stats:Stats.t -> int
(** Store of a fused intermediate: the line stays in the executing node's
    L1 (coherence invalidations still fire) and no write-back crosses the
    NoC. Legal only when the fusion pass proved every consumer of the
    value runs on this node. *)

val compiler_translate : t -> int -> int
(** The compiler's view of the translation (see {!Ndp_mem.Page_alloc}). *)

val home_node : t -> va:int -> int
(** Home L2 bank node for a VA (runtime truth). *)

val note_home_lookups : t -> bank:int -> count:int -> unit
(** Account [count] extra [mem.home_lookups{bank}] metric bumps without
    re-translating — used by compiler profiling passes that batch a
    computation the per-candidate code evaluated repeatedly, keeping the
    metric's meaning (lookups the profile pass performs) unchanged. *)

val compiler_home_node : t -> va:int -> int

val compiler_mc_node : t -> va:int -> int

val probe_l2 : t -> va:int -> bool
(** Ground-truth L2 residency; used only by the ideal-data-analysis
    scheme. *)

val l1_probe : t -> node:int -> va:int -> bool

val network : t -> Network.t

val config : t -> Config.t

val mesh : t -> Ndp_noc.Mesh.t
