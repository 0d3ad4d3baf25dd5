(** Machine configuration for the KNL-like simulated manycore.

    The default models a 6x6 tile mesh (Section 6.1) with corner memory
    controllers, quadrant cluster mode and flat memory mode. All latency
    and energy constants are per-event; the paper's results are relative,
    so only their ratios matter. *)

type memory_mode = Flat | Cache_mode | Hybrid

type t = {
  mesh_cols : int;
  mesh_rows : int;
  cluster : Ndp_noc.Cluster.t;
  memory_mode : memory_mode;
  line_bytes : int;
  l1_size : int;
  l1_assoc : int;
  l2_bank_size : int;
  l2_assoc : int;
  mcdram_capacity : int; (** bytes of on-package memory *)
  hop_cycles : int; (** per-link traversal latency *)
  link_service_cycles : int; (** per-flit link occupancy (contention) *)
  flit_bytes : int;
  l1_hit_cycles : int;
  l2_hit_cycles : int;
  mcdram_cycles : int;
  ddr_cycles : int;
  op_cycles : int; (** per unit of operation cost *)
  sync_cycles : int; (** per point-to-point synchronization *)
  load_issue_cycles : int; (** core occupancy per issued load *)
  outstanding_loads : int;
      (** loads a core can overlap (MSHR-bound memory-level parallelism) *)
  coherence : bool;
      (** write-invalidate coherence: a store invalidates every other
          node's L1 copy of the line (invalidation messages are charged
          to the network) *)
  prefetch_next_line : bool;
      (** L1 next-line prefetch: an L1 miss also fills line+1 from its
          home bank, off the critical path *)
  mlp_overlap : float;
      (** fraction of memory-stall time hidden by outstanding misses; the
          rest blocks the core's task queue *)
  balance_threshold : float; (** load-balance slack, 10% in the paper *)
  max_window : int; (** largest window size searched, 8 in the paper *)
  page_policy : Ndp_mem.Page_alloc.policy;
  predictor_capacity_blocks : int;
  seed : int;
}

val default : t

val memory_mode_to_string : memory_mode -> string

val memory_mode_of_string : string -> (memory_mode, string) result

val memory_mode_letter : memory_mode -> string
(** Paper legend letter: X (flat), Y (cache) or Z (hybrid), Figure 22. *)

val all_memory_modes : memory_mode list

val with_modes : t -> Ndp_noc.Cluster.t -> memory_mode -> t

val same_shape : t -> t -> bool
(** The two configs build machines with the same structure: mesh
    dimensions, cluster and memory mode, line, cache and MCDRAM sizes and
    the page policy agree. Latencies, flags and the seed may differ — a
    machine can be reset from one to the other in place. *)

val mesh : t -> Ndp_noc.Mesh.t

val addr_map : t -> Ndp_mem.Addr_map.t

val flits_of_bytes : t -> int -> int
(** Number of flits for a message payload, at least 1. *)
