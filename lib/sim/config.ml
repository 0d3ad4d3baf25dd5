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
  mcdram_capacity : int;
  hop_cycles : int;
  link_service_cycles : int;
  flit_bytes : int;
  l1_hit_cycles : int;
  l2_hit_cycles : int;
  mcdram_cycles : int;
  ddr_cycles : int;
  op_cycles : int;
  sync_cycles : int;
  load_issue_cycles : int;
  outstanding_loads : int;
  coherence : bool;
  prefetch_next_line : bool;
  mlp_overlap : float;
  page_policy : Ndp_mem.Page_alloc.policy;
  seed : int;
}

let default =
  {
    mesh_cols = 6;
    mesh_rows = 6;
    cluster = Ndp_noc.Cluster.Quadrant;
    memory_mode = Flat;
    line_bytes = 64;
    l1_size = 16 * 1024;
    l1_assoc = 4;
    l2_bank_size = 128 * 1024;
    l2_assoc = 8;
    mcdram_capacity = 2 * 1024 * 1024;
    hop_cycles = 16;
    link_service_cycles = 1;
    flit_bytes = 32;
    l1_hit_cycles = 2;
    l2_hit_cycles = 18;
    mcdram_cycles = 170;
    ddr_cycles = 260;
    op_cycles = 8;
    sync_cycles = 8;
    load_issue_cycles = 2;
    outstanding_loads = 2;
    coherence = true;
    prefetch_next_line = false;
    mlp_overlap = 0.85;
    page_policy = Ndp_mem.Page_alloc.Coloring;
    seed = 42;
  }

let memory_mode_to_string = function
  | Flat -> "flat"
  | Cache_mode -> "cache"
  | Hybrid -> "hybrid"

let memory_mode_of_string = function
  | "flat" -> Ok Flat
  | "cache" -> Ok Cache_mode
  | "hybrid" -> Ok Hybrid
  | s -> Error (Printf.sprintf "unknown memory mode %S" s)

let memory_mode_letter = function
  | Flat -> "X"
  | Cache_mode -> "Y"
  | Hybrid -> "Z"

let all_memory_modes = [ Flat; Cache_mode; Hybrid ]

let with_modes t cluster memory_mode = { t with cluster; memory_mode }

let same_shape a b =
  a.mesh_cols = b.mesh_cols
  && a.mesh_rows = b.mesh_rows
  && a.cluster = b.cluster
  && a.memory_mode = b.memory_mode
  && a.line_bytes = b.line_bytes
  && a.l1_size = b.l1_size
  && a.l1_assoc = b.l1_assoc
  && a.l2_bank_size = b.l2_bank_size
  && a.l2_assoc = b.l2_assoc
  && a.mcdram_capacity = b.mcdram_capacity
  && a.page_policy = b.page_policy

let mesh t = Ndp_noc.Mesh.create ~cols:t.mesh_cols ~rows:t.mesh_rows

let addr_map t =
  Ndp_mem.Addr_map.create ~num_l2_banks:(t.mesh_cols * t.mesh_rows) ()

let flits_of_bytes t bytes = max 1 ((bytes + t.flit_bytes - 1) / t.flit_bytes)
