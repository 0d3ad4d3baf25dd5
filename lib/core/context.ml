type window_policy = Adaptive | Fixed of int

type part_options = {
  window : window_policy;
  reuse_aware : bool;
  sync_minimize : bool;
  level_based : bool;
  balance_threshold : float;
  ideal_data : bool;
  use_inspector : bool;
  fuse : bool;
  fuse_capacity : int option;
}

let partitioned_defaults =
  {
    window = Adaptive;
    reuse_aware = true;
    sync_minimize = true;
    level_based = true;
    balance_threshold = 0.10;
    ideal_data = false;
    use_inspector = true;
    fuse = false;
    fuse_capacity = None;
  }

type t = {
  machine : Ndp_sim.Machine.t;
  config : Ndp_sim.Config.t;
  predictor : Ndp_mem.Miss_predictor.t;
  runtime_resolve : Ndp_ir.Dependence.resolver;
  indirect_known : bool;
  arrays : Ndp_ir.Array_decl.t list;
  decls : Ndp_ir.Array_decl.t array; (* [arrays] staged for scanning *)
  scratch_guf : Ndp_graph.Union_find.t; (* splitter scratch, mesh-sized *)
  mutable scratch_mst : Ndp_graph.Union_find.t; (* splitter scratch, grown on demand *)
  scratch_ints : int array array; (* splitter stacks, one per slot, grown on demand *)
  loads : int array;
  mutable loads_total : int; (* running sum of [loads], for [balanced] *)
  var2node : (int, int * int) Hashtbl.t; (* line -> node, statement stamp *)
  var2node_fifo : int Queue.t;
  var2node_cap : int;
  mutable stmt_clock : int;
  mutable next_task : int;
  repair : Ndp_fault.Plan.t option;
  mutable remapped_tasks : int;
  options : part_options;
}

(* Blocks the compiler's L2 miss predictor tracks. *)
let predictor_capacity_blocks = 1024

let create ~machine ~runtime_resolve ~indirect_known ~arrays ?repair ~options () =
  let config = Ndp_sim.Machine.config machine in
  let map = Ndp_sim.Config.addr_map config in
  {
    machine;
    config;
    predictor = Ndp_mem.Miss_predictor.create ~capacity_blocks:predictor_capacity_blocks map;
    runtime_resolve;
    indirect_known;
    arrays;
    decls = Array.of_list arrays;
    scratch_guf = Ndp_graph.Union_find.create (Ndp_noc.Mesh.size (Ndp_sim.Machine.mesh machine));
    scratch_mst = Ndp_graph.Union_find.create 16;
    scratch_ints = Array.make 4 [||];
    loads = Array.make (Ndp_noc.Mesh.size (Ndp_sim.Machine.mesh machine)) 0;
    loads_total = 0;
    var2node = Hashtbl.create 256;
    var2node_fifo = Queue.create ();
    var2node_cap = config.Ndp_sim.Config.l1_size / config.Ndp_sim.Config.line_bytes;
    stmt_clock = 0;
    next_task = 0;
    repair;
    remapped_tasks = 0;
    options;
  }

(* Planner distance: Manhattan hops on a healthy mesh; under repair, the
   fault-aware XY-route cost (degraded links weigh more, killed links weigh
   the retry penalty), so Kruskal and the occupancy estimates route
   computation around injected faults. *)
let distance t u v =
  match t.repair with
  | None -> Ndp_noc.Mesh.distance (Ndp_sim.Machine.mesh t.machine) u v
  | Some plan -> Ndp_fault.Plan.distance plan u v

let avoided t node =
  match t.repair with
  | None -> false
  | Some plan -> Ndp_fault.Plan.avoided plan node

let fresh_task_id t =
  let id = t.next_task in
  t.next_task <- id + 1;
  id

(* Same lookup [Array_decl.find] performs, on the staged array with a
   physical-equality fast path: references reuse the parser's interned
   name strings, and this runs once per reference per statement visit. *)
let bytes_of t (r : Ndp_ir.Reference.t) =
  let name = r.Ndp_ir.Reference.array in
  let n = Array.length t.decls in
  let rec find j =
    if j >= n then raise Not_found
    else
      let d = t.decls.(j) in
      if d.Ndp_ir.Array_decl.name == name || String.equal d.Ndp_ir.Array_decl.name name then
        d.Ndp_ir.Array_decl.elem_size
      else find (j + 1)
  in
  find 0

(* Splitter scratch: one mesh-sized union-find reused across [split]
   calls, plus a second grown on demand for the per-level MSTs. *)
let scratch_guf t =
  Ndp_graph.Union_find.reset t.scratch_guf;
  t.scratch_guf

let scratch_mst t ~at_least =
  if Ndp_graph.Union_find.capacity t.scratch_mst < at_least then
    t.scratch_mst <- Ndp_graph.Union_find.create at_least
  else Ndp_graph.Union_find.reset t.scratch_mst;
  t.scratch_mst

let scratch_ints t ~slot ~at_least =
  let a = t.scratch_ints.(slot) in
  if Array.length a < at_least then
    t.scratch_ints.(slot) <- Array.make (Int.max at_least (2 * Array.length a)) 0;
  t.scratch_ints.(slot)

let mesh t = Ndp_sim.Machine.mesh t.machine

let clear_reuse t =
  Hashtbl.reset t.var2node;
  Queue.clear t.var2node_fifo;
  t.stmt_clock <- 0

(* How many subsequent statements a recorded L1 placement stays credible
   for: intervening subcomputations pollute the small L1s, so reuse
   assumptions beyond this horizon usually miss at runtime (Section 4.4).
   This is what makes the window-size preprocessing prefer moderate
   windows rather than growing without bound. *)
let reuse_horizon = 4

let advance_statement t = t.stmt_clock <- t.stmt_clock + 1

let note_cached t ~line ~node =
  if not (Hashtbl.mem t.var2node line) then begin
    Queue.push line t.var2node_fifo;
    (* Model L1 capacity: beyond it, the oldest tracked line is assumed
       evicted — the cache-pollution effect of large windows (4.4). *)
    if Queue.length t.var2node_fifo > t.var2node_cap then
      Hashtbl.remove t.var2node (Queue.pop t.var2node_fifo)
  end;
  Hashtbl.replace t.var2node line (node, t.stmt_clock)

let cached_node t ~line =
  match Hashtbl.find t.var2node line with
  | exception Not_found -> None
  | node, stamp -> if t.stmt_clock - stamp <= reuse_horizon then Some node else None

let add_load t ~node ~cost =
  t.loads.(node) <- t.loads.(node) + cost;
  t.loads_total <- t.loads_total + cost

let balanced t ~node ~cost =
  (* The paper phrases the rule as "no more than 10% extra load than the
     next highly-loaded node"; taken literally, several overloaded nodes
     validate each other (each is within 10% of the next). We compare to
     the fleet mean instead, which vetoes any emerging hot spot while
     leaving evenly-loaded nodes free. The [cost] grace keeps the very
     first assignments from being vetoed while the mean is still zero. *)
  let mean = float_of_int t.loads_total /. float_of_int (Array.length t.loads) in
  let would = float_of_int (t.loads.(node) + cost) in
  would <= ((1.0 +. t.options.balance_threshold) *. mean) +. float_of_int cost

let fork_for_estimate t =
  {
    t with
    loads = Array.copy t.loads;
    var2node = Hashtbl.copy t.var2node;
    var2node_fifo = Queue.copy t.var2node_fifo;
  }
