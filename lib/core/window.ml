module Task = Ndp_sim.Task
module Dep = Ndp_ir.Dependence

type meta = Staged.meta = {
  group : int;
  default_node : int;
  inst : Dep.instance;
  shape : Staged.shape;
  addrs : int array;
  at : int;
}

type stmt_report = {
  r_group : int;
  est_movement : int;
  default_est : int;
  parallelism : int;
  task_count : int;
  offload_mix : Task.op_mix;
  syncs : int;
}

type compiled = {
  tasks : (Task.t * int) list Lazy.t;
  reports : stmt_report list Lazy.t;
  est_movement : int;
  sync_count : int;
  predictions : (int * bool) list Lazy.t;
  roots : (int * int) list;
  sync_arcs : (int * int) list;
}

let chunk list size =
  if size <= 0 then invalid_arg "Window.chunk: size must be positive";
  let rec go acc cur n = function
    | [] -> List.rev (if cur = [] then acc else List.rev cur :: acc)
    | x :: rest ->
      if n = size then go (List.rev cur :: acc) [ x ] 1 rest
      else go acc (x :: cur) (n + 1) rest
  in
  go [] [] 0 list

(* Splitting must satisfy the minimum-data-movement requirement: when the
   MST saves little over fetching every operand to the store node (tiny
   network footprints — the paper's Cholesky/LU case), the statement
   executes whole there. The estimate counts links only, not the
   synchronization and partial-result forwarding a split adds, so the
   split must save 30%. [compile] and the sizing walk share this rule, so
   the two agree statement by statement. *)
let split_pays ~default_est est = est * 10 < default_est * 7

let compile ?deps ?fusion (ctx : Context.t) metas =
  Context.clear_reuse ctx;
  (* Task ids allocated during this compile form the dense range
     [id_base, ctx.next_task); every per-task table below is an array
     indexed by [id - id_base] instead of a hashtable — this function is
     the compiler's hot path. *)
  let id_base = ctx.Context.next_task in
  let est_total = ref 0 in
  let per_stmt =
    List.mapi
      (fun i meta ->
        let fslot =
          match fusion with Some f when i < Array.length f -> f.(i) | Some _ | None -> None
        in
        (* The root of the statement MST is the node the default placement
           assigned the iteration to (Figure 8: node i computes the final
           combine); the result's write-back still goes to its home bank,
           which the engine models in the store path. Keeping the final
           subcomputation on the assigned node preserves the default's
           iteration-level balance — rooting at the LHS home bank would
           serialize the 8 statements sharing an output cache line onto
           one node. A fused group roots at its chosen node instead. *)
        let store_node =
          match fslot with Some s -> s.Fusion.f_node | None -> meta.default_node
        in
        let split = Splitter.split ctx ~store_node meta in
        let default_est = Splitter.default_movement ctx ~store_node meta in
        let split =
          match fslot with
          | Some _ ->
            (* A fused member executes whole on the chain's node — one
               Kruskal vertex — so the elided intermediate is in the same
               L1 its consumer loads from. *)
            { (Splitter.unsplit split) with Splitter.est_movement = default_est }
          | None ->
            if split_pays ~default_est split.Splitter.est_movement then split
            else { (Splitter.unsplit split) with Splitter.est_movement = default_est }
        in
        est_total := !est_total + split.Splitter.est_movement;
        (* Repair before anything reads task placements: the cross-node
           arc filter and the variable2node propagation below must see the
           post-remap nodes or sync arcs would be elided against stale
           placements. *)
        let sched = Schedule.repair ctx (Schedule.schedule ctx ~group:meta.group split) in
        let sched =
          match fslot with
          | Some { Fusion.f_elide = true; _ } ->
            {
              sched with
              Schedule.tasks =
                List.map
                  (fun (t : Task.t) ->
                    if t.Task.id = sched.Schedule.root_task && t.Task.store <> None then
                      { t with Task.store_local = true }
                    else t)
                  sched.Schedule.tasks;
            }
          | _ -> sched
        in
        Context.advance_statement ctx;
        (* Propagate this statement's L1 placements to later statements in
           the window (the variable2node map of Algorithm 1, line 37). *)
        List.iter (fun (line, node) -> Context.note_cached ctx ~line ~node) sched.Schedule.placements;
        (match split.Splitter.store with
        | Some (va, _) ->
          Context.note_cached ctx ~line:(Location.line_of ctx va) ~node:store_node
        | None -> ());
        (meta, split, sched, default_est))
      metas
  in
  let num_tasks = ctx.Context.next_task - id_base in
  (* Inter-statement dependences (flow/anti/output, including conservative
     may-deps) become arcs from the producer's final task to the consuming
     statement's task graph. [deps], when provided, is the pre-computed
     analysis of exactly these instances (indices local to [metas]) — the
     window-size preprocessing derives it once per nest sample and slices
     it per chunk instead of re-running the analysis per candidate. *)
  let deps =
    match deps with
    | Some d -> d
    | None -> Staged.deps ctx metas
  in
  let arr = Array.of_list per_stmt in
  let inter_arcs =
    List.filter_map
      (fun (d : Dep.dep) ->
        let _, _, src_sched, _ = arr.(d.Dep.src) in
        let _, _, dst_sched, _ = arr.(d.Dep.dst) in
        let producer = src_sched.Schedule.root_task in
        let consumer = dst_sched.Schedule.root_task in
        if producer = consumer then None else Some (producer, consumer, d.Dep.kind))
      deps
  in
  let join_arcs = List.concat_map (fun (_, _, s, _) -> s.Schedule.join_arcs) per_stmt in
  (* A producer and consumer on the same node are ordered by the node's
     program; only cross-node waits need a synchronization handshake. *)
  let node_of_task = Array.make (Int.max 1 num_tasks) (-1) in
  List.iter
    (fun (_, _, s, _) ->
      List.iter
        (fun (t : Task.t) -> node_of_task.(t.Task.id - id_base) <- t.Task.node)
        s.Schedule.tasks)
    per_stmt;
  let cross_node (p, c) = node_of_task.(p - id_base) <> node_of_task.(c - id_base) in
  let all_arcs =
    List.filter cross_node (join_arcs @ List.map (fun (p, c, _) -> (p, c)) inter_arcs)
  in
  let surviving = Sync_min.minimize ~enabled:ctx.options.Context.sync_minimize all_arcs in
  (* Everything below is what only emission reads — finalized operands,
     levels, the level-major order, per-statement reports, predictions —
     so it is computed on demand: the window-size estimates read only
     [est_movement] and [sync_count] and never force it. *)
  let tasks =
    lazy
      (let sync_of = Sync_min.syncs_per_consumer surviving in
       (* Dropping a same-node arc is only sound if the node really does
          run the producer first. The level-major emission below orders a
          node's program by level, so the dropped arc must still raise the
          consumer's level above the producer's — otherwise a consumer with
          a shallower task tree would be emitted (and executed) before its
          producer. *)
       let same_node_parents = Array.make (Int.max 1 num_tasks) [] in
       (* Inter-statement arcs that survive also order execution: attach
          them as Result operands (flow deps carry a cache line; anti/output
          deps carry a token). *)
       let extra_operands = Array.make (Int.max 1 num_tasks) [] in
       List.iter
         (fun (p, c, kind) ->
           if not (cross_node (p, c)) then
             same_node_parents.(c - id_base) <- p :: same_node_parents.(c - id_base);
           if List.mem (p, c) surviving then begin
             let bytes = match kind with Dep.Flow | Dep.Anti | Dep.Output -> 8 in
             extra_operands.(c - id_base) <-
               Task.Result { producer = p; bytes } :: extra_operands.(c - id_base)
           end)
         inter_arcs;
       let finalize (task : Task.t) =
         let extras = extra_operands.(task.Task.id - id_base) in
         let syncs = Option.value (Hashtbl.find_opt sync_of task.Task.id) ~default:0 in
         match extras with
         | [] -> if syncs = task.Task.syncs then task else { task with Task.syncs }
         | _ -> { task with Task.operands = task.Task.operands @ extras; Task.syncs }
       in
       let tasks =
         Array.of_list
           (List.concat_map (fun (_, _, s, _) -> List.map finalize s.Schedule.tasks) per_stmt)
       in
       (* Emit the window level-by-level (all dependency-free
          subcomputations first), so a node's generated program never
          blocks a ready subcomputation behind one that is still waiting
          for remote partial results — the interleaving the paper's code
          generator produces (Figure 8). The sort is stable, preserving
          producer-before-consumer within a level chain. *)
       let level_of = Array.make (Int.max 1 num_tasks) 0 in
       let leveled =
         Array.map
           (fun (t : Task.t) ->
             let producer_level = function
               | Task.Result { producer; bytes = _ } -> level_of.(producer - id_base)
               | Task.Load _ -> 0
             in
             let operand_floor =
               List.fold_left (fun acc op -> Int.max acc (producer_level op)) 0 t.Task.operands
             in
             (* Same-node arcs have no Result operand; their ordering
                obligation lives entirely in this level assignment. *)
             let parent_floor =
               List.fold_left
                 (fun acc p -> Int.max acc level_of.(p - id_base))
                 0
                 same_node_parents.(t.Task.id - id_base)
             in
             let level = 1 + Int.max operand_floor parent_floor in
             level_of.(t.Task.id - id_base) <- level;
             (t, level))
           tasks
       in
       Array.stable_sort (fun ((_ : Task.t), la) ((_ : Task.t), lb) -> compare la lb) leveled;
       Array.to_list leveled)
  in
  let reports =
    lazy
      (let group_syncs = Hashtbl.create 16 in
       List.iter
         (fun ((t : Task.t), _) ->
           if t.Task.syncs > 0 then
             Hashtbl.replace group_syncs t.Task.group
               (Option.value (Hashtbl.find_opt group_syncs t.Task.group) ~default:0 + t.Task.syncs))
         (Lazy.force tasks);
       List.map
         (fun (meta, split, sched, default_est) ->
           {
             r_group = meta.group;
             est_movement = split.Splitter.est_movement;
             default_est;
             parallelism = sched.Schedule.parallelism;
             task_count = List.length sched.Schedule.tasks;
             offload_mix = sched.Schedule.offload_mix;
             syncs = Option.value (Hashtbl.find_opt group_syncs meta.group) ~default:0;
           })
         per_stmt)
  in
  let predictions = lazy (List.concat_map (fun (_, sp, _, _) -> Splitter.predictions sp) per_stmt) in
  let roots =
    List.map (fun (meta, _, sched, _) -> (meta.group, sched.Schedule.root_task)) per_stmt
  in
  {
    tasks;
    reports;
    est_movement = !est_total;
    sync_count = List.length surviving;
    predictions;
    roots;
    sync_arcs = surviving;
  }

(* Preprocessing objective: estimated links traversed plus the cost of the
   synchronizations the window structure induces, expressed in links
   (sync handshake cycles over per-link cycles). Movement alone is
   monotone in the window size; synchronizations are what push back. *)
let sync_links_of (ctx : Context.t) =
  let c = ctx.Context.config in
  Int.max 1 (c.Ndp_sim.Config.sync_cycles / c.Ndp_sim.Config.hop_cycles) + 2

(* Compile the sample under a fixed window size, with its dependence
   analysis computed once ([all_deps], indices into [sample]) and sliced
   per chunk ({!Dep.slice}): re-deriving it per tied candidate only
   repeats work. *)
let estimate_sliced (ctx : Context.t) sample all_deps ~window =
  let ctx = Context.fork_for_estimate ctx in
  let sync_links = sync_links_of ctx in
  let n = Array.length sample in
  let total = ref 0 in
  Array.iteri
    (fun ci deps ->
      let lo = ci * window in
      let metas = Array.to_list (Array.sub sample lo (Int.min window (n - lo))) in
      let c = compile ~deps ctx metas in
      total := !total + c.est_movement + (sync_links * c.sync_count))
    (Dep.slice ~chunk:window ~n all_deps);
  !total

(* The preprocessing estimates movement on a prefix of the instance stream;
   loop iterations are statistically uniform, so a few hundred instances
   characterize the nest. *)
let preprocessing_sample = 256

(* A nest whose references are all indirect gives the movement estimate
   nothing to discriminate on: every candidate size scores the inspector
   fallback identically, so sizing is pure waste. Such nests run at
   window size 1 (and lint surfaces a W402). *)
let all_non_affine metas =
  metas <> []
  && List.for_all
       (fun m -> Array.for_all not m.shape.Staged.affine)
       metas

(* ------------------------------------------------------------------ *)
(* The analytic window model.

   Compiling a candidate window ([estimate_sliced]) splits, schedules,
   repairs and sync-minimizes every statement once per size. The curve
   prices movement from one walk instead. What it forgoes — placements on
   exec nodes, join arcs, transitive sync reduction — is second-order, and
   the sizer compiles candidates only when the curve is too flat to call
   the winner. *)

(* Mirror of [compile]'s variable2node propagation without running the
   scheduler. The schedule consumes a lone data item at its parent
   combine — almost always the root, which is pinned to the store node —
   and runs a multi-item combine on the MST vertex itself, so lines land
   at the store node except where a vertex holds two or more items. The
   margin rule is applied first: a collapsed statement notes everything at
   its store node, exactly like [Schedule.schedule]'s single-node case. *)
let note_analytic (ctx : Context.t) ~store_node ~kept (split : Splitter.t) =
  List.iter
    (fun (node, locs) ->
      let target =
        if kept && node <> store_node && List.length locs >= 2 then node else store_node
      in
      List.iter
        (fun (loc : Location.t) ->
          match loc.Location.va with
          | Some va -> Context.note_cached ctx ~line:(Location.line_of ctx va) ~node:target
          | None -> ())
        locs)
    (Splitter.items_at split);
  match split.Splitter.store with
  | Some (va, _) -> Context.note_cached ctx ~line:(Location.line_of ctx va) ~node:store_node
  | None -> ()

type curve = {
  sizes : int list;
  est_full : int array;
  est_none : int array;
  providers : int list array;
}

(* A window of [w] keeps instance [i]'s providers in view when they all
   share its chunk. *)
let rec captured providers i w =
  match providers with [] -> true | p :: rest -> p / w = i / w && captured rest i w

(* Instance [i]'s estimate depends on chunking only through which
   providers survive the chunk boundary: [est_full] prices it with them
   visible, [est_none] with the reuse map cold. Providers are read off the
   variable2node stamps ([note_cached] records the noting statement's
   clock, so stamp-1 is the provider's index); entries within
   [reuse_horizon] can never have been capacity-evicted, so the set is
   exact. *)
let curve (ctx : Context.t) metas ~sizes =
  if List.exists (fun w -> w <= 0) sizes then invalid_arg "Window.curve: sizes must be positive";
  let ectx = Context.fork_for_estimate ctx in
  Context.clear_reuse ectx;
  let nctx = { ectx with Context.options = { ectx.Context.options with Context.reuse_aware = false } } in
  let n = List.length metas in
  let est_full = Array.make n 0 in
  let est_none = Array.make n 0 in
  let providers = Array.make n [] in
  List.iteri
    (fun i (m : meta) ->
      let store_node = m.default_node in
      let provs = ref [] in
      for k = 1 to Array.length m.shape.Staged.refs - 1 do
        let va = Staged.compiler_va ectx m k in
        if va <> Staged.none then
          match Hashtbl.find_opt ectx.Context.var2node (Location.line_of ectx va) with
          | Some (_, stamp) when ectx.Context.stmt_clock - stamp <= Context.reuse_horizon ->
            let p = stamp - 1 in
            if p >= 0 && not (List.mem p !provs) then provs := p :: !provs
          | _ -> ()
      done;
      providers.(i) <- !provs;
      let split = Splitter.split ectx ~store_node m in
      let default_est = Splitter.default_movement ectx ~store_node m in
      let kept = split_pays ~default_est split.Splitter.est_movement in
      est_full.(i) <- (if kept then split.Splitter.est_movement else default_est);
      (* [default_movement] never consults the reuse map, so the default
         estimate is shared between the two regimes. *)
      est_none.(i) <-
        (if !provs = [] || List.for_all (captured !provs i) sizes then est_full.(i)
         else
           let cold = (Splitter.split nctx ~store_node m).Splitter.est_movement in
           if split_pays ~default_est cold then cold else default_est);
      Context.advance_statement ectx;
      note_analytic ectx ~store_node ~kept split)
    metas;
  { sizes; est_full; est_none; providers }

let movement c ~window =
  if not (List.mem window c.sizes) then invalid_arg "Window.movement: not one of the curve's sizes";
  fun i -> if captured c.providers.(i) i window then c.est_full.(i) else c.est_none.(i)

(* Candidates whose analytic total lands within this fraction of the
   analytic minimum are re-scored with the sampled estimator; an
   uncontested analytic winner skips sampling entirely. *)
let analytic_tie_margin = 0.10

let choose_size (ctx : Context.t) metas ~max:max_size =
  if max_size < 1 || metas = [] || all_non_affine metas then 1
  else begin
    let sample = List.filteri (fun i _ -> i < preprocessing_sample) metas in
    let candidates = List.init max_size (fun k -> k + 1) in
    (* The walk precedes the re-scores below: under the [Scrambled] page
       policy first-touch order sets the page frames, and the walk touches
       the sample in stream order. *)
    let c = curve ctx sample ~sizes:candidates in
    let sample = Array.of_list sample in
    let n = Array.length sample in
    let all_deps = Dep.analyze_accesses (Staged.accesses ctx sample ~lo:0 ~hi:n) in
    let sync_links = sync_links_of ctx in
    (* Synchronization: one handshake per distinct in-chunk dependence pair
       whose endpoints sit on different nodes. *)
    let total w =
      let movement_w = ref 0 and movement_of = movement c ~window:w in
      for i = 0 to n - 1 do
        movement_w := !movement_w + movement_of i
      done;
      let pairs = Hashtbl.create 64 in
      List.iter
        (fun (d : Dep.dep) ->
          if
            d.Dep.src / w = d.Dep.dst / w
            && sample.(d.Dep.src).default_node <> sample.(d.Dep.dst).default_node
          then Hashtbl.replace pairs (d.Dep.src, d.Dep.dst) ())
        all_deps;
      !movement_w + (sync_links * Hashtbl.length pairs)
    in
    let totals = List.map (fun w -> (w, total w)) candidates in
    let best = List.fold_left (fun acc (_, t) -> Int.min acc t) max_int totals in
    let cut = float_of_int best *. (1. +. analytic_tie_margin) in
    match List.filter (fun (_, t) -> float_of_int t <= cut) totals with
    | [ (w, _) ] -> w
    | ties ->
      (* Too close to call analytically: re-score only the contested
         candidates by compiling them, breaking exact ties toward the
         smallest window. *)
      let rescore (best_w, best_m) (w, _) =
        let m = estimate_sliced ctx sample all_deps ~window:w in
        if m < best_m then (w, m) else (best_w, best_m)
      in
      fst (List.fold_left rescore (0, max_int) ties)
  end
