module Task = Ndp_sim.Task
module Kruskal = Ndp_graph.Kruskal

type t = {
  tasks : Task.t list;
  root_task : int;
  join_arcs : (int * int) list;
  parallelism : int;
  offload_mix : Task.op_mix;
  placements : (int * int) list;
}

(* What a child subtree hands to its parent: either a finished task whose
   result travels up, or a single data item the parent loads itself. *)
type upward =
  | From_task of { task : int; bytes : int; level : int }
  | Deferred of Location.t

let load_operand (m : Staged.meta) (loc : Location.t) =
  let va =
    match loc.Location.va with
    | Some va -> va
    | None -> Staged.runtime_va m loc.Location.index
  in
  if va = Staged.none then None else Some (Task.Load { va; bytes = loc.Location.bytes })

(* Pick the node that executes a combine: the MST parent node first (the
   minimum-movement choice), then its children, skipping overloaded nodes
   per the 10% rule. The root combine is pinned to the store node. *)
(* Expected core occupancy of running a combine at [node] — the same
   formula the engine charges, evaluated with the compiler's location and
   hit/miss knowledge, so the balance veto tracks reality. *)
let expected_occupancy (ctx : Context.t) ~node ~ops_cost ~items =
  let c = ctx.Context.config in
  let latency (loc : Location.t) =
    if loc.Location.in_l1 && loc.Location.node = node then c.Ndp_sim.Config.l1_hit_cycles
    else begin
      let travel = 2 * Context.distance ctx node loc.Location.node * c.Ndp_sim.Config.hop_cycles in
      let service =
        match loc.Location.predicted_hit with
        | Some false -> c.Ndp_sim.Config.ddr_cycles
        | Some true | None -> c.Ndp_sim.Config.l2_hit_cycles
      in
      travel + service + c.Ndp_sim.Config.l1_hit_cycles
    end
  in
  let stall = List.fold_left (fun acc l -> acc + latency l) 0 items in
  (List.length items * c.Ndp_sim.Config.load_issue_cycles)
  + (ops_cost * c.Ndp_sim.Config.op_cycles)
  + int_of_float ((1.0 -. c.Ndp_sim.Config.mlp_overlap) *. float_of_int stall)

let choose_exec_node (ctx : Context.t) ~pinned ~preferred ~alternatives ~ops_cost ~items =
  let occ node = expected_occupancy ctx ~node ~ops_cost ~items in
  if pinned then (preferred, occ preferred)
  else begin
    let candidates =
      preferred
      :: List.sort (fun a b -> compare ctx.Context.loads.(a) ctx.Context.loads.(b)) alternatives
    in
    (* Under repair, prefer healthy hosts outright; if every candidate is
       avoided the final repair sweep will remap the task. *)
    let candidates =
      match List.filter (fun n -> not (Context.avoided ctx n)) candidates with
      | [] -> candidates
      | healthy -> healthy
    in
    (* Occupancy is pure in the candidate, so price each one once: the
       balance scan and the fallback minimum below both read the cache
       instead of re-walking the item list per comparison. *)
    let priced = List.map (fun n -> (n, occ n)) candidates in
    match List.find_opt (fun (n, o) -> Context.balanced ctx ~node:n ~cost:o) priced with
    | Some hit -> hit
    | None ->
      List.fold_left
        (fun ((bn, bo) as best) ((n, o) as cand) ->
          if ctx.Context.loads.(n) + o < ctx.Context.loads.(bn) + bo then cand else best)
        (List.hd priced) priced
  end

(* The tree is walked from the store node over the edge list itself:
   [children v ~parent] are v's other edge ends, ascending. A union-find
   pass first rejects an edge set with a cycle, so the walk terminates,
   and the walk's vertex count rejects a forest. *)
let not_a_tree () = invalid_arg "Schedule.schedule: edge set is not a tree"

let children edges v ~parent =
  let rec insert x = function
    | y :: rest when y < x -> y :: insert x rest
    | l -> x :: l
  in
  List.fold_left
    (fun acc (e : Kruskal.edge) ->
      if e.Kruskal.u = v && e.Kruskal.v <> parent then insert e.Kruskal.v acc
      else if e.Kruskal.v = v && e.Kruskal.u <> parent then insert e.Kruskal.u acc
      else acc)
    [] edges

let schedule (ctx : Context.t) ~group (split : Splitter.t) =
  let m = split.Splitter.meta in
  let shape = m.Staged.shape in
  let n_ops = Array.length shape.Staged.ops in
  let drawn = ref 0 in
  (* Operators are drawn left to right off the staged array: the next [k],
     or fewer when the statement runs out. *)
  let draw k =
    let lo = !drawn in
    drawn := Int.min n_ops (lo + k);
    List.init (!drawn - lo) (fun j -> shape.Staged.ops.(lo + j))
  in
  let store_node = split.Splitter.store_node in
  let tasks = ref [] in
  let join_arcs = ref [] in
  let placements = ref [] in
  let offload = ref Task.zero_mix in
  (* Tasks per dependency level, for the antichain width. *)
  let levels = List.length split.Splitter.edges + 3 in
  let by_level = Context.scratch_ints ctx ~slot:3 ~at_least:levels in
  Array.fill by_level 0 levels 0;
  let note_placement exec (loc : Location.t) =
    match loc.Location.va with
    | Some va -> placements := (Location.line_of ctx va, exec) :: !placements
    | None -> ()
  in
  let emit ~node ~ops ~operands ~store ~label ~level ~bcost =
    let id = Context.fresh_task_id ctx in
    let task = Task.make ~id ~group ~node ~ops ~operands ?store ~label () in
    tasks := task :: !tasks;
    Context.add_load ctx ~node ~cost:(Int.max 1 bcost);
    if node <> store_node then offload := Task.mix_add !offload task.Task.mix;
    by_level.(level) <- by_level.(level) + 1;
    task
  in
  let final_label = "g" ^ string_of_int group ^ ":final" in
  let root_task =
    if split.Splitter.edges = [] then begin
      (* Degenerate case: the whole statement's data sits on one node. *)
      let locs =
        if split.Splitter.whole then List.concat_map snd (Splitter.items_at split)
        else
          Array.fold_right
            (fun (l : Location.t) acc -> if l.Location.node = store_node then l :: acc else acc)
            split.Splitter.locs []
      in
      let operands = List.filter_map (load_operand m) locs in
      let ops = draw n_ops in
      let bcost =
        expected_occupancy ctx ~node:store_node ~ops_cost:(Task.cost_of_ops ops) ~items:locs
      in
      let task =
        emit ~node:store_node ~ops ~operands ~store:split.Splitter.store
          ~label:final_label ~level:1 ~bcost
      in
      List.iter (note_placement store_node) locs;
      task.Task.id
    end
    else begin
      let uf = Context.scratch_guf ctx in
      List.iter
        (fun (e : Kruskal.edge) ->
          if not (Ndp_graph.Union_find.union uf e.Kruskal.u e.Kruskal.v) then not_a_tree ())
        split.Splitter.edges;
      let visited = ref 0 in
      let rec visit vertex ~parent =
        incr visited;
        let children = children split.Splitter.edges vertex ~parent in
        let child_results = List.map (fun c -> visit c ~parent:vertex) children in
        let is_root = vertex = store_node in
        (* Local items in location order, then the items children defer. *)
        let items =
          Array.fold_right
            (fun (l : Location.t) acc -> if l.Location.node = vertex then l :: acc else acc)
            split.Splitter.locs
            (List.filter_map (function Deferred l -> Some l | From_task _ -> None) child_results)
        in
        let loads = List.filter_map (load_operand m) items in
        let result_ops, level =
          List.fold_right
            (fun r ((ops, level) as acc) ->
              match r with
              | From_task { task; bytes; level = l } ->
                (Task.Result { producer = task; bytes } :: ops, Int.max level (l + 1))
              | Deferred _ -> acc)
            child_results ([], 1)
        in
        if (not is_root) && List.length loads = 1 && result_ops = [] then begin
          (* A lone data item: no computation here; the parent fetches it
             directly (the leaf-node case of the MST walk). *)
          match items with
          | [ loc ] -> Deferred loc
          | _ -> assert false
        end
        else begin
          let inputs = List.length loads + List.length result_ops in
          let ops = if is_root then draw n_ops else draw (Int.max 0 (inputs - 1)) in
          let alternatives =
            (* "Skips this node and moves to the next one" (4.5): the result
               travels toward the parent anyway, so every node on the mesh
               route to the parent can host the combine without adding a
               single link of movement; the children are equally free. *)
            if is_root then List.sort_uniq compare children
            else
              (* The shared per-mesh route table; same node sequence
                 [xy_route] yields, with no per-visit route allocation. *)
              let nodes = Ndp_noc.Mesh.route_nodes (Context.mesh ctx) ~src:vertex ~dst:parent in
              List.sort_uniq compare (Array.fold_right (fun n acc -> n :: acc) nodes children)
          in
          let exec, bcost =
            choose_exec_node ctx ~pinned:is_root ~preferred:vertex ~alternatives
              ~ops_cost:(Task.cost_of_ops ops) ~items
          in
          let store = if is_root then split.Splitter.store else None in
          let label =
            if is_root then final_label else "g" ^ string_of_int group ^ ":sub@" ^ string_of_int exec
          in
          let task =
            emit ~node:exec ~ops ~operands:(loads @ result_ops) ~store ~label ~level ~bcost
          in
          List.iter (note_placement exec) items;
          (match result_ops with
          | _ :: _ :: _ ->
            List.iter
              (function
                | Task.Result { producer; bytes = _ } ->
                  join_arcs := (producer, task.Task.id) :: !join_arcs
                | Task.Load _ -> ())
              result_ops
          | _ -> ());
          (* A forwarded partial result is a single scalar, not a line. *)
          From_task { task = task.Task.id; bytes = shape.Staged.bytes.(0); level }
        end
      in
      match visit store_node ~parent:(-1) with
      | From_task { task; _ } ->
        if !visited <> List.length split.Splitter.edges + 1 then not_a_tree ();
        task
      | Deferred _ -> assert false
    end
  in
  {
    tasks = List.rev !tasks;
    root_task;
    join_arcs = List.rev !join_arcs;
    parallelism =
      (let widest = ref 1 in
       for l = 0 to levels - 1 do
         widest := Int.max !widest by_level.(l)
       done;
       !widest);
    offload_mix = !offload;
    placements = !placements;
  }

(* Remap the schedule off the repair plan's avoided nodes. The balance
   veto already steers most combines to healthy hosts; this sweep catches
   the rest (the pinned store-node root, nodes hosting located data).
   Every avoided node maps to its nearest healthy node under the
   fault-aware distance, ties broken by lowest id — a pure function of the
   plan, so repaired schedules are identical across [--jobs] values. Must
   run before [Window.compile] derives cross-node arcs, so the sync
   structure is computed against the repaired placement. *)
let repair (ctx : Context.t) sched =
  match ctx.Context.repair with
  | None -> sched
  | Some plan ->
    if Ndp_fault.Plan.avoided_nodes plan = [] then sched
    else begin
      let n = Ndp_noc.Mesh.size (Context.mesh ctx) in
      let substitute =
        Array.init n (fun node ->
            if not (Ndp_fault.Plan.avoided plan node) then node
            else begin
              let best = ref node and best_d = ref max_int in
              for cand = 0 to n - 1 do
                if not (Ndp_fault.Plan.avoided plan cand) then begin
                  let d = Context.distance ctx node cand in
                  if d < !best_d then begin
                    best := cand;
                    best_d := d
                  end
                end
              done;
              !best
            end)
      in
      let remap_task (t : Task.t) =
        let node = substitute.(t.Task.node) in
        if node = t.Task.node then t
        else begin
          ctx.Context.remapped_tasks <- ctx.Context.remapped_tasks + 1;
          { t with Task.node }
        end
      in
      {
        sched with
        tasks = List.map remap_task sched.tasks;
        placements =
          List.map (fun (line, node) -> (line, substitute.(node))) sched.placements;
      }
    end
