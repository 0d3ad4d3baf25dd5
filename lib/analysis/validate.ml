module Dep = Ndp_ir.Dependence
module Task = Ndp_sim.Task
module Window = Ndp_core.Window
module Pipeline = Ndp_core.Pipeline
module D = Diagnostic

type trace = {
  v_kernel : string;
  v_nest : string;
  v_metas : Window.meta list;
  v_tasks : Task.t list;
  v_sync_arcs : (int * int) list;
  v_roots : (int * int) list;
  v_serialized : bool;
}

let of_compiled ~kernel ~nest metas (compiled : Window.compiled) =
  {
    v_kernel = kernel;
    v_nest = nest;
    v_metas = metas;
    v_tasks = List.map fst (Lazy.force compiled.Window.tasks);
    v_sync_arcs = compiled.Window.sync_arcs;
    v_roots = compiled.Window.roots;
    v_serialized = false;
  }

let of_pipeline_trace ~kernel = function
  | Pipeline.Serialized { t_nest; t_metas; t_tasks } ->
    {
      v_kernel = kernel;
      v_nest = t_nest;
      v_metas = t_metas;
      v_tasks = t_tasks;
      v_sync_arcs = [];
      (* One task per instance, in program order. *)
      v_roots = List.map (fun (t : Task.t) -> (t.Task.group, t.Task.id)) t_tasks;
      v_serialized = true;
    }
  | Pipeline.Windowed { t_nest; t_metas; t_compiled } ->
    of_compiled ~kernel ~nest:t_nest t_metas t_compiled

let instance_to_string (m : Window.meta) =
  Format.asprintf "S%d `%s' %a" m.Window.group
    (Ndp_ir.Stmt.to_string m.Window.inst.Dep.stmt)
    Ndp_ir.Env.pp m.Window.inst.Dep.env

(* The happens-before relation the emitted schedule actually guarantees:
   a consumer with a Result operand waits for its producer's message; a
   surviving synchronization arc is an explicit handshake; and a node runs
   its own program in emission order. Everything else is concurrent. *)
let happens_before trace =
  let tasks = Array.of_list trace.v_tasks in
  let n = Array.length tasks in
  let dense = Hashtbl.create (max 16 n) in
  Array.iteri (fun i (t : Task.t) -> Hashtbl.replace dense t.Task.id i) tasks;
  let edges = ref [] in
  let arc p c =
    match (Hashtbl.find_opt dense p, Hashtbl.find_opt dense c) with
    | Some a, Some b when a <> b -> edges := (a, b) :: !edges
    | _ -> ()
  in
  Array.iter
    (fun (t : Task.t) ->
      List.iter
        (function
          | Task.Result { producer; bytes = _ } -> arc producer t.Task.id
          | Task.Load _ -> ())
        t.Task.operands)
    tasks;
  List.iter (fun (p, c) -> arc p c) trace.v_sync_arcs;
  (* Program order: globally under the serialized (default) regime,
     otherwise per node in emission order. *)
  let last_on : (int, int) Hashtbl.t = Hashtbl.create 64 in
  Array.iteri
    (fun i (t : Task.t) ->
      let key = if trace.v_serialized then 0 else t.Task.node in
      (match Hashtbl.find_opt last_on key with
      | Some prev -> edges := (prev, i) :: !edges
      | None -> ());
      Hashtbl.replace last_on key i)
    tasks;
  let reach = Ndp_graph.Transitive.closure ~n !edges in
  let ordered src dst =
    match (Hashtbl.find_opt dense src, Hashtbl.find_opt dense dst) with
    | Some a, Some b -> a = b || Ndp_graph.Transitive.reachable reach a b
    | _ -> false
  in
  ordered

let check ~resolver trace =
  let metas = Array.of_list trace.v_metas in
  let instances = List.map (fun (m : Window.meta) -> m.Window.inst) trace.v_metas in
  let deps = Dep.analyze resolver instances in
  let ordered = happens_before trace in
  let root_of =
    (* First binding per group wins. *)
    let tbl = Hashtbl.create 64 in
    List.iter (fun (g, t) -> if not (Hashtbl.mem tbl g) then Hashtbl.replace tbl g t) trace.v_roots;
    Hashtbl.find_opt tbl
  in
  let node_of =
    let tbl = Hashtbl.create 64 in
    List.iter (fun (t : Task.t) -> Hashtbl.replace tbl t.Task.id t.Task.node) trace.v_tasks;
    Hashtbl.find_opt tbl
  in
  let loc = D.location trace.v_kernel ~nest:trace.v_nest in
  let seen = Hashtbl.create 16 in
  let diags = ref [] in
  List.iter
    (fun (d : Dep.dep) ->
      if not (Hashtbl.mem seen (d.Dep.src, d.Dep.dst, d.Dep.kind)) then begin
        Hashtbl.replace seen (d.Dep.src, d.Dep.dst, d.Dep.kind) ();
        let src = metas.(d.Dep.src) and dst = metas.(d.Dep.dst) in
        match (root_of src.Window.group, root_of dst.Window.group) with
        | Some psrc, Some pdst ->
          if not (ordered psrc pdst) then begin
            let node t = Option.value (node_of t) ~default:(-1) in
            let code, severity =
              if d.Dep.may then ("W301", D.Warning) else ("E301", D.Error)
            in
            diags :=
              D.makef ~code ~severity ~loc
                "%s%s dependence %s (node %d) -> %s (node %d) is not ordered by any surviving \
                 sync arc, result arc or same-node program order"
                (if d.Dep.may then "may-" else "")
                (Dep.kind_to_string d.Dep.kind)
                (instance_to_string src) (node psrc) (instance_to_string dst) (node pdst)
              :: !diags
          end
        | None, _ | _, None ->
          diags :=
            D.makef ~code:"E302" ~severity:D.Error ~loc
              "instance S%d or S%d was compiled without a final task: schedule trace is \
               incomplete"
              src.Window.group dst.Window.group
            :: !diags
      end)
    deps;
  List.stable_sort D.compare_diag (List.rev !diags)

let ground_truth_resolver (kernel : Ndp_core.Kernel.t) =
  let insp = Ndp_core.Kernel.inspector kernel in
  Ndp_ir.Inspector.run insp;
  Ndp_ir.Inspector.runtime_resolver insp ~address_of:(Ndp_core.Kernel.address_of kernel)

let check_result ~kernel (result : Pipeline.result) =
  let resolver = ground_truth_resolver kernel in
  List.concat_map
    (fun t -> check ~resolver (of_pipeline_trace ~kernel:kernel.Ndp_core.Kernel.name t))
    result.Pipeline.traces

let check_kernel ?(config = Ndp_sim.Config.default) scheme kernel =
  let result = Pipeline.Job.run (Pipeline.Job.make ~config ~validate:true scheme kernel) in
  check_result ~kernel result
