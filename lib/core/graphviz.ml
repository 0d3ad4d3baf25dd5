module Task = Ndp_sim.Task

let buffer_dot f =
  let b = Buffer.create 1024 in
  Buffer.add_string b "digraph ndp {\n  rankdir=BT;\n  node [fontname=\"monospace\"];\n";
  f b;
  Buffer.add_string b "}\n";
  Buffer.contents b

let task_graph tasks =
  buffer_dot (fun b ->
      List.iter
        (fun ((t : Task.t), level) ->
          let loads =
            List.length
              (List.filter (function Task.Load _ -> true | Task.Result _ -> false) t.Task.operands)
          in
          let style = if t.Task.syncs > 0 then ",peripheries=2,style=dashed" else "" in
          Buffer.add_string b
            (Printf.sprintf
               "  t%d [shape=box,label=\"t%d @node%d\\nlevel %d, %d loads, %d ops\"%s];\n"
               t.Task.id t.Task.id t.Task.node level loads t.Task.cost style);
          List.iter
            (function
              | Task.Result { producer; bytes } ->
                Buffer.add_string b
                  (Printf.sprintf "  t%d -> t%d [label=\"%dB\"];\n" producer t.Task.id bytes)
              | Task.Load _ -> ())
            t.Task.operands;
          match t.Task.store with
          | Some (va, _) ->
            Buffer.add_string b
              (Printf.sprintf "  t%d -> store%d [style=dotted];\n  store%d [shape=cylinder,label=\"0x%x\"];\n"
                 t.Task.id t.Task.id t.Task.id va)
          | None -> ())
        tasks)

let statement_mst (split : Splitter.t) =
  buffer_dot (fun b ->
      Buffer.add_string b "  edge [dir=none];\n";
      List.iter
        (fun node ->
          let items = Option.value (List.assoc_opt node (Splitter.items_at split)) ~default:[] in
          let labels =
            String.concat "\\n"
              (List.map
                 (fun (l : Location.t) -> Ndp_ir.Reference.to_string l.Location.ref_)
                 items)
          in
          let shape = if node = split.Splitter.store_node then "doublecircle" else "circle" in
          Buffer.add_string b
            (Printf.sprintf "  n%d [shape=%s,label=\"node %d\\n%s\"];\n" node shape node labels))
        (List.sort_uniq compare
           (split.Splitter.store_node :: List.map fst (Splitter.items_at split)));
      List.iter
        (fun (e : Ndp_graph.Kruskal.edge) ->
          Buffer.add_string b
            (Printf.sprintf "  n%d -> n%d [label=\"%d\"];\n" e.Ndp_graph.Kruskal.u
               e.Ndp_graph.Kruskal.v e.Ndp_graph.Kruskal.weight))
        split.Splitter.edges)
