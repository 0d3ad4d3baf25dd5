module Task = Ndp_sim.Task

let operand_text = function
  | Task.Load { va; bytes = _ } -> Printf.sprintf "load(0x%x)" va
  | Task.Result { producer; bytes = _ } -> Printf.sprintf "t%d" producer

let task_lines (t : Task.t) =
  let syncs =
    List.filter_map
      (function Task.Result { producer; _ } -> Some (Printf.sprintf "  sync(t%d)" producer) | Task.Load _ -> None)
      (if t.Task.syncs > 0 then t.Task.operands else [])
  in
  let rhs = String.concat " op " (List.map operand_text t.Task.operands) in
  let store =
    match t.Task.store with
    | Some (va, _) -> Printf.sprintf "  store(0x%x, t%d)" va t.Task.id
    | None -> Printf.sprintf "  send(t%d)" t.Task.id
  in
  syncs @ [ Printf.sprintf "  t%d = %s" t.Task.id (if rhs = "" then "const" else rhs); store ]

let emit tasks =
  let by_node = Hashtbl.create 8 in
  List.iter
    (fun (t : Task.t) ->
      let cur = Option.value (Hashtbl.find_opt by_node t.Task.node) ~default:[] in
      Hashtbl.replace by_node t.Task.node (t :: cur))
    tasks;
  let nodes = List.sort_uniq compare (List.map (fun (t : Task.t) -> t.Task.node) tasks) in
  let render node =
    let entries = List.rev (Option.value (Hashtbl.find_opt by_node node) ~default:[]) in
    Printf.sprintf "node %d:\n%s" node
      (String.concat "\n" (List.concat_map task_lines entries))
  in
  String.concat "\n" (List.map render nodes)
