module Dep = Ndp_ir.Dependence
module Nested_set = Ndp_ir.Nested_set

type shape = {
  stmt : Ndp_ir.Stmt.t;
  nested : Nested_set.t;
  flat : Nested_set.t;
  ops : Ndp_ir.Op.t array;
  ops_list : Ndp_ir.Op.t list;
  refs : Ndp_ir.Reference.t array;
  affine : bool array;
  ids : int array;
  bytes : int array;
  width : int;
}

type meta = {
  group : int;
  default_node : int;
  inst : Dep.instance;
  shape : shape;
  addrs : int array;
  at : int;
}

let none = Dep.unresolved

let shapes (ctx : Context.t) stmts =
  let decls = ctx.Context.decls and undeclared = Hashtbl.create 4 in
  let id_of name =
    match Array.find_index (fun (d : Ndp_ir.Array_decl.t) -> String.equal d.name name) decls with
    | Some j -> j
    | None -> (
      match Hashtbl.find_opt undeclared name with
      | Some id -> id
      | None ->
        let id = Array.length decls + Hashtbl.length undeclared in
        Hashtbl.add undeclared name id;
        id)
  in
  let shape (stmt : Ndp_ir.Stmt.t) =
    let refs = Array.of_list (Ndp_ir.Stmt.output stmt :: Ndp_ir.Stmt.inputs stmt) in
    let ops_list = Ndp_ir.Expr.ops stmt.rhs in
    let nested = Nested_set.of_expr stmt.rhs in
    let inputs = List.map (fun r -> Nested_set.Ref r) (Ndp_ir.Stmt.inputs stmt) in
    {
      stmt;
      nested;
      flat = { Nested_set.items = inputs; level_ops = ops_list; reassociable = true };
      ops = Array.of_list ops_list;
      ops_list;
      refs;
      affine = Array.map Ndp_ir.Reference.analyzable refs;
      ids = Array.map (fun (r : Ndp_ir.Reference.t) -> id_of r.array) refs;
      bytes = Array.map (fun r -> try Context.bytes_of ctx r with Not_found -> 0) refs;
      width = Array.length refs + Nested_set.count_sets nested;
    }
  in
  Array.of_list (List.map shape stmts)

let resolve (ctx : Context.t) shape env addrs ~at =
  Array.iteri
    (fun k r -> addrs.(at + k) <- Option.value (ctx.Context.runtime_resolve r env) ~default:none)
    shape.refs

let make ctx triples =
  let stmts =
    List.fold_left
      (fun acc (_, _, (inst : Dep.instance)) ->
        if List.memq inst.stmt acc then acc else inst.stmt :: acc)
      [] triples
  in
  let memo = List.combine stmts (Array.to_list (shapes ctx stmts)) in
  let shape_of (inst : Dep.instance) = List.assq inst.stmt memo in
  let total =
    List.fold_left (fun acc (_, _, inst) -> acc + Array.length (shape_of inst).refs) 0 triples
  in
  let addrs = Array.make total none and at = ref 0 in
  List.map
    (fun (group, default_node, (inst : Dep.instance)) ->
      let shape = shape_of inst in
      let m = { group; default_node; inst; shape; addrs; at = !at } in
      resolve ctx shape inst.env addrs ~at:!at;
      at := !at + Array.length shape.refs;
      m)
    triples

let runtime_va m k = m.addrs.(m.at + k)

let compiler_va (ctx : Context.t) m k =
  if m.shape.affine.(k) || ctx.Context.indirect_known then m.addrs.(m.at + k) else none

let accesses ctx metas ~lo ~hi =
  let first = Array.make (hi - lo + 1) 0 in
  for i = lo to hi - 1 do
    first.(i - lo + 1) <- first.(i - lo) + Array.length metas.(i).shape.refs
  done;
  let ids = Array.make first.(hi - lo) 0 and addrs = Array.make first.(hi - lo) none in
  for i = lo to hi - 1 do
    let m = metas.(i) and base = first.(i - lo) in
    Array.blit m.shape.ids 0 ids base (Array.length m.shape.ids);
    for k = 0 to Array.length m.shape.refs - 1 do
      addrs.(base + k) <- compiler_va ctx m k
    done
  done;
  { Dep.first; ids; addrs }

let deps ctx metas =
  let arr = Array.of_list metas in
  Dep.analyze_accesses (accesses ctx arr ~lo:0 ~hi:(Array.length arr))

type stream = {
  envs : Ndp_ir.Env.t array;
  body : shape array;
  offsets : int array;
  stride : int;
  stream_addrs : int array;
}

let stream ctx (nest : Ndp_ir.Loop.nest) =
  let envs = Array.of_list (Ndp_ir.Loop.iterations nest) in
  let body = shapes ctx nest.body in
  let offsets = Array.make (Array.length body + 1) 0 in
  Array.iteri (fun k s -> offsets.(k + 1) <- offsets.(k) + Array.length s.refs) body;
  let stride = offsets.(Array.length body) in
  let addrs = Array.make (Array.length envs * stride) none in
  Array.iteri
    (fun i env ->
      Array.iteri (fun k s -> resolve ctx s env addrs ~at:((i * stride) + offsets.(k))) body)
    envs;
  { envs; body; offsets; stride; stream_addrs = addrs }
