type loop_var = { var : string; lo : int; hi : int }

type nest = { nest_name : string; vars : loop_var list; body : Stmt.t list; sweeps : int }

type program = { prog_name : string; arrays : Array_decl.t list; nests : nest list }

let nest ?(sweeps = 1) nest_name vars body =
  if vars = [] then invalid_arg "Loop.nest: need at least one loop variable";
  if body = [] then invalid_arg "Loop.nest: empty body";
  if sweeps < 1 then invalid_arg "Loop.nest: sweeps must be positive";
  { nest_name; vars; body; sweeps }

let base_iterations t =
  let rec expand env = function
    | [] -> [ env ]
    | { var; lo; hi } :: rest ->
      List.concat_map
        (fun v -> expand (Env.bind var v env) rest)
        (List.init (max 0 (hi - lo)) (fun k -> lo + k))
  in
  expand Env.empty t.vars

let iterations t =
  let base = base_iterations t in
  List.concat (List.init t.sweeps (fun _ -> base))

let base_trip_count t =
  List.fold_left (fun acc { lo; hi; _ } -> acc * max 0 (hi - lo)) 1 t.vars

let trip_count t = t.sweeps * base_trip_count t

let program prog_name ~arrays ~nests = { prog_name; arrays; nests }

let all_statements p = List.concat_map (fun n -> n.body) p.nests
