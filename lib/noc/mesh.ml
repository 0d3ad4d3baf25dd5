type t = {
  cols : int;
  rows : int;
  (* Dense XY route tables, [routes.(src * size + dst)] the link-index
     sequence of the route and [route_nodes] the nodes it enters: the
     shape's shared pair, fetched on first use so meshes used only for
     geometry queries never touch it. *)
  mutable routes : int array array;
  mutable route_nodes : int array array;
}

type link = { from_node : int; to_node : int }

let create ~cols ~rows =
  if cols < 2 || rows < 2 then invalid_arg "Mesh.create: need at least a 2x2 mesh";
  { cols; rows; routes = [||]; route_nodes = [||] }

let cols t = t.cols
let rows t = t.rows
let size t = t.cols * t.rows

let coord_of_node t id =
  if id < 0 || id >= size t then invalid_arg "Mesh.coord_of_node: bad node id";
  Coord.make (id mod t.cols) (id / t.cols)

let node_of_coord t (c : Coord.t) =
  if c.x < 0 || c.x >= t.cols || c.y < 0 || c.y >= t.rows then
    invalid_arg "Mesh.node_of_coord: coordinate off-mesh";
  (c.y * t.cols) + c.x

let distance t a b =
  if a < 0 || a >= size t || b < 0 || b >= size t then
    invalid_arg "Mesh.distance: bad node id";
  abs ((a mod t.cols) - (b mod t.cols)) + abs ((a / t.cols) - (b / t.cols))

(* The four corner controllers, in the order [memory_controllers] lists
   them — arithmetic on the node id so the per-miss paths below never
   build the list. *)
let memory_controller t i =
  match i land 3 with
  | 0 -> 0
  | 1 -> t.cols - 1
  | 2 -> (t.rows - 1) * t.cols
  | _ -> (t.rows * t.cols) - 1

let memory_controllers t =
  [ memory_controller t 0; memory_controller t 1; memory_controller t 2; memory_controller t 3 ]

let nearest_mc t node =
  let bn = ref max_int and bd = ref max_int in
  for i = 0 to 3 do
    let mc = memory_controller t i in
    let d = distance t node mc in
    if d < !bd || (d = !bd && mc < !bn) then begin
      bn := mc;
      bd := d
    end
  done;
  !bn

let xy_route t ~src ~dst =
  let s = coord_of_node t src and d = coord_of_node t dst in
  let step_x x = if d.x > x then x + 1 else x - 1 in
  let step_y y = if d.y > y then y + 1 else y - 1 in
  let rec go (c : Coord.t) acc =
    if c.x <> d.x then
      let next = Coord.make (step_x c.x) c.y in
      go next ({ from_node = node_of_coord t c; to_node = node_of_coord t next } :: acc)
    else if c.y <> d.y then
      let next = Coord.make c.x (step_y c.y) in
      go next ({ from_node = node_of_coord t c; to_node = node_of_coord t next } :: acc)
    else List.rev acc
  in
  go s []

let links t =
  let acc = ref [] in
  for id = size t - 1 downto 0 do
    let c = coord_of_node t id in
    let neighbor dx dy =
      let nx = c.x + dx and ny = c.y + dy in
      if nx >= 0 && nx < t.cols && ny >= 0 && ny < t.rows then
        acc := { from_node = id; to_node = node_of_coord t (Coord.make nx ny) } :: !acc
    in
    neighbor 1 0; neighbor (-1) 0; neighbor 0 1; neighbor 0 (-1)
  done;
  !acc

(* Each node has at most 4 outgoing links, indexed by direction. *)
let direction_index t l =
  let a = coord_of_node t l.from_node and b = coord_of_node t l.to_node in
  match (b.x - a.x, b.y - a.y) with
  | 1, 0 -> 0
  | -1, 0 -> 1
  | 0, 1 -> 2
  | 0, -1 -> 3
  | _ -> invalid_arg "Mesh.link_index: nodes are not adjacent"

let link_index t l = (l.from_node * 4) + direction_index t l

let num_links t = size t * 4

(* Route tables depend only on the shape: one pair per (cols, rows) for
   the whole process, not per job (the 6x6 pair costs ~0.5 ms and 280 K
   words). Pool domains share the registry, so it is filled under a lock. *)
let registry : ((int * int) * (int array array * int array array)) list ref = ref []

let registry_lock = Mutex.create ()

let build_routes t =
  let n = size t in
  let table f =
    Array.init (n * n) (fun cell ->
        let src = cell / n and dst = cell mod n in
        if src = dst then [||] else Array.of_list (List.map f (xy_route t ~src ~dst)))
  in
  (table (link_index t), table (fun l -> l.to_node))

let fetch_routes t =
  let links, nodes =
    Mutex.protect registry_lock (fun () ->
        match List.assoc_opt (t.cols, t.rows) !registry with
        | Some tables -> tables
        | None ->
          let tables = build_routes t in
          registry := ((t.cols, t.rows), tables) :: !registry;
          tables)
  in
  t.routes <- links;
  t.route_nodes <- nodes

let route_links t ~src ~dst =
  let n = size t in
  if src < 0 || src >= n || dst < 0 || dst >= n then
    invalid_arg "Mesh.route_links: bad node id";
  if Array.length t.routes = 0 then fetch_routes t;
  t.routes.((src * n) + dst)

let route_nodes t ~src ~dst =
  let n = size t in
  if src < 0 || src >= n || dst < 0 || dst >= n then
    invalid_arg "Mesh.route_nodes: bad node id";
  if Array.length t.route_nodes = 0 then fetch_routes t;
  t.route_nodes.((src * n) + dst)

let quadrant_of_node t node =
  if node < 0 || node >= size t then invalid_arg "Mesh.coord_of_node: bad node id";
  let qx = if node mod t.cols * 2 >= t.cols then 1 else 0 in
  let qy = if node / t.cols * 2 >= t.rows then 1 else 0 in
  (qy * 2) + qx

let nodes_in_quadrant t q =
  List.filter (fun n -> quadrant_of_node t n = q) (List.init (size t) Fun.id)

(* Corner [i] of [memory_controller] sits in quadrant [i] (corner (0,0) in
   quadrant 0, (cols-1,0) in 1, and so on), and each quadrant holds exactly
   one controller, so the first-in-list-order controller the original
   filter selected is corner [q] itself. *)
let mc_of_quadrant t q =
  if q < 0 || q > 3 then invalid_arg "Mesh.mc_of_quadrant: no controller in quadrant"
  else memory_controller t q
