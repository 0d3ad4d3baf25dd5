type t = {
  mesh : Ndp_noc.Mesh.t;
  cluster : Ndp_noc.Cluster.t;
  map : Addr_map.t;
  quad_nodes : int array array; (* quadrant -> member nodes, ascending *)
  mutable m_lookups : Ndp_obs.Metrics.vec; (* mem.home_lookups{bank} *)
}

let lookups metrics mesh =
  Ndp_obs.Metrics.vec ~fresh:true metrics "mem.home_lookups" ~size:(Ndp_noc.Mesh.size mesh)
    ~label:(fun i -> Printf.sprintf "bank=%d" i)

let reset ?(metrics = Ndp_obs.Metrics.none) t = t.m_lookups <- lookups metrics t.mesh

let create ?(metrics = Ndp_obs.Metrics.none) mesh cluster map =
  let quad_nodes =
    Array.init 4 (fun q -> Array.of_list (Ndp_noc.Mesh.nodes_in_quadrant mesh q))
  in
  { mesh; cluster; map; quad_nodes; m_lookups = lookups metrics mesh }

let home_node t addr =
  let line = Addr_map.line_of_addr t.map addr in
  let node =
    match t.cluster with
    | Ndp_noc.Cluster.All_to_all | Ndp_noc.Cluster.Quadrant ->
      line mod Ndp_noc.Mesh.size t.mesh
    | Ndp_noc.Cluster.Snc4 ->
      (* Lines interleave over the nodes of the quadrant owning the page. *)
      let quadrant = Addr_map.channel t.map addr mod 4 in
      let nodes = t.quad_nodes.(quadrant) in
      nodes.(line mod Array.length nodes)
  in
  Ndp_obs.Metrics.vadd t.m_lookups node 1;
  node

let note_lookups t ~bank ~count = Ndp_obs.Metrics.vadd t.m_lookups bank count

let mc_node t addr =
  let home_bank = home_node t addr in
  let channel = Addr_map.channel t.map addr in
  Ndp_noc.Cluster.mc_for t.cluster t.mesh ~home_bank ~channel

let addr_map t = t.map
