open Ndp_noc

let mesh6 = Mesh.create ~cols:6 ~rows:6

let manhattan () =
  Alcotest.(check int) "distance" 7 (Coord.manhattan (Coord.make 0 0) (Coord.make 3 4));
  Alcotest.(check int) "self" 0 (Coord.manhattan (Coord.make 2 2) (Coord.make 2 2))

let coords_roundtrip () =
  for id = 0 to Mesh.size mesh6 - 1 do
    Alcotest.(check int) "roundtrip" id (Mesh.node_of_coord mesh6 (Mesh.coord_of_node mesh6 id))
  done

let corners_are_mcs () =
  Alcotest.(check (list int)) "corner ids" [ 0; 5; 30; 35 ]
    (List.sort compare (Mesh.memory_controllers mesh6))

let nearest_mc () =
  Alcotest.(check int) "origin corner" 0 (Mesh.nearest_mc mesh6 0);
  (* Node (1,1) = id 7 is closest to corner 0. *)
  Alcotest.(check int) "interior node" 0 (Mesh.nearest_mc mesh6 7);
  (* Node (4,4) = id 28 is closest to corner 35. *)
  Alcotest.(check int) "far interior" 35 (Mesh.nearest_mc mesh6 28)

let xy_route_length () =
  for src = 0 to Mesh.size mesh6 - 1 do
    let dst = (src * 7) mod 36 in
    Alcotest.(check int) "route length = manhattan distance" (Mesh.distance mesh6 src dst)
      (List.length (Mesh.xy_route mesh6 ~src ~dst))
  done

let xy_route_connects () =
  let route = Mesh.xy_route mesh6 ~src:0 ~dst:35 in
  let rec connected prev = function
    | [] -> prev = 35
    | { Mesh.from_node; to_node } :: rest -> from_node = prev && connected to_node rest
  in
  Alcotest.(check bool) "contiguous path" true (connected 0 route)

let link_index_distinct () =
  let idx = List.map (Mesh.link_index mesh6) (Mesh.links mesh6) in
  Alcotest.(check int) "all link indices distinct" (List.length idx)
    (List.length (List.sort_uniq compare idx));
  List.iter
    (fun i -> Alcotest.(check bool) "within bound" true (i >= 0 && i < Mesh.num_links mesh6))
    idx

let quadrants () =
  Alcotest.(check int) "origin in q0" 0 (Mesh.quadrant_of_node mesh6 0);
  Alcotest.(check int) "far corner in q3" 3 (Mesh.quadrant_of_node mesh6 35);
  List.iter
    (fun q ->
      Alcotest.(check int) "9 nodes per quadrant" 9 (List.length (Mesh.nodes_in_quadrant mesh6 q));
      Alcotest.(check int) "mc in own quadrant" q
        (Mesh.quadrant_of_node mesh6 (Mesh.mc_of_quadrant mesh6 q)))
    [ 0; 1; 2; 3 ]

let cluster_modes () =
  (* Quadrant/SNC-4: the controller shares the home bank's quadrant. *)
  List.iter
    (fun mode ->
      for home_bank = 0 to 35 do
        let mc = Cluster.mc_for mode mesh6 ~home_bank ~channel:2 in
        Alcotest.(check int) "mc in home quadrant"
          (Mesh.quadrant_of_node mesh6 home_bank)
          (Mesh.quadrant_of_node mesh6 mc)
      done)
    [ Cluster.Quadrant; Cluster.Snc4 ];
  (* All-to-all: the channel picks the controller regardless of the bank. *)
  let mc0 = Cluster.mc_for Cluster.All_to_all mesh6 ~home_bank:14 ~channel:0 in
  let mc1 = Cluster.mc_for Cluster.All_to_all mesh6 ~home_bank:14 ~channel:1 in
  Alcotest.(check bool) "channels map to different MCs" true (mc0 <> mc1)

let cluster_strings () =
  List.iter
    (fun c ->
      Alcotest.(check string) "roundtrip" (Cluster.to_string c)
        (match Cluster.of_string (Cluster.to_string c) with
        | Ok c' -> Cluster.to_string c'
        | Error e -> e))
    Cluster.all

let qcheck_manhattan_triangle =
  QCheck.Test.make ~name:"manhattan satisfies triangle inequality" ~count:300
    QCheck.(triple (pair (0 -- 5) (0 -- 5)) (pair (0 -- 5) (0 -- 5)) (pair (0 -- 5) (0 -- 5)))
    (fun ((ax, ay), (bx, by), (cx, cy)) ->
      let a = Coord.make ax ay and b = Coord.make bx by and c = Coord.make cx cy in
      Coord.manhattan a c <= Coord.manhattan a b + Coord.manhattan b c)

let qcheck_route_symmetric_length =
  QCheck.Test.make ~name:"xy route lengths symmetric" ~count:200
    QCheck.(pair (0 -- 35) (0 -- 35))
    (fun (src, dst) ->
      List.length (Mesh.xy_route mesh6 ~src ~dst) = List.length (Mesh.xy_route mesh6 ~src:dst ~dst:src))

(* Route tables are built once per mesh shape: two meshes of one shape
   hand out the very same arrays, and every entry is the XY route. *)
let route_tables_shared () =
  List.iter
    (fun (cols, rows) ->
      let a = Mesh.create ~cols ~rows and b = Mesh.create ~cols ~rows in
      let n = Mesh.size a in
      for src = 0 to n - 1 do
        for dst = 0 to n - 1 do
          let route = Mesh.xy_route a ~src ~dst in
          let links = Mesh.route_links a ~src ~dst and nodes = Mesh.route_nodes a ~src ~dst in
          Alcotest.(check bool) "links shared" true (links == Mesh.route_links b ~src ~dst);
          Alcotest.(check bool) "nodes shared" true (nodes == Mesh.route_nodes b ~src ~dst);
          Alcotest.(check (list int)) "links = xy_route"
            (List.map (Mesh.link_index a) route) (Array.to_list links);
          Alcotest.(check (list int)) "nodes = xy_route"
            (List.map (fun (l : Mesh.link) -> l.Mesh.to_node) route) (Array.to_list nodes)
        done
      done)
    [ (6, 6); (5, 3) ]

let tests =
  [
    ( "noc",
      [
        Alcotest.test_case "manhattan distance" `Quick manhattan;
        Alcotest.test_case "coord roundtrip" `Quick coords_roundtrip;
        Alcotest.test_case "corners are MCs" `Quick corners_are_mcs;
        Alcotest.test_case "nearest MC" `Quick nearest_mc;
        Alcotest.test_case "xy route length" `Quick xy_route_length;
        Alcotest.test_case "xy route connects" `Quick xy_route_connects;
        Alcotest.test_case "link indices distinct" `Quick link_index_distinct;
        Alcotest.test_case "quadrants" `Quick quadrants;
        Alcotest.test_case "cluster modes" `Quick cluster_modes;
        Alcotest.test_case "cluster strings" `Quick cluster_strings;
        QCheck_alcotest.to_alcotest qcheck_manhattan_triangle;
        QCheck_alcotest.to_alcotest qcheck_route_symmetric_length;
        Alcotest.test_case "route tables shared per shape" `Quick route_tables_shared;
      ] );
  ]
