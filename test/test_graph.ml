open Ndp_graph

let uf_basics () =
  let uf = Union_find.create 5 in
  Alcotest.(check int) "five sets" 5 (Union_find.count uf);
  Alcotest.(check bool) "union succeeds" true (Union_find.union uf 0 1);
  Alcotest.(check bool) "repeat union fails" false (Union_find.union uf 1 0);
  Alcotest.(check bool) "same" true (Union_find.same uf 0 1);
  Alcotest.(check bool) "not same" false (Union_find.same uf 0 2);
  Alcotest.(check int) "four sets" 4 (Union_find.count uf)

let uf_transitive () =
  let uf = Union_find.create 6 in
  ignore (Union_find.union uf 0 1);
  ignore (Union_find.union uf 1 2);
  ignore (Union_find.union uf 3 4);
  Alcotest.(check bool) "0~2" true (Union_find.same uf 0 2);
  Alcotest.(check bool) "2!~3" false (Union_find.same uf 2 3);
  ignore (Union_find.union uf 2 3);
  Alcotest.(check bool) "0~4" true (Union_find.same uf 0 4)

let edge u v weight = { Kruskal.u; v; weight }

let kruskal_triangle () =
  (* Triangle 0-1 (1), 1-2 (2), 0-2 (3): MST drops the heaviest edge. *)
  let mst = Kruskal_ref.mst ~n:3 [ edge 0 1 1; edge 1 2 2; edge 0 2 3 ] in
  Alcotest.(check int) "two edges" 2 (List.length mst);
  Alcotest.(check int) "weight 3" 3 (Kruskal_ref.total_weight mst);
  Alcotest.(check bool) "spanning" true (Kruskal_ref.is_spanning ~n:3 mst)

let kruskal_deterministic_ties () =
  let edges = [ edge 0 1 1; edge 1 2 1; edge 0 2 1 ] in
  let a = Kruskal_ref.mst ~n:3 edges and b = Kruskal_ref.mst ~n:3 (List.rev edges) in
  Alcotest.(check bool) "tie-broken deterministically" true (a = b)

let kruskal_forest () =
  (* Two disconnected components give a forest, not a failure. *)
  let mst = Kruskal_ref.mst ~n:4 [ edge 0 1 1; edge 2 3 1 ] in
  Alcotest.(check int) "two edges" 2 (List.length mst);
  Alcotest.(check bool) "not spanning" false (Kruskal_ref.is_spanning ~n:4 mst)

(* Brute-force MST weight on tiny graphs for the property test. *)
let brute_force_mst_weight ~n edges =
  let rec subsets = function
    | [] -> [ [] ]
    | e :: rest ->
      let s = subsets rest in
      s @ List.map (fun sub -> e :: sub) s
  in
  let candidates =
    List.filter
      (fun sub -> List.length sub = n - 1 && Kruskal_ref.is_spanning ~n sub)
      (subsets edges)
  in
  List.fold_left (fun acc sub -> min acc (Kruskal_ref.total_weight sub)) max_int candidates

let qcheck_kruskal_minimal =
  QCheck.Test.make ~name:"kruskal matches brute force on K4/K5" ~count:60
    QCheck.(pair (2 -- 5) (small_int))
    (fun (n, seed) ->
      let rng = Ndp_prelude.Rng.create seed in
      let edges = ref [] in
      for i = 0 to n - 1 do
        for j = i + 1 to n - 1 do
          edges := edge i j (1 + Ndp_prelude.Rng.int rng 9) :: !edges
        done
      done;
      let mst = Kruskal_ref.mst ~n !edges in
      Kruskal_ref.is_spanning ~n mst
      && Kruskal_ref.total_weight mst = brute_force_mst_weight ~n !edges)

let all_pairs n = List.concat (List.init n (fun i -> List.init n (fun j -> (i, j))))

let closure_reachability () =
  let r = Transitive.closure ~n:4 [ (0, 1); (1, 2) ] in
  Alcotest.(check bool) "0 reaches 2" true (Transitive.reachable r 0 2);
  Alcotest.(check bool) "2 does not reach 0" false (Transitive.reachable r 2 0);
  Alcotest.(check bool) "3 isolated" false (Transitive.reachable r 0 3);
  Alcotest.(check bool) "no path of length 0" false (Transitive.reachable r 1 1)

let closure_rejects_bad_vertex () =
  (* Vertex 4 would otherwise land in row 0's unused high bits. *)
  Alcotest.check_raises "edge outside [0, n)"
    (Invalid_argument "Transitive.closure: vertex 4 not in [0, 4)")
    (fun () -> ignore (Transitive.closure ~n:4 [ (0, 4) ]));
  let r = Transitive.closure ~n:4 [] in
  Alcotest.check_raises "query outside [0, n)"
    (Invalid_argument "Transitive.reachable: vertex 4 not in [0, 4)")
    (fun () -> ignore (Transitive.reachable r 0 4))

let reduction_drops_redundant () =
  (* The paper's example: a chain 0->1->2 plus a direct 0->2 sync. *)
  let reduced = Transitive.reduction ~n:3 [ (0, 1); (1, 2); (0, 2) ] in
  Alcotest.(check (list (pair int int))) "redundant arc dropped" [ (0, 1); (1, 2) ]
    (List.sort compare reduced)

let reduction_keeps_needed () =
  let arcs = [ (0, 1); (0, 2); (1, 3); (2, 3) ] in
  let reduced = Transitive.reduction ~n:4 arcs in
  Alcotest.(check (list (pair int int))) "diamond kept" (List.sort compare arcs)
    (List.sort compare reduced)

let reduction_rejects_cycle () =
  Alcotest.check_raises "cycle rejected"
    (Invalid_argument "Transitive.reduction: graph has a cycle")
    (fun () -> ignore (Transitive.reduction ~n:2 [ (0, 1); (1, 0) ]))

let qcheck_reduction_preserves_closure =
  QCheck.Test.make ~name:"transitive reduction preserves reachability" ~count:100
    QCheck.(small_int)
    (fun seed ->
      let rng = Ndp_prelude.Rng.create seed in
      let n = 6 in
      (* Random DAG: only forward arcs. *)
      let arcs = ref [] in
      for i = 0 to n - 2 do
        for j = i + 1 to n - 1 do
          if Ndp_prelude.Rng.chance rng 0.4 then arcs := (i, j) :: !arcs
        done
      done;
      let before = Transitive.closure ~n !arcs in
      let after = Transitive.closure ~n (Transitive.reduction ~n !arcs) in
      List.for_all
        (fun (i, j) -> Transitive.reachable before i j = Transitive.reachable after i j)
        (all_pairs n))

(* Reference reachability: a DFS from each source over paths of length >= 1. *)
let dfs_reach ~n edges =
  let adj = Array.make n [] in
  List.iter (fun (u, v) -> adj.(u) <- v :: adj.(u)) edges;
  Array.init n (fun s ->
      let seen = Array.make n false in
      let rec visit v =
        if not seen.(v) then begin
          seen.(v) <- true;
          List.iter visit adj.(v)
        end
      in
      List.iter visit adj.(s);
      seen)

(* Sizes straddle the word boundaries of the bitset rows (Sys.int_size is 63
   on 64-bit hosts) and include the empty graph. *)
let qcheck_closure_matches_dfs =
  QCheck.Test.make ~name:"closure agrees with per-source DFS on random digraphs" ~count:100
    QCheck.(pair (oneofl [ 0; 1; 2; 62; 63; 64; 65; 126; 127; 200 ]) small_int)
    (fun (n, seed) ->
      let rng = Ndp_prelude.Rng.create seed in
      (* Cycles and self loops allowed; density from empty to past the
         giant-component threshold. *)
      let m = if n = 0 then 0 else Ndp_prelude.Rng.int rng ((2 * n) + 1) in
      let edges = List.init m (fun _ -> (Ndp_prelude.Rng.int rng n, Ndp_prelude.Rng.int rng n)) in
      let edges =
        if n > 0 && Ndp_prelude.Rng.bool rng then
          let v = Ndp_prelude.Rng.int rng n in
          (v, v) :: edges
        else edges
      in
      let r = Transitive.closure ~n edges in
      let oracle = dfs_reach ~n edges in
      List.for_all (fun (i, j) -> Transitive.reachable r i j = oracle.(i).(j)) (all_pairs n))

let tests =
  [
    ( "graph",
      [
        Alcotest.test_case "union-find basics" `Quick uf_basics;
        Alcotest.test_case "union-find transitive" `Quick uf_transitive;
        Alcotest.test_case "kruskal triangle" `Quick kruskal_triangle;
        Alcotest.test_case "kruskal deterministic ties" `Quick kruskal_deterministic_ties;
        Alcotest.test_case "kruskal forest" `Quick kruskal_forest;
        Alcotest.test_case "closure reachability" `Quick closure_reachability;
        Alcotest.test_case "closure rejects bad vertex" `Quick closure_rejects_bad_vertex;
        Alcotest.test_case "reduction drops redundant sync" `Quick reduction_drops_redundant;
        Alcotest.test_case "reduction keeps diamond" `Quick reduction_keeps_needed;
        Alcotest.test_case "reduction rejects cycle" `Quick reduction_rejects_cycle;
        QCheck_alcotest.to_alcotest qcheck_kruskal_minimal;
        QCheck_alcotest.to_alcotest qcheck_reduction_preserves_closure;
        QCheck_alcotest.to_alcotest qcheck_closure_matches_dfs;
      ] );
  ]
