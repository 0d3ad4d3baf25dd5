(* Reference minimum spanning trees over [Ndp_graph.Kruskal.edge], for
   the tests: the splitter builds its statement MSTs with its own scratch
   union-find, and these check it. *)

module Kruskal = Ndp_graph.Kruskal
module Union_find = Ndp_graph.Union_find

let compare_edge (a : Kruskal.edge) (b : Kruskal.edge) =
  match compare a.weight b.weight with
  | 0 -> compare (a.u, a.v) (b.u, b.v)
  | c -> c

(* Kruskal's algorithm over vertices [0 .. n-1]: edges in increasing
   weight, ties broken by the (u, v) pair; a minimum spanning forest when
   the graph is not connected. *)
let mst ~n edges =
  let uf = Union_find.create n in
  let sorted = List.sort compare_edge edges in
  let keep (e : Kruskal.edge) = Union_find.union uf e.u e.v in
  List.filter keep sorted

let total_weight edges = List.fold_left (fun acc (e : Kruskal.edge) -> acc + e.weight) 0 edges

(* Whether the edge set connects all [n] vertices. *)
let is_spanning ~n edges =
  if n = 0 then true
  else begin
    let uf = Union_find.create n in
    List.iter (fun (e : Kruskal.edge) -> ignore (Union_find.union uf e.u e.v)) edges;
    Union_find.count uf = 1
  end
