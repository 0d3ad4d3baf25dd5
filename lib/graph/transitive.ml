let adjacency ~n edges =
  let adj = Array.make n [] in
  List.iter (fun (u, v) -> adj.(u) <- v :: adj.(u)) edges;
  adj

let topological_order ~n edges =
  let adj = adjacency ~n edges in
  let indeg = Array.make n 0 in
  List.iter (fun (_, v) -> indeg.(v) <- indeg.(v) + 1) edges;
  let queue = Queue.create () in
  for v = 0 to n - 1 do
    if indeg.(v) = 0 then Queue.push v queue
  done;
  let order = ref [] in
  while not (Queue.is_empty queue) do
    let u = Queue.pop queue in
    order := u :: !order;
    let relax v =
      indeg.(v) <- indeg.(v) - 1;
      if indeg.(v) = 0 then Queue.push v queue
    in
    List.iter relax adj.(u)
  done;
  if List.length !order <> n then None else Some (List.rev !order)

let is_dag ~n edges = topological_order ~n edges <> None

type reach = { n : int; words : int; bits : int array }

(* Row [i] is words [i * words .. i * words + words - 1]; vertex [j] is bit
   [j mod Sys.int_size] of word [j / Sys.int_size]. *)
let word r i j = (i * r.words) + (j / Sys.int_size)
let mask j = 1 lsl (j mod Sys.int_size)

let check_vertex fn n v =
  if v < 0 || v >= n then invalid_arg (Printf.sprintf "Transitive.%s: vertex %d not in [0, %d)" fn v n)

let closure ~n edges =
  let words = (n + Sys.int_size - 1) / Sys.int_size in
  let r = { n; words; bits = Array.make (n * words) 0 } in
  let bits = r.bits in
  List.iter
    (fun (u, v) ->
      check_vertex "closure" n u;
      check_vertex "closure" n v;
      let w = word r u v in
      bits.(w) <- bits.(w) lor mask v)
    edges;
  (* Warshall: once every path through intermediates [0..k-1] is recorded,
     any row that reaches [k] also reaches everything [k] reaches. One
     word-wise OR moves Sys.int_size columns at a time. *)
  for k = 0 to n - 1 do
    let row_k = k * words and col = k / Sys.int_size and m = mask k in
    for i = 0 to n - 1 do
      let row_i = i * words in
      if bits.(row_i + col) land m <> 0 then
        for w = 0 to words - 1 do
          bits.(row_i + w) <- bits.(row_i + w) lor bits.(row_k + w)
        done
    done
  done;
  r

let reachable r i j =
  check_vertex "reachable" r.n i;
  check_vertex "reachable" r.n j;
  r.bits.(word r i j) land mask j <> 0

let reduction ~n edges =
  if not (is_dag ~n edges) then invalid_arg "Transitive.reduction: graph has a cycle";
  let edges = List.sort_uniq compare edges in
  let adj = adjacency ~n edges in
  (* reach_without u v e: is v reachable from u using edges other than e? *)
  let redundant (u, v) =
    let visited = Array.make n false in
    let rec dfs x =
      if x = v then true
      else if visited.(x) then false
      else begin
        visited.(x) <- true;
        let step y = if x = u && y = v then false else dfs y in
        List.exists step adj.(x)
      end
    in
    dfs u
  in
  List.filter (fun e -> not (redundant e)) edges
