module Kruskal = Ndp_graph.Kruskal
module Union_find = Ndp_graph.Union_find
module Nested_set = Ndp_ir.Nested_set

type t = {
  meta : Staged.meta;
  locs : Location.t array;
  edges : Kruskal.edge list;
  store_node : int;
  store : (int * int) option;
  est_movement : int;
  whole : bool;
}

(* Scratch slots of the context the splitter works in. A nested-set level
   is a run of components on the component stack; a component is a run
   of member nodes on the member stack (a located reference is one node,
   a finished inner set is its member set), so the level's components are
   [comp.(c)] to the next component's start, or the member top. *)
let slot_members, slot_comps, slot_cands = (0, 1, 2)

(* Kruskal over components: the candidate edge between two components is
   the concrete minimum-distance pair of member nodes ([Context.distance],
   so under a repair plan the tree grows over the surviving mesh with
   degraded link weights). [guf] is the statement-global union-find over
   physical nodes: Algorithm 1 pools the per-level MST edges into one
   MSTedges set, so an edge whose endpoints are already physically
   connected (by a sibling level's tree) would create a cycle and is
   skipped — the existing path is reused. [pair i j] is the
   minimum-distance pair of components [i < j] as [(u, v, w)]. *)
let mst_over_generic ~guf ~n ~pair ~pick =
  let uf = Union_find.create n in
  let candidates = ref [] in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      let u, v, w = pair i j in
      candidates := (w, i, j, u, v) :: !candidates
    done
  done;
  List.iter
    (fun (w, i, j, u, v) ->
      (* A zero-weight merge means the components share a physical node:
         no link is traversed, so no tree edge is recorded. *)
      if Union_find.union uf i j && w <> 0 && Union_find.union guf u v then pick u v w)
    (List.sort compare !candidates)

(* Each candidate edge of the packed path is one int with the fields in
   the significance order the generic path's tuple sort compares them —
   (weight, i, j, u, v), 6 bits per id field — so sorting the packed
   candidates is the identical total order and the walk visits them
   exactly as [mst_over_generic] would. Component counts and node ids
   stay under 64 on the 6x6 mesh; the weight has the remaining 38 bits,
   far above any fault-plan route cost. The generic path remains for
   anything larger. *)
let field_mask = 0x3f

(* Sort [a.(lo .. hi - 1)] ascending in place; the runs sorted here are a
   statement's few members or candidate edges. *)
let insertion_sort (a : int array) lo hi =
  for i = lo + 1 to hi - 1 do
    let x = a.(i) in
    let j = ref (i - 1) in
    while !j >= lo && a.(!j) > x do
      a.(!j + 1) <- a.(!j);
      decr j
    done;
    a.(!j + 1) <- x
  done

let split (ctx : Context.t) ~store_node (m : Staged.meta) =
  let shape = m.Staged.shape in
  let n_in = Array.length shape.Staged.refs - 1 in
  let width = shape.Staged.width in
  let mem = Context.scratch_ints ctx ~slot:slot_members ~at_least:(n_in + 1) in
  let comp = Context.scratch_ints ctx ~slot:slot_comps ~at_least:(width + 1) in
  let cand = Context.scratch_ints ctx ~slot:slot_cands ~at_least:((width * width / 2) + 1) in
  let mtop = ref 0 and ctop = ref 0 in
  let locs = ref [||] in
  let next = ref 0 in
  let edges = ref [] and est = ref 0 in
  let pick u v w =
    edges := { Kruskal.u; v; weight = w } :: !edges;
    est := !est + w
  in
  let mesh_size = Ndp_noc.Mesh.size (Context.mesh ctx) in
  let guf = Context.scratch_guf ctx in
  let bu = ref 0 and bv = ref 0 and bw = ref 0 in
  let comp_end c = if c + 1 < !ctop then comp.(c + 1) else !mtop in
  (* Close the component whose members start at [start]: a one-node
     component already present at this level is dropped (Algorithm 1,
     line 12), and an empty one (a reference-free group) never forms. *)
  let close ~cbase start =
    let len = !mtop - start in
    let dup = ref (len = 0) in
    if len = 1 then
      for c = cbase to !ctop - 1 do
        let e = if c + 1 < !ctop then comp.(c + 1) else start in
        if e - comp.(c) = 1 && mem.(comp.(c)) = mem.(start) then dup := true
      done;
    if !dup then mtop := start
    else begin
      comp.(!ctop) <- start;
      incr ctop
    end
  in
  let push_node ~cbase node =
    mem.(!mtop) <- node;
    incr mtop;
    close ~cbase (!mtop - 1)
  in
  (* Kruskal over the level's components, indexed in reverse push order
     (the order the component list of Algorithm 1 is built in). *)
  let mst ~cbase =
    let n = !ctop - cbase in
    let ci i = !ctop - 1 - i in
    let closest i j =
      let a = ci i and b = ci j in
      bu := -1;
      bv := -1;
      bw := max_int;
      for x = comp.(a) to comp_end a - 1 do
        for y = comp.(b) to comp_end b - 1 do
          let w = Context.distance ctx mem.(x) mem.(y) in
          if w < !bw then begin
            bu := mem.(x);
            bv := mem.(y);
            bw := w
          end
        done
      done
    in
    let pair i j =
      closest i j;
      (!bu, !bv, !bw)
    in
    if n <= 1 then ()
    else if n > field_mask || mesh_size > field_mask + 1 then mst_over_generic ~guf ~n ~pair ~pick
    else begin
      let k = ref 0 and overflow = ref false in
      for i = 0 to n - 1 do
        for j = i + 1 to n - 1 do
          closest i j;
          let u = !bu and v = !bv and w = !bw in
          if w lsr 38 <> 0 then overflow := true;
          cand.(!k) <- (((((w lsl 6) lor i) lsl 6) lor j) lsl 12) lor (u lsl 6) lor v;
          incr k
        done
      done;
      if !overflow then mst_over_generic ~guf ~n ~pair ~pick
      else begin
        insertion_sort cand 0 !k;
        let uf = Context.scratch_mst ctx ~at_least:n in
        for a = 0 to !k - 1 do
          let packed = cand.(a) in
          let v = packed land field_mask in
          let u = (packed lsr 6) land field_mask in
          let j = (packed lsr 12) land field_mask in
          let i = (packed lsr 18) land field_mask in
          let w = packed lsr 24 in
          if Union_find.union uf i j && w <> 0 && Union_find.union guf u v then pick u v w
        done
      end
    end
  in
  (* Process one nested-set level: place every item, recurse into
     sub-sets, connect the level's components with an MST, then leave the
     level's member set, sorted and deduplicated, on the member stack from
     the level's base. *)
  let rec level ~extra (set : Nested_set.t) =
    let cbase = !ctop and mbase = !mtop in
    List.iter
      (function
        | Nested_set.Ref _ ->
          let loc = Location.locate ctx ~store_node m (!next + 1) in
          if !next = 0 then locs := Array.make n_in loc;
          !locs.(!next) <- loc;
          incr next;
          push_node ~cbase loc.Location.node
        | Nested_set.Const _ -> ()
        | Nested_set.Sub s ->
          let start = !mtop in
          level ~extra:(-1) s;
          close ~cbase start)
      set.Nested_set.items;
    if extra >= 0 then push_node ~cbase extra;
    mst ~cbase;
    insertion_sort mem mbase !mtop;
    let top = ref mbase in
    for a = mbase to !mtop - 1 do
      if !top = mbase || mem.(!top - 1) <> mem.(a) then begin
        mem.(!top) <- mem.(a);
        incr top
      end
    done;
    mtop := !top;
    ctop := cbase
  in
  level ~extra:store_node
    (if ctx.options.Context.level_based then shape.Staged.nested else shape.Staged.flat);
  let store_va = Staged.runtime_va m 0 in
  {
    meta = m;
    locs = !locs;
    edges = !edges;
    store_node;
    store = (if store_va = Staged.none then None else Some (store_va, shape.Staged.bytes.(0)));
    est_movement = !est;
    whole = false;
  }

let unsplit t = { t with edges = []; whole = true }

(* The located items grouped per node in the order the splitter has
   always listed them: the fold order of an int-keyed [Hashtbl] filled in
   location order (buckets descending, first insertion first within a
   bucket). It is the operand order of a statement executed whole. *)
let grouped t =
  let locs = Array.to_list t.locs in
  let nodes =
    List.rev
      (List.fold_left
         (fun acc (l : Location.t) -> if List.mem l.node acc then acc else l.node :: acc)
         [] locs)
  in
  let buckets = ref 16 in
  while List.length nodes > 2 * !buckets do
    buckets := 2 * !buckets
  done;
  let bucket n = Hashtbl.hash (n : int) land (!buckets - 1) in
  List.map
    (fun node -> (node, List.filter (fun (l : Location.t) -> l.node = node) locs))
    (List.stable_sort (fun a b -> compare (bucket b) (bucket a)) nodes)

let items_at t =
  if t.whole then [ (t.store_node, List.concat_map snd (grouped t)) ] else grouped t

let predictions t =
  Array.fold_right
    (fun (l : Location.t) acc ->
      match (l.Location.predicted_hit, l.Location.va) with
      | Some p, Some va -> (va, p) :: acc
      | _ -> acc)
    t.locs []

let default_movement (ctx : Context.t) ~store_node (m : Staged.meta) =
  let acc = ref 0 in
  for k = 1 to Array.length m.Staged.shape.Staged.refs - 1 do
    let va = Staged.runtime_va m k in
    if va <> Staged.none then
      acc := !acc + Context.distance ctx store_node (Ndp_sim.Machine.home_node ctx.machine ~va)
  done;
  !acc
