(* Reference dependence analysis for the tests: every instance pair
   (i, j) with i < j, compared reference by reference through the
   resolver, with none of [Dependence]'s access tables or buckets. For
   each pair it lists the output dependence, then flow into j's reads,
   then anti from i's reads — the order [Dependence.analyze] promises,
   duplicates included, so the two must agree exactly. *)

module Dep = Ndp_ir.Dependence

let analyze (resolver : Dep.resolver) (instances : Dep.instance list) =
  let accesses =
    Array.of_list
      (List.map
         (fun (i : Dep.instance) ->
           let at (r : Ndp_ir.Reference.t) = (r.Ndp_ir.Reference.array, resolver r i.Dep.env) in
           (at (Ndp_ir.Stmt.output i.Dep.stmt), List.map at (Ndp_ir.Stmt.inputs i.Dep.stmt)))
         instances)
  in
  (* Same array, and the same element or an unresolvable side (a may). *)
  let conflict (a, x) (b, y) =
    if a <> b then None
    else match (x, y) with Some x, Some y -> if x = y then Some false else None | _ -> Some true
  in
  let deps = ref [] in
  let check src dst kind a b =
    Option.iter (fun may -> deps := { Dep.src; dst; kind; may } :: !deps) (conflict a b)
  in
  let n = Array.length accesses in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      let wi, reads_i = accesses.(i) and wj, reads_j = accesses.(j) in
      check i j Dep.Output wi wj;
      List.iter (check i j Dep.Flow wi) reads_j;
      List.iter (fun r -> check i j Dep.Anti r wj) reads_i
    done
  done;
  List.rev !deps
