module Dep = Ndp_ir.Dependence
module Reference = Ndp_ir.Reference
module Config = Ndp_sim.Config

type slot = { f_node : int; f_elide : bool }

type decision = {
  d_nest : string;
  d_stmts : int list;
  d_arrays : string list;
  d_instances : int;
  d_elided_stores : int;
  d_pred_saved_flit_hops : int;
}

let plan (ctx : Context.t) ~nest ~window ~capacity ~shared ~default_node (metas : Staged.meta array)
    deps =
  let n = Array.length metas in
  let slots = Array.make (Int.max 1 n) None in
  if capacity <= 0 || n = 0 || window <= 0 then (slots, [])
  else begin
    let line_bytes = ctx.Context.config.Config.line_bytes in
    let flow_dsts = Array.make n [] in
    let first_kill = Array.make n max_int in
    let tainted = Array.make n false in
    Array.iter
      (fun (d : Dep.dep) ->
        if d.Dep.may then begin
          (* an unresolvable access may alias the intermediate: neither
             endpoint can anchor a chain *)
          tainted.(d.Dep.src) <- true;
          tainted.(d.Dep.dst) <- true
        end
        else
          match d.Dep.kind with
          | Dep.Flow -> flow_dsts.(d.Dep.src) <- d.Dep.dst :: flow_dsts.(d.Dep.src)
          | Dep.Output ->
            if d.Dep.dst < first_kill.(d.Dep.src) then first_kill.(d.Dep.src) <- d.Dep.dst
          | Dep.Anti -> ())
      deps;
    let affine =
      Array.init n (fun i -> Array.for_all Fun.id metas.(i).Staged.shape.Staged.affine)
    in
    let out_array i = metas.(i).Staged.shape.Staged.refs.(0).Reference.array in
    (* Candidate link i -> j: j is i's only live reader and the pair can
       share a node and a window chunk. *)
    let succ = Array.make n (-1) in
    for i = 0 to n - 1 do
      let live = List.filter (fun d -> d < first_kill.(i)) flow_dsts.(i) in
      match List.sort_uniq compare live with
      | [ j ]
        when (not tainted.(i))
             && (not tainted.(j))
             && affine.(i) && affine.(j)
             && i / window = j / window
             && default_node.(i) = default_node.(j)
             && not (Hashtbl.mem shared (out_array i)) ->
        succ.(i) <- j
      | _ -> ()
    done;
    (* Multi-input joins are boundaries: a consumer fed by two candidate
       producers would need both intermediates resident, so neither link
       survives and the join starts its own chain. *)
    let preds = Array.make n 0 in
    Array.iter (fun j -> if j >= 0 then preds.(j) <- preds.(j) + 1) succ;
    for i = 0 to n - 1 do
      if succ.(i) >= 0 && preds.(succ.(i)) > 1 then succ.(i) <- -1
    done;
    Array.fill preds 0 n 0;
    Array.iter (fun j -> if j >= 0 then preds.(j) <- preds.(j) + 1) succ;
    let lines_of i =
      let m = metas.(i) in
      List.filter_map
        (fun k ->
          let va = Staged.compiler_va ctx m k in
          if va = Staged.none then None else Some (va / line_bytes))
        (List.init (Array.length m.Staged.shape.Staged.refs) Fun.id)
    in
    let line_flits = Config.flits_of_bytes ctx.Context.config line_bytes in
    let home_of i =
      let va = Staged.compiler_va ctx metas.(i) 0 in
      if va = Staged.none then None
      else Some (Ndp_sim.Machine.compiler_home_node ctx.Context.machine ~va)
    in
    let decisions = Hashtbl.create 16 in
    let record chain =
      let node = default_node.(List.hd chain) in
      let tail = List.nth chain (List.length chain - 1) in
      let elided = List.filter (fun i -> i <> tail) chain in
      (* Write-back links the elision saves: one line from the chain node
         to each intermediate's home. *)
      let saved_links =
        List.fold_left
          (fun acc i ->
            match home_of i with
            | Some home -> acc + Context.distance ctx node home
            | None -> acc)
          0 elided
      in
      (* Profitability: a fused member runs unsplit at the chain node, so
         its operands all travel there — price that against what the MST
         split (at the member's normal store node) would have cost, on a
         forked context so real compilation state is untouched. Fuse only
         when the saved write-backs beat the penalty. *)
      let penalty =
        let ectx = Context.fork_for_estimate ctx in
        List.fold_left
          (fun acc i ->
            let normal = match home_of i with Some h -> h | None -> node in
            let fused_cost = Splitter.default_movement ectx ~store_node:node metas.(i) in
            let unfused_cost =
              Int.min
                (Splitter.split ectx ~store_node:normal metas.(i)).Splitter.est_movement
                (Splitter.default_movement ectx ~store_node:normal metas.(i))
            in
            acc + Int.max 0 (fused_cost - unfused_cost))
          0 chain
      in
      if saved_links > penalty then begin
        List.iter (fun i -> slots.(i) <- Some { f_node = node; f_elide = true }) chain;
        slots.(tail) <- Some { f_node = node; f_elide = false };
        let stmts = List.map (fun i -> metas.(i).Staged.inst.Dep.stmt_idx) chain in
        let arrays = List.sort_uniq compare (List.map out_array elided) in
        let cur =
          match Hashtbl.find_opt decisions stmts with
          | Some d -> d
          | None ->
            {
              d_nest = nest;
              d_stmts = stmts;
              d_arrays = arrays;
              d_instances = 0;
              d_elided_stores = 0;
              d_pred_saved_flit_hops = 0;
            }
        in
        Hashtbl.replace decisions stmts
          {
            cur with
            d_instances = cur.d_instances + 1;
            d_elided_stores = cur.d_elided_stores + List.length elided;
            d_pred_saved_flit_hops = cur.d_pred_saved_flit_hops + (line_flits * saved_links);
          }
      end
    in
    (* Maximal paths through the link graph (a DAG: deps have src < dst),
       greedily segmented so each fused run's distinct-line footprint fits
       the capacity bound — the intermediate must stay L1-resident until
       its consumer runs. *)
    for h = 0 to n - 1 do
      if succ.(h) >= 0 && preds.(h) = 0 then begin
        let rec path i acc = if succ.(i) >= 0 then path succ.(i) (i :: acc) else List.rev (i :: acc) in
        let members = path h [] in
        let seg = ref [] and seg_lines = ref [] in
        let flush () =
          if List.length !seg >= 2 then record (List.rev !seg);
          seg := [];
          seg_lines := []
        in
        List.iter
          (fun i ->
            let merged = List.sort_uniq compare (lines_of i @ !seg_lines) in
            if List.length merged * line_bytes > capacity && !seg <> [] then begin
              flush ();
              seg := [ i ];
              seg_lines := List.sort_uniq compare (lines_of i)
            end
            else begin
              seg := i :: !seg;
              seg_lines := merged
            end)
          members;
        flush ()
      end
    done;
    let decs = Hashtbl.fold (fun _ d acc -> d :: acc) decisions [] in
    let decs = List.sort (fun a b -> compare (a.d_stmts, a.d_nest) (b.d_stmts, b.d_nest)) decs in
    (slots, decs)
  end
