type t = {
  ref_ : Ndp_ir.Reference.t;
  index : int;
  node : int;
  in_l1 : bool;
  predicted_hit : bool option;
  va : int option;
  bytes : int;
}

let line_of (ctx : Context.t) va = va / ctx.config.Ndp_sim.Config.line_bytes

let some_hit = Some true
let some_miss = Some false

let locate (ctx : Context.t) ~store_node (m : Staged.meta) k =
  let ref_ = m.Staged.shape.Staged.refs.(k) and bytes = m.Staged.shape.Staged.bytes.(k) in
  let va = Staged.compiler_va ctx m k in
  let cached =
    if va = Staged.none || not ctx.options.Context.reuse_aware then None
    else Context.cached_node ctx ~line:(line_of ctx va)
  in
  let at node ~in_l1 predicted_hit = { ref_; index = k; node; in_l1; predicted_hit; va = Some va; bytes } in
  match cached with
  | _ when va = Staged.none ->
    { ref_; index = k; node = store_node; in_l1 = false; predicted_hit = None; va = None; bytes }
  | Some node -> at node ~in_l1:true None
  | None ->
    let machine = ctx.machine and ideal = ctx.options.Context.ideal_location in
    let hit =
      if ideal then Ndp_sim.Machine.probe_l2 machine ~va
      else
        Ndp_mem.Miss_predictor.predict ctx.predictor (Ndp_sim.Machine.compiler_translate machine va)
    in
    let node =
      if not hit then Ndp_sim.Machine.compiler_mc_node machine ~va
      else if ideal then Ndp_sim.Machine.home_node machine ~va
      else Ndp_sim.Machine.compiler_home_node machine ~va
    in
    at node ~in_l1:false (if hit then some_hit else some_miss)
