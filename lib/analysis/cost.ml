(* Static (closed-form) movement cost tables.

   Everything here is compile-time only: the kernel is never simulated.
   Footprints and reuse come from the symbolic subscript analysis
   ([Affine_range]/[Reuse]); per-statement movement comes from the same
   splitter estimates the pipeline's compiler uses, read off the window
   model the sizer decides with ([Window.curve], built for the size the
   run chose alone) instead of compiled schedules. Nothing here sizes a
   window: the sizes come from the run being reconciled. The table's
   flit-hop column is therefore directly comparable to the Ledger's
   per-statement [s_predicted] and (to the extent the prediction is
   faithful) [s_flit_hops] columns — the [ndp_run analyze] subcommand
   performs exactly that reconciliation. *)

module Config = Ndp_sim.Config
module Pipeline = Ndp_core.Pipeline
module Window = Ndp_core.Window
module Context = Ndp_core.Context
module Kernel = Ndp_core.Kernel
module Splitter = Ndp_core.Splitter
module Dep = Ndp_ir.Dependence
module Loop = Ndp_ir.Loop
module Stmt = Ndp_ir.Stmt
module Reference = Ndp_ir.Reference
module Array_decl = Ndp_ir.Array_decl
module Affine_range = Ndp_ir.Affine_range
module Reuse = Ndp_ir.Reuse
module D = Diagnostic

type ref_row = {
  r_array : string;
  r_text : string;
  r_affine : bool;
  r_lines : int option;
  r_reuse : Reuse.t;
}

type stmt_row = {
  c_nest : string;
  c_stmt : int;
  c_text : string;
  c_instances : int;
  c_refs : ref_row list;
  c_links : int;
  c_flit_hops : int;
}

type t = {
  rows : stmt_row list;
  total_links : int;
  total_flit_hops : int;
}

let line_words config (d : Array_decl.t) =
  Int.max 1 (config.Config.line_bytes / Int.max 1 d.Array_decl.elem_size)

let ref_rows config (kernel : Kernel.t) (nest : Loop.nest) =
  let bounds = Affine_range.bounds_of_nest nest in
  let decls = kernel.Kernel.program.Loop.arrays in
  (* Undeclared arrays are E102's problem, not ours: assume word-sized
     elements so the classification still proceeds. *)
  let words name =
    match List.find_opt (fun (d : Array_decl.t) -> d.Array_decl.name = name) decls with
    | Some d -> line_words config d
    | None -> Int.max 1 (config.Config.line_bytes / 8)
  in
  let classes = Reuse.classify_nest ~line_words:words nest in
  List.mapi
    (fun si (stmt : Stmt.t) ->
      List.mapi
        (fun pos (r : Reference.t) ->
          let reuse =
            match List.assoc_opt (si, pos) classes with
            | Some (_, cls) -> cls
            | None -> Reuse.None_
          in
          {
            r_array = r.Reference.array;
            r_text = Reference.to_string r;
            r_affine = Reference.analyzable r;
            r_lines =
              Affine_range.footprint_lines ~line_words:(words r.Reference.array) ~bounds
                r.Reference.subscript;
            r_reuse = reuse;
          })
        (Stmt.output stmt :: Stmt.inputs stmt))
    nest.Loop.body

(* Per-statement static movement of one nest, in link units, summed over
   the full instance stream — the closed-form counterpart of what the
   pipeline's [record_predicted] accumulates per statement. A nest with a
   window is priced on the window model's curve at that one size, any
   other at its default movement. *)
let nest_movement ctx (nest : Loop.nest) metas ~window =
  let links = Array.make (Int.max 1 (List.length nest.Loop.body)) 0 in
  let est =
    match window with
    | None ->
      fun _ (m : Window.meta) -> Splitter.default_movement ctx ~store_node:m.Window.default_node m
    | Some w ->
      let movement_of = Window.movement (Window.curve ctx metas ~sizes:[ w ]) ~window:w in
      fun i _ -> movement_of i
  in
  List.iteri
    (fun i (m : Window.meta) ->
      let si = m.Window.inst.Dep.stmt_idx in
      links.(si) <- links.(si) + est i m)
    metas;
  links

let table ?(config = Config.default) ~scheme ~windows kernel =
  let ctx = Pipeline.static_context ~config scheme kernel in
  let line_flits = Config.flits_of_bytes config config.Config.line_bytes in
  let rows = ref [] in
  let _ =
    List.fold_left
      (fun g (nest : Loop.nest) ->
        let metas, g' = Pipeline.nest_stream ctx nest ~first_group:g in
        let links =
          nest_movement ctx nest metas ~window:(List.assoc_opt nest.Loop.nest_name windows)
        in
        let refs = ref_rows config kernel nest in
        let instances = List.length metas / Int.max 1 (List.length nest.Loop.body) in
        List.iteri
          (fun si (stmt : Stmt.t) ->
            rows :=
              {
                c_nest = nest.Loop.nest_name;
                c_stmt = si;
                c_text = Stmt.to_string stmt;
                c_instances = instances;
                c_refs = List.nth refs si;
                c_links = links.(si);
                c_flit_hops = links.(si) * line_flits;
              }
              :: !rows)
          nest.Loop.body;
        g')
      0 kernel.Kernel.program.Loop.nests
  in
  let rows = List.rev !rows in
  let total_links = List.fold_left (fun acc r -> acc + r.c_links) 0 rows in
  { rows; total_links; total_flit_hops = total_links * line_flits }

(* ------------------------------------------------------------------ *)
(* W4xx lints: the static model critiquing the kernel.                 *)

(* Share of a nest's sampled static movement above which one statement is
   flagged as dominating the prediction (W403). *)
let domination_share = 0.9

let lint_kernel ?(config = Config.default) (kernel : Kernel.t) =
  let ctx = Pipeline.static_context ~config Pipeline.Default kernel in
  let window_lines = ctx.Context.var2node_cap in
  let diags = ref [] in
  let report d = diags := d :: !diags in
  let _ =
    List.fold_left
      (fun g (nest : Loop.nest) ->
        let nest_name = nest.Loop.nest_name in
        let refs = ref_rows config kernel nest in
        (* W401/W402: per-reference footprint and analyzability findings. *)
        List.iteri
          (fun si stmt_refs ->
            List.iter
              (fun rr ->
                let loc = D.location ~nest:nest_name ~stmt:si ~reference:rr.r_text kernel.Kernel.name in
                if not rr.r_affine then
                  report
                    (D.makef ~code:"W402" ~severity:D.Warning ~loc
                       "non-affine reference defeats static analysis: footprint and reuse \
                        of '%s' are invisible to the analytic cost model (inspector \
                        sampling is the only estimate)"
                       rr.r_text)
                else
                  match (rr.r_reuse, rr.r_lines) with
                  | Reuse.None_, _ | _, None -> ()
                  | _, Some lines when lines > window_lines ->
                    report
                      (D.makef ~code:"W401" ~severity:D.Warning ~loc
                         "footprint of %d lines exceeds the %d-line L1 reuse window: the \
                          %s reuse of '%s' will mostly miss at runtime"
                         lines window_lines (Reuse.to_string rr.r_reuse) rr.r_text)
                  | _ -> ())
              stmt_refs)
          refs;
        (* W403: one statement dominating the nest's predicted movement.
           A sample of the instance stream suffices (the same prefix the
           window-size preprocessing trusts). *)
        let metas, g' = Pipeline.nest_stream ctx nest ~first_group:g in
        let spi = List.length nest.Loop.body in
        if spi >= 2 then begin
          let sample = List.filteri (fun i _ -> i < Window.preprocessing_sample) metas in
          let links = Array.make spi 0 in
          List.iter
            (fun (m : Window.meta) ->
              let est =
                Splitter.default_movement ctx ~store_node:m.Window.default_node m
              in
              links.(m.Window.inst.Dep.stmt_idx) <- links.(m.Window.inst.Dep.stmt_idx) + est)
            sample;
          let total = Array.fold_left ( + ) 0 links in
          if total > 0 then
            Array.iteri
              (fun si l ->
                if float_of_int l >= domination_share *. float_of_int total then
                  report
                    (D.makef ~code:"W403" ~severity:D.Warning
                       ~loc:(D.location ~nest:nest_name ~stmt:si kernel.Kernel.name)
                       "predicted movement is dominated by this statement (%d of %d link \
                        units, %.0f%%): window sizing and splitting decisions hinge on one \
                        statement's estimate"
                       l total
                       (100.0 *. float_of_int l /. float_of_int total)))
              links
        end;
        g')
      0 kernel.Kernel.program.Loop.nests
  in
  List.stable_sort D.compare_diag (List.rev !diags)
