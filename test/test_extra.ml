(* Cross-cutting invariants that span several libraries. *)

module P = Ndp_core.Pipeline
module Task = Ndp_sim.Task

let env_shadowing () =
  let open Ndp_ir in
  let e = Env.bind "i" 2 (Env.bind "i" 1 Env.empty) in
  Alcotest.(check (option int)) "latest binding wins" (Some 2) (Env.lookup e "i");
  Alcotest.(check int) "single entry" 1 (List.length (Env.to_list e))

let qcheck_affine_eval_linear =
  (* eval(affine, k*env) is linear in the environment. *)
  QCheck.Test.make ~name:"affine subscripts evaluate linearly" ~count:200
    QCheck.(quad (int_range (-20) 20) (int_range (-20) 20) (int_range (-50) 50) small_nat)
    (fun (ci, cj, k, i) ->
      let open Ndp_ir in
      let sub = Subscript.affine [ ("i", ci); ("j", cj) ] k in
      let env = Env.of_list [ ("i", i); ("j", 3) ] in
      Subscript.eval_affine env sub = Some ((ci * i) + (cj * 3) + k))

let qcheck_mix_total =
  QCheck.Test.make ~name:"op mix counts every operator once" ~count:200
    QCheck.(list_of_size Gen.(0 -- 20) (oneofl Ndp_ir.Op.all))
    (fun ops -> Task.mix_total (Task.mix_of_ops ops) = List.length ops)

let qcheck_cost_at_least_ops =
  QCheck.Test.make ~name:"op cost bounded: n <= cost <= 10n" ~count:200
    QCheck.(list_of_size Gen.(0 -- 20) (oneofl Ndp_ir.Op.all))
    (fun ops ->
      let c = Task.cost_of_ops ops and n = List.length ops in
      c >= n && c <= 10 * n)

let engine_finish_time_monotone () =
  (* finish_time equals the max task finish and never decreases. *)
  let m = Ndp_sim.Machine.create Ndp_sim.Config.default in
  let engine = Ndp_sim.Engine.create m in
  let mk id node = Task.make ~id ~group:0 ~node ~ops:[ Ndp_ir.Op.Add ] ~operands:[] ~label:"t" () in
  Ndp_sim.Engine.run engine [ mk 0 1 ];
  let f1 = (Ndp_sim.Stats.finish_time (Ndp_sim.Engine.stats engine)) in
  Ndp_sim.Engine.run engine [ mk 1 1; mk 2 2 ];
  let f2 = (Ndp_sim.Stats.finish_time (Ndp_sim.Engine.stats engine)) in
  Alcotest.(check bool) "monotone" true (f2 >= f1);
  Alcotest.(check int) "elapsed matches max clock" f2 (Ndp_sim.Engine.elapsed engine)

let group_hops_sum_to_total () =
  let k = Ndp_workloads.Suite.find "fft" in
  let o = P.Job.run (P.Job.make (P.Partitioned P.partitioned_defaults) k) in
  let per_group = Array.fold_left ( + ) 0 o.P.group_hops in
  Alcotest.(check int) "per-statement hops sum to the run total"
    (Ndp_sim.Stats.hops o.P.stats) per_group

let adaptive_matches_its_fixed_choice () =
  (* Running with the window size the adaptive search chose must give the
     same result as the adaptive run when all nests chose the same size. *)
  let k = Ndp_workloads.Suite.find "water" in
  let a = P.Job.run (P.Job.make (P.Partitioned P.partitioned_defaults) k) in
  match List.sort_uniq compare (List.map snd a.P.windows_chosen) with
  | [ w ] ->
    let f =
      P.Job.run (P.Job.make (P.Partitioned { P.partitioned_defaults with P.window = P.Fixed w }) k)
    in
    Alcotest.(check int) "identical execution" a.P.exec_time f.P.exec_time
  | _ -> () (* nests disagreed; nothing to compare *)

let unsplit_guard_caps_tasks () =
  (* Cholesky's 2-3 operand statements should mostly run whole: the task
     count stays close to the instance count. *)
  let k = Ndp_workloads.Suite.find "cholesky" in
  let o = P.Job.run (P.Job.make (P.Partitioned P.partitioned_defaults) k) in
  Alcotest.(check bool) "few extra tasks" true
    (float_of_int o.P.tasks_emitted < 1.6 *. float_of_int o.P.num_instances)

let wide_statements_do_split () =
  let k = Ndp_workloads.Suite.find "barnes" in
  let o = P.Job.run (P.Job.make (P.Partitioned P.partitioned_defaults) k) in
  Alcotest.(check bool) "splits happen" true (o.P.tasks_emitted > o.P.num_instances)

let est_movement_reported () =
  let k = Ndp_workloads.Suite.find "water" in
  let o = P.Job.run (P.Job.make (P.Partitioned P.partitioned_defaults) k) in
  Alcotest.(check bool) "estimate positive" true (o.P.est_movement_total > 0)

let energy_breakdown_consistent () =
  let k = Ndp_workloads.Suite.find "fft" in
  let o = P.Job.run (P.Job.make P.Default k) in
  let b = o.P.energy in
  Alcotest.(check bool) "all components nonnegative" true
    (b.Ndp_sim.Energy.network >= 0.0 && b.Ndp_sim.Energy.l1 >= 0.0
    && b.Ndp_sim.Energy.l2 >= 0.0 && b.Ndp_sim.Energy.dram >= 0.0
    && b.Ndp_sim.Energy.compute >= 0.0 && b.Ndp_sim.Energy.sync >= 0.0)

let common_improvement_helpers () =
  Alcotest.(check (float 1e-9)) "halved" 50.0 (Ndp_experiments.Common.improvement ~base:100 ~opt:50);
  Alcotest.(check bool) "geomean clamps nonpositive entries" true
    (Ndp_experiments.Common.geomean_improvement [ (-5.0, ()); (20.0, ()) ] > 0.0)

let table_cells () =
  Alcotest.(check string) "fixed decimals" "3.14" (Ndp_prelude.Table.cell_f 3.14159);
  Alcotest.(check string) "percent suffix" "50.00%" (Ndp_prelude.Table.cell_pct 50.0)

let stmt_analyzable_fraction () =
  let s = Ndp_ir.Parser.statement "x[y[i]] = a[i] + b[i]" in
  Alcotest.(check (pair (float 0.01) (float 0.01))) "2 of 3" (2.0, 3.0)
    (Ndp_ir.Stmt.analyzable_fraction s)

let kernel_hot_ranges_ordered () =
  let k = Ndp_workloads.Suite.find "minimd" in
  (* The hottest arrays are taken first; a tiny budget yields a prefix. *)
  let small = Ndp_core.Kernel.hot_ranges k ~budget:(256 * 1024) in
  let large = Ndp_core.Kernel.hot_ranges k ~budget:(4 * 1024 * 1024) in
  Alcotest.(check bool) "prefix property" true
    (List.length small <= List.length large
    && List.for_all (fun r -> List.mem r large) small)

let codegen_window_programs () =
  let k = Ndp_workloads.Suite.find "water" in
  let config = Ndp_sim.Config.default in
  let machine = Ndp_sim.Machine.create config in
  let insp = Ndp_core.Kernel.inspector k in
  Ndp_ir.Inspector.run insp;
  let address_of = Ndp_core.Kernel.address_of k in
  let ctx =
    Ndp_core.Context.create ~machine
      ~runtime_resolve:(Ndp_ir.Inspector.runtime_resolver insp ~address_of)
      ~indirect_known:true
      ~arrays:k.Ndp_core.Kernel.program.Ndp_ir.Loop.arrays
      ~options:(Ndp_core.Context.default_options config) ()
  in
  let nest = List.hd k.Ndp_core.Kernel.program.Ndp_ir.Loop.nests in
  let env = List.hd (Ndp_ir.Loop.iterations nest) in
  let metas =
    Ndp_core.Staged.make ctx
      (List.mapi
         (fun si stmt -> (si, 4, { Ndp_ir.Dependence.stmt_idx = si; stmt; env }))
         nest.Ndp_ir.Loop.body)
  in
  let compiled = Ndp_core.Window.compile ctx metas in
  let text = Ndp_core.Codegen.emit (List.map fst (Lazy.force compiled.Ndp_core.Window.tasks)) in
  (* Every task id appears in its node's program. *)
  List.iter
    (fun ((t : Task.t), _) ->
      Alcotest.(check bool)
        (Printf.sprintf "t%d rendered" t.Task.id)
        true
        (Astring.String.is_infix ~affix:(Printf.sprintf "t%d" t.Task.id) text))
    (Lazy.force compiled.Ndp_core.Window.tasks)

let qcheck_window_chunks_partition =
  QCheck.Test.make ~name:"window chunks partition the stream" ~count:200
    QCheck.(pair (list small_int) (1 -- 10))
    (fun (xs, w) -> List.concat (Ndp_core.Window.chunk xs w) = xs)

let qcheck_route_distance_factor_shortens =
  QCheck.Test.make ~name:"distance factor never lengthens a message" ~count:100
    QCheck.(pair (0 -- 35) (0 -- 35))
    (fun (src, dst) ->
      let config = Ndp_sim.Config.default in
      let full = Ndp_sim.Network.create config in
      let half = Ndp_sim.Network.create config in
      Ndp_sim.Network.set_distance_factor half 0.5;
      let s1 = Ndp_sim.Stats.create () and s2 = Ndp_sim.Stats.create () in
      let t_full = Ndp_sim.Network.send full ~time:0 ~src ~dst ~bytes:64 ~stats:s1 in
      let t_half = Ndp_sim.Network.send half ~time:0 ~src ~dst ~bytes:64 ~stats:s2 in
      t_half <= t_full && (Ndp_sim.Stats.hops s2) <= (Ndp_sim.Stats.hops s1))

let tests =
  [
    ( "extra",
      [
        Alcotest.test_case "env shadowing" `Quick env_shadowing;
        Alcotest.test_case "engine finish monotone" `Quick engine_finish_time_monotone;
        Alcotest.test_case "group hops sum" `Quick group_hops_sum_to_total;
        Alcotest.test_case "adaptive = its fixed choice" `Quick adaptive_matches_its_fixed_choice;
        Alcotest.test_case "unsplit guard caps tasks" `Quick unsplit_guard_caps_tasks;
        Alcotest.test_case "wide statements split" `Quick wide_statements_do_split;
        Alcotest.test_case "estimate reported" `Quick est_movement_reported;
        Alcotest.test_case "energy breakdown" `Quick energy_breakdown_consistent;
        Alcotest.test_case "experiments helpers" `Quick common_improvement_helpers;
        Alcotest.test_case "table cells" `Quick table_cells;
        Alcotest.test_case "stmt analyzable fraction" `Quick stmt_analyzable_fraction;
        Alcotest.test_case "hot ranges ordered" `Quick kernel_hot_ranges_ordered;
        Alcotest.test_case "codegen window programs" `Quick codegen_window_programs;
        QCheck_alcotest.to_alcotest qcheck_affine_eval_linear;
        QCheck_alcotest.to_alcotest qcheck_mix_total;
        QCheck_alcotest.to_alcotest qcheck_cost_at_least_ops;
        QCheck_alcotest.to_alcotest qcheck_window_chunks_partition;
        QCheck_alcotest.to_alcotest qcheck_route_distance_factor_shortens;
      ] );
  ]
