open Ndp_core
module Task = Ndp_sim.Task

(* Fixture: place named arrays at chosen mesh nodes by picking virtual
   addresses whose cache line index equals the node id (SNUCA line
   interleave over the 6x6 mesh under the quadrant mode). Elements are
   8 bytes; predictor state is cold, so locations resolve to MC nodes
   unless we warm the predictor first — [warm] marks lines recently seen
   so GetNode answers with the L2 home. *)
let fixture ?(config = Ndp_sim.Config.default) ?(options = Context.partitioned_defaults) placements =
  let machine = Ndp_sim.Machine.create config in
  let arrays =
    Ndp_ir.Array_decl.layout (List.map (fun (name, _) -> (name, 64, 8)) placements)
  in
  let va_of name = 64 * List.assoc name placements in
  let resolve (r : Ndp_ir.Reference.t) env =
    match Ndp_ir.Subscript.eval_affine env r.Ndp_ir.Reference.subscript with
    | Some _ -> Some (va_of r.Ndp_ir.Reference.array)
    | None -> None
  in
  let ctx =
    Context.create ~machine ~runtime_resolve:resolve ~indirect_known:false ~arrays ~options ()
  in
  (* Warm the predictor so every placement is predicted L2-resident and
     GetNode returns the home bank, as in the paper's figures. *)
  List.iter
    (fun (name, _) ->
      Ndp_mem.Miss_predictor.note_access ctx.Context.predictor
        (Ndp_sim.Machine.compiler_translate machine (va_of name)))
    placements;
  (ctx, va_of)

let env0 = Ndp_ir.Env.of_list [ ("i", 0) ]

(* Distinct physical nodes of a split tree, the store node included. *)
let nodes (s : Splitter.t) =
  List.sort_uniq compare (s.Splitter.store_node :: List.map fst (Splitter.items_at s))

(* One statement instance, staged as the pipeline stages its streams. *)
let stage ?(group = 0) ?(node = 0) ctx stmt env =
  List.hd (Staged.make ctx [ (group, node, { Ndp_ir.Dependence.stmt_idx = group; stmt; env }) ])

(* The Figure 3/9 scenario: A with four inputs on a chain of adjacent
   nodes. Default execution visits 10 links; the MST needs only 4. *)
let figure9_placements = [ ("a", 7); ("b", 8); ("e", 9); ("c", 10); ("d", 16) ]

(* A branching variant: two pairs of co-located operands on either side of
   the store node, giving two subcomputations that run in parallel
   (Figure 6). *)
let branching_placements = [ ("a", 7); ("b", 6); ("e", 6); ("c", 8); ("d", 8) ]

let figure9_stmt = Ndp_ir.Parser.statement "a[i] = b[i] + c[i] + d[i] + e[i]"

let splitter_figure9 () =
  let ctx, _ = fixture figure9_placements in
  let split = Splitter.split ctx ~store_node:7 (stage ctx figure9_stmt env0) in
  Alcotest.(check int) "spanning tree over 5 nodes" 4 (List.length split.Splitter.edges);
  Alcotest.(check bool) "tree is spanning" true
    (let nodes = (nodes split) in
     List.length nodes = 5 && List.mem 7 nodes);
  Alcotest.(check int) "minimum movement 4" 4 split.Splitter.est_movement;
  let default = Splitter.default_movement ctx ~store_node:7 (stage ctx figure9_stmt env0) in
  Alcotest.(check int) "default movement 10" 10 default

let splitter_dedupes_same_node () =
  (* b and c share a node: one vertex, not two (Algorithm 1 line 12). *)
  let ctx, _ = fixture [ ("a", 7); ("b", 9); ("c", 9) ] in
  let split =
    Splitter.split ctx ~store_node:7 (stage ctx (Ndp_ir.Parser.statement "a[i] = b[i] + c[i]") env0)
  in
  Alcotest.(check (list int)) "two vertices" [ 7; 9 ] (List.sort compare (nodes split));
  Alcotest.(check int) "one edge" 1 (List.length split.Splitter.edges)

let splitter_single_node () =
  let ctx, _ = fixture [ ("a", 7); ("b", 7); ("c", 7) ] in
  let split =
    Splitter.split ctx ~store_node:7 (stage ctx (Ndp_ir.Parser.statement "a[i] = b[i] + c[i]") env0)
  in
  Alcotest.(check int) "no edges" 0 (List.length split.Splitter.edges);
  Alcotest.(check int) "zero movement" 0 split.Splitter.est_movement

let splitter_levels () =
  (* a = b * (c + d): the (c, d) group forms its own sub-MST first. *)
  let ctx, _ = fixture [ ("a", 0); ("b", 1); ("c", 34); ("d", 35) ] in
  let split =
    Splitter.split ctx ~store_node:0 (stage ctx (Ndp_ir.Parser.statement "a[i] = b[i] * (c[i] + d[i])") env0)
  in
  (* c-d are adjacent (distance 1); that edge must be in the tree. *)
  Alcotest.(check bool) "group edge chosen" true
    (List.exists
       (fun (e : Ndp_graph.Kruskal.edge) ->
         (e.Ndp_graph.Kruskal.u = 34 && e.Ndp_graph.Kruskal.v = 35)
         || (e.Ndp_graph.Kruskal.u = 35 && e.Ndp_graph.Kruskal.v = 34))
       split.Splitter.edges)

let splitter_never_cyclic () =
  (* Shared operands across parenthesized groups must not create multi-
     edges or cycles (the pooled-MSTedges property). *)
  let ctx, _ = fixture [ ("a", 0); ("b", 3); ("c", 21); ("e", 23); ("f", 21) ] in
  let stmt = Ndp_ir.Parser.statement "a[i] = (b[i] + c[i]) * (e[i] + f[i]) + c[i] * f[i]" in
  let split = Splitter.split ctx ~store_node:0 (stage ctx stmt env0) in
  Alcotest.(check int) "edges = vertices - 1" (List.length (nodes split) - 1)
    (List.length split.Splitter.edges)

let unsplit_collapses () =
  let ctx, va_of = fixture figure9_placements in
  let split = Splitter.split ctx ~store_node:7 (stage ctx figure9_stmt env0) in
  let u = Splitter.unsplit split in
  Alcotest.(check int) "no edges" 0 (List.length u.Splitter.edges);
  Alcotest.(check (list int)) "single node" [ 7 ] (nodes u);
  ignore va_of

let schedule_invariants () =
  let ctx, va_of = fixture figure9_placements in
  let split = Splitter.split ctx ~store_node:7 (stage ctx figure9_stmt env0) in
  let sched = Schedule.schedule ctx ~group:0 split in
  (* Producers precede consumers in emission order. *)
  let seen = Hashtbl.create 8 in
  List.iter
    (fun (t : Task.t) ->
      List.iter
        (function
          | Task.Result { producer; bytes = _ } ->
            Alcotest.(check bool) "producer already emitted" true (Hashtbl.mem seen producer)
          | Task.Load _ -> ())
        t.Task.operands;
      Hashtbl.replace seen t.Task.id ())
    sched.Schedule.tasks;
  (* Exactly one task stores, and it stores A. *)
  let stores = List.filter_map (fun (t : Task.t) -> t.Task.store) sched.Schedule.tasks in
  Alcotest.(check (list (pair int int))) "stores A" [ (va_of "a", 8) ] stores;

  (* All four inputs are loaded exactly once across the task set. *)
  let loads =
    List.concat_map
      (fun (t : Task.t) ->
        List.filter_map
          (function Task.Load { va; bytes = _ } -> Some va | Task.Result _ -> None)
          t.Task.operands)
      sched.Schedule.tasks
  in
  Alcotest.(check (list int)) "each input loaded once"
    (List.sort compare [ va_of "b"; va_of "c"; va_of "d"; va_of "e" ])
    (List.sort compare loads)

let schedule_parallel_branches () =
  let ctx, _ = fixture branching_placements in
  let split = Splitter.split ctx ~store_node:7 (stage ctx figure9_stmt env0) in
  let sched = Schedule.schedule ctx ~group:0 split in
  Alcotest.(check bool) "two parallel subcomputations" true (sched.Schedule.parallelism >= 2);
  (* The root joins two children and synchronizes on both (Figure 6). *)
  Alcotest.(check int) "two join arcs" 2 (List.length sched.Schedule.join_arcs)

let schedule_ops_conserved () =
  let ctx, _ = fixture figure9_placements in
  let split = Splitter.split ctx ~store_node:7 (stage ctx figure9_stmt env0) in
  let sched = Schedule.schedule ctx ~group:0 split in
  let total_cost =
    List.fold_left (fun acc (t : Task.t) -> acc + t.Task.cost) 0 sched.Schedule.tasks
  in
  Alcotest.(check int) "3 additions in total" 3 total_cost

let location_reuse () =
  (* Figure 11: C already fetched into n_D's L1 by statement 1 makes n_D
     C's location for statement 2. *)
  let ctx, va_of = fixture [ ("x", 3); ("y", 4); ("c", 10); ("d", 16) ] in
  Context.note_cached ctx ~line:(va_of "c" / 64) ~node:16;
  let loc = Location.locate ctx ~store_node:3 (stage ctx (Ndp_ir.Parser.statement "x[i] = c[i]") env0) 1 in
  Alcotest.(check int) "located at n_D" 16 loc.Location.node;
  Alcotest.(check bool) "via L1" true loc.Location.in_l1

let location_reuse_expires () =
  let ctx, va_of = fixture [ ("x", 3); ("c", 10) ] in
  Context.note_cached ctx ~line:(va_of "c" / 64) ~node:16;
  for _ = 1 to Context.reuse_horizon + 1 do
    Context.advance_statement ctx
  done;
  let loc = Location.locate ctx ~store_node:3 (stage ctx (Ndp_ir.Parser.statement "x[i] = c[i]") env0) 1 in
  Alcotest.(check bool) "stale placement ignored" false loc.Location.in_l1

let location_unanalyzable_pins () =
  let ctx, _ = fixture [ ("x", 3) ] in
  let r = Ndp_ir.Reference.make "x" (Ndp_ir.Subscript.indirect "y" (Ndp_ir.Subscript.var "i")) in
  let stmt = Ndp_ir.Stmt.make (Ndp_ir.Reference.make "x" (Ndp_ir.Subscript.var "i")) (Ndp_ir.Expr.Ref r) in
  let loc = Location.locate ctx ~store_node:31 (stage ctx stmt env0) 1 in
  Alcotest.(check int) "pinned to store node" 31 loc.Location.node;
  Alcotest.(check (option int)) "no address" None loc.Location.va

let sync_min_removes_chain () =
  let arcs = [ (0, 1); (1, 2); (0, 2) ] in
  Alcotest.(check (list (pair int int))) "redundant removed" [ (0, 1); (1, 2) ]
    (List.sort compare (Sync_min.minimize ~enabled:true arcs));
  Alcotest.(check int) "disabled keeps all" 3
    (List.length (Sync_min.minimize ~enabled:false arcs))

let sync_per_consumer () =
  let t = Sync_min.syncs_per_consumer [ (0, 5); (1, 5); (2, 9) ] in
  Alcotest.(check (option int)) "two into 5" (Some 2) (Hashtbl.find_opt t 5);
  Alcotest.(check (option int)) "one into 9" (Some 1) (Hashtbl.find_opt t 9)

let window_chunking () =
  Alcotest.(check (list (list int))) "chunks of 2" [ [ 1; 2 ]; [ 3; 4 ]; [ 5 ] ]
    (Window.chunk [ 1; 2; 3; 4; 5 ] 2);
  Alcotest.(check (list (list int))) "oversize window" [ [ 1; 2 ] ] (Window.chunk [ 1; 2 ] 9)

let meta_of ctx stmt i node = stage ~group:i ~node ctx stmt env0

let window_compile_basics () =
  let ctx, _ = fixture (figure9_placements @ [ ("x", 20); ("y", 21) ]) in
  let s2 = Ndp_ir.Parser.statement "x[i] = y[i] + c[i]" in
  let compiled = Window.compile ctx [ meta_of ctx figure9_stmt 0 7; meta_of ctx s2 1 20 ] in
  Alcotest.(check int) "two reports" 2 (List.length (Lazy.force compiled.Window.reports));
  (* Emission is level-major: levels never decrease. *)
  let levels = List.map snd (Lazy.force compiled.Window.tasks) in
  Alcotest.(check (list int)) "level-sorted" (List.sort compare levels) levels;
  Alcotest.(check bool) "predictions recorded" true ((Lazy.force compiled.Window.predictions) <> [])

let window_choose_size_bounds () =
  let ctx, _ = fixture figure9_placements in
  let metas = List.init 40 (fun i -> meta_of ctx figure9_stmt i (i mod 36)) in
  let w = Window.choose_size ctx metas ~max:8 in
  Alcotest.(check bool) "within 1..8" true (w >= 1 && w <= 8)

let window_movement_estimate_reuse () =
  (* Two statements sharing c: windows of 2 see the reuse, w=1 cannot. *)
  let ctx, _ = fixture (figure9_placements @ [ ("x", 20); ("y", 21) ]) in
  let s2 = Ndp_ir.Parser.statement "x[i] = y[i] + c[i]" in
  let metas =
    List.concat
      (List.init 10 (fun i ->
           [ meta_of ctx figure9_stmt (2 * i) 7; meta_of ctx s2 ((2 * i) + 1) 20 ]))
  in
  let m1 = Window_oracle.movement_estimate ctx metas ~window:1 in
  let m2 = Window_oracle.movement_estimate ctx metas ~window:2 in
  Alcotest.(check bool) "window of 2 moves no more data" true (m2 <= m1)

let window_analytic_matches_sampled () =
  (* The analytic sizer must pick the size the sampled oracle (compile the
     nest sample under every candidate) picks, on every nest of the whole
     suite under the default config — the property that lets the analytic
     path replace sampled compilation. *)
  List.iter
    (fun name ->
      let kernel = Ndp_workloads.Suite.find name in
      let scheme = Pipeline.Partitioned Pipeline.partitioned_defaults in
      let _ =
        List.fold_left
          (fun g (nest : Ndp_ir.Loop.nest) ->
            let sampled_ctx = Pipeline.static_context scheme kernel in
            let analytic_ctx = Pipeline.static_context scheme kernel in
            let metas, g' = Pipeline.nest_stream sampled_ctx nest ~first_group:g in
            let ws = Window_oracle.choose_size sampled_ctx metas ~max:8 in
            let wa = Window.choose_size analytic_ctx metas ~max:8 in
            Alcotest.(check int)
              (Printf.sprintf "%s/%s analytic = sampled" name nest.Ndp_ir.Loop.nest_name)
              ws wa;
            g')
          0 kernel.Kernel.program.Ndp_ir.Loop.nests
      in
      ())
    Ndp_workloads.Suite.names

let window_curve_independent_of_sizes () =
  (* The sizer builds its curve for sizes 1..8 and the static cost table
     for the chosen size alone: an instance's movement at w must not
     depend on which other sizes the walk was asked about, on every suite
     nest's preprocessing sample under the default config. *)
  let scheme = Pipeline.Partitioned Pipeline.partitioned_defaults in
  let sizes = List.init 8 (fun k -> k + 1) in
  List.iter
    (fun name ->
      let kernel = Ndp_workloads.Suite.find name in
      List.iter
        (fun (nest : Ndp_ir.Loop.nest) ->
          let ctx = Pipeline.static_context scheme kernel in
          let metas, _ = Pipeline.nest_stream ctx nest ~first_group:0 in
          let sample = List.filteri (fun i _ -> i < Window.preprocessing_sample) metas in
          let all = Window.curve ctx sample ~sizes in
          List.iter
            (fun w ->
              let one = Window.movement (Window.curve ctx sample ~sizes:[ w ]) ~window:w in
              let all = Window.movement all ~window:w in
              List.iteri
                (fun i _ ->
                  if one i <> all i then
                    Alcotest.failf "%s/%s w=%d instance %d: curve for [w] %d, for 1..8 %d" name
                      nest.Ndp_ir.Loop.nest_name w i (one i) (all i))
                sample)
            sizes)
        kernel.Kernel.program.Ndp_ir.Loop.nests)
    Ndp_workloads.Suite.names

let window_non_affine_short_circuit () =
  (* A nest whose every reference is indirect gives the static model
     nothing to work with: the sizer falls back to w=1. *)
  let ctx, _ = fixture [ ("x", 3); ("y", 4); ("w", 5) ] in
  let stmt = Ndp_ir.Parser.statement "x[y[i]] = w[y[i]]" in
  let metas = List.init 16 (fun i -> meta_of ctx stmt i (i mod 36)) in
  Alcotest.(check bool) "all non-affine" true (Window.all_non_affine metas);
  Alcotest.(check int) "short-circuits" 1 (Window.choose_size ctx metas ~max:8)

let baseline_assignment () =
  let arrays = Ndp_ir.Array_decl.layout [ ("a", 4096, 8); ("b", 4096, 8) ] in
  let resolve (r : Ndp_ir.Reference.t) env =
    Option.map
      (Ndp_ir.Array_decl.address (Ndp_ir.Array_decl.find arrays r.Ndp_ir.Reference.array))
      (Ndp_ir.Subscript.eval_affine env r.Ndp_ir.Reference.subscript)
  in
  let machine = Ndp_sim.Machine.create Ndp_sim.Config.default in
  let ctx =
    Context.create ~machine ~runtime_resolve:resolve ~indirect_known:false ~arrays
      ~options:Context.partitioned_defaults ()
  in
  let nest =
    Ndp_ir.Loop.nest ~sweeps:2 "n"
      [ { Ndp_ir.Loop.var = "i"; lo = 0; hi = 72 } ]
      [ Ndp_ir.Parser.statement "a[i] = b[i]" ]
  in
  let assignment = Baseline.assign_iterations ctx nest (Staged.stream ctx nest) in
  Alcotest.(check int) "one node per iteration" 144 (Array.length assignment);
  let used = List.sort_uniq compare (Array.to_list assignment) in
  Alcotest.(check int) "all 36 nodes used" 36 (List.length used);
  (* Sweeps repeat the same static schedule. *)
  Alcotest.(check int) "sweep repeats" assignment.(0) assignment.(72)

let codegen_renders () =
  let ctx, _ = fixture figure9_placements in
  let split = Splitter.split ctx ~store_node:7 (stage ctx figure9_stmt env0) in
  let text = Codegen.emit (Schedule.schedule ctx ~group:0 split).Schedule.tasks in
  Alcotest.(check bool) "mentions nodes" true (Astring.String.is_infix ~affix:"node" text);
  Alcotest.(check bool) "stores" true (Astring.String.is_infix ~affix:"store" text)

let qcheck_splitter_beats_default =
  (* The MST movement never exceeds the default star topology. *)
  QCheck.Test.make ~name:"MST movement <= default star movement" ~count:100
    QCheck.(list_of_size (QCheck.Gen.return 4) (0 -- 35))
    (fun nodes ->
      QCheck.assume (List.length (List.sort_uniq compare nodes) = 4);
      match nodes with
      | [ na; nb; nc; nd ] ->
        let ctx, _ = fixture [ ("a", na); ("b", nb); ("c", nc); ("d", nd) ] in
        let stmt = Ndp_ir.Parser.statement "a[i] = b[i] + c[i] + d[i]" in
        let split = Splitter.split ctx ~store_node:na (stage ctx stmt env0) in
        split.Splitter.est_movement <= Splitter.default_movement ctx ~store_node:na (stage ctx stmt env0)
      | _ -> true)

let qcheck_schedule_emits_all_inputs =
  QCheck.Test.make ~name:"every resolvable input becomes exactly one load" ~count:100
    QCheck.(list_of_size (QCheck.Gen.return 5) (0 -- 35))
    (fun nodes ->
      QCheck.assume (List.length (List.sort_uniq compare nodes) = 5);
      match nodes with
      | [ na; nb; nc; nd; ne ] ->
        let ctx, _ = fixture [ ("a", na); ("b", nb); ("c", nc); ("d", nd); ("e", ne) ] in
        let stmt = Ndp_ir.Parser.statement "a[i] = b[i] * c[i] + d[i] / e[i]" in
        let split = Splitter.split ctx ~store_node:na (stage ctx stmt env0) in
        let sched = Schedule.schedule ctx ~group:0 split in
        let loads =
          List.concat_map
            (fun (t : Task.t) ->
              List.filter_map
                (function Task.Load { va; bytes = _ } -> Some va | Task.Result _ -> None)
                t.Task.operands)
            sched.Schedule.tasks
        in
        List.length loads = 4 && List.length (List.sort_uniq compare loads) = 4
      | _ -> true)

(* A parenthesized group without array references is a constant to the
   splitter: it forms no component, so the level MSTs never see an empty
   vertex. *)
let reference_free_statements =
  [ "a[i] = b[i] * (2 + 3)"; "a[i] = (2 + 3) * b[i] + c[i]"; "a[i] = (2 * 3) + (4 - 1)" ]

let splitter_reference_free_group () =
  let ctx, _ = fixture [ ("a", 7); ("b", 9); ("c", 20) ] in
  List.iter
    (fun src ->
      let stmt = Ndp_ir.Parser.statement src in
      let split = Splitter.split ctx ~store_node:7 (stage ctx stmt env0) in
      let sched = Schedule.schedule ctx ~group:0 split in
      let cost = List.fold_left (fun acc (t : Task.t) -> acc + t.Task.cost) 0 sched.Schedule.tasks in
      Alcotest.(check int) (src ^ ": every operator scheduled")
        (Task.cost_of_ops (Ndp_ir.Expr.ops stmt.Ndp_ir.Stmt.rhs))
        cost)
    reference_free_statements

let reference_free_group_validates () =
  let kernel =
    Ndp_workloads.Spec.kernel ~name:"consts" ~description:"reference-free groups"
      ~arrays:[ ("a", 64, 8); ("b", 64, 8); ("c", 64, 8) ]
      ~nests:[ Ndp_workloads.Spec.nest "n" [ ("i", 0, 48) ] reference_free_statements ]
      ()
  in
  let r =
    Pipeline.Job.run
      (Pipeline.Job.make ~validate:true (Pipeline.Partitioned Pipeline.partitioned_defaults) kernel)
  in
  let races =
    List.filter
      (fun (d : Ndp_analysis.Diagnostic.t) ->
        d.Ndp_analysis.Diagnostic.code = "E301" || d.Ndp_analysis.Diagnostic.code = "E302")
      (Ndp_analysis.Validate.check_result ~kernel r)
  in
  Alcotest.(check int) "no E301/E302" 0 (List.length races);
  Alcotest.(check bool) "tasks emitted" true (r.Pipeline.tasks_emitted > 0)

(* The 10% rule's slack is a pass option: the thresholds at either end of
   the ablation sweep must schedule fft differently, and the paper's 0.10
   must be exactly the default scheme. *)
let balance_threshold_reaches_balancer () =
  let kernel = Ndp_workloads.Suite.find "fft" in
  let emitted balance_threshold =
    let opts = { Pipeline.partitioned_defaults with Pipeline.balance_threshold } in
    (Pipeline.Job.run (Pipeline.Job.make ~capture:true (Pipeline.Partitioned opts) kernel))
      .Pipeline.emitted
  in
  let defaults =
    (Pipeline.Job.run
       (Pipeline.Job.make ~capture:true (Pipeline.Partitioned Pipeline.partitioned_defaults) kernel))
      .Pipeline.emitted
  in
  Alcotest.(check bool) "0.0 and 1.0 schedule differently" true (emitted 0.0 <> emitted 1.0);
  Alcotest.(check bool) "0.10 is the default scheme" true (emitted 0.10 = defaults)

let schedule_rejects_non_tree () =
  let ctx, _ = fixture figure9_placements in
  let split = Splitter.split ctx ~store_node:7 (stage ctx figure9_stmt env0) in
  let edge u v = { Ndp_graph.Kruskal.u; v; weight = 1 } in
  let rejects name edges =
    Alcotest.check_raises name (Invalid_argument "Schedule.schedule: edge set is not a tree")
      (fun () -> ignore (Schedule.schedule ctx ~group:0 { split with Splitter.edges }))
  in
  rejects "cycle" [ edge 7 8 ; edge 8 9; edge 9 7 ];
  rejects "forest" [ edge 7 8; edge 9 10 ]

(* The staged addresses the kernel reads are exactly what the resolvers
   answer, reference by reference, over every instance of the suite: with
   the inspector not run (indirect references unresolved for the
   compiler), run, and under ideal data analysis. *)
let staged_addresses_match_resolvers () =
  let cases =
    [
      ("no inspector", { Pipeline.partitioned_defaults with Pipeline.use_inspector = false });
      ("inspector", Pipeline.partitioned_defaults);
      ("ideal", { Pipeline.partitioned_defaults with Pipeline.ideal_data = true });
    ]
  in
  let indirect = ref 0 in
  List.iter
    (fun (k : Kernel.t) ->
      List.iter
        (fun (case, (opts : Pipeline.part_options)) ->
          let ctx = Pipeline.static_context (Pipeline.Partitioned opts) k in
          let insp = Kernel.inspector k in
          if opts.Pipeline.use_inspector then Ndp_ir.Inspector.run insp;
          let address_of = Kernel.address_of k in
          let runtime = Ndp_ir.Inspector.runtime_resolver insp ~address_of in
          let compiler =
            if opts.Pipeline.ideal_data then runtime
            else Ndp_ir.Inspector.compiler_resolver insp ~address_of
          in
          let view = function Some va -> va | None -> Staged.none in
          List.iter
            (fun nest ->
              let metas, _ = Pipeline.nest_stream ctx nest ~first_group:0 in
              List.iter
                (fun (m : Window.meta) ->
                  Array.iteri
                    (fun j r ->
                      if not (Ndp_ir.Reference.analyzable r) then incr indirect;
                      let env = m.Window.inst.Ndp_ir.Dependence.env in
                      if
                        Staged.runtime_va m j <> view (runtime r env)
                        || Staged.compiler_va ctx m j <> view (compiler r env)
                      then
                        Alcotest.failf "%s/%s S%d ref %d (%s): staged address differs"
                          k.Kernel.name case m.Window.group j (Ndp_ir.Reference.to_string r))
                    m.Window.shape.Staged.refs)
                metas)
            k.Kernel.program.Ndp_ir.Loop.nests)
        cases)
    (Ndp_workloads.Suite.all ());
  Alcotest.(check bool) "indirect references covered" true (!indirect > 0)

(* With priority levels off the statement is one level: the splitter's
   estimate is exactly a minimum spanning tree over the distinct item
   nodes plus the store node. On the 9x9 mesh the 81 node ids overflow
   the packed candidate's 6-bit fields, so the generic path runs. *)
let qcheck_flat_split_is_mst ~cols ~rows =
  let names = [| "a"; "b"; "c"; "d"; "e"; "f" |] in
  let size = cols * rows in
  let gen_expr =
    QCheck.Gen.(
      let leaf =
        frequency
          [
            ( 3,
              map
                (fun k ->
                  Ndp_ir.Expr.Ref (Ndp_ir.Reference.make names.(k) (Ndp_ir.Subscript.var "i")))
                (0 -- 5) );
            (1, map (fun c -> Ndp_ir.Expr.Const (float_of_int c)) (0 -- 9));
          ]
      in
      sized_size (1 -- 5)
        (fix (fun self n ->
             if n = 0 then leaf
             else
               frequency
                 [
                   (1, leaf);
                   (1, map (fun e -> Ndp_ir.Expr.Group e) (self (n - 1)));
                   ( 3,
                     map3
                       (fun op a b -> Ndp_ir.Expr.Binop (op, a, b))
                       (oneofl Ndp_ir.Op.all) (self (n - 1)) (self (n - 1)) );
                 ])))
  in
  let arb =
    QCheck.make
      ~print:(fun (e, nodes, store) ->
        Printf.sprintf "a[i] = %s with %s, store %d" (Ndp_ir.Expr.to_string e)
          (String.concat "," (List.map string_of_int nodes))
          store)
      QCheck.Gen.(triple gen_expr (list_repeat 6 (0 -- (size - 1))) (0 -- (size - 1)))
  in
  QCheck.Test.make
    ~name:(Printf.sprintf "%dx%d flat split estimate = MST weight" cols rows)
    ~count:200 arb
    (fun (rhs, nodes, store_node) ->
      let config = { Ndp_sim.Config.default with Ndp_sim.Config.mesh_cols = cols; mesh_rows = rows } in
      let options = { Context.partitioned_defaults with Context.level_based = false } in
      let ctx, _ =
        fixture ~config ~options
          (List.mapi (fun k node -> (names.(k), node)) nodes)
      in
      let stmt = Ndp_ir.Stmt.make (Ndp_ir.Reference.make "a" (Ndp_ir.Subscript.var "i")) rhs in
      let split = Splitter.split ctx ~store_node (stage ctx stmt env0) in
      let vertices =
        Array.of_list (List.sort_uniq compare (store_node :: List.map fst (Splitter.items_at split)))
      in
      let n = Array.length vertices in
      let edges =
        List.concat
          (List.init n (fun i ->
               List.init (n - i - 1) (fun d ->
                   let j = i + d + 1 in
                   {
                     Ndp_graph.Kruskal.u = i;
                     v = j;
                     weight = Context.distance ctx vertices.(i) vertices.(j);
                   })))
      in
      split.Splitter.est_movement = Kruskal_ref.total_weight (Kruskal_ref.mst ~n edges))

(* [items_at] keeps the grouping the splitter always produced: the fold
   order of an int-keyed [Hashtbl] filled in location order, including
   past the table's resize at 33 distinct nodes. *)
let qcheck_items_at_hashtbl_order =
  QCheck.Test.make ~name:"items_at = Hashtbl fold order" ~count:200
    (QCheck.make
       ~print:(fun l -> String.concat "," (List.map string_of_int l))
       QCheck.Gen.(
         (* Distinct nodes first (up to all 36, past the resize), then repeats. *)
         map3
           (fun perm k extra -> List.filteri (fun i _ -> i < k) perm @ extra)
           (shuffle_l (List.init 36 Fun.id))
           (int_range 1 36)
           (list_size (int_range 0 12) (int_range 0 35))))
    (fun nodes ->
      let names = List.mapi (fun k _ -> Printf.sprintf "x%d" k) nodes in
      let ctx, _ = fixture (("z", 0) :: List.combine names nodes) in
      let rhs = String.concat " + " (List.map (fun n -> n ^ "[i]") names) in
      let stmt = Ndp_ir.Parser.statement ("z[i] = " ^ rhs) in
      let split = Splitter.split ctx ~store_node:0 (stage ctx stmt env0) in
      let items = Hashtbl.create 8 in
      Array.iter
        (fun (l : Location.t) ->
          let cur = Option.value (Hashtbl.find_opt items l.Location.node) ~default:[] in
          Hashtbl.replace items l.Location.node (l :: cur))
        split.Splitter.locs;
      let expected = Hashtbl.fold (fun node locs acc -> (node, List.rev locs) :: acc) items [] in
      let key = List.map (fun (n, ls) -> (n, List.map (fun (l : Location.t) -> l.Location.index) ls)) in
      key (Splitter.items_at split) = key expected)

let graphviz_outputs () =
  let ctx, _ = fixture figure9_placements in
  let split = Splitter.split ctx ~store_node:7 (stage ctx figure9_stmt env0) in
  let mst_dot = Graphviz.statement_mst split in
  Alcotest.(check bool) "mst dot well-formed" true
    (Astring.String.is_prefix ~affix:"digraph" mst_dot
    && Astring.String.is_infix ~affix:"n7" mst_dot);
  let compiled = Window.compile ctx [ meta_of ctx figure9_stmt 0 7 ] in
  let task_dot = Graphviz.task_graph (Lazy.force compiled.Window.tasks) in
  Alcotest.(check bool) "task dot well-formed" true
    (Astring.String.is_prefix ~affix:"digraph" task_dot
    && Astring.String.is_infix ~affix:"store" task_dot)

let tests =
  [
    ( "core",
      [
        Alcotest.test_case "splitter figure 9" `Quick splitter_figure9;
        Alcotest.test_case "splitter dedupes" `Quick splitter_dedupes_same_node;
        Alcotest.test_case "splitter single node" `Quick splitter_single_node;
        Alcotest.test_case "splitter levels" `Quick splitter_levels;
        Alcotest.test_case "splitter acyclic" `Quick splitter_never_cyclic;
        Alcotest.test_case "unsplit collapses" `Quick unsplit_collapses;
        Alcotest.test_case "schedule invariants" `Quick schedule_invariants;
        Alcotest.test_case "schedule parallel branches" `Quick schedule_parallel_branches;
        Alcotest.test_case "schedule ops conserved" `Quick schedule_ops_conserved;
        Alcotest.test_case "location reuse (fig 11)" `Quick location_reuse;
        Alcotest.test_case "location reuse expires" `Quick location_reuse_expires;
        Alcotest.test_case "location unanalyzable pins" `Quick location_unanalyzable_pins;
        Alcotest.test_case "sync minimization chain" `Quick sync_min_removes_chain;
        Alcotest.test_case "syncs per consumer" `Quick sync_per_consumer;
        Alcotest.test_case "window chunking" `Quick window_chunking;
        Alcotest.test_case "window compile basics" `Quick window_compile_basics;
        Alcotest.test_case "window choose size bounds" `Quick window_choose_size_bounds;
        Alcotest.test_case "window reuse estimate" `Quick window_movement_estimate_reuse;
        Alcotest.test_case "window analytic = sampled (suite)" `Slow window_analytic_matches_sampled;
        Alcotest.test_case "window curve independent of its other sizes" `Quick
          window_curve_independent_of_sizes;
        Alcotest.test_case "window non-affine short-circuit" `Quick window_non_affine_short_circuit;
        Alcotest.test_case "baseline assignment" `Quick baseline_assignment;
        Alcotest.test_case "codegen renders" `Quick codegen_renders;
        Alcotest.test_case "graphviz outputs" `Quick graphviz_outputs;
        QCheck_alcotest.to_alcotest qcheck_splitter_beats_default;
        QCheck_alcotest.to_alcotest qcheck_schedule_emits_all_inputs;
        Alcotest.test_case "splitter reference-free group" `Quick splitter_reference_free_group;
        Alcotest.test_case "reference-free group validates partitioned" `Quick
          reference_free_group_validates;
        Alcotest.test_case "schedule rejects a non-tree edge set" `Quick schedule_rejects_non_tree;
        Alcotest.test_case "balance threshold reaches the balancer" `Quick
          balance_threshold_reaches_balancer;
        Alcotest.test_case "staged addresses match the resolvers (suite)" `Slow
          staged_addresses_match_resolvers;
        QCheck_alcotest.to_alcotest (qcheck_flat_split_is_mst ~cols:6 ~rows:6);
        QCheck_alcotest.to_alcotest (qcheck_flat_split_is_mst ~cols:9 ~rows:9);
        QCheck_alcotest.to_alcotest qcheck_items_at_hashtbl_order;
      ] );
  ]
