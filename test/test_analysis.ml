(* The analysis subsystem: IR lint rules over deliberately broken kernels,
   the schedule validator over clean and tampered traces, and the bucketed
   dependence analysis against its naive oracle. *)

open Ndp_analysis
module Dep = Ndp_ir.Dependence
module Task = Ndp_sim.Task
module Window = Ndp_core.Window
module Pipeline = Ndp_core.Pipeline
module Spec = Ndp_workloads.Spec

let codes diags = List.map (fun (d : Diagnostic.t) -> d.Diagnostic.code) diags
let has_code c diags = List.mem c (codes diags)
let errors diags = List.filter Diagnostic.is_error diags

(* -------------------------------------------------------------------- *)
(* Lint rules, one broken kernel per rule.                               *)

let lint_oob_affine () =
  let k =
    Spec.kernel ~name:"bad-oob" ~description:"subscript walks past the extent"
      ~arrays:[ ("a", 8, 8); ("b", 64, 8) ]
      ~nests:[ Spec.nest "n" [ ("i", 0, 16) ] [ "a[i] = b[i]" ] ]
      ()
  in
  let diags = Lint.check_kernel k in
  Alcotest.(check bool) "E101 reported" true (has_code "E101" diags);
  Alcotest.(check int) "exactly one error" 1 (List.length (errors diags))

let lint_in_bounds_clean () =
  let k =
    Spec.kernel ~name:"ok" ~description:"in bounds"
      ~arrays:[ ("a", 16, 8); ("b", 16, 8) ]
      ~nests:[ Spec.nest "n" [ ("i", 0, 15) ] [ "a[i+1] = b[i] + a[i]" ] ]
      ()
  in
  Alcotest.(check (list string)) "no diagnostics" [] (codes (Lint.check_kernel k))

let lint_undeclared () =
  let k =
    Spec.kernel ~name:"bad-undecl" ~description:"reads an undeclared array"
      ~arrays:[ ("a", 16, 8) ]
      ~nests:[ Spec.nest "n" [ ("i", 0, 8) ] [ "a[i] = z[i]" ] ]
      ()
  in
  Alcotest.(check bool) "E102 reported" true (has_code "E102" (Lint.check_kernel k))

let lint_bad_index_values () =
  let k =
    Spec.kernel ~name:"bad-idx" ~description:"index array points past the target"
      ~arrays:[ ("x", 4, 8); ("y", 16, 8); ("idx", 2, 4) ]
      ~nests:[ Spec.nest "n" [ ("i", 0, 2) ] [ "x[idx[i]] = y[i]" ] ]
      ~index_arrays:[ ("idx", [| 0; 9 |]) ]
      ()
  in
  Alcotest.(check bool) "E103 reported" true (has_code "E103" (Lint.check_kernel k))

let lint_unbound_var () =
  let k =
    Spec.kernel ~name:"bad-var" ~description:"subscript variable never bound"
      ~arrays:[ ("a", 16, 8); ("b", 16, 8) ]
      ~nests:[ Spec.nest "n" [ ("i", 0, 8) ] [ "a[j] = b[i]" ] ]
      ()
  in
  Alcotest.(check bool) "E104 reported" true (has_code "E104" (Lint.check_kernel k))

let lint_dead_store () =
  let k =
    Spec.kernel ~name:"bad-dead" ~description:"array written, never read"
      ~arrays:[ ("a", 16, 8); ("b", 16, 8) ]
      ~nests:[ Spec.nest "n" [ ("i", 0, 8) ] [ "a[i] = b[i]" ] ]
      ()
  in
  let diags = Lint.check_kernel k in
  Alcotest.(check bool) "W201 reported" true (has_code "W201" diags);
  Alcotest.(check int) "warning, not error" 0 (List.length (errors diags))

let lint_no_inspector () =
  let k =
    Spec.kernel ~name:"bad-noinsp" ~description:"indirect access without inspector data"
      ~arrays:[ ("x", 16, 8); ("y", 16, 8); ("idx", 8, 4) ]
      ~nests:[ Spec.nest "n" [ ("i", 0, 8) ] [ "x[idx[i]] = y[i] + x[i]" ] ]
      ()
  in
  let diags = Lint.check_kernel k in
  Alcotest.(check bool) "W202 reported" true (has_code "W202" diags);
  Alcotest.(check bool) "declared index array is not E102" false (has_code "E102" diags)

let lint_degenerate_loop () =
  let k =
    Spec.kernel ~name:"bad-empty" ~description:"loop never executes"
      ~arrays:[ ("a", 16, 8); ("b", 16, 8) ]
      ~nests:[ Spec.nest "n" [ ("i", 5, 5) ] [ "a[i] = b[i] + a[i]" ] ]
      ()
  in
  Alcotest.(check bool) "W203 reported" true (has_code "W203" (Lint.check_kernel k))

let lint_oversized_window () =
  let k =
    Spec.kernel ~name:"bad-window" ~description:"window exceeds the instance stream"
      ~arrays:[ ("a", 16, 8); ("b", 16, 8) ]
      ~nests:[ Spec.nest "n" [ ("i", 0, 8) ] [ "a[i] = b[i] + a[i]" ] ]
      ()
  in
  Alcotest.(check bool) "W204 reported" true (has_code "W204" (Lint.check_kernel ~window:1000 k));
  Alcotest.(check bool) "fitting window is silent" false
    (has_code "W204" (Lint.check_kernel ~window:4 k))

(* W4xx: the static cost model critiquing kernels it cannot price well. *)

let lint_footprint_exceeds_window () =
  (* a[i] has self-temporal reuse across j, but its 500-line footprint can
     never sit inside the 256-line L1 reuse window. *)
  let k =
    Spec.kernel ~name:"bad-footprint" ~description:"reuse footprint larger than the L1 window"
      ~arrays:[ ("a", 4000, 8); ("b", 4, 8) ]
      ~nests:[ Spec.nest "big" [ ("i", 0, 4000); ("j", 0, 2) ] [ "a[i] = a[i] + b[j]" ] ]
      ()
  in
  let diags = Lint.check_kernel k in
  Alcotest.(check bool) "W401 reported" true (has_code "W401" diags);
  Alcotest.(check int) "warning, not error" 0 (List.length (errors diags))

let lint_non_affine_defeats_static () =
  (* Inspector coverage silences W202 but cannot make the reference
     statically analyzable: W402 still fires. *)
  let k =
    Spec.kernel ~name:"bad-static" ~description:"indirect access with inspector data"
      ~arrays:[ ("x", 16, 8); ("y", 16, 8); ("idx", 8, 4) ]
      ~nests:[ Spec.nest "n" [ ("i", 0, 8) ] [ "x[idx[i]] = y[i] + x[i]" ] ]
      ~index_arrays:[ ("idx", Array.init 8 (fun i -> i)) ]
      ()
  in
  let diags = Lint.check_kernel k in
  Alcotest.(check bool) "W402 reported" true (has_code "W402" diags);
  Alcotest.(check bool) "inspector coverage silences W202" false (has_code "W202" diags)

let lint_movement_domination () =
  (* One 12-operand statement against a single-operand one: the first
     carries essentially all of the nest's predicted movement. *)
  let wide =
    "s[i] = a0[i] + a1[i] + a2[i] + a3[i] + a4[i] + a5[i] + a6[i] + a7[i] + a8[i] + a9[i] + \
     aa[i] + ab[i]"
  in
  let arrays =
    [ ("s", 16, 8); ("t", 16, 8); ("c0", 16, 8) ]
    @ List.map
        (fun n -> (n, 16, 8))
        [ "a0"; "a1"; "a2"; "a3"; "a4"; "a5"; "a6"; "a7"; "a8"; "a9"; "aa"; "ab" ]
  in
  let k =
    Spec.kernel ~name:"bad-dominated" ~description:"one statement dominates predicted movement"
      ~arrays
      ~nests:[ Spec.nest "n" [ ("i", 0, 8) ] [ wide; "t[i] = c0[i]" ] ]
      ()
  in
  Alcotest.(check bool) "W403 reported" true (has_code "W403" (Lint.check_kernel k))

let lint_suite_error_free () =
  List.iter
    (fun k ->
      let diags = Lint.check_kernel k in
      Alcotest.(check int)
        (k.Ndp_core.Kernel.name ^ " lint errors")
        0
        (List.length (errors diags)))
    (Ndp_workloads.Suite.all ())

(* -------------------------------------------------------------------- *)
(* Schedule validator over hand-built traces: two statement instances
   with a flow dependence (S0 writes a[0], S1 reads it) compiled to one
   task each on different mesh nodes.                                    *)

let decls = Ndp_ir.Array_decl.layout [ ("a", 16, 8); ("b", 16, 8); ("c", 16, 8) ]

let resolver (r : Ndp_ir.Reference.t) env =
  match Ndp_ir.Subscript.eval_affine env r.Ndp_ir.Reference.subscript with
  | Some i ->
    Some (Ndp_ir.Array_decl.address (Ndp_ir.Array_decl.find decls r.Ndp_ir.Reference.array) i)
  | None -> None

let flow_trace ?(sync_arcs = []) ?(result_arc = false) ?(serialized = false) () =
  let env = Ndp_ir.Env.of_list [ ("i", 0) ] in
  let s0 = Ndp_ir.Parser.statement "a[i] = b[i]" in
  let s1 = Ndp_ir.Parser.statement "c[i] = a[i]" in
  let ctx =
    Ndp_core.Context.create
      ~machine:(Ndp_sim.Machine.create Ndp_sim.Config.default)
      ~runtime_resolve:resolver ~indirect_known:false ~arrays:decls
      ~options:(Ndp_core.Context.default_options Ndp_sim.Config.default) ()
  in
  let meta group stmt_idx stmt =
    List.hd (Ndp_core.Staged.make ctx [ (group, group, { Dep.stmt_idx; stmt; env }) ])
  in
  let operands = if result_arc then [ Task.Result { producer = 0; bytes = 8 } ] else [] in
  let t0 = Task.make ~id:0 ~group:0 ~node:0 ~ops:[] ~operands:[] ~label:"s0" () in
  let t1 = Task.make ~id:1 ~group:1 ~node:1 ~ops:[] ~operands ~label:"s1" () in
  {
    Validate.v_kernel = "synthetic";
    v_nest = "n";
    v_metas = [ meta 0 0 s0; meta 1 1 s1 ];
    v_tasks = [ t0; t1 ];
    v_sync_arcs = sync_arcs;
    v_roots = [ (0, 0); (1, 1) ];
    v_serialized = serialized;
  }

let validate_detects_missing_sync () =
  (* The compiler would have kept a sync arc 0 -> 1; with it removed the
     flow dependence is unordered and must surface as a definite race. *)
  let diags = Validate.check ~resolver (flow_trace ()) in
  Alcotest.(check bool) "E301 reported" true (has_code "E301" diags);
  let d = List.hd diags in
  Alcotest.(check bool) "names both instances" true
    (Astring.String.is_infix ~affix:"S0" d.Diagnostic.message
    && Astring.String.is_infix ~affix:"S1" d.Diagnostic.message);
  Alcotest.(check bool) "names both nodes" true
    (Astring.String.is_infix ~affix:"(node 0)" d.Diagnostic.message
    && Astring.String.is_infix ~affix:"(node 1)" d.Diagnostic.message)

let validate_accepts_sync_arc () =
  let diags = Validate.check ~resolver (flow_trace ~sync_arcs:[ (0, 1) ] ()) in
  Alcotest.(check (list string)) "sync arc orders the pair" [] (codes diags)

let validate_accepts_result_arc () =
  let diags = Validate.check ~resolver (flow_trace ~result_arc:true ()) in
  Alcotest.(check (list string)) "result operand orders the pair" [] (codes diags)

let validate_accepts_serialized () =
  let diags = Validate.check ~resolver (flow_trace ~serialized:true ()) in
  Alcotest.(check (list string)) "emission order is total" [] (codes diags)

let validate_detects_incomplete_trace () =
  let t = flow_trace ~sync_arcs:[ (0, 1) ] () in
  let diags = Validate.check ~resolver { t with Validate.v_roots = [ (0, 0) ] } in
  Alcotest.(check bool) "E302 reported" true (has_code "E302" diags)

(* End to end: a kernel with a cross-iteration flow chain compiles clean
   under both schemes, and tampering with the captured evidence (dropping
   every sync arc and result operand) is detected. *)

let chain_kernel () =
  Spec.kernel ~name:"chain" ~description:"cross-iteration flow chain"
    ~arrays:[ ("a", 4096, 8); ("b", 4096, 8) ]
    ~nests:[ Spec.nest "n" [ ("i", 0, 48) ] [ "a[8*i+8] = a[8*i] * b[i]" ] ]
    ()

let strip_ordering (t : Validate.trace) =
  let strip_task (task : Task.t) =
    {
      task with
      Task.operands =
        List.filter (function Task.Result _ -> false | Task.Load _ -> true) task.Task.operands;
    }
  in
  {
    t with
    Validate.v_sync_arcs = [];
    v_tasks = List.map strip_task t.Validate.v_tasks;
    v_serialized = false;
  }

let validate_pipeline_clean_and_tampered () =
  let kernel = chain_kernel () in
  let scheme =
    Pipeline.Partitioned { Pipeline.partitioned_defaults with Pipeline.window = Pipeline.Fixed 6 }
  in
  let result = Pipeline.Job.run (Pipeline.Job.make ~validate:true scheme kernel) in
  Alcotest.(check bool) "traces captured" true (result.Pipeline.traces <> []);
  let diags = Validate.check_result ~kernel result in
  Alcotest.(check int) "clean schedule validates" 0 (List.length (errors diags));
  let resolver = Validate.ground_truth_resolver kernel in
  let tampered =
    List.concat_map
      (fun t ->
        Validate.check ~resolver
          (strip_ordering (Validate.of_pipeline_trace ~kernel:"chain" t)))
      result.Pipeline.traces
  in
  Alcotest.(check bool) "stripped ordering is detected" true (has_code "E301" tampered)

let validate_default_scheme_clean () =
  let diags = Validate.check_kernel Pipeline.Default (chain_kernel ()) in
  Alcotest.(check int) "no errors" 0 (List.length (errors diags))

(* -------------------------------------------------------------------- *)
(* Bucketed dependence analysis vs the naive oracle, and the index.      *)

let raytrace_stream limit =
  let kernel = Ndp_workloads.Suite.find "raytrace" in
  let prog = kernel.Ndp_core.Kernel.program in
  let nest = List.hd prog.Ndp_ir.Loop.nests in
  let insts =
    List.concat_map
      (fun env ->
        List.mapi (fun stmt_idx stmt -> { Dep.stmt_idx; stmt; env }) nest.Ndp_ir.Loop.body)
      (Ndp_ir.Loop.iterations nest)
  in
  let stream = List.filteri (fun i _ -> i < limit) insts in
  let resolver (r : Ndp_ir.Reference.t) env =
    match Ndp_ir.Subscript.eval_affine env r.Ndp_ir.Reference.subscript with
    | Some i ->
      Some
        (Ndp_ir.Array_decl.address
           (Ndp_ir.Array_decl.find prog.Ndp_ir.Loop.arrays r.Ndp_ir.Reference.array)
           i)
    | None -> None
  in
  (stream, resolver)

let dep_to_tuple (d : Dep.dep) = (d.Dep.src, d.Dep.dst, Dep.kind_to_string d.Dep.kind, d.Dep.may)

let analyze_matches_naive () =
  let stream, resolver = raytrace_stream 150 in
  let fast = List.map dep_to_tuple (Dep.analyze resolver stream) in
  let naive = List.map dep_to_tuple (Dependence_oracle.analyze resolver stream) in
  Alcotest.(check bool) "dependence stream is non-trivial" true (List.length naive > 0);
  Alcotest.(check (list (pair (pair int int) (pair string bool))))
    "bucketed analyze equals the naive oracle"
    (List.map (fun (a, b, c, d) -> ((a, b), (c, d))) naive)
    (List.map (fun (a, b, c, d) -> ((a, b), (c, d))) fast)

let index_matches_linear_scan () =
  let stream, resolver = raytrace_stream 80 in
  let deps = Dep.analyze resolver stream in
  let index = Dep.index_deps deps in
  let n = List.length stream in
  for src = 0 to n - 1 do
    for dst = 0 to n - 1 do
      let expected = List.exists (fun (d : Dep.dep) -> d.Dep.src = src && d.Dep.dst = dst) deps in
      if expected <> Dep.serialized index ~src ~dst then
        Alcotest.failf "index disagrees with linear scan at (%d, %d)" src dst
    done
  done;
  match deps with
  | d :: _ ->
    Alcotest.(check bool) "fresh index serializes a dependence" true
      (Dep.serialized (Dep.index_deps deps) ~src:d.Dep.src ~dst:d.Dep.dst)
  | [] -> Alcotest.fail "expected at least one dependence"

(* -------------------------------------------------------------------- *)
(* Checker + diagnostics plumbing.                                       *)

let checker_flags_broken_kernel () =
  let k =
    Spec.kernel ~name:"bad-oob" ~description:"subscript walks past the extent"
      ~arrays:[ ("a", 8, 8); ("b", 64, 8) ]
      ~nests:[ Spec.nest "n" [ ("i", 0, 16) ] [ "a[i] = b[i] + a[i]" ] ]
      ()
  in
  let reports = Checker.check_kernel ~schemes:[] k in
  Alcotest.(check bool) "has_errors" true (Checker.has_errors reports);
  let rendered = Checker.render reports in
  Alcotest.(check bool) "human render names the rule" true
    (Astring.String.is_infix ~affix:"E101" rendered)

let diagnostic_renderers () =
  let d =
    Diagnostic.make ~code:"E101" ~severity:Diagnostic.Error
      ~loc:(Diagnostic.location "k" ~nest:"n" ~stmt:2 ~reference:{|a["i"]|})
      {|spans "too far"|}
  in
  Alcotest.(check string) "human"
    {|error[E101] k/n stmt 2 ref a["i"]: spans "too far"|}
    (Diagnostic.to_string d);
  Alcotest.(check string) "sexp"
    {|(diagnostic (code E101) (severity error) (kernel k) (nest n) (stmt 2) (ref "a[\"i\"]") (message "spans \"too far\""))|}
    (Diagnostic.to_sexp d);
  Alcotest.(check string) "json"
    {|{"code":"E101","severity":"error","kernel":"k","nest":"n","stmt":2,"ref":"a[\"i\"]","message":"spans \"too far\""}|}
    (Diagnostic.to_json d);
  Alcotest.(check string) "summary" "1 error(s), 0 warning(s), 0 info"
    (Diagnostic.summary [ d ])

let tests =
  [
    ( "analysis.lint",
      [
        Alcotest.test_case "E101 out-of-bounds affine subscript" `Quick lint_oob_affine;
        Alcotest.test_case "in-bounds kernel is clean" `Quick lint_in_bounds_clean;
        Alcotest.test_case "E102 undeclared array" `Quick lint_undeclared;
        Alcotest.test_case "E103 index values out of range" `Quick lint_bad_index_values;
        Alcotest.test_case "E104 unbound subscript variable" `Quick lint_unbound_var;
        Alcotest.test_case "W201 dead store" `Quick lint_dead_store;
        Alcotest.test_case "W202 no inspector coverage" `Quick lint_no_inspector;
        Alcotest.test_case "W203 degenerate loop" `Quick lint_degenerate_loop;
        Alcotest.test_case "W204 oversized window" `Quick lint_oversized_window;
        Alcotest.test_case "W401 footprint exceeds window" `Quick lint_footprint_exceeds_window;
        Alcotest.test_case "W402 non-affine defeats static analysis" `Quick
          lint_non_affine_defeats_static;
        Alcotest.test_case "W403 movement domination" `Quick lint_movement_domination;
        Alcotest.test_case "whole suite lints error-free" `Quick lint_suite_error_free;
      ] );
    ( "analysis.validate",
      [
        Alcotest.test_case "removed sync arc raises E301" `Quick validate_detects_missing_sync;
        Alcotest.test_case "sync arc orders the dependence" `Quick validate_accepts_sync_arc;
        Alcotest.test_case "result arc orders the dependence" `Quick validate_accepts_result_arc;
        Alcotest.test_case "serialized emission orders everything" `Quick
          validate_accepts_serialized;
        Alcotest.test_case "missing root raises E302" `Quick validate_detects_incomplete_trace;
        Alcotest.test_case "pipeline trace validates; tampering is caught" `Slow
          validate_pipeline_clean_and_tampered;
        Alcotest.test_case "default scheme validates" `Slow validate_default_scheme_clean;
      ] );
    ( "analysis.dependence",
      [
        Alcotest.test_case "bucketed analyze equals naive oracle" `Quick analyze_matches_naive;
        Alcotest.test_case "index equals linear scan" `Quick index_matches_linear_scan;
      ] );
    ( "analysis.checker",
      [
        Alcotest.test_case "broken kernel fails the check" `Quick checker_flags_broken_kernel;
        Alcotest.test_case "diagnostic renderers" `Quick diagnostic_renderers;
      ] );
  ]
