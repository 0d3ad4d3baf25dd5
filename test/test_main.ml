(* Runs each module's suites as its own Alcotest run so one dying suite
   cannot mask another: every suite executes, the failures are collected,
   and the process exits nonzero with a summary naming exactly which
   suites failed (previously a bare aggregator: one combined run, one
   combined report). *)

let suites =
  [
    ("prelude", Test_prelude.tests);
    ("graph", Test_graph.tests);
    ("noc", Test_noc.tests);
    ("mem", Test_mem.tests);
    ("ir", Test_ir.tests);
    ("sim", Test_sim.tests);
    ("core", Test_core.tests);
    ("workloads", Test_workloads.tests);
    ("pipeline", Test_pipeline.tests);
    ("reuse", Test_reuse.tests);
    ("pool", Test_pool.tests);
    ("analysis", Test_analysis.tests);
    ("obs", Test_obs.tests);
    ("extra", Test_extra.tests);
    ("equiv", Test_equiv.tests);
    ("fault", Test_fault.tests);
    ("serve", Test_serve.tests);
    ("fusion", Test_fusion.tests);
    ("prop", Test_prop.tests);
  ]

let () =
  (* With CLI arguments (`test <filter>`, `list`, ...) defer to Alcotest's
     own driver over the combined suite — a filter that matches nothing in
     one module would otherwise abort the whole per-suite sweep. *)
  if Array.length Sys.argv > 1 then Alcotest.run "ndp" (List.concat_map snd suites)
  else
  let failed =
    List.filter_map
      (fun (name, tests) ->
        match Alcotest.run ~and_exit:false ("ndp-" ^ name) tests with
        | () -> None
        | exception Alcotest.Test_error -> Some name)
      suites
  in
  match failed with
  | [] -> ()
  | names ->
    Printf.eprintf "\n%d of %d suites FAILED: %s\n%!" (List.length names) (List.length suites)
      (String.concat ", " names);
    exit 1
