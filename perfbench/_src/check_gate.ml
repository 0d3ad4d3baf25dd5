(* check_gate: the analysis gate over a fixed kernel subset — lint, then
   compile with validation traces and run the race detector under the
   default and partitioned schemes — plus seeded synthetic traces whose
   verdict is known by construction. The analysis (validation run and
   [Validate.check]) does almost all of the work and no other workload
   runs it; the validator's cubic transitive closure over the default
   scheme's whole-nest serialized traces is where the suite-wide gate
   spends its time. *)

open Common
module Rng = Ndp_prelude.Rng
module Spec = Ndp_workloads.Spec
module Validate = Ndp_analysis.Validate
module Diagnostic = Ndp_analysis.Diagnostic
module Stats = Ndp_sim.Stats

(* The gate's kernels: lu and ocean as in the suite (same arrays, layout
   and statements) with their loops cut to about a third of the
   instances. A full-size check takes about 2 s, so a run held only 6-10
   of them and its median moved with every slow second of the machine;
   these take about 175 ms each, the two alike, and the serialized
   closure is still most of it. *)
let lu_gate () =
  let dim = Ndp_workloads.Lu.dim in
  let n = dim * dim in
  Spec.kernel ~name:"lu_gate" ~description:"lu with a third of its instances"
    ~arrays:[ ("a", n, 8); ("lcol", n, 8); ("urow", n, 8); ("piv", n, 8) ]
    ~nests:
      [
        Spec.nest "pivot" [ ("i", 0, 100) ] [ "lcol[i] = a[i] / piv[i]" ];
        Spec.nest "update"
          [ ("i", 0, 9); ("j", 0, 9) ]
          [
            Printf.sprintf "a[%d*i+j] = a[%d*i+j] - lcol[i] * urow[j]" dim dim;
            Printf.sprintf "a[%d*i+j+1] = a[%d*i+j+1] - lcol[i] * urow[j+1]" dim dim;
          ];
      ]
    ~hot:[ "a"; "lcol"; "urow" ]
    ()

let ocean_gate () =
  let dim = Ndp_workloads.Ocean.dim in
  let n = dim * dim in
  let at = Printf.sprintf "%s[%d*i+j%s]" in
  let cell a = at a dim "" in
  let around a =
    String.concat " + "
      [ at a dim "-1"; at a dim "+1"; at a dim (Printf.sprintf "-%d" dim); at a dim (Printf.sprintf "+%d" dim) ]
  in
  Spec.kernel ~name:"ocean_gate" ~description:"ocean with a third of its instances"
    ~arrays:
      [
        ("g", n, 8); ("gn", n, 8); ("w0", n, 8); ("w1", n, 8); ("psi", n, 8); ("vor", n, 8);
        ("tmp", n, 8);
      ]
    ~nests:
      [
        Spec.nest "relax"
          [ ("i", 1, 10); ("j", 1, 10) ]
          [
            Printf.sprintf "%s = %s * (%s) + %s * %s" (cell "gn") (cell "w0") (around "g")
              (cell "w1") (cell "g");
            Printf.sprintf "%s = %s - %s + %s * %s" (cell "tmp") (cell "gn") (cell "g")
              (cell "w1") (cell "psi");
          ];
        Spec.nest "vorticity"
          [ ("i", 1, 10); ("j", 1, 10) ]
          [ Printf.sprintf "%s = (%s) * %s" (cell "vor") (around "psi") (cell "w0") ];
      ]
    ~hot:[ "g"; "gn"; "psi"; "w0"; "w1" ]
    ()

let subset = [ lu_gate; ocean_gate ]

let schemes = [ P.Default; P.Partitioned P.partitioned_defaults ]

let chains_per_run = 4

(* A cross-iteration flow chain: instance i writes a[s*i+s], which
   instance i+1 reads, so any window of two or more consecutive instances
   holds a definite flow dependence. *)
let chain_kernel ~stride ~n =
  Ndp_workloads.Spec.kernel
    ~name:(Printf.sprintf "chain-s%d-n%d" stride n)
    ~description:"cross-iteration flow chain"
    ~arrays:[ ("a", (stride * (n + 1)) + 8, 8); ("b", n, 8) ]
    ~nests:
      [
        Ndp_workloads.Spec.nest ~sweeps:1 "n" [ ("i", 0, n) ]
          [ Printf.sprintf "a[%d*i+%d] = a[%d*i] * b[i]" stride stride stride ];
      ]
    ()

(* Remove every ordering the schedule provides: result operands, sync
   arcs, and program order (each task on a node of its own). The
   dependence the window holds is then certainly unordered: E301. *)
let tamper (t : Validate.trace) =
  {
    t with
    Validate.v_sync_arcs = [];
    v_serialized = false;
    v_tasks =
      List.mapi
        (fun i (task : Ndp_sim.Task.t) ->
          {
            task with
            Ndp_sim.Task.node = 1000 + i;
            operands =
              List.filter
                (function Ndp_sim.Task.Result _ -> false | Ndp_sim.Task.Load _ -> true)
                task.Ndp_sim.Task.operands;
          })
        t.Validate.v_tasks;
  }

(* Seeded synthetic verdicts: each chain's clean window trace (expect no
   E301/E302) and the same window tampered (expect E301). *)
let synthetic ~seed =
  let rng = Rng.create seed in
  List.concat
    (List.init chains_per_run (fun _ ->
         let stride = 1 + Rng.int rng 8 and n = 16 + Rng.int rng 49 in
         let w = 2 + Rng.int rng 7 in
         let k = chain_kernel ~stride ~n in
         let scheme = P.Partitioned { P.partitioned_defaults with P.window = P.Fixed w } in
         let r = P.Job.run (P.Job.make ~validate:true scheme k) in
         let windows =
           List.filter
             (fun (t : Validate.trace) -> List.length t.Validate.v_metas >= 2)
             (List.map (Validate.of_pipeline_trace ~kernel:k.Ndp_core.Kernel.name) r.P.traces)
         in
         let t = List.nth windows (Rng.int rng (List.length windows)) in
         let resolver = Validate.ground_truth_resolver k in
         [ (resolver, t, `Clean); (resolver, tamper t, `Race) ]))

let has code = List.exists (fun (d : Diagnostic.t) -> d.Diagnostic.code = code)

let verdict_ok expect diags =
  match expect with
  | `Clean -> not (has "E301" diags || has "E302" diags)
  | `Race -> has "E301" diags

let check_trace spans ~resolver (t : Validate.trace) =
  Ndp_obs.Span.with_span spans
    (if t.Validate.v_serialized then "validate.serialized" else "validate.windowed")
    (fun () -> Validate.check ~resolver t)

type outcome = {
  verdicts : int;
  correct : int;
  results : P.result list;
  closure_cells : int;
}

(* One kernel check: lint, then compile-and-validate under each scheme,
   then the synthetic verdicts. *)
let check_kernel spans synth (k, resolver, jobs) =
  let lint =
    Ndp_obs.Span.with_span spans "lint" (fun () -> Ndp_analysis.Checker.lint_kernel k)
  in
  let lint_ok = not (List.exists Diagnostic.is_error lint.Ndp_analysis.Checker.diagnostics) in
  let cells = ref 0 in
  let validated =
    List.map
      (fun job ->
        let r =
          Ndp_obs.Span.with_span spans "validate.run" (fun () ->
              P.Job.run ~obs:(sink spans) job)
        in
        let diags =
          List.concat_map
            (fun pt ->
              let t = Validate.of_pipeline_trace ~kernel:k.Ndp_core.Kernel.name pt in
              let n = List.length t.Validate.v_tasks in
              cells := !cells + (n * n);
              check_trace spans ~resolver t)
            r.P.traces
        in
        (r, verdict_ok `Clean diags))
      jobs
  in
  let synth_ok =
    List.map
      (fun (resolver, t, expect) -> verdict_ok expect (check_trace spans ~resolver t))
      synth
  in
  let oks = (lint_ok :: List.map snd validated) @ synth_ok in
  {
    verdicts = List.length oks;
    correct = List.length (List.filter Fun.id oks);
    results = List.map fst validated;
    closure_cells = !cells;
  }

let run ~seed ~seconds ~trace =
  let setup_s, (synth, ops) =
    setup_median (fun () ->
        (* The kernels run at the default config: with only four validated
           jobs, seeded machine modes made the work itself differ by about
           10% from seed to seed. The seed draws the synthetic traces. *)
        let ops =
          List.map
            (fun build ->
              let k = build () in
              let jobs = List.map (fun s -> P.Job.make ~validate:true s k) schemes in
              (k, Validate.ground_truth_resolver k, jobs))
            subset
        in
        (synthetic ~seed, ops))
  in
  let first = Array.make (List.length ops) [] in
  let verdicts = ref 0 and correct = ref 0 in
  let outcome (o : outcome) =
    List.map (fun (r : P.result) -> (Stats.hops r.P.stats, r.P.exec_time)) o.results
  in
  let loop =
    drive ~seconds ~trace ~ops
      ~exec:(fun spans op -> check_kernel spans synth op)
      ~account:(fun layers o ->
        Layers.count layers "validate.closure_cells" o.closure_cells;
        List.iter (Layers.count_result layers) o.results)
      ~check:(fun pass i o ->
        verdicts := !verdicts + o.verdicts;
        correct := !correct + o.correct;
        if pass = 0 then first.(i) <- outcome o;
        o.correct = o.verdicts && outcome o = first.(i))
  in
  let peak_mem_mb = peak_rss_mb None in
  let firsts = List.concat (Array.to_list first) in
  let flit_hops = List.fold_left (fun acc (h, _) -> acc + h) 0 firsts in
  let exec_cycles = List.map snd firsts in
  let mean_check_s =
    List.fold_left ( +. ) 0.0 loop.samples_ms /. 1000.0 /. float_of_int (max 1 (List.length loop.samples_ms))
  in
  {
    setup_s;
    loop;
    ops_per_s = float_of_int loop.attempted /. loop.elapsed_s;
    tail = ("p90", percentile 0.9 loop.samples_ms);
    flit_hops;
    exec_cycles;
    peak_mem_mb;
    named =
      [
        ("check_s", mean_check_s *. float_of_int (List.length subset), "s");
        ("verdicts_correct", float_of_int !correct /. float_of_int (max 1 !verdicts), "ratio");
        ("flit_hops", float_of_int flit_hops, "flit-hops");
        ("exec_cycles_geomean", geomean exec_cycles, "cycles");
      ];
    checks = [];
  }
