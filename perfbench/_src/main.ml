(* The benchmark entry point: one workload per invocation.

     main.exe --workload NAME --seed N --seconds S --trace 0|1

   Prints the workload's metrics under their own names, then, as the last
   line, one JSON object: {"correct", "attempted", "failed", "metrics"}.
   Untraced (--trace 0) the metrics are the end-to-end ones; traced
   (--trace 1) they are the per-layer ones. Exits 1 when an output check
   fails. *)

open Common

let workloads =
  [
    ("compile_suite", Compile_suite.run);
    ("replay_sweep", Replay_sweep.run);
    ("check_gate", Check_gate.run);
    ("serve_mixed", Serve_mixed.run);
  ]

let failed_ratio (l : loop) = float_of_int l.failed /. float_of_int (max 1 l.attempted)

(* End-to-end metrics, reported by every workload over its own unit
   operation (job, replay, kernel check, cold request). *)
let end_to_end (r : report) =
  let l = r.loop in
  [
    ("setup_s", r.setup_s, "s");
    ("peak_mem_mb", r.peak_mem_mb, "MB");
    ("ok_ratio", 1.0 -. failed_ratio l, "ratio");
    ("op_ms_p50", median l.samples_ms, "ms");
    ("op_ms_tail", snd r.tail, "ms");
    ("ops_per_s", r.ops_per_s, "1/s");
    ("flit_hops", float_of_int r.flit_hops, "flit-hops");
    ("exec_cycles_geomean", geomean r.exec_cycles, "cycles");
  ]

let number v = Printf.sprintf "%.17g" v

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10 and trace = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_int seconds, "S measured seconds");
      ("--trace", Arg.Set_int trace, "0|1 per-layer (traced) run");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload NAME --seed N --seconds S --trace 0|1";
  let run =
    match List.assoc_opt !workload workloads with
    | Some run -> run
    | None ->
      Printf.eprintf "unknown workload %S (one of: %s)\n" !workload
        (String.concat ", " (List.map fst workloads));
      exit 2
  in
  let trace = !trace <> 0 in
  let r = run ~seed:!seed ~seconds:(float_of_int !seconds) ~trace in
  let l = r.loop in
  Printf.printf "# %s seed=%d seconds=%d trace=%b: %d operations, %d failed, tail=%s\n"
    !workload !seed !seconds trace l.attempted l.failed (fst r.tail);
  List.iter
    (fun (name, v, unit) -> Printf.printf "%-22s %14.4f %s\n" name v unit)
    ((("setup_s", r.setup_s, "s") :: ("failed_ratio", failed_ratio l, "ratio") :: r.named)
    @ [ ("peak_mem_mb", r.peak_mem_mb, "MB") ]);
  let checks =
    r.checks
    @ (if trace then
         [
           ("per-layer counts repeat", l.counts_repeat);
           ("in-process phase spans reconcile within 5%", Layers.reconciles l.layers);
         ]
       else [])
  in
  List.iter (fun (name, ok) -> if not ok then Printf.printf "CHECK FAILED: %s\n" name) checks;
  Printf.printf "# %d output checks, %d failed\n" (List.length checks)
    (List.length (List.filter (fun (_, ok) -> not ok) checks));
  let metrics =
    if trace then begin
      let ly = l.layers in
      List.iter print_endline (Layers.reconciliation_lines ly);
      print_endline (Layers.self_time_row ly ~workload:!workload);
      List.map (fun ((name, unit, _) as m) -> (name, Layers.value ly m, unit)) Layers.metrics
    end
    else end_to_end r
  in
  let finite = List.for_all (fun (_, v, _) -> Float.is_finite v) metrics in
  let correct = finite && l.failed = 0 && List.for_all snd checks in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n" correct
    l.attempted l.failed
    (String.concat ", "
       (List.map
          (fun (name, v, unit) ->
            Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name
              (if Float.is_finite v then number v else "0")
              unit)
          metrics));
  exit (if correct then 0 else 1)
