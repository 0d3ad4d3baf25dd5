(* The window-size tradeoff of Section 4.4 (Figures 20-21): sweep fixed
   statement-window sizes 1..8 on one application and compare against the
   adaptive per-nest choice. Small windows miss L1 reuse; large ones lose
   it again to pollution and cross-iteration grouping.

     dune exec examples/window_explorer.exe [app] *)

module Job = Ndp_core.Pipeline.Job

let () =
  let app = if Array.length Sys.argv > 1 then Sys.argv.(1) else "water" in
  let kernel =
    try Ndp_workloads.Suite.find app
    with Not_found ->
      Printf.eprintf "unknown app %s; one of: %s\n" app
        (String.concat ", " Ndp_workloads.Suite.names);
      exit 1
  in
  let default = Job.run (Job.make Ndp_core.Pipeline.Default kernel) in
  let base = default.Ndp_core.Pipeline.exec_time in
  Printf.printf "app: %s (default exec %d cycles)\n\n" app base;
  Printf.printf "%-10s %10s %8s %8s %8s\n" "window" "exec" "gain" "L1" "syncs";
  let report label (r : Ndp_core.Pipeline.result) =
    Printf.printf "%-10s %10d %7.1f%% %7.1f%% %8d\n" label r.Ndp_core.Pipeline.exec_time
      (100.0 *. float_of_int (base - r.Ndp_core.Pipeline.exec_time) /. float_of_int base)
      (100.0 *. Ndp_sim.Stats.l1_hit_rate r.Ndp_core.Pipeline.stats)
      r.Ndp_core.Pipeline.sync_arcs
  in
  for w = 1 to 8 do
    let r =
      Job.run
        (Job.make
           (Ndp_core.Pipeline.Partitioned
              { Ndp_core.Pipeline.partitioned_defaults with
                Ndp_core.Pipeline.window = Ndp_core.Pipeline.Fixed w })
           kernel)
    in
    report (Printf.sprintf "fixed %d" w) r
  done;
  let adaptive =
    Job.run
      (Job.make (Ndp_core.Pipeline.Partitioned Ndp_core.Pipeline.partitioned_defaults) kernel)
  in
  report "adaptive" adaptive;
  Printf.printf "\nadaptive chose: %s\n"
    (String.concat ", "
       (List.map (fun (n, w) -> Printf.sprintf "%s=%d" n w) adaptive.Ndp_core.Pipeline.windows_chosen))
