(* A two-phase stencil pipeline (the Ocean-style workload of the paper's
   introduction): a 5-point relaxation feeding a vorticity pass. Shows the
   per-nest adaptive window selection and the cluster-mode sensitivity of
   Figure 22.

     dune exec examples/stencil_pipeline.exe *)

open Ndp_ir
module Job = Ndp_core.Pipeline.Job

let dim = 128

let build () =
  let n = dim * dim in
  let arrays =
    Array_decl.layout
      [ ("g", n, 8); ("gn", n, 8); ("w", n, 8); ("psi", n, 8); ("vor", n, 8) ]
  in
  let relax =
    Printf.sprintf
      "gn[%d*i+j] = w[%d*i+j] * (g[%d*i+j-1] + g[%d*i+j+1] + g[%d*i+j-%d] + g[%d*i+j+%d])"
      dim dim dim dim dim dim dim dim
  in
  let vort =
    Printf.sprintf "vor[%d*i+j] = (gn[%d*i+j] - psi[%d*i+j]) * w[%d*i+j]" dim dim dim dim
  in
  let vars = [ { Loop.var = "i"; lo = 1; hi = 17 }; { Loop.var = "j"; lo = 1; hi = 17 } ] in
  let nest = Loop.nest ~sweeps:3 "stencil" vars (Parser.statements [ relax; vort ]) in
  let program = Loop.program "stencil" ~arrays ~nests:[ nest ] in
  Ndp_core.Kernel.make ~name:"stencil" ~description:"5-point stencil pipeline" ~program
    ~hot_arrays:[ "g"; "gn"; "w" ] ()

let () =
  let kernel = build () in
  Printf.printf "%-12s %-8s %10s %10s %8s\n" "cluster" "memory" "default" "ours" "gain";
  List.iter
    (fun cluster ->
      List.iter
        (fun memory ->
          let config = Ndp_sim.Config.with_modes Ndp_sim.Config.default cluster memory in
          let d = Job.run (Job.make ~config Ndp_core.Pipeline.Default kernel) in
          let o =
            Job.run
              (Job.make ~config
                 (Ndp_core.Pipeline.Partitioned Ndp_core.Pipeline.partitioned_defaults)
                 kernel)
          in
          Printf.printf "%-12s %-8s %10d %10d %7.1f%%\n"
            (Ndp_noc.Cluster.to_string cluster)
            (Ndp_sim.Config.memory_mode_to_string memory)
            d.Ndp_core.Pipeline.exec_time o.Ndp_core.Pipeline.exec_time
            (100.0
            *. float_of_int (d.Ndp_core.Pipeline.exec_time - o.Ndp_core.Pipeline.exec_time)
            /. float_of_int d.Ndp_core.Pipeline.exec_time))
        Ndp_sim.Config.all_memory_modes)
    Ndp_noc.Cluster.all;
  let o =
    Job.run
      (Job.make (Ndp_core.Pipeline.Partitioned Ndp_core.Pipeline.partitioned_defaults) kernel)
  in
  Printf.printf "\nadaptive window chosen per nest: %s\n"
    (String.concat ", "
       (List.map (fun (n, w) -> Printf.sprintf "%s=%d" n w) o.Ndp_core.Pipeline.windows_chosen))
