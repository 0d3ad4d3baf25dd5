(* Irregular accesses and the inspector-executor mechanism (Section 4.5):
   a sparse gather kernel whose indirect references can only be located
   once the inspector has recorded the index-array contents. Compares the
   partitioner with and without the executor-phase knowledge.

     dune exec examples/irregular_inspector.exe *)

open Ndp_ir
module Job = Ndp_core.Pipeline.Job

let n = 16384
let trips = 400

let build () =
  let idx = Ndp_workloads.Gen.clustered ~seed:99 ~n:trips ~range:n ~spread:512 in
  let arrays =
    Array_decl.layout
      [ ("y", n, 8); ("aval", n, 8); ("x", n, 8); ("row", n, 8); ("idx", trips, 4) ]
  in
  let body =
    Parser.statements
      [ "y[i] = y[i] + aval[i] * x[idx[i]]"; "row[i] = row[i] + y[i] / aval[i]" ]
  in
  let nest = Loop.nest ~sweeps:3 "spmv" [ { Loop.var = "i"; lo = 0; hi = trips } ] body in
  let program = Loop.program "irregular" ~arrays ~nests:[ nest ] in
  Ndp_core.Kernel.make ~name:"irregular" ~description:"sparse gather" ~program
    ~index_arrays:[ ("idx", idx) ] ()

let () =
  let kernel = build () in
  let run label options =
    let r = Job.run (Job.make (Ndp_core.Pipeline.Partitioned options) kernel) in
    Printf.printf "%-22s exec %6d | movement %6d | analyzable refs %4.1f%%\n" label
      r.Ndp_core.Pipeline.exec_time (Ndp_sim.Stats.hops r.Ndp_core.Pipeline.stats)
      (100.0 *. r.Ndp_core.Pipeline.analyzable_fraction);
    r
  in
  let d = Job.run (Job.make Ndp_core.Pipeline.Default kernel) in
  Printf.printf "%-22s exec %6d | movement %6d\n" "default" d.Ndp_core.Pipeline.exec_time
    (Ndp_sim.Stats.hops d.Ndp_core.Pipeline.stats);
  let with_inspector = run "executor (inspector)" Ndp_core.Pipeline.partitioned_defaults in
  let without =
    run "no inspector"
      { Ndp_core.Pipeline.partitioned_defaults with Ndp_core.Pipeline.use_inspector = false }
  in
  Printf.printf
    "\nwith the inspector the compiler resolves x[idx[i]] and places the multiply near it;\n\
     without it those references pin to the consuming node (movement %d vs %d flit-hops).\n"
    (Ndp_sim.Stats.hops with_inspector.Ndp_core.Pipeline.stats)
    (Ndp_sim.Stats.hops without.Ndp_core.Pipeline.stats)
