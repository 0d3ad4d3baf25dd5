(* Quickstart: write a loop nest in plain text, compile it with the
   data-movement-aware partitioner, and compare against the default
   iteration-granularity placement.

     dune exec examples/quickstart.exe *)

open Ndp_ir
module Job = Ndp_core.Pipeline.Job

let () =
  (* Five arrays of 16K doubles; the layout assigns page-aligned virtual
     base addresses, from which SNUCA home banks follow. *)
  let arrays =
    Array_decl.layout
      [ ("a", 16384, 8); ("b", 16384, 8); ("c", 16384, 8); ("d", 16384, 8); ("e", 16384, 8) ]
  in
  (* The statement of the paper's Figure 3, plus a second statement that
     reuses c(i) — the Figure 11 scenario. *)
  let body =
    Parser.statements [ "a[i] = b[i] + c[i] + d[i] + e[i]"; "e[i+1] = b[i] * (c[i] + d[i])" ]
  in
  let nest = Loop.nest ~sweeps:3 "body" [ { Loop.var = "i"; lo = 0; hi = 300 } ] body in
  let program = Loop.program "quickstart" ~arrays ~nests:[ nest ] in
  let kernel =
    Ndp_core.Kernel.make ~name:"quickstart" ~description:"Figure 3/11 example" ~program ()
  in
  let default = Job.run (Job.make Ndp_core.Pipeline.Default kernel) in
  let ours =
    Job.run
      (Job.make (Ndp_core.Pipeline.Partitioned Ndp_core.Pipeline.partitioned_defaults) kernel)
  in
  let line label (r : Ndp_core.Pipeline.result) =
    Printf.printf "%-12s exec %6d cycles | movement %6d flit-hops | L1 %4.1f%% | syncs %d\n" label
      r.Ndp_core.Pipeline.exec_time (Ndp_sim.Stats.hops r.Ndp_core.Pipeline.stats)
      (100.0 *. Ndp_sim.Stats.l1_hit_rate r.Ndp_core.Pipeline.stats)
      r.Ndp_core.Pipeline.sync_arcs
  in
  line "default" default;
  line "partitioned" ours;
  let pct base v = 100.0 *. float_of_int (base - v) /. float_of_int base in
  Printf.printf "\nmovement reduced %.1f%%, execution time reduced %.1f%%\n"
    (pct (Ndp_sim.Stats.hops default.Ndp_core.Pipeline.stats)
       (Ndp_sim.Stats.hops ours.Ndp_core.Pipeline.stats))
    (pct default.Ndp_core.Pipeline.exec_time ours.Ndp_core.Pipeline.exec_time)
