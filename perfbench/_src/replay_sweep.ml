(* replay_sweep: each kernel's partitioned task stream is captured once in
   set-up; the timed loop re-simulates the fixed schedules under seeded
   cost-model variants (hop, DDR, op and L2-hit cycles, path-length and
   compute-cost tweaks). The simulator (engine, network, machine) does all
   of the timed work and the compiler none, so a simulator gain shows here
   undiluted. *)

open Common
module Stats = Ndp_sim.Stats
module Rng = Ndp_prelude.Rng

let variants_per_kernel = 8

let capture kernels =
  List.map
    (fun k -> (k, P.Job.run (P.Job.make ~capture:true (P.Partitioned P.partitioned_defaults) k)))
    kernels

(* A cost-model variant: each latency scaled by a factor drawn from
   [0.5, 2), message paths shortened to 50..100% of their length, compute
   cost divided by 1..2. Only simulation-side fields change, as replay
   requires. *)
let variant rng =
  let scale base = max 1 (int_of_float (float_of_int base *. (0.5 +. Rng.float rng 1.5))) in
  let c = Config.default in
  let config =
    {
      c with
      Config.hop_cycles = scale c.Config.hop_cycles;
      ddr_cycles = scale c.Config.ddr_cycles;
      op_cycles = scale c.Config.op_cycles;
      l2_hit_cycles = scale c.Config.l2_hit_cycles;
    }
  in
  let tweaks =
    {
      P.no_tweaks with
      P.distance_factor = 1.0 -. Rng.float rng 0.5;
      cost_scale = 1.0 +. Rng.float rng 1.0;
    }
  in
  (config, tweaks)

let replays ~seed captured =
  let rng = Rng.create seed in
  shuffled rng
    (List.concat_map
       (fun (k, (r : P.result)) ->
         List.init variants_per_kernel (fun _ -> (k, r.P.emitted, variant rng)))
       captured)

(* With the capture run's own config and no tweaks, a replay must be
   cycle-identical to the run it was captured from. *)
let identity_checks captured =
  List.map
    (fun ((k : Ndp_core.Kernel.t), (r : P.result)) ->
      let rp = P.replay k r.P.emitted in
      ( "replay is cycle-identical " ^ k.Ndp_core.Kernel.name,
        rp.P.rp_exec_time = r.P.exec_time && Stats.equal rp.P.rp_stats r.P.stats ))
    captured

let run ~seed ~seconds ~trace =
  let setup_s, (captured, ops) =
    setup_median (fun () ->
        let captured = capture (Ndp_workloads.Suite.all ()) in
        (captured, replays ~seed captured))
  in
  let first = Array.make (List.length ops) (0, 0) in
  let loop =
    drive ~seconds ~trace ~ops
      ~exec:(fun spans (k, emitted, (config, tweaks)) ->
        P.replay ~config ~tweaks ~obs:(sink spans) k emitted)
      ~account:(fun layers rp ->
        Layers.count layers "sim.messages" (Stats.messages rp.P.rp_stats);
        Layers.count layers "sim.tasks" (Stats.tasks rp.P.rp_stats))
      ~check:(fun pass i rp ->
        let outcome = (Stats.hops rp.P.rp_stats, rp.P.rp_exec_time) in
        if pass = 0 then first.(i) <- outcome;
        outcome = first.(i))
  in
  let peak_mem_mb = peak_rss_mb None in
  let checks = identity_checks captured in
  let flit_hops = Array.fold_left (fun acc (h, _) -> acc + h) 0 first in
  let exec_cycles = Array.to_list (Array.map snd first) in
  let samples = loop.samples_ms in
  {
    setup_s;
    loop;
    ops_per_s = float_of_int loop.attempted /. loop.elapsed_s;
    tail = ("p99", percentile 0.99 samples);
    flit_hops;
    exec_cycles;
    peak_mem_mb;
    named =
      [
        ("replays_per_s", float_of_int loop.attempted /. loop.elapsed_s, "1/s");
        ("replay_ms_p50", median samples, "ms");
        ("flit_hops", float_of_int flit_hops, "flit-hops");
        ("exec_cycles_geomean", geomean exec_cycles, "cycles");
      ];
    checks;
  }
