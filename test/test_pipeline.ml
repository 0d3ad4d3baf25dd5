module P = Ndp_core.Pipeline

let water () = Ndp_workloads.Suite.find "water"
let fft () = Ndp_workloads.Suite.find "fft"

let deterministic () =
  let a = P.Job.run (P.Job.make (P.Partitioned P.partitioned_defaults) (water ())) in
  let b = P.Job.run (P.Job.make (P.Partitioned P.partitioned_defaults) (water ())) in
  Alcotest.(check int) "same exec" a.P.exec_time b.P.exec_time;
  Alcotest.(check int) "same hops" (Ndp_sim.Stats.hops a.P.stats) (Ndp_sim.Stats.hops b.P.stats)

let partitioning_reduces_movement () =
  List.iter
    (fun name ->
      let k = Ndp_workloads.Suite.find name in
      let d = P.Job.run (P.Job.make P.Default k) in
      let o = P.Job.run (P.Job.make (P.Partitioned P.partitioned_defaults) k) in
      Alcotest.(check bool)
        (name ^ ": less data movement")
        true
        ((Ndp_sim.Stats.hops o.P.stats) < (Ndp_sim.Stats.hops d.P.stats)))
    [ "water"; "fft"; "minimd"; "barnes" ]

let partitioning_improves_l1 () =
  let d = P.Job.run (P.Job.make P.Default (water ())) in
  let o = P.Job.run (P.Job.make (P.Partitioned P.partitioned_defaults) (water ())) in
  Alcotest.(check bool) "higher L1 hit rate" true
    (Ndp_sim.Stats.l1_hit_rate o.P.stats > Ndp_sim.Stats.l1_hit_rate d.P.stats)

let partitioning_wins_on_wide_statements () =
  List.iter
    (fun name ->
      let k = Ndp_workloads.Suite.find name in
      let d = P.Job.run (P.Job.make P.Default k) in
      let o = P.Job.run (P.Job.make (P.Partitioned P.partitioned_defaults) k) in
      Alcotest.(check bool) (name ^ ": faster") true (o.P.exec_time < d.P.exec_time))
    [ "water"; "fft" ]

let default_has_no_syncs () =
  let d = P.Job.run (P.Job.make P.Default (water ())) in
  Alcotest.(check int) "no syncs" 0 d.P.sync_arcs;
  Alcotest.(check int) "one task per instance" d.P.num_instances d.P.tasks_emitted

let group_arrays_sized () =
  let o = P.Job.run (P.Job.make (P.Partitioned P.partitioned_defaults) (fft ())) in
  Alcotest.(check int) "hops per instance" o.P.num_instances (Array.length o.P.group_hops);
  Alcotest.(check int) "parallelism per instance" o.P.num_instances (Array.length o.P.parallelism);
  Alcotest.(check bool) "windows chosen for both nests" true
    (List.length o.P.windows_chosen = 2);
  List.iter
    (fun (_, w) -> Alcotest.(check bool) "window in range" true (w >= 1 && w <= 8))
    o.P.windows_chosen

let fixed_window_runs () =
  List.iter
    (fun w ->
      let o =
        P.Job.run
          (P.Job.make (P.Partitioned { P.partitioned_defaults with P.window = P.Fixed w }) (water ()))
      in
      Alcotest.(check bool) (Printf.sprintf "w=%d sane" w) true (o.P.exec_time > 0))
    [ 1; 4; 8 ]

let ideal_data_at_least_as_good () =
  let k = Ndp_workloads.Suite.find "radiosity" in
  let o = P.Job.run (P.Job.make (P.Partitioned P.partitioned_defaults) k) in
  let ideal =
    P.Job.run (P.Job.make (P.Partitioned { P.partitioned_defaults with P.ideal_data = true }) k)
  in
  (* Perfect analysis and location knowledge should not lose much. *)
  Alcotest.(check bool) "ideal within 10% of real" true
    (float_of_int ideal.P.exec_time <= 1.1 *. float_of_int o.P.exec_time)

let ideal_network_faster () =
  let o = P.Job.run (P.Job.make (P.Partitioned P.partitioned_defaults) (water ())) in
  let inet =
    P.Job.run
      (P.Job.make ~tweaks:{ P.no_tweaks with P.distance_factor = 0.0 }
         (P.Partitioned P.partitioned_defaults) (water ()))
  in
  Alcotest.(check bool) "zero-latency network strictly faster" true
    (inet.P.exec_time < o.P.exec_time)

let l1_boost_tweak () =
  let d = P.Job.run (P.Job.make P.Default (water ())) in
  let boosted =
    P.Job.run (P.Job.make ~tweaks:{ P.no_tweaks with P.l1_boost = 0.9 } P.Default (water ()))
  in
  Alcotest.(check bool) "boost raises hit rate" true
    (Ndp_sim.Stats.l1_hit_rate boosted.P.stats > Ndp_sim.Stats.l1_hit_rate d.P.stats)

let cost_scale_tweak () =
  let d = P.Job.run (P.Job.make P.Default (water ())) in
  let scaled =
    P.Job.run (P.Job.make ~tweaks:{ P.no_tweaks with P.cost_scale = 4.0 } P.Default (water ()))
  in
  Alcotest.(check bool) "cheaper compute is faster" true (scaled.P.exec_time < d.P.exec_time)

let extra_syncs_tweak () =
  let d = P.Job.run (P.Job.make P.Default (water ())) in
  let s =
    P.Job.run (P.Job.make ~tweaks:{ P.no_tweaks with P.extra_syncs = 3 } P.Default (water ()))
  in
  Alcotest.(check bool) "syncs slow default down" true (s.P.exec_time > d.P.exec_time)

let memory_modes_run () =
  List.iter
    (fun mem ->
      List.iter
        (fun cluster ->
          let config = Ndp_sim.Config.with_modes Ndp_sim.Config.default cluster mem in
          let o = P.Job.run (P.Job.make ~config (P.Partitioned P.partitioned_defaults) (fft ())) in
          Alcotest.(check bool) "positive exec" true (o.P.exec_time > 0))
        Ndp_noc.Cluster.all)
    Ndp_sim.Config.all_memory_modes

let scrambled_pages_hurt_compiler () =
  let k = fft () in
  let config =
    { Ndp_sim.Config.default with Ndp_sim.Config.page_policy = Ndp_mem.Page_alloc.Scrambled }
  in
  let colored = P.Job.run (P.Job.make (P.Partitioned P.partitioned_defaults) k) in
  let scrambled = P.Job.run (P.Job.make ~config (P.Partitioned P.partitioned_defaults) k) in
  (* Without the page-coloring OS support the compiler mispredicts homes
     and the schedule moves more data. *)
  Alcotest.(check bool) "coloring moves less data" true
    ((Ndp_sim.Stats.hops colored.P.stats) <= (Ndp_sim.Stats.hops scrambled.P.stats))

let profile_accesses () =
  let accesses = P.profile_page_accesses (water ()) in
  Alcotest.(check bool) "non-empty" true (accesses <> []);
  List.iter
    (fun (page, node) ->
      Alcotest.(check bool) "sane" true (page >= 0 && node >= 0 && node < 36))
    accesses

let predictor_measured () =
  let o = P.Job.run (P.Job.make (P.Partitioned P.partitioned_defaults) (water ())) in
  Alcotest.(check bool) "accuracy in (0,1]" true
    (o.P.predictor_accuracy > 0.0 && o.P.predictor_accuracy <= 1.0)

let offload_mix_nonempty () =
  let o = P.Job.run (P.Job.make (P.Partitioned P.partitioned_defaults) (water ())) in
  Alcotest.(check bool) "some ops offloaded" true
    (Ndp_sim.Task.mix_total o.P.offload_mix > 0)

(* Replay a captured task stream under the capture config: the simulation
   must be cycle-identical — replay skips compilation, nothing else. *)
let capture_replay_identical () =
  let fixed2 = P.Partitioned { P.partitioned_defaults with P.window = P.Fixed 2 } in
  let k = water () in
  let r = P.Job.run (P.Job.make ~capture:true fixed2 k) in
  Alcotest.(check bool) "captured" true (r.P.emitted <> []);
  let rp = P.replay k r.P.emitted in
  Alcotest.(check int) "same exec" r.P.exec_time rp.P.rp_exec_time;
  List.iter2
    (fun (na, va) (nb, vb) ->
      Alcotest.(check string) "same sample" na nb;
      Alcotest.(check int) na va vb)
    (Ndp_sim.Stats.to_alist r.P.stats)
    (Ndp_sim.Stats.to_alist rp.P.rp_stats)

(* Replay builds its machine the way compilation does — hot ranges per
   memory mode, then the tweaks — so a partitioned capture replays
   cycle-identically under every memory mode, tweaks included. *)
let replay_identical_every_memory_mode () =
  let k = water () in
  let tweaks = { P.no_tweaks with P.l1_boost = 0.25; distance_factor = 0.5 } in
  List.iter
    (fun mode ->
      let config = { Ndp_sim.Config.default with Ndp_sim.Config.memory_mode = mode } in
      let label = Ndp_sim.Config.memory_mode_to_string mode in
      let r =
        P.Job.run
          (P.Job.make ~config ~tweaks ~capture:true (P.Partitioned P.partitioned_defaults) k)
      in
      let rp = P.replay ~config ~tweaks k r.P.emitted in
      Alcotest.(check int) (label ^ ": same exec") r.P.exec_time rp.P.rp_exec_time;
      Alcotest.(check bool) (label ^ ": same stats") true
        (Ndp_sim.Stats.equal r.P.stats rp.P.rp_stats))
    [ Ndp_sim.Config.Flat; Ndp_sim.Config.Hybrid; Ndp_sim.Config.Cache_mode ]

let replay_cost_model_shifts () =
  let k = water () in
  let r = P.Job.run (P.Job.make ~capture:true (P.Partitioned P.partitioned_defaults) k) in
  let d = Ndp_sim.Config.default in
  let dear = { d with Ndp_sim.Config.op_cycles = 4 * d.Ndp_sim.Config.op_cycles } in
  let rp = P.replay ~config:dear k r.P.emitted in
  Alcotest.(check bool) "dearer compute is slower" true (rp.P.rp_exec_time > r.P.exec_time)

let batch_jobs () =
  [
    P.Job.make P.Default (water ());
    P.Job.make (P.Partitioned P.partitioned_defaults) (water ());
    P.Job.make (P.Partitioned { P.partitioned_defaults with P.window = P.Fixed 2 }) (fft ());
  ]

let check_same_result label (a : P.result) (b : P.result) =
  Alcotest.(check int) (label ^ ": exec") a.P.exec_time b.P.exec_time;
  List.iter2
    (fun (na, va) (nb, vb) ->
      Alcotest.(check string) (label ^ ": sample") na nb;
      Alcotest.(check int) (label ^ ": " ^ na) va vb)
    (Ndp_sim.Stats.to_alist a.P.stats)
    (Ndp_sim.Stats.to_alist b.P.stats)

(* A batch must equal the corresponding solo runs, serially and at any
   pool size — each job is an independent simulation. *)
let batch_matches_solo_and_parallel () =
  let solo = List.map (fun j -> P.Job.run j) (batch_jobs ()) in
  let serial = P.run_batch (batch_jobs ()) in
  let pooled =
    Ndp_prelude.Pool.with_pool ~jobs:4 (fun pool -> P.run_batch ~pool (batch_jobs ()))
  in
  List.iter2 (check_same_result "serial") solo serial;
  List.iter2 (check_same_result "pooled") solo pooled

let tests =
  [
    ( "pipeline",
      [
        Alcotest.test_case "deterministic" `Quick deterministic;
        Alcotest.test_case "reduces movement" `Slow partitioning_reduces_movement;
        Alcotest.test_case "improves L1" `Quick partitioning_improves_l1;
        Alcotest.test_case "wins on wide statements" `Quick partitioning_wins_on_wide_statements;
        Alcotest.test_case "default has no syncs" `Quick default_has_no_syncs;
        Alcotest.test_case "group arrays sized" `Quick group_arrays_sized;
        Alcotest.test_case "fixed windows run" `Slow fixed_window_runs;
        Alcotest.test_case "ideal data sane" `Quick ideal_data_at_least_as_good;
        Alcotest.test_case "ideal network faster" `Quick ideal_network_faster;
        Alcotest.test_case "l1 boost tweak" `Quick l1_boost_tweak;
        Alcotest.test_case "cost scale tweak" `Quick cost_scale_tweak;
        Alcotest.test_case "extra syncs tweak" `Quick extra_syncs_tweak;
        Alcotest.test_case "all mode combinations" `Slow memory_modes_run;
        Alcotest.test_case "scrambled pages hurt" `Quick scrambled_pages_hurt_compiler;
        Alcotest.test_case "profile accesses" `Quick profile_accesses;
        Alcotest.test_case "predictor measured" `Quick predictor_measured;
        Alcotest.test_case "offload mix" `Quick offload_mix_nonempty;
        Alcotest.test_case "capture/replay identical" `Quick capture_replay_identical;
        Alcotest.test_case "replay identical every memory mode" `Quick
          replay_identical_every_memory_mode;
        Alcotest.test_case "replay cost model" `Quick replay_cost_model_shifts;
        Alcotest.test_case "batch matches solo" `Slow batch_matches_solo_and_parallel;
      ] );
  ]
