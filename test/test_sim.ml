open Ndp_sim

let config = Config.default

let network_latency_grows_with_distance () =
  let net = Network.create config in
  let stats = Stats.create () in
  let t1 = Network.send net ~time:0 ~src:0 ~dst:1 ~bytes:8 ~stats in
  Network.reset net config;
  let t5 = Network.send net ~time:0 ~src:0 ~dst:5 ~bytes:8 ~stats in
  Alcotest.(check bool) "longer route is slower" true (t5 > t1)

(* Regression: [reset] must also restore the distance factor, or a
   counterfactual (S2/ideal-network) run leaks its scaling into the next
   experiment sharing the network. *)
let network_reset_restores_distance_factor () =
  let net = Network.create config in
  let stats = Stats.create () in
  let fresh = Network.send net ~time:0 ~src:0 ~dst:5 ~bytes:64 ~stats in
  Network.reset net config;
  Network.set_distance_factor net 0.5;
  let scaled = Network.send net ~time:0 ~src:0 ~dst:5 ~bytes:64 ~stats in
  Alcotest.(check bool) "factor active" true (scaled < fresh);
  Network.reset net config;
  let after = Network.send net ~time:0 ~src:0 ~dst:5 ~bytes:64 ~stats in
  Alcotest.(check int) "factor restored by reset" fresh after

let network_local_is_free () =
  let net = Network.create config in
  let stats = Stats.create () in
  Alcotest.(check int) "same node" 17 (Network.send net ~time:17 ~src:4 ~dst:4 ~bytes:64 ~stats);
  Alcotest.(check int) "no hops" 0 (Stats.hops stats);
  Alcotest.(check int) "no message" 0 (Stats.messages stats)

let network_counts_flit_hops () =
  let net = Network.create config in
  let stats = Stats.create () in
  ignore (Network.send net ~time:0 ~src:0 ~dst:2 ~bytes:64 ~stats);
  (* 2 links x (64 / flit_bytes) flits. *)
  let flits = Config.flits_of_bytes config 64 in
  Alcotest.(check int) "flit-weighted hops" (2 * flits) (Stats.hops stats)

let network_congestion () =
  let net = Network.create config in
  let stats = Stats.create () in
  (* Saturate one link within an epoch; later messages should queue. *)
  let first = Network.send net ~time:0 ~src:0 ~dst:1 ~bytes:64 ~stats in
  let rec flood n last =
    if n = 0 then last else flood (n - 1) (Network.send net ~time:0 ~src:0 ~dst:1 ~bytes:64 ~stats)
  in
  let last = flood 300 first in
  Alcotest.(check bool) "queueing delays later messages" true (last > first)

let network_distance_factor () =
  let net = Network.create config in
  Network.set_distance_factor net 0.0;
  let stats = Stats.create () in
  let t = Network.send net ~time:5 ~src:0 ~dst:35 ~bytes:64 ~stats in
  Alcotest.(check int) "zero-distance network" 5 t;
  Alcotest.(check int) "no hops recorded" 0 (Stats.hops stats)

let served_by_l1 m = Machine.last_level m = Machine.L1

let machine_l1_hit_on_reuse () =
  let m = Machine.create config in
  let stats = Stats.create () in
  let a1 = Machine.load m ~node:3 ~va:4096 ~bytes:8 ~time:0 ~stats in
  Alcotest.(check bool) "first access misses L1" false (served_by_l1 m);
  let a2 = Machine.load m ~node:3 ~va:4096 ~bytes:8 ~time:a1 ~stats in
  Alcotest.(check bool) "second access hits L1" true (served_by_l1 m);
  (* Same cache line, different element: spatial locality. *)
  ignore (Machine.load m ~node:3 ~va:4104 ~bytes:8 ~time:a2 ~stats);
  Alcotest.(check bool) "same line hits" true (served_by_l1 m)

let machine_l2_fill () =
  let m = Machine.create config in
  let stats = Stats.create () in
  ignore (Machine.load m ~node:3 ~va:8192 ~bytes:8 ~time:0 ~stats);
  Alcotest.(check bool) "cold L2 miss" true (Machine.last_level m = Machine.Memory);
  (* A different node touching the same line now hits the shared L2. *)
  ignore (Machine.load m ~node:20 ~va:8192 ~bytes:8 ~time:1000 ~stats);
  Alcotest.(check bool) "remote L2 hit" true (Machine.last_level m = Machine.L2);
  Alcotest.(check bool) "probe sees residency" true (Machine.probe_l2 m ~va:8192)

let machine_miss_slower_than_hit () =
  let m = Machine.create config in
  let stats = Stats.create () in
  let miss = Machine.load m ~node:3 ~va:16384 ~bytes:8 ~time:0 ~stats in
  let m2 = Machine.create config in
  let stats2 = Stats.create () in
  ignore (Machine.load m2 ~node:7 ~va:16384 ~bytes:8 ~time:0 ~stats:stats2);
  let hit = Machine.load m2 ~node:3 ~va:16384 ~bytes:8 ~time:0 ~stats:stats2 in
  Alcotest.(check bool) "DRAM miss slower than L2 hit" true (miss > hit)

let machine_hot_ranges () =
  let m = Machine.create config in
  Machine.set_hot_ranges m [ (0, 1 lsl 20) ];
  let stats = Stats.create () in
  ignore (Machine.load m ~node:0 ~va:4096 ~bytes:8 ~time:0 ~stats);
  Alcotest.(check int) "hot access served by MCDRAM" 1 (Stats.mcdram_accesses stats);
  ignore (Machine.load m ~node:0 ~va:(1 lsl 21) ~bytes:8 ~time:0 ~stats);
  Alcotest.(check int) "cold access served by DDR" 1 (Stats.ddr_accesses stats)

let machine_mc_override () =
  let m = Machine.create config in
  let va = 4096 in
  let page = va lsr 12 in
  Machine.set_mc_overrides m [ (page, 35) ];
  let stats = Stats.create () in
  ignore (Machine.load m ~node:0 ~va ~bytes:8 ~time:0 ~stats);
  Alcotest.(check int) "miss went somewhere" 1 ((Stats.ddr_accesses stats) + (Stats.mcdram_accesses stats))

let machine_l1_boost () =
  let m = Machine.create config in
  Machine.set_l1_boost m 1.0;
  let stats = Stats.create () in
  ignore (Machine.load m ~node:0 ~va:123456 ~bytes:8 ~time:0 ~stats);
  Alcotest.(check bool) "boosted to hit" true (served_by_l1 m)

let engine_runs_chain () =
  let m = Machine.create config in
  let engine = Engine.create m in
  let t0 =
    Ndp_sim.Task.make ~id:0 ~group:0 ~node:1 ~ops:[ Ndp_ir.Op.Add ]
      ~operands:[ Ndp_sim.Task.Load { va = 4096; bytes = 8 } ]
      ~label:"leaf" ()
  in
  let t1 =
    Ndp_sim.Task.make ~id:1 ~group:0 ~node:5 ~ops:[ Ndp_ir.Op.Add ]
      ~operands:[ Ndp_sim.Task.Result { producer = 0; bytes = 8 } ]
      ~store:(8192, 8) ~syncs:1 ~label:"root" ()
  in
  Engine.run engine [ t0; t1 ];
  let f0 = Option.get (Engine.finish_of engine 0) in
  let f1 = Option.get (Engine.finish_of engine 1) in
  Alcotest.(check bool) "consumer after producer" true (f1 > f0);
  Alcotest.(check int) "two tasks" 2 (Stats.tasks (Engine.stats engine));
  Alcotest.(check int) "one sync" 1 (Stats.syncs (Engine.stats engine))

let engine_rejects_disorder () =
  let m = Machine.create config in
  let engine = Engine.create m in
  let consumer =
    Ndp_sim.Task.make ~id:1 ~group:0 ~node:5 ~ops:[]
      ~operands:[ Ndp_sim.Task.Result { producer = 0; bytes = 8 } ]
      ~label:"orphan" ()
  in
  Alcotest.check_raises "producer missing"
    (Invalid_argument "Engine.run: tasks not in producer-before-consumer order")
    (fun () -> Engine.run engine [ consumer ])

let engine_group_accounting () =
  let m = Machine.create config in
  let engine = Engine.create m in
  let t0 =
    Ndp_sim.Task.make ~id:0 ~group:7 ~node:1 ~ops:[]
      ~operands:[ Ndp_sim.Task.Load { va = 1 lsl 18; bytes = 8 } ]
      ~label:"x" ()
  in
  Engine.run engine [ t0 ];
  Alcotest.(check bool) "hops attributed to group" true (Engine.group_hops engine 7 > 0);
  Alcotest.(check int) "other group empty" 0 (Engine.group_hops engine 3)

(* Peak number of task spans open at once, swept over the trace's task
   start/finish events (a zero-length span still counts for one cycle). *)
let peak_overlap trace_events =
  let open Ndp_obs.Trace in
  let edges =
    List.concat_map
      (fun e ->
        match e.kind with
        | Task -> [ (e.start_ts, 1); (max (e.start_ts + 1) e.end_ts, -1) ]
        | Message | Sync -> [])
      trace_events
  in
  fst
    (List.fold_left
       (fun (peak, cur) (_, d) -> (max peak (cur + d), cur + d))
       (0, 0) (List.sort compare edges))

let engine_parallelism_overlap () =
  let m = Machine.create config in
  let trace = Ndp_obs.Trace.create () in
  let engine = Engine.create ~obs:{ Ndp_obs.Sink.none with Ndp_obs.Sink.trace } m in
  let mk id node =
    Ndp_sim.Task.make ~id ~group:0 ~node ~ops:[ Ndp_ir.Op.Mul ] ~operands:[] ~label:"p" ()
  in
  Engine.run engine [ mk 0 1; mk 1 2; mk 2 3 ];
  Alcotest.(check int) "three tasks overlap on distinct nodes" 3
    (peak_overlap (Ndp_obs.Trace.events trace))

(* One fixed access script: loads and stores from several nodes, under
   whatever tweaks are applied to the machine; returns every arrival and
   serving level, the network's view included. *)
let access_script m =
  let stats = Stats.create () in
  let out = ref [] in
  for i = 0 to 299 do
    let node = (i * 7) mod 36 and va = (i * 4160) mod (1 lsl 22) in
    let a =
      if i mod 5 = 4 then Machine.store m ~node ~va ~bytes:8 ~time:(i * 40) ~stats
      else Machine.load m ~node ~va ~bytes:8 ~time:(i * 40) ~stats
    in
    out := (a, Machine.last_level m) :: !out
  done;
  (List.rev !out, Stats.to_alist stats)

(* Whatever a machine went through, [reset] leaves it answering exactly
   like a fresh one — tweaks cleared, caches and tables emptied, RNGs
   reseeded — with and without the same tweaks applied afterwards. *)
let machine_reset_is_fresh () =
  let cfg =
    { config with Config.memory_mode = Config.Hybrid; page_policy = Ndp_mem.Page_alloc.Scrambled }
  in
  let used = Machine.create cfg in
  Machine.set_l1_boost used 0.5;
  Machine.set_hot_ranges used [ (0, 1 lsl 16) ];
  Machine.set_mc_overrides used [ (1, 0); (2, 35) ];
  Network.set_distance_factor (Machine.network used) 0.5;
  ignore (access_script used);
  let other_seed = { cfg with Config.seed = cfg.Config.seed + 1; hop_cycles = 3 } in
  Machine.reset used other_seed;
  ignore (access_script used);
  Machine.reset used cfg;
  let fresh = Machine.create cfg in
  Alcotest.(check bool) "plain script" true (access_script used = access_script fresh);
  List.iter
    (fun m ->
      Machine.reset m cfg;
      Machine.set_l1_boost m 0.25;
      Machine.set_hot_ranges m [ (1 lsl 20, 1 lsl 16) ];
      Network.set_distance_factor (Machine.network m) 0.75)
    [ used; fresh ];
  Alcotest.(check bool) "tweaked script" true (access_script used = access_script fresh);
  Alcotest.check_raises "shape must match"
    (Invalid_argument "Machine.reset: config has a different shape")
    (fun () -> Machine.reset used { cfg with Config.l1_size = cfg.Config.l1_size * 2 })

let engine_script engine =
  let open Ndp_sim.Task in
  let mk id group node operands = make ~id ~group ~node ~ops:[ Ndp_ir.Op.Div ] ~operands ~label:"r" () in
  Engine.run engine
    [
      mk 0 0 1 [ Load { va = 4096; bytes = 8 } ];
      mk 1 0 2 [ Load { va = 8192; bytes = 8 } ];
      mk 2 1 3 [ Result { producer = 0; bytes = 8 }; Result { producer = 1; bytes = 8 } ];
    ];
  ( Stats.to_alist (Engine.stats engine),
    List.map (Engine.finish_of engine) [ 0; 1; 2; 3 ],
    List.map (fun g -> (Engine.group_hops engine g, Engine.group_latency engine g)) [ 0; 1; 2 ],
    Engine.node_clocks engine,
    Engine.node_busy engine )

(* An engine reset with its machine matches a fresh pair: clocks, stats,
   tweaks and every per-task and per-group record start over (task 3,
   which ran before the reset, is unknown after it). *)
let engine_reset_is_fresh () =
  let m = Machine.create config in
  let engine = Engine.create m in
  Engine.set_tweaks engine ~cost_scale:2.0 ~extra_syncs:2;
  let mk id group node =
    Ndp_sim.Task.make ~id ~group ~node ~ops:[ Ndp_ir.Op.Div ] ~operands:[] ~label:"d" ()
  in
  Engine.run engine (List.init 600 (fun i -> mk i (i mod 7) (i mod 36)));
  Machine.reset m config;
  Engine.reset engine;
  let fresh = Engine.create (Machine.create config) in
  Alcotest.(check bool) "same run" true (engine_script engine = engine_script fresh)

let coherence_invalidates_remote_copy () =
  let m = Machine.create config in
  let stats = Stats.create () in
  (* Two nodes cache the same line; a third stores to it. *)
  ignore (Machine.load m ~node:1 ~va:4096 ~bytes:8 ~time:0 ~stats);
  ignore (Machine.load m ~node:2 ~va:4096 ~bytes:8 ~time:0 ~stats);
  Alcotest.(check bool) "node 1 holds copy" true (Machine.l1_probe m ~node:1 ~va:4096);
  ignore (Machine.store m ~node:3 ~va:4096 ~bytes:8 ~time:100 ~stats);
  Alcotest.(check bool) "node 1 invalidated" false (Machine.l1_probe m ~node:1 ~va:4096);
  Alcotest.(check bool) "node 2 invalidated" false (Machine.l1_probe m ~node:2 ~va:4096);
  Alcotest.(check bool) "writer keeps copy" true (Machine.l1_probe m ~node:3 ~va:4096);
  Alcotest.(check int) "two invalidations" 2 (Stats.invalidations stats)

let coherence_off_keeps_copies () =
  let m = Machine.create { config with Config.coherence = false } in
  let stats = Stats.create () in
  ignore (Machine.load m ~node:1 ~va:4096 ~bytes:8 ~time:0 ~stats);
  ignore (Machine.store m ~node:3 ~va:4096 ~bytes:8 ~time:100 ~stats);
  Alcotest.(check bool) "stale copy survives" true (Machine.l1_probe m ~node:1 ~va:4096);
  Alcotest.(check int) "no invalidations" 0 (Stats.invalidations stats)

let prefetch_pulls_next_line () =
  let m = Machine.create { config with Config.prefetch_next_line = true } in
  let stats = Stats.create () in
  ignore (Machine.load m ~node:1 ~va:4096 ~bytes:8 ~time:0 ~stats);
  Alcotest.(check bool) "next line resident" true (Machine.l1_probe m ~node:1 ~va:4160);
  Alcotest.(check bool) "prefetch counted" true ((Stats.prefetches stats) >= 1)

let energy_totals () =
  let s = Stats.create () in
  Stats.add_hops s 100;
  Stats.add_ops s 10;
  let b = Energy.of_stats s in
  Alcotest.(check bool) "network dominates" true (b.Energy.network > b.Energy.compute);
  Alcotest.(check (float 1e-6)) "total is the sum"
    (b.Energy.network +. b.Energy.l1 +. b.Energy.l2 +. b.Energy.dram +. b.Energy.compute
    +. b.Energy.sync)
    (Energy.total b)

let config_modes () =
  List.iter
    (fun m ->
      match Config.memory_mode_of_string (Config.memory_mode_to_string m) with
      | Ok m' -> Alcotest.(check string) "roundtrip" (Config.memory_mode_to_string m)
                   (Config.memory_mode_to_string m')
      | Error e -> Alcotest.fail e)
    Config.all_memory_modes;
  Alcotest.(check int) "flits round up" 1 (Config.flits_of_bytes config 1);
  Alcotest.(check int) "line flits" (64 / config.Config.flit_bytes) (Config.flits_of_bytes config 64)

let tests =
  [
    ( "sim",
      [
        Alcotest.test_case "network latency grows with distance" `Quick network_latency_grows_with_distance;
        Alcotest.test_case "network local free" `Quick network_local_is_free;
        Alcotest.test_case "network flit hops" `Quick network_counts_flit_hops;
        Alcotest.test_case "network congestion" `Quick network_congestion;
        Alcotest.test_case "network distance factor" `Quick network_distance_factor;
        Alcotest.test_case "network reset restores factor" `Quick
          network_reset_restores_distance_factor;
        Alcotest.test_case "machine L1 reuse" `Quick machine_l1_hit_on_reuse;
        Alcotest.test_case "machine L2 fill" `Quick machine_l2_fill;
        Alcotest.test_case "machine miss slower" `Quick machine_miss_slower_than_hit;
        Alcotest.test_case "machine hot ranges" `Quick machine_hot_ranges;
        Alcotest.test_case "machine mc override" `Quick machine_mc_override;
        Alcotest.test_case "machine l1 boost" `Quick machine_l1_boost;
        Alcotest.test_case "engine chain" `Quick engine_runs_chain;
        Alcotest.test_case "engine rejects disorder" `Quick engine_rejects_disorder;
        Alcotest.test_case "engine group accounting" `Quick engine_group_accounting;
        Alcotest.test_case "engine parallelism" `Quick engine_parallelism_overlap;
        Alcotest.test_case "machine reset = fresh" `Quick machine_reset_is_fresh;
        Alcotest.test_case "engine reset = fresh" `Quick engine_reset_is_fresh;
        Alcotest.test_case "coherence invalidates" `Quick coherence_invalidates_remote_copy;
        Alcotest.test_case "coherence off" `Quick coherence_off_keeps_copies;
        Alcotest.test_case "prefetch next line" `Quick prefetch_pulls_next_line;
        Alcotest.test_case "energy totals" `Quick energy_totals;
        Alcotest.test_case "config modes" `Quick config_modes;
      ] );
  ]
