module Table = Ndp_prelude.Table
module Stats = Ndp_prelude.Stats
module Pipeline = Ndp_core.Pipeline
module Config = Ndp_sim.Config
module SimStats = Ndp_sim.Stats

let name (k : Ndp_core.Kernel.t) = k.Ndp_core.Kernel.name

let pct = Table.cell_pct

let exec (r : Pipeline.result) = r.Pipeline.exec_time

let improvement base opt = Common.improvement ~base ~opt

(* Every figure computes its per-app cells across the common pool
   ({!Common.map_apps}), then renders rows serially in suite order.
   Accumulator lists are rebuilt in the exact order the serial loops
   produced them (including reversals) so geomean folds see the same
   float sequence and the output stays byte-identical. *)

(* Data-movement reduction between two runs of the same kernel (identical
   statement-instance numbering). The average is movement-weighted (total
   flit-hops saved over total default flit-hops): an unweighted mean over
   statements lets instances that moved almost nothing in the default
   dominate with meaningless percentages. The max is taken over statement
   instances whose default execution moved at least one cache line. *)
let movement_reduction (def : Pipeline.result) (opt : Pipeline.result) =
  let line_flits = 4 in
  let total_def = Array.fold_left ( + ) 0 def.Pipeline.group_hops in
  let total_opt = Array.fold_left ( + ) 0 opt.Pipeline.group_hops in
  let avg = Common.improvement ~base:total_def ~opt:total_opt in
  let mx = ref 0.0 in
  Array.iteri
    (fun g dh ->
      if dh >= line_flits then begin
        let r = 100.0 *. float_of_int (dh - opt.Pipeline.group_hops.(g)) /. float_of_int dh in
        if r > !mx then mx := r
      end)
    def.Pipeline.group_hops;
  (avg, !mx)

let fig13 common =
  print_endline "== Figure 13: data movement reduction over default placement ==";
  let t = Table.create ~header:[ "app"; "avg"; "max" ] in
  let cells =
    Common.map_apps common (fun k ->
        let def = Common.default_of common k and opt = Common.ours_of common k in
        let avg, mx = movement_reduction def opt in
        ((avg, k), [ name k; pct avg; pct mx ]))
  in
  List.iter (fun (_, row) -> Table.add_row t row) cells;
  let rows = List.map fst cells in
  Table.add_row t [ "geomean(avg)"; pct (Common.geomean_improvement rows) ];
  Table.print t

let fig14 common =
  print_endline "== Figure 14: degree of subcomputation parallelism per statement ==";
  let t = Table.create ~header:[ "app"; "avg"; "max" ] in
  let cells =
    Common.map_apps common (fun k ->
        let r = Common.ours_of common k in
        let par = Array.to_list r.Pipeline.parallelism in
        let avg = Stats.mean par in
        let mx = if par = [] then 0.0 else snd (Stats.min_max par) in
        (avg, [ name k; Table.cell_f avg; Table.cell_f mx ]))
  in
  List.iter (fun (_, row) -> Table.add_row t row) cells;
  let avgs = List.map fst cells in
  Table.add_row t [ "mean(avg)"; Table.cell_f (Stats.mean avgs) ];
  Table.print t

let fig15 common =
  print_endline "== Figure 15: synchronizations per statement ==";
  let t = Table.create ~header:[ "app"; "avg"; "max" ] in
  let rows =
    Common.map_apps common (fun k ->
        let r = Common.ours_of common k in
        let syncs = Array.to_list (Array.map float_of_int r.Pipeline.group_syncs) in
        let avg = Stats.mean syncs in
        let mx = if syncs = [] then 0.0 else snd (Stats.min_max syncs) in
        [ name k; Table.cell_f avg; Table.cell_f mx ])
  in
  List.iter (Table.add_row t) rows;
  Table.print t

let fig16 common =
  print_endline "== Figure 16: L1 hit rate improvement (percentage points) ==";
  let t = Table.create ~header:[ "app"; "default"; "ours"; "improvement" ] in
  let cells =
    Common.map_apps common (fun k ->
        let def = Common.default_of common k and opt = Common.ours_of common k in
        let hd = 100.0 *. SimStats.l1_hit_rate def.Pipeline.stats in
        let ho = 100.0 *. SimStats.l1_hit_rate opt.Pipeline.stats in
        (ho -. hd, [ name k; pct hd; pct ho; pct (ho -. hd) ]))
  in
  List.iter (fun (_, row) -> Table.add_row t row) cells;
  let gains = List.map fst cells in
  Table.add_row t [ "mean"; ""; ""; pct (Stats.mean gains) ];
  Table.print t

let ideal_network common k =
  Common.run common
    ~tweaks:{ Pipeline.no_tweaks with Pipeline.distance_factor = 0.0 }
    (Pipeline.Partitioned Pipeline.partitioned_defaults)
    k

let ideal_data common k =
  Common.run common
    (Pipeline.Partitioned { Pipeline.partitioned_defaults with Pipeline.ideal_data = true })
    k

let fig17 common =
  print_endline "== Figure 17: execution time reduction ==";
  let t = Table.create ~header:[ "app"; "ours"; "ideal-network"; "ideal-data" ] in
  let cells =
    Common.map_apps common (fun k ->
        let def = exec (Common.default_of common k) in
        let ours = improvement def (exec (Common.ours_of common k)) in
        let inet = improvement def (exec (ideal_network common k)) in
        let idata = improvement def (exec (ideal_data common k)) in
        (ours, inet, idata, k, [ name k; pct ours; pct inet; pct idata ]))
  in
  List.iter (fun (_, _, _, _, row) -> Table.add_row t row) cells;
  let a, b, c =
    List.fold_left
      (fun (a, b, c) (ours, inet, idata, k, _) ->
        ((ours, k) :: a, (inet, k) :: b, (idata, k) :: c))
      ([], [], []) cells
  in
  Table.add_row t
    [
      "geomean";
      pct (Common.geomean_improvement a);
      pct (Common.geomean_improvement b);
      pct (Common.geomean_improvement c);
    ];
  Table.print t

let fig18 common =
  print_endline "== Figure 18: contribution of each metric (normalized speedup over default) ==";
  let t = Table.create ~header:[ "app"; "S1:l1"; "S2:movement"; "S3:parallel"; "S4:syncs"; "ours" ] in
  let rows =
    Common.map_apps common (fun k ->
        let def = Common.default_of common k and opt = Common.ours_of common k in
        let tdef = float_of_int (exec def) in
        let speedup r = tdef /. float_of_int (exec r) in
        let hd = SimStats.l1_hit_rate def.Pipeline.stats in
        let ho = SimStats.l1_hit_rate opt.Pipeline.stats in
        let boost = if ho > hd && hd < 1.0 then (ho -. hd) /. (1.0 -. hd) else 0.0 in
        let s1 =
          Common.run common ~tweaks:{ Pipeline.no_tweaks with Pipeline.l1_boost = boost }
            Pipeline.Default k
        in
        let factor =
          let dh = (SimStats.hops def.Pipeline.stats) and oh = (SimStats.hops opt.Pipeline.stats) in
          if dh = 0 then 1.0 else min 1.0 (float_of_int oh /. float_of_int dh)
        in
        let s2 =
          Common.run common ~tweaks:{ Pipeline.no_tweaks with Pipeline.distance_factor = factor }
            Pipeline.Default k
        in
        let par = max 1.0 (Stats.mean (Array.to_list opt.Pipeline.parallelism)) in
        let s3 =
          Common.run common ~tweaks:{ Pipeline.no_tweaks with Pipeline.cost_scale = par }
            Pipeline.Default k
        in
        let extra =
          int_of_float
            (Float.round
               (float_of_int opt.Pipeline.sync_arcs
               /. float_of_int (max 1 opt.Pipeline.num_instances)))
        in
        let s4 =
          Common.run common ~tweaks:{ Pipeline.no_tweaks with Pipeline.extra_syncs = extra }
            Pipeline.Default k
        in
        [
          name k;
          Table.cell_f (speedup s1);
          Table.cell_f (speedup s2);
          Table.cell_f (speedup s3);
          Table.cell_f (speedup s4);
          Table.cell_f (speedup opt);
        ])
  in
  List.iter (Table.add_row t) rows;
  Table.print t

let fig19 common =
  print_endline "== Figure 19: on-chip network latency reduction ==";
  (* The maximum is taken over per-statement average latencies — the
     congestion measure; the single worst message is a cold-phase fill
     burst common to both schemes. *)
  let t = Table.create ~header:[ "app"; "avg-latency"; "max-latency" ] in
  let rows =
    Common.map_apps common (fun k ->
        let def = Common.default_of common k and opt = Common.ours_of common k in
        let avg_red =
          Stats.improvement_pct
            (SimStats.avg_latency def.Pipeline.stats)
            (SimStats.avg_latency opt.Pipeline.stats)
        in
        let worst r = Array.fold_left max 0.0 r.Pipeline.group_avg_latency in
        let max_red = Stats.improvement_pct (worst def) (worst opt) in
        [ name k; pct avg_red; pct max_red ])
  in
  List.iter (Table.add_row t) rows;
  Table.print t

(* Per-link traffic heatmap from the metrics registry: one obs-enabled run
   per scheme (outside the memo cache, which never threads a sink), then
   the mesh rendered as a grid of total flits leaving each node. The same
   [noc.link_flits{x,y->x,y}] family backs `ndp_run stats`. *)
let link_heatmap ?(app = "ocean") common =
  Printf.printf "== Link heatmap: per-node outgoing flits (%s) ==\n" app;
  let k = List.find (fun k -> name k = app) (Common.apps common) in
  let config = Ndp_sim.Config.default in
  let mesh = Config.mesh config in
  let cols = Ndp_noc.Mesh.cols mesh and rows = Ndp_noc.Mesh.rows mesh in
  let grid_of scheme =
    let obs = Ndp_obs.Sink.create ~metrics:true ~trace:false () in
    ignore (Pipeline.Job.run ~obs (Pipeline.Job.make ~config scheme k));
    let grid = Array.make_matrix rows cols 0 in
    let max_link = ref 0 in
    List.iter
      (fun (nm, sample) ->
        match sample with
        | Ndp_obs.Metrics.Counter_v flits
          when String.length nm > 15 && String.sub nm 0 15 = "noc.link_flits{" ->
          Scanf.sscanf
            (String.sub nm 15 (String.length nm - 16))
            "%d,%d->%d,%d"
            (fun sx sy _dx _dy ->
              grid.(sy).(sx) <- grid.(sy).(sx) + flits;
              if flits > !max_link then max_link := flits)
        | _ -> ())
      (Ndp_obs.Metrics.to_alist obs.Ndp_obs.Sink.metrics);
    (grid, !max_link)
  in
  let render label (grid, max_link) =
    Printf.printf "-- %s (hottest link: %d flits) --\n" label max_link;
    let t = Table.create ~header:("y\\x" :: List.init cols string_of_int) in
    for y = 0 to rows - 1 do
      Table.add_row t (string_of_int y :: List.map string_of_int (Array.to_list grid.(y)))
    done;
    Table.print t
  in
  render "default placement" (grid_of Pipeline.Default);
  render "partitioned"
    (grid_of (Pipeline.Partitioned { Pipeline.partitioned_defaults with Pipeline.window = Pipeline.Adaptive }))

(* Predicted vs. measured data movement from the attribution ledger: one
   ledger-enabled run per (app, scheme) outside the memo cache (which never
   threads a sink). "pred" is the compile-time estimate the partitioner
   minimized (Kruskal MST / window movement, in flit-hops); "meas" is what
   the simulated NoC actually carried (ledger total, reconciled against
   noc.link_flits by construction). The ratio column is the honesty check
   on the cost model: how much real traffic — request headers, fills,
   prefetches, invalidations, forwarded results — rides on top of each
   predicted flit-hop. *)
let attribution common =
  print_endline "== Attribution: predicted vs measured movement (flit-hops) ==";
  let config = Ndp_sim.Config.default in
  let measure scheme k =
    let obs = Ndp_obs.Sink.create ~metrics:false ~trace:false ~ledger:true () in
    ignore (Pipeline.Job.run ~obs (Pipeline.Job.make ~config scheme k));
    let ledger = obs.Ndp_obs.Sink.ledger in
    (Ndp_obs.Ledger.total_predicted ledger, Ndp_obs.Ledger.total_flit_hops ledger)
  in
  let ratio pred meas =
    if pred = 0 then "-" else Printf.sprintf "x%.2f" (float_of_int meas /. float_of_int pred)
  in
  let part =
    Pipeline.Partitioned { Pipeline.partitioned_defaults with Pipeline.window = Pipeline.Adaptive }
  in
  let t =
    Table.create
      ~header:
        [ "app"; "def:pred"; "def:meas"; "def:x"; "part:pred"; "part:meas"; "part:x" ]
  in
  List.iter
    (fun k ->
      let dp, dm = measure Pipeline.Default k in
      let pp, pm = measure part k in
      Table.add_row t
        [
          name k;
          string_of_int dp; string_of_int dm; ratio dp dm;
          string_of_int pp; string_of_int pm; ratio pp pm;
        ])
    (Common.apps common);
  Table.print t

let fixed_window common k w =
  Common.run common
    (Pipeline.Partitioned { Pipeline.partitioned_defaults with Pipeline.window = Pipeline.Fixed w })
    k

let fig20 common =
  print_endline "== Figure 20: execution time improvement vs (fixed) window size ==";
  let header = "app" :: List.init 8 (fun i -> Printf.sprintf "w=%d" (i + 1)) @ [ "adaptive" ] in
  let t = Table.create ~header in
  let rows =
    Common.map_apps common (fun k ->
        let def = exec (Common.default_of common k) in
        let fixed =
          List.init 8 (fun i -> pct (improvement def (exec (fixed_window common k (i + 1)))))
        in
        let adaptive = pct (improvement def (exec (Common.ours_of common k))) in
        (name k :: fixed) @ [ adaptive ])
  in
  List.iter (Table.add_row t) rows;
  Table.print t

let fig21 common =
  print_endline "== Figure 21: L1 hit rates vs (fixed) window size ==";
  let header = "app" :: List.init 8 (fun i -> Printf.sprintf "w=%d" (i + 1)) @ [ "adaptive" ] in
  let t = Table.create ~header in
  let rows =
    Common.map_apps common (fun k ->
        let rate r = pct (100.0 *. SimStats.l1_hit_rate r.Pipeline.stats) in
        let fixed = List.init 8 (fun i -> rate (fixed_window common k (i + 1))) in
        (name k :: fixed) @ [ rate (Common.ours_of common k) ])
  in
  List.iter (Table.add_row t) rows;
  Table.print t

let fig22 common =
  print_endline
    "== Figure 22: cluster/memory mode grid (speedup over quadrant+flat original) ==";
  print_endline "   columns: X=flat Y=cache Z=hybrid; 1=original 2=optimized";
  let t =
    Table.create
      ~header:[ "app"; "cluster"; "X,1"; "X,2"; "Y,1"; "Y,2"; "Z,1"; "Z,2" ]
  in
  let row_groups =
    Common.map_apps common (fun k ->
        let base = exec (Common.default_of common k) in
        let cell cluster mem scheme =
          let config = Config.with_modes Config.default cluster mem in
          let r =
            match scheme with
            | `Orig -> Common.run common ~config Pipeline.Default k
            | `Opt ->
              Common.run common ~config (Pipeline.Partitioned Pipeline.partitioned_defaults) k
          in
          Table.cell_f (float_of_int base /. float_of_int (exec r))
        in
        List.map
          (fun cluster ->
            [
              name k;
              Ndp_noc.Cluster.letter cluster;
              cell cluster Config.Flat `Orig;
              cell cluster Config.Flat `Opt;
              cell cluster Config.Cache_mode `Orig;
              cell cluster Config.Cache_mode `Opt;
              cell cluster Config.Hybrid `Orig;
              cell cluster Config.Hybrid `Opt;
            ])
          Ndp_noc.Cluster.all)
  in
  List.iter (List.iter (Table.add_row t)) row_groups;
  Table.print t

let fig23 common =
  print_endline "== Figure 23: computation mapping vs profile-based data-to-MC mapping ==";
  let t = Table.create ~header:[ "app"; "ours"; "data-mapping"; "combined" ] in
  let cells =
    Common.map_apps common (fun k ->
        let def = exec (Common.default_of common k) in
        let overrides =
          let accesses = Pipeline.profile_page_accesses k in
          let machine = Ndp_sim.Machine.create Config.default in
          let ctx =
            Ndp_core.Context.create ~machine
              ~runtime_resolve:(fun _ _ -> None) ~indirect_known:false
              ~arrays:k.Ndp_core.Kernel.program.Ndp_ir.Loop.arrays
              ~options:(Ndp_core.Context.default_options Config.default) ()
          in
          Ndp_core.Data_mapping.profile ctx ~accesses
        in
        let tweaks = { Pipeline.no_tweaks with Pipeline.mc_overrides = overrides } in
        let ours = improvement def (exec (Common.ours_of common k)) in
        let dmap = improvement def (exec (Common.run common ~tweaks Pipeline.Default k)) in
        let comb =
          improvement def
            (exec
               (Common.run common ~tweaks (Pipeline.Partitioned Pipeline.partitioned_defaults) k))
        in
        (ours, dmap, comb, k, [ name k; pct ours; pct dmap; pct comb ]))
  in
  List.iter (fun (_, _, _, _, row) -> Table.add_row t row) cells;
  let a, b, c =
    List.fold_left
      (fun (a, b, c) (ours, dmap, comb, k, _) ->
        ((ours, k) :: a, (dmap, k) :: b, (comb, k) :: c))
      ([], [], []) cells
  in
  Table.add_row t
    [
      "geomean";
      pct (Common.geomean_improvement a);
      pct (Common.geomean_improvement b);
      pct (Common.geomean_improvement c);
    ];
  Table.print t

let fig24 common =
  print_endline "== Figure 24: energy savings over default placement ==";
  let t = Table.create ~header:[ "app"; "ours"; "ideal-network"; "ideal-data" ] in
  let cells =
    Common.map_apps common (fun k ->
        let energy r = Ndp_sim.Energy.total r.Pipeline.energy in
        let def = energy (Common.default_of common k) in
        let saving r = Stats.improvement_pct def (energy r) in
        let ours = saving (Common.ours_of common k) in
        ( (ours, k),
          [
            name k;
            pct ours;
            pct (saving (ideal_network common k));
            pct (saving (ideal_data common k));
          ] ))
  in
  List.iter (fun (_, row) -> Table.add_row t row) cells;
  let acc = List.fold_left (fun acc (cell, _) -> cell :: acc) [] cells in
  Table.add_row t [ "geomean(ours)"; pct (Common.geomean_improvement acc) ];
  Table.print t

(* Graceful degradation under link failures. Runs bypass the memo cache
   (it does not key fault plans): each row re-simulates under a plan that
   kills [n] seed-chosen links. Slowdowns are relative to each scheme's
   own fault-free run, so the columns compare shapes of the degradation
   curve — the paper's partitioner should degrade smoothly where the
   default placement falls off a cliff, and repair should stay closest
   to 1.0. *)
let degradation ?(app = "ocean") common =
  Printf.printf "== Degradation: slowdown vs killed links (%s) ==\n" app;
  let k = List.find (fun k -> name k = app) (Common.apps common) in
  let config = Ndp_sim.Config.default in
  let mesh = Config.mesh config in
  let part =
    Pipeline.Partitioned { Pipeline.partitioned_defaults with Pipeline.window = Pipeline.Adaptive }
  in
  let time ?faults ?repair scheme =
    (Pipeline.Job.run (Pipeline.Job.make ~config ?faults ?repair scheme k)).Pipeline.exec_time
  in
  let base_default = time Pipeline.Default in
  let base_part = time part in
  let t = Table.create ~header:[ "killed"; "default"; "partitioned"; "repaired" ] in
  List.iter
    (fun kills ->
      let slow base v = Table.cell_f (float_of_int v /. float_of_int base) in
      let row =
        if kills = 0 then
          [ "0"; slow base_default base_default; slow base_part base_part; slow base_part base_part ]
        else begin
          let faults =
            Ndp_fault.Plan.make ~mesh ~seed:config.Config.seed
              [ Ndp_fault.Plan.Kill_links kills ]
          in
          [
            string_of_int kills;
            slow base_default (time ~faults Pipeline.Default);
            slow base_part (time ~faults part);
            slow base_part (time ~faults ~repair:true part);
          ]
        end
      in
      Table.add_row t row)
    [ 0; 1; 2; 4; 8 ];
  Table.print t

let summary common =
  print_endline "== Summary: partitioned vs default placement ==";
  let t = Table.create ~header:[ "app"; "exec"; "movement"; "L1 (pp)"; "energy" ] in
  let cells =
    Common.map_apps common (fun k ->
        let def = Common.default_of common k and opt = Common.ours_of common k in
        let e = improvement (exec def) (exec opt) in
        let mov, _ = movement_reduction def opt in
        let l1 =
          100.0
          *. (SimStats.l1_hit_rate opt.Pipeline.stats -. SimStats.l1_hit_rate def.Pipeline.stats)
        in
        let energy =
          Stats.improvement_pct
            (Ndp_sim.Energy.total def.Pipeline.energy)
            (Ndp_sim.Energy.total opt.Pipeline.energy)
        in
        ((e, k), [ name k; pct e; pct mov; pct l1; pct energy ]))
  in
  List.iter (fun (_, row) -> Table.add_row t row) cells;
  let acc = List.fold_left (fun acc (cell, _) -> cell :: acc) [] cells in
  Table.add_row t [ "geomean(exec)"; pct (Common.geomean_improvement acc) ];
  Table.print t

let all common =
  fig13 common;
  fig14 common;
  fig15 common;
  fig16 common;
  fig17 common;
  fig18 common;
  fig19 common;
  link_heatmap common;
  attribution common;
  degradation common;
  fig20 common;
  fig21 common;
  fig22 common;
  fig23 common;
  fig24 common;
  summary common
