module Table = Ndp_prelude.Table
module Pipeline = Ndp_core.Pipeline
module Config = Ndp_sim.Config

let name (k : Ndp_core.Kernel.t) = k.Ndp_core.Kernel.name

let exec (r : Pipeline.result) = r.Pipeline.exec_time

let imp def r = Common.improvement ~base:def ~opt:(exec r)

let partitioned ?(window = Pipeline.Fixed 4) ?(reuse_aware = true) ?(sync_minimize = true)
    ?(level_based = true) () =
  Pipeline.Partitioned
    { Pipeline.partitioned_defaults with Pipeline.window; reuse_aware; sync_minimize; level_based }

(* Like the figures, each ablation computes per-app cells across the
   common pool and renders rows serially in suite order. *)

let reuse common =
  print_endline "== Ablation: reuse-aware vs reuse-agnostic windows (fixed w=4) ==";
  let t = Table.create ~header:[ "app"; "reuse-aware"; "reuse-agnostic" ] in
  let rows =
    Common.map_apps common (fun k ->
        let def = exec (Common.default_of common k) in
        let aware = Common.run common (partitioned ()) k in
        let agnostic = Common.run common (partitioned ~reuse_aware:false ()) k in
        [ name k; Table.cell_pct (imp def aware); Table.cell_pct (imp def agnostic) ])
  in
  List.iter (Table.add_row t) rows;
  Table.print t

let levels common =
  print_endline "== Ablation: level-based splitting vs flat splitting ==";
  let t = Table.create ~header:[ "app"; "level-based"; "flat" ] in
  let rows =
    Common.map_apps common (fun k ->
        let def = exec (Common.default_of common k) in
        let leveled = Common.ours_of common k in
        let flat =
          Common.run common (partitioned ~window:Pipeline.Adaptive ~level_based:false ()) k
        in
        [ name k; Table.cell_pct (imp def leveled); Table.cell_pct (imp def flat) ])
  in
  List.iter (Table.add_row t) rows;
  Table.print t

let sync_minimization common =
  print_endline "== Ablation: transitive-closure sync minimization ==";
  let t = Table.create ~header:[ "app"; "on:syncs/stmt"; "off:syncs/stmt"; "on:impr"; "off:impr" ] in
  let rows =
    Common.map_apps common (fun k ->
        let def = exec (Common.default_of common k) in
        let on = Common.ours_of common k in
        let off =
          Common.run common (partitioned ~window:Pipeline.Adaptive ~sync_minimize:false ()) k
        in
        let per r =
          float_of_int r.Pipeline.sync_arcs /. float_of_int (max 1 r.Pipeline.num_instances)
        in
        [
          name k;
          Table.cell_f (per on);
          Table.cell_f (per off);
          Table.cell_pct (imp def on);
          Table.cell_pct (imp def off);
        ])
  in
  List.iter (Table.add_row t) rows;
  Table.print t

let balance common =
  print_endline "== Ablation: load-balance threshold sweep ==";
  let thresholds = [ 0.0; 0.05; 0.10; 0.30; 1.00 ] in
  let header = "app" :: List.map (fun b -> Printf.sprintf "b=%.2f" b) thresholds in
  let t = Table.create ~header in
  let rows =
    Common.map_apps common (fun k ->
        let def = exec (Common.default_of common k) in
        let cells =
          List.map
            (fun b ->
              let r =
                Common.run common
                  (Pipeline.Partitioned
                     { Pipeline.partitioned_defaults with Pipeline.balance_threshold = b })
                  k
              in
              Table.cell_pct (imp def r))
            thresholds
        in
        name k :: cells)
  in
  List.iter (Table.add_row t) rows;
  Table.print t

let coloring common =
  print_endline "== Ablation: page-coloring OS support vs scrambled allocator ==";
  let t = Table.create ~header:[ "app"; "coloring"; "scrambled" ] in
  let scrambled_config =
    { Config.default with Config.page_policy = Ndp_mem.Page_alloc.Scrambled }
  in
  let rows =
    Common.map_apps common (fun k ->
        let def = exec (Common.default_of common k) in
        let colored = imp def (Common.ours_of common k) in
        let def_scr = exec (Common.run common ~config:scrambled_config Pipeline.Default k) in
        let ours_scr =
          Common.run common ~config:scrambled_config
            (Pipeline.Partitioned Pipeline.partitioned_defaults) k
        in
        let scrambled = Common.improvement ~base:def_scr ~opt:(exec ours_scr) in
        [ name k; Table.cell_pct colored; Table.cell_pct scrambled ])
  in
  List.iter (Table.add_row t) rows;
  Table.print t

let all common =
  reuse common;
  levels common;
  sync_minimization common;
  balance common;
  coloring common
