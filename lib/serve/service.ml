module Render = Ndp_obs.Render
module Metrics = Ndp_obs.Metrics
module Ledger = Ndp_obs.Ledger
module Trace = Ndp_obs.Trace
module Stats = Ndp_sim.Stats
module Config = Ndp_sim.Config
module Pipeline = Ndp_core.Pipeline
module Plan = Ndp_fault.Plan
module Cost = Ndp_analysis.Cost

(* ------------------------------------------------------------------ *)
(* Spec resolution: wire vocabulary -> Pipeline.Job                    *)

let ( let* ) = Result.bind

let window_of_string s =
  match String.lowercase_ascii s with
  (* "analytic" is the older spelling of the one adaptive sizer. *)
  | "" | "adaptive" | "analytic" -> Ok Pipeline.Adaptive
  | other -> (
    match int_of_string_opt other with
    | Some k when k >= 1 -> Ok (Pipeline.Fixed k)
    | Some k -> Error (Printf.sprintf "window size must be positive, got %d" k)
    | None -> Error (Printf.sprintf "expected a window size or \"adaptive\", got %S" s))

let scheme_of_spec (s : Protocol.job_spec) =
  match String.lowercase_ascii s.Protocol.scheme with
  | "default" -> Ok Pipeline.Default
  | "partitioned" ->
    let* w = window_of_string s.Protocol.window in
    Ok (Pipeline.Partitioned { Pipeline.partitioned_defaults with Pipeline.window = w })
  | "partitioned+fuse" | "fused" ->
    let* w = window_of_string s.Protocol.window in
    Ok
      (Pipeline.Partitioned
         { Pipeline.partitioned_defaults with Pipeline.window = w; Pipeline.fuse = true })
  | other ->
    Error
      (Printf.sprintf "unknown scheme %S (expected default, partitioned or partitioned+fuse)"
         other)

let config_of_spec (s : Protocol.job_spec) =
  let* cluster = Ndp_noc.Cluster.of_string s.Protocol.cluster in
  let* memory = Config.memory_mode_of_string s.Protocol.memory in
  Ok (Config.with_modes Config.default cluster memory)

let job_of_spec (s : Protocol.job_spec) =
  match Ndp_workloads.Suite.find s.Protocol.app with
  | exception Not_found -> Error (Printf.sprintf "unknown application %S" s.Protocol.app)
  | kernel ->
    let* config = config_of_spec s in
    let* scheme = scheme_of_spec s in
    let* faults =
      if s.Protocol.faults = "" && s.Protocol.fault_seed = None then Ok None
      else
        let mesh = Config.mesh config in
        let seed = Option.value s.Protocol.fault_seed ~default:config.Config.seed in
        let* plan =
          Result.map_error (( ^ ) "bad fault spec: ") (Plan.parse ~mesh ~seed s.Protocol.faults)
        in
        Ok (Some plan)
    in
    Ok
      (Pipeline.Job.make ~config ~tweaks:s.Protocol.tweaks ?faults ~repair:s.Protocol.repair
         scheme kernel)

(* Simulation-side integer knobs a sweep variant may override. The
   address-shape parameters (mesh, line/page size) are deliberately
   absent: replay requires them to match the capture config. *)
let apply_override (c : Config.t) (field, v) =
  match field with
  | "hop_cycles" -> Ok { c with Config.hop_cycles = v }
  | "link_service_cycles" -> Ok { c with Config.link_service_cycles = v }
  | "l1_hit_cycles" -> Ok { c with Config.l1_hit_cycles = v }
  | "l2_hit_cycles" -> Ok { c with Config.l2_hit_cycles = v }
  | "mcdram_cycles" -> Ok { c with Config.mcdram_cycles = v }
  | "ddr_cycles" -> Ok { c with Config.ddr_cycles = v }
  | "op_cycles" -> Ok { c with Config.op_cycles = v }
  | "sync_cycles" -> Ok { c with Config.sync_cycles = v }
  | "load_issue_cycles" -> Ok { c with Config.load_issue_cycles = v }
  | "outstanding_loads" -> Ok { c with Config.outstanding_loads = v }
  | other -> Error (Printf.sprintf "variant cannot override config field %S" other)

let variant_config base (v : Protocol.variant) =
  List.fold_left
    (fun acc kv ->
      let* c = acc in
      apply_override c kv)
    (Ok base) v.Protocol.v_overrides

(* ------------------------------------------------------------------ *)
(* Result rendering (shared by CLI and daemon)                         *)

(* A run's chosen window sizes, as every document prints them. *)
let windows_text ws = String.concat ", " (List.map (fun (n, w) -> Printf.sprintf "%s=%d" n w) ws)

let windows_json ws = Render.Json.Obj (List.map (fun (n, w) -> (n, Render.Json.Int w)) ws)

let result_human (r : Pipeline.result) =
  let s = r.Pipeline.stats in
  let buf = Buffer.create 512 in
  let pr fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  pr "%s / %s\n" r.Pipeline.kernel_name r.Pipeline.scheme_name;
  pr "  execution time     %d cycles\n" r.Pipeline.exec_time;
  pr "  data movement      %d flit-hops over %d messages\n" (Stats.hops s) (Stats.messages s);
  pr "  network latency    avg %s, max %d cycles\n"
    (if Stats.messages s = 0 then "-" else Printf.sprintf "%.1f" (Stats.avg_latency s))
    (Stats.latency_max s);
  pr "  L1 hit rate        %.1f%%   L2 hit rate %.1f%%\n"
    (100.0 *. Stats.l1_hit_rate s)
    (100.0 *. Stats.l2_hit_rate s);
  pr "  tasks              %d (%d statement instances)\n" r.Pipeline.tasks_emitted
    r.Pipeline.num_instances;
  pr "  synchronizations   %d\n" r.Pipeline.sync_arcs;
  pr "  energy             %.0f pJ (%s)\n"
    (Ndp_sim.Energy.total r.Pipeline.energy)
    (Format.asprintf "%a" Ndp_sim.Energy.pp r.Pipeline.energy);
  if r.Pipeline.windows_chosen <> [] then
    pr "  windows            %s\n" (windows_text r.Pipeline.windows_chosen);
  pr "  predictor accuracy %.1f%%" (100.0 *. r.Pipeline.predictor_accuracy);
  Buffer.contents buf

let result_json (r : Pipeline.result) =
  let s = r.Pipeline.stats in
  Render.Json.Obj
    [
      ("app", Render.Json.Str r.Pipeline.kernel_name);
      ("scheme", Render.Json.Str r.Pipeline.scheme_name);
      ("exec_time", Render.Json.Int r.Pipeline.exec_time);
      ("tasks", Render.Json.Int r.Pipeline.tasks_emitted);
      ("instances", Render.Json.Int r.Pipeline.num_instances);
      ("sync_arcs", Render.Json.Int r.Pipeline.sync_arcs);
      ("energy_pj", Render.Json.Float (Ndp_sim.Energy.total r.Pipeline.energy));
      ( "stats",
        Render.Json.Obj (List.map (fun (name, v) -> (name, Render.Json.Int v)) (Stats.to_alist s))
      );
      ("windows", windows_json r.Pipeline.windows_chosen);
      ("predictor_accuracy", Render.Json.Float r.Pipeline.predictor_accuracy);
    ]

let metrics_json reg = Metrics.to_json reg

let metrics_human reg =
  let t = Ndp_prelude.Table.create ~header:[ "metric"; "value" ] in
  List.iter
    (fun (name, sample) ->
      let value =
        match sample with
        | Metrics.Counter_v v -> string_of_int v
        | Metrics.Gauge_v v -> Ndp_prelude.Table.cell_f v
        | Metrics.Histogram_v h ->
          let p q =
            Ndp_prelude.Table.cell_f (Metrics.percentile ~counts:h.counts ~bounds:h.bounds q)
          in
          Printf.sprintf "count=%d sum=%s p50=%s p95=%s p99=%s" h.count
            (Ndp_prelude.Table.cell_f h.sum) (p 0.5) (p 0.95) (p 0.99)
      in
      Ndp_prelude.Table.add_row t [ name; value ])
    (Metrics.to_alist reg);
  Ndp_prelude.Table.render t

let plan_json plan ~spec ~repair =
  let killed, degraded, stalled, mcs = Plan.counts plan in
  Render.Json.Obj
    [
      ("spec", Render.Json.Str spec);
      ("seed", Render.Json.Int (Plan.seed plan));
      ("retry_timeout", Render.Json.Int (Plan.retry_timeout plan));
      ("max_retries", Render.Json.Int (Plan.max_retries plan));
      ("links_killed", Render.Json.Int killed);
      ("links_degraded", Render.Json.Int degraded);
      ("nodes_stalled", Render.Json.Int stalled);
      ("mcs_slowed", Render.Json.Int mcs);
      ( "avoided_nodes",
        Render.Json.List (List.map (fun n -> Render.Json.Int n) (Plan.avoided_nodes plan)) );
      ("repair", Render.Json.Bool repair);
    ]

(* The reconciliation target: what the NoC itself counted, summed over
   every link. The ledger charges [flits x links] per message, so the two
   totals must agree exactly. *)
let link_flits_total reg =
  let prefix = "noc.link_flits{" in
  List.fold_left
    (fun acc (name, sample) ->
      match sample with
      | Metrics.Counter_v flits when Astring.String.is_prefix ~affix:prefix name -> acc + flits
      | _ -> acc)
    0 (Metrics.to_alist reg)

(* Symmetric divergence: how far apart two totals are, as a >=1 ratio.
   Equal zeroes agree perfectly; a zero against a nonzero is infinitely
   divergent (rendered as null in JSON, "-" in the table). *)
let divergence_ratio ~static ~measured =
  if static = 0 && measured = 0 then 1.0
  else if static = 0 || measured = 0 then infinity
  else
    let a = float_of_int static and b = float_of_int measured in
    if a > b then a /. b else b /. a

let ratio_cell r = if Float.is_finite r then Printf.sprintf "x%.2f" r else "-"

(* ------------------------------------------------------------------ *)
(* run                                                                 *)

type run_outcome = {
  result : Pipeline.result;
  sink : Ndp_obs.Sink.t;
  doc : Render.Json.t;
  human : unit -> string;
}

let run ?(metrics = false) ?(spans = Ndp_obs.Span.none) (job : Pipeline.Job.t) =
  let obs =
    if metrics then Ndp_obs.Sink.create ~metrics:true ~trace:false () else Ndp_obs.Sink.none
  in
  let obs = { obs with Ndp_obs.Sink.spans = spans } in
  let r = Pipeline.Job.run ~obs job in
  let doc =
    if metrics then
      Render.Json.Obj
        [ ("result", result_json r); ("metrics", metrics_json obs.Ndp_obs.Sink.metrics) ]
    else result_json r
  in
  let human () =
    result_human r ^ if metrics then "\n\n" ^ metrics_human obs.Ndp_obs.Sink.metrics else ""
  in
  { result = r; sink = obs; doc; human }

(* ------------------------------------------------------------------ *)
(* profile                                                             *)

let divergence_cell ~measured ~predicted =
  if predicted = 0 then "-"
  else Printf.sprintf "x%.2f" (float_of_int measured /. float_of_int predicted)

let profile_human (r : Pipeline.result) ledger log ~top ~link_flits =
  let buf = Buffer.create 2048 in
  let pr fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  Buffer.add_string buf (result_human r);
  pr "\n\n";
  let stmts = Ledger.statements ledger in
  let stmt_ratio =
    let tbl = Hashtbl.create 16 in
    List.iter
      (fun (s : Ledger.stmt_total) ->
        Hashtbl.replace tbl (s.Ledger.s_nest, s.Ledger.s_stmt)
          (divergence_cell ~measured:s.Ledger.s_flit_hops ~predicted:s.Ledger.s_predicted))
      stmts;
    fun nest stmt -> Option.value (Hashtbl.find_opt tbl (nest, stmt)) ~default:"-"
  in
  let rows = Ledger.rows ledger in
  let by_weight =
    List.stable_sort
      (fun (a : Ledger.row) (b : Ledger.row) -> compare b.Ledger.flit_hops a.Ledger.flit_hops)
      rows
  in
  let shown = List.filteri (fun i _ -> i < top) by_weight in
  let total = max 1 (Ledger.total_flit_hops ledger) in
  pr "top %d of %d movement sources (by flit-hops):\n" (List.length shown) (List.length rows);
  let t =
    Ndp_prelude.Table.create
      ~header:[ "nest"; "stmt"; "array"; "route"; "msgs"; "flits"; "flit-hops"; "share"; "divergence" ]
  in
  List.iter
    (fun (row : Ledger.row) ->
      Ndp_prelude.Table.add_row t
        [
          row.Ledger.nest;
          string_of_int row.Ledger.stmt;
          row.Ledger.array_name;
          Printf.sprintf "%d->%d" row.Ledger.src row.Ledger.dst;
          string_of_int row.Ledger.messages;
          string_of_int row.Ledger.flits;
          string_of_int row.Ledger.flit_hops;
          Printf.sprintf "%.1f%%" (100.0 *. float_of_int row.Ledger.flit_hops /. float_of_int total);
          stmt_ratio row.Ledger.nest row.Ledger.stmt;
        ])
    shown;
  Buffer.add_string buf (Ndp_prelude.Table.render t);
  pr "\npredicted vs measured movement per statement (flit-hops):\n";
  let t =
    Ndp_prelude.Table.create ~header:[ "nest"; "stmt"; "predicted"; "measured"; "divergence" ]
  in
  List.iter
    (fun (s : Ledger.stmt_total) ->
      Ndp_prelude.Table.add_row t
        [
          s.Ledger.s_nest;
          string_of_int s.Ledger.s_stmt;
          string_of_int s.Ledger.s_predicted;
          string_of_int s.Ledger.s_flit_hops;
          divergence_cell ~measured:s.Ledger.s_flit_hops ~predicted:s.Ledger.s_predicted;
        ])
    stmts;
  Ndp_prelude.Table.add_row t
    [
      "(total)";
      "";
      string_of_int (Ledger.total_predicted ledger);
      string_of_int (Ledger.total_flit_hops ledger);
      divergence_cell ~measured:(Ledger.total_flit_hops ledger)
        ~predicted:(Ledger.total_predicted ledger);
    ];
  Buffer.add_string buf (Ndp_prelude.Table.render t);
  let measured = Ledger.total_flit_hops ledger in
  pr "\nreconciliation: ledger %d flit-hops vs noc.link_flits %d -> %s\n" measured link_flits
    (if measured = link_flits then "ok" else "MISMATCH");
  (match Trace.series log with
  | [] -> ()
  | series ->
    let samples = List.fold_left (fun acc s -> acc + List.length s.Trace.samples) 0 series in
    let dropped = List.fold_left (fun acc s -> acc + s.Trace.dropped) 0 series in
    pr "timeline: %d series, interval %d cycles, %d samples, %d dropped"
      (List.length series) (Trace.interval log) samples dropped);
  Buffer.contents buf

type profile_outcome = {
  p_result : Pipeline.result;
  p_doc : Render.Json.t;
  p_human : unit -> string;
  p_reconciled : bool;
  p_measured : int;
  p_link_flits : int;
}

let profile ?(spans = Ndp_obs.Span.none) ~trace ~top (job : Pipeline.Job.t) =
  let obs = Ndp_obs.Sink.create ~metrics:true ~trace:false ~ledger:true () in
  let obs = { obs with Ndp_obs.Sink.trace; spans } in
  let r = Pipeline.Job.run ~obs job in
  let ledger = obs.Ndp_obs.Sink.ledger in
  let reg = obs.Ndp_obs.Sink.metrics in
  let link_flits = link_flits_total reg in
  let measured = Ledger.total_flit_hops ledger in
  let reconciled = measured = link_flits in
  (* Ledger/timeline JSON construction is a real cost on large apps;
     charge it to a "render" phase so traced requests reconcile. *)
  let doc =
    Ndp_obs.Span.with_span spans "render" @@ fun () ->
    Render.Json.Obj
      [
        ("result", result_json r);
        ("ledger", Ledger.to_json ledger);
        ("timeline", Trace.series_json trace);
        ( "reconciliation",
          Render.Json.Obj
            [
              ("ledger_flit_hops", Render.Json.Int measured);
              ("noc_link_flits", Render.Json.Int link_flits);
              ("reconciled", Render.Json.Bool reconciled);
            ] );
      ]
  in
  let human () = profile_human r ledger trace ~top ~link_flits in
  {
    p_result = r;
    p_doc = doc;
    p_human = human;
    p_reconciled = reconciled;
    p_measured = measured;
    p_link_flits = link_flits;
  }

(* ------------------------------------------------------------------ *)
(* analyze                                                             *)

let analyze_human (r : Pipeline.result) (table : Cost.t) stmt_of ~threshold ~ratio ~within =
  let buf = Buffer.create 2048 in
  let pr fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  pr "%s / %s static cost model\n\n" r.Pipeline.kernel_name r.Pipeline.scheme_name;
  pr "footprints and reuse (lines = nest-wide footprint in cache lines):\n";
  let t = Ndp_prelude.Table.create ~header:[ "nest"; "stmt"; "ref"; "affine"; "lines"; "reuse" ] in
  List.iter
    (fun (row : Cost.stmt_row) ->
      List.iter
        (fun (rr : Cost.ref_row) ->
          Ndp_prelude.Table.add_row t
            [
              row.Cost.c_nest;
              string_of_int row.Cost.c_stmt;
              rr.Cost.r_text;
              (if rr.Cost.r_affine then "yes" else "no");
              (match rr.Cost.r_lines with Some n -> string_of_int n | None -> "-");
              Ndp_ir.Reuse.to_string rr.Cost.r_reuse;
            ])
        row.Cost.c_refs)
    table.Cost.rows;
  Buffer.add_string buf (Ndp_prelude.Table.render t);
  pr "\nstatic vs measured movement per statement (flit-hops):\n";
  let t =
    Ndp_prelude.Table.create
      ~header:[ "nest"; "stmt"; "instances"; "static"; "predicted"; "measured"; "divergence" ]
  in
  List.iter
    (fun (row : Cost.stmt_row) ->
      let predicted, measured = stmt_of row.Cost.c_nest row.Cost.c_stmt in
      Ndp_prelude.Table.add_row t
        [
          row.Cost.c_nest;
          string_of_int row.Cost.c_stmt;
          string_of_int row.Cost.c_instances;
          string_of_int row.Cost.c_flit_hops;
          string_of_int predicted;
          string_of_int measured;
          ratio_cell (divergence_ratio ~static:row.Cost.c_flit_hops ~measured);
        ])
    table.Cost.rows;
  let measured_total = List.fold_left (fun acc r -> acc + snd (stmt_of r.Cost.c_nest r.Cost.c_stmt)) 0 table.Cost.rows in
  let predicted_total = List.fold_left (fun acc r -> acc + fst (stmt_of r.Cost.c_nest r.Cost.c_stmt)) 0 table.Cost.rows in
  Ndp_prelude.Table.add_row t
    [
      "(total)";
      "";
      "";
      string_of_int table.Cost.total_flit_hops;
      string_of_int predicted_total;
      string_of_int measured_total;
      ratio_cell ratio;
    ];
  Buffer.add_string buf (Ndp_prelude.Table.render t);
  if r.Pipeline.windows_chosen <> [] then
    pr "\nwindows: %s\n" (windows_text r.Pipeline.windows_chosen);
  pr "\nreconciliation: static %d vs measured %d flit-hops -> %s (threshold x%.2f)"
    table.Cost.total_flit_hops measured_total
    (if within then ratio_cell ratio ^ ", ok" else ratio_cell ratio ^ ", DIVERGED")
    threshold;
  Buffer.contents buf

type analyze_outcome = {
  a_result : Pipeline.result;
  a_doc : Render.Json.t;
  a_human : unit -> string;
  a_within : bool;
  a_ratio : float;
  a_static_total : int;
  a_measured_total : int;
}

let analyze ?(spans = Ndp_obs.Span.none) ~threshold (job : Pipeline.Job.t) =
  let Pipeline.Job.{ config; scheme; kernel; _ } = job in
  let obs = Ndp_obs.Sink.create ~metrics:false ~trace:false ~ledger:true () in
  let obs = { obs with Ndp_obs.Sink.spans = spans } in
  let r = Pipeline.Job.run ~obs job in
  (* The static model is a phase of its own, so a cold request's spans
     cover its wall time. It prices the windows this run compiled: each
     nest is sized once, mid-run, with the miss predictor the earlier
     nests trained. *)
  let table =
    Ndp_obs.Span.with_span spans "cost" (fun () ->
        Cost.table ~config ~scheme ~windows:r.Pipeline.windows_chosen kernel)
  in
  let ledger = obs.Ndp_obs.Sink.ledger in
  let stmt_of =
    let tbl = Hashtbl.create 16 in
    List.iter
      (fun (s : Ledger.stmt_total) ->
        Hashtbl.replace tbl (s.Ledger.s_nest, s.Ledger.s_stmt)
          (s.Ledger.s_predicted, s.Ledger.s_flit_hops))
      (Ledger.statements ledger);
    fun nest stmt -> Option.value (Hashtbl.find_opt tbl (nest, stmt)) ~default:(0, 0)
  in
  let measured_total = Ledger.total_flit_hops ledger in
  let ratio = divergence_ratio ~static:table.Cost.total_flit_hops ~measured:measured_total in
  let within = ratio <= threshold in
  let stmt_json (row : Cost.stmt_row) =
    let predicted, measured = stmt_of row.Cost.c_nest row.Cost.c_stmt in
    Render.Json.Obj
      [
        ("nest", Render.Json.Str row.Cost.c_nest);
        ("stmt", Render.Json.Int row.Cost.c_stmt);
        ("text", Render.Json.Str row.Cost.c_text);
        ("instances", Render.Json.Int row.Cost.c_instances);
        ( "refs",
          Render.Json.List
            (List.map
               (fun (rr : Cost.ref_row) ->
                 Render.Json.Obj
                   [
                     ("ref", Render.Json.Str rr.Cost.r_text);
                     ("array", Render.Json.Str rr.Cost.r_array);
                     ("affine", Render.Json.Bool rr.Cost.r_affine);
                     ( "lines",
                       match rr.Cost.r_lines with
                       | Some n -> Render.Json.Int n
                       | None -> Render.Json.Null );
                     ("reuse", Render.Json.Str (Ndp_ir.Reuse.to_string rr.Cost.r_reuse));
                   ])
               row.Cost.c_refs) );
        ("static_links", Render.Json.Int row.Cost.c_links);
        ("static_flit_hops", Render.Json.Int row.Cost.c_flit_hops);
        ("predicted_flit_hops", Render.Json.Int predicted);
        ("measured_flit_hops", Render.Json.Int measured);
        ( "divergence",
          Render.Json.Float (divergence_ratio ~static:row.Cost.c_flit_hops ~measured) );
      ]
  in
  let doc =
    Render.Json.Obj
      [
        ("app", Render.Json.Str r.Pipeline.kernel_name);
        ("scheme", Render.Json.Str r.Pipeline.scheme_name);
        ("statements", Render.Json.List (List.map stmt_json table.Cost.rows));
        ("windows", windows_json r.Pipeline.windows_chosen);
        ( "totals",
          Render.Json.Obj
            [
              ("static_links", Render.Json.Int table.Cost.total_links);
              ("static_flit_hops", Render.Json.Int table.Cost.total_flit_hops);
              ("predicted_flit_hops", Render.Json.Int (Ledger.total_predicted ledger));
              ("measured_flit_hops", Render.Json.Int measured_total);
              ("divergence", Render.Json.Float ratio);
            ] );
        ("threshold", Render.Json.Float threshold);
        ("within_threshold", Render.Json.Bool within);
      ]
  in
  let human () = analyze_human r table stmt_of ~threshold ~ratio ~within in
  {
    a_result = r;
    a_doc = doc;
    a_human = human;
    a_within = within;
    a_ratio = ratio;
    a_static_total = table.Cost.total_flit_hops;
    a_measured_total = measured_total;
  }

(* ------------------------------------------------------------------ *)
(* analyze --fusion: per-decision predicted vs measured movement delta *)

type fusion_outcome = {
  f_fused : Pipeline.result;
  f_unfused : Pipeline.result;
  f_doc : Render.Json.t;
  f_human : unit -> string;
  f_fused_total : int; (** measured ledger flit-hops, fused run *)
  f_unfused_total : int;
  f_reduction_pct : float;
}

let chain_label (d : Ndp_core.Fusion.decision) =
  String.concat ">" (List.map (fun s -> Printf.sprintf "s%d" s) d.Ndp_core.Fusion.d_stmts)

(* Run the job fused and unfused (same window policy, same config), each
   with its own movement ledger, and join the fused run's fusion
   decisions with the per-statement measured flit-hop deltas — the same
   reconciliation discipline [analyze] applies to the static cost model,
   aimed at the fusion pass's own predictions. *)
let analyze_fusion (job : Pipeline.Job.t) =
  let opts =
    match job.Pipeline.Job.scheme with
    | Pipeline.Partitioned o -> o
    | Pipeline.Default -> Pipeline.partitioned_defaults
  in
  let fused_job =
    { job with Pipeline.Job.scheme = Pipeline.Partitioned { opts with Pipeline.fuse = true } }
  in
  let unfused_job =
    { job with Pipeline.Job.scheme = Pipeline.Partitioned { opts with Pipeline.fuse = false } }
  in
  let run_with_ledger j =
    let obs = Ndp_obs.Sink.create ~metrics:false ~trace:false ~ledger:true () in
    let r = Pipeline.Job.run ~obs j in
    let measured =
      let tbl = Hashtbl.create 16 in
      List.iter
        (fun (s : Ledger.stmt_total) ->
          Hashtbl.replace tbl (s.Ledger.s_nest, s.Ledger.s_stmt) s.Ledger.s_flit_hops)
        (Ledger.statements obs.Ndp_obs.Sink.ledger);
      fun nest stmt -> Option.value (Hashtbl.find_opt tbl (nest, stmt)) ~default:0
    in
    (r, measured, Ledger.total_flit_hops obs.Ndp_obs.Sink.ledger)
  in
  let fused, fused_of, fused_total = run_with_ledger fused_job in
  let unfused, unfused_of, unfused_total = run_with_ledger unfused_job in
  let decisions = fused.Pipeline.fusion_decisions in
  let measured_delta (d : Ndp_core.Fusion.decision) =
    List.fold_left
      (fun acc s ->
        acc + unfused_of d.Ndp_core.Fusion.d_nest s - fused_of d.Ndp_core.Fusion.d_nest s)
      0 d.Ndp_core.Fusion.d_stmts
  in
  let reduction_pct =
    if unfused_total = 0 then 0.0
    else 100.0 *. float_of_int (unfused_total - fused_total) /. float_of_int unfused_total
  in
  let decision_json (d : Ndp_core.Fusion.decision) =
    Render.Json.Obj
      [
        ("nest", Render.Json.Str d.Ndp_core.Fusion.d_nest);
        ("chain", Render.Json.Str (chain_label d));
        ( "arrays",
          Render.Json.List
            (List.map (fun a -> Render.Json.Str a) d.Ndp_core.Fusion.d_arrays) );
        ("instances", Render.Json.Int d.Ndp_core.Fusion.d_instances);
        ("elided_stores", Render.Json.Int d.Ndp_core.Fusion.d_elided_stores);
        ("predicted_saved_flit_hops", Render.Json.Int d.Ndp_core.Fusion.d_pred_saved_flit_hops);
        ("measured_delta_flit_hops", Render.Json.Int (measured_delta d));
      ]
  in
  let doc =
    Render.Json.Obj
      [
        ("app", Render.Json.Str fused.Pipeline.kernel_name);
        ("fused_scheme", Render.Json.Str fused.Pipeline.scheme_name);
        ("unfused_scheme", Render.Json.Str unfused.Pipeline.scheme_name);
        ("decisions", Render.Json.List (List.map decision_json decisions));
        ( "totals",
          Render.Json.Obj
            [
              ("fused_flit_hops", Render.Json.Int fused_total);
              ("unfused_flit_hops", Render.Json.Int unfused_total);
              ( "predicted_saved_flit_hops",
                Render.Json.Int
                  (List.fold_left
                     (fun acc (d : Ndp_core.Fusion.decision) ->
                       acc + d.Ndp_core.Fusion.d_pred_saved_flit_hops)
                     0 decisions) );
              ("reduction_pct", Render.Json.Float reduction_pct);
            ] );
      ]
  in
  let human () =
    let buf = Buffer.create 1024 in
    let pr fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
    pr "%s fusion decisions (%s vs %s)\n\n" fused.Pipeline.kernel_name
      fused.Pipeline.scheme_name unfused.Pipeline.scheme_name;
    if decisions = [] then pr "no fusion decisions (no eligible producer→consumer chains)\n"
    else begin
      let t =
        Ndp_prelude.Table.create
          ~header:
            [ "nest"; "chain"; "arrays"; "instances"; "elided"; "pred_saved"; "measured_delta" ]
      in
      List.iter
        (fun (d : Ndp_core.Fusion.decision) ->
          Ndp_prelude.Table.add_row t
            [
              d.Ndp_core.Fusion.d_nest;
              chain_label d;
              String.concat "," d.Ndp_core.Fusion.d_arrays;
              string_of_int d.Ndp_core.Fusion.d_instances;
              string_of_int d.Ndp_core.Fusion.d_elided_stores;
              string_of_int d.Ndp_core.Fusion.d_pred_saved_flit_hops;
              string_of_int (measured_delta d);
            ])
        decisions;
      Buffer.add_string buf (Ndp_prelude.Table.render t)
    end;
    pr "\nmovement: unfused %d -> fused %d flit-hops (%.1f%% reduction)" unfused_total
      fused_total reduction_pct;
    Buffer.contents buf
  in
  {
    f_fused = fused;
    f_unfused = unfused;
    f_doc = doc;
    f_human = human;
    f_fused_total = fused_total;
    f_unfused_total = unfused_total;
    f_reduction_pct = reduction_pct;
  }

(* ------------------------------------------------------------------ *)
(* inject                                                              *)

type inject_outcome = { i_doc : Render.Json.t; i_human : unit -> string }

let inject ?(spans = Ndp_obs.Span.none) ~spec (job : Pipeline.Job.t) =
  let config = job.Pipeline.Job.config in
  let plan =
    match job.Pipeline.Job.faults with
    | Some p -> p
    | None -> Plan.make ~mesh:(Config.mesh config) ~seed:config.Config.seed []
  in
  let repair = job.Pipeline.Job.repair in
  let obs = Ndp_obs.Sink.create ~metrics:true ~trace:false () in
  let obs = { obs with Ndp_obs.Sink.spans = spans } in
  let r = Pipeline.Job.run ~obs { job with Pipeline.Job.faults = Some plan } in
  let reg = obs.Ndp_obs.Sink.metrics in
  let doc =
    Render.Json.Obj
      [
        ("plan", plan_json plan ~spec ~repair);
        ("result", result_json r);
        ("remapped_tasks", Render.Json.Int r.Pipeline.remapped_tasks);
        ("metrics", metrics_json reg);
      ]
  in
  let human () =
    let fault_rows =
      List.filter_map
        (fun (name, sample) ->
          match sample with
          | Metrics.Counter_v v when Astring.String.is_prefix ~affix:"fault." name ->
            Some (Printf.sprintf "  %-24s %d" name v)
          | Metrics.Gauge_v v when Astring.String.is_prefix ~affix:"fault." name ->
            Some (Printf.sprintf "  %-24s %g" name v)
          | _ -> None)
        (Metrics.to_alist reg)
    in
    String.concat "\n"
      ([ "plan: " ^ Plan.describe plan; result_human r ]
      @ (if repair then
           [ Printf.sprintf "  remapped tasks     %d" r.Pipeline.remapped_tasks ]
         else [])
      @ if fault_rows = [] then [] else ("fault counters:" :: fault_rows))
  in
  { i_doc = doc; i_human = human }
