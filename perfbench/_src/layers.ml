(* Per-layer accounting for the traced run.

   Every traced operation gets its own span collector with a root "op"
   span. The benchmark opens its own spans around the calls it makes
   ("job" around [Job.run], "lint", "validate.run", "validate.serialized",
   "validate.windowed"), and [Job.run] / [replay] add their phase spans
   (parse, deps, window, fusion, schedule, simulate, replay) underneath
   when handed the collector. Times are summed per span name, both whole
   and as self time (minus the children). Counts are exact and taken in the
   first pass only, so they repeat run to run. *)

module Json = Ndp_obs.Render.Json
module Span = Ndp_obs.Span

(* Per-layer metrics: name, unit, which direction is better. Every traced
   run prints all of them; a layer a workload does not exercise reads 0. *)
let metrics =
  [
    ("ir.parse_ms", "ms", "lower");
    ("ir.deps_ms", "ms", "lower");
    ("ir.instances", "count", "lower");
    ("ir.deps_pairs", "count", "lower");
    ("core.window_ms", "ms", "lower");
    ("core.window_size_sum", "count", "higher");
    ("core.fusion_ms", "ms", "lower");
    ("core.fusion_decisions", "count", "higher");
    ("core.schedule_ms", "ms", "lower");
    ("core.tasks", "count", "lower");
    ("core.sync_arcs", "count", "lower");
    ("core.est_movement", "count", "lower");
    ("sim.simulate_ms", "ms", "lower");
    ("sim.replay_ms", "ms", "lower");
    ("sim.messages", "count", "lower");
    ("sim.tasks", "count", "lower");
    ("sim.cycles_per_ms", "cycles/ms", "higher");
    ("validate.lint_ms", "ms", "lower");
    ("validate.run_ms", "ms", "lower");
    ("validate.serialized_ms", "ms", "lower");
    ("validate.windowed_ms", "ms", "lower");
    ("validate.closure_cells", "count", "lower");
    ("serve.handle_ms", "ms", "lower");
    ("serve.render_ms", "ms", "lower");
    ("serve.io_ms", "ms", "lower");
    ("serve.cache_hit_ratio", "ratio", "higher");
    ("serve.evictions", "count", "lower");
    ("serve.bytes_out", "bytes", "lower");
    ("gc.minor_words", "words", "lower");
    ("gc.major_words", "words", "lower");
    ("obs.trace_overhead_pct", "%", "lower");
  ]

(* Span name -> the per-layer time metric it feeds. *)
let span_metric = function
  | "parse" -> Some "ir.parse_ms"
  | "deps" -> Some "ir.deps_ms"
  | "window" -> Some "core.window_ms"
  | "fusion" -> Some "core.fusion_ms"
  | "schedule" -> Some "core.schedule_ms"
  | "simulate" -> Some "sim.simulate_ms"
  | "replay" -> Some "sim.replay_ms"
  | "lint" -> Some "validate.lint_ms"
  | "validate.run" -> Some "validate.run_ms"
  | "validate.serialized" -> Some "validate.serialized_ms"
  | "validate.windowed" -> Some "validate.windowed_ms"
  | "render" -> Some "serve.render_ms"
  | _ -> None

(* Span attributes [Job.run] stamps, and the count each one feeds. *)
let attr_count = function
  | "parse", "instances" -> Some "ir.instances"
  | "deps", "deps" -> Some "ir.deps_pairs"
  | "window", "w" -> Some "core.window_size_sum"
  | "fusion", "decisions" -> Some "core.fusion_decisions"
  | _ -> None

(* Phase spans against wall time, per kind of unit (a "job" or
   "validate.run" call in process, a "serve <op>" request in the daemon).
   Enforced kinds must reconcile in aggregate. *)
type reconciled = {
  enforced : bool;
  mutable units : int;
  mutable within : int; (* phases cover 95..100% of the wall time *)
  mutable worst : float;
  mutable phase_sum_ms : float;
  mutable wall_sum_ms : float;
}

type t = {
  ms : (string, float) Hashtbl.t; (* time metric -> total ms *)
  self_ms : (string, float) Hashtbl.t; (* metric (or "other") -> self ms *)
  fixed : (string, float) Hashtbl.t; (* counts and directly set values *)
  mutable ops : int; (* traced operations the times are divided by *)
  mutable plain_ms : float; (* the same operations, untraced *)
  mutable paired_traced_ms : float;
  mutable sim_cycles : int;
  mutable sim_ms : float;
  mutable gc_ops : int;
  mutable minor_words : float;
  mutable major_words : float;
  reconciled : (string, reconciled) Hashtbl.t; (* by kind of unit *)
}

let create () =
  {
    ms = Hashtbl.create 16;
    self_ms = Hashtbl.create 16;
    fixed = Hashtbl.create 16;
    ops = 0;
    plain_ms = 0.0;
    paired_traced_ms = 0.0;
    sim_cycles = 0;
    sim_ms = 0.0;
    gc_ops = 0;
    minor_words = 0.0;
    major_words = 0.0;
    reconciled = Hashtbl.create 8;
  }

let bump tbl k v = Hashtbl.replace tbl k (v +. Option.value (Hashtbl.find_opt tbl k) ~default:0.0)

let add_ms t metric v = bump t.ms metric v

let add_self t metric v = bump t.self_ms metric v

let count t metric v = bump t.fixed metric (float_of_int v)

let set t metric v = Hashtbl.replace t.fixed metric v

let reconcile t ~enforced ~kind ~phase_ms ~wall_ms =
  let r =
    match Hashtbl.find_opt t.reconciled kind with
    | Some r -> r
    | None ->
      let r = { enforced; units = 0; within = 0; worst = 1.0; phase_sum_ms = 0.0; wall_sum_ms = 0.0 } in
      Hashtbl.replace t.reconciled kind r;
      r
  in
  let ratio = if wall_ms > 0.0 then phase_ms /. wall_ms else 1.0 in
  r.units <- r.units + 1;
  if ratio >= 0.95 && ratio <= 1.0 +. 1e-9 then r.within <- r.within + 1;
  r.worst <- Float.min r.worst ratio;
  r.phase_sum_ms <- r.phase_sum_ms +. phase_ms;
  r.wall_sum_ms <- r.wall_sum_ms +. wall_ms

(* Every enforced kind's phase spans cover at least 95% of its time. *)
let reconciles t =
  Hashtbl.fold
    (fun _ r ok -> ok && ((not r.enforced) || r.phase_sum_ms >= 0.95 *. r.wall_sum_ms))
    t.reconciled true

let reconciliation_lines t =
  Hashtbl.fold (fun k r acc -> (k, r) :: acc) t.reconciled []
  |> List.sort compare
  |> List.map (fun (kind, r) ->
         Printf.sprintf "# reconciliation %-16s %4d of %4d within 5%%, worst %.3f, phases %.1f of %.1f ms"
           kind r.within r.units r.worst r.phase_sum_ms r.wall_sum_ms)

type node = {
  id : int;
  parent : int;
  name : string;
  ms : float;
  cycles : int;
  attrs : (string * Json.t) list;
}

let nodes spans =
  let int k n = match Json.member k n with Some (Json.Int i) -> i | _ -> 0 in
  match Json.member "spans" (Span.to_json spans) with
  | Some (Json.List l) ->
    List.map
      (fun n ->
        {
          id = int "id" n;
          parent = int "parent" n;
          name = (match Json.member "name" n with Some (Json.Str s) -> s | _ -> "");
          ms =
            (match Json.member "ms" n with
            | Some (Json.Float f) -> f
            | Some (Json.Int i) -> float_of_int i
            | _ -> 0.0);
          cycles = int "cycles" n;
          attrs = (match Json.member "attrs" n with Some (Json.Obj kv) -> kv | _ -> []);
        })
      l
  | _ -> []

(* Fold one operation's span log into the totals. *)
let absorb t ~counting spans =
  let ns = nodes spans in
  let child = Hashtbl.create 16 in
  List.iter (fun n -> if n.parent >= 0 then bump child n.parent n.ms) ns;
  List.iter
    (fun n ->
      let kids = Option.value (Hashtbl.find_opt child n.id) ~default:0.0 in
      (match span_metric n.name with
      | Some metric ->
        add_ms t metric n.ms;
        add_self t metric (n.ms -. kids)
      | None -> add_self t "other" (n.ms -. kids));
      if n.name = "simulate" || n.name = "replay" then begin
        t.sim_cycles <- t.sim_cycles + n.cycles;
        t.sim_ms <- t.sim_ms +. n.ms
      end;
      if n.name = "job" || n.name = "validate.run" then
        reconcile t ~enforced:true ~kind:n.name ~phase_ms:kids ~wall_ms:n.ms;
      if counting then
        List.iter
          (fun (k, v) ->
            match (attr_count (n.name, k), v) with
            | Some metric, Json.Int i -> count t metric i
            | _ -> ())
          n.attrs)
    ns

(* One traced execution: a fresh collector under a root "op" span, and in
   the counting pass the words it allocated. Minor collections bracket the
   operation so the major-heap counter includes what it promoted. Minor
   words repeat exactly run to run; major words do not quite, because when
   the major collector forces a minor collection varies between runs.
   Returns the value and the wall time. *)
let traced t ~counting f =
  Gc.minor ();
  let spans = Span.create () in
  let minor0 = Gc.minor_words () and major0 = (Gc.quick_stat ()).Gc.major_words in
  let v, ms = Clock.timed (fun () -> Span.with_span spans "op" (fun () -> f spans)) in
  let minor1 = Gc.minor_words () in
  Gc.minor ();
  let major1 = (Gc.quick_stat ()).Gc.major_words in
  if counting then begin
    t.gc_ops <- t.gc_ops + 1;
    t.minor_words <- t.minor_words +. (minor1 -. minor0);
    t.major_words <- t.major_words +. (major1 -. major0)
  end;
  absorb t ~counting spans;
  t.ops <- t.ops + 1;
  (v, ms)

(* The same operation untraced, for the overhead figure. *)
let plain f =
  Gc.minor ();
  Clock.timed f

let pair t ~plain_ms ~traced_ms =
  t.plain_ms <- t.plain_ms +. plain_ms;
  t.paired_traced_ms <- t.paired_traced_ms +. traced_ms

let value t (name, _, _) =
  let per_op v = if t.ops = 0 then 0.0 else v /. float_of_int t.ops in
  match name with
  | "sim.cycles_per_ms" -> if t.sim_ms > 0.0 then float_of_int t.sim_cycles /. t.sim_ms else 0.0
  | "gc.minor_words" -> if t.gc_ops = 0 then 0.0 else t.minor_words /. float_of_int t.gc_ops
  | "gc.major_words" -> if t.gc_ops = 0 then 0.0 else t.major_words /. float_of_int t.gc_ops
  | "obs.trace_overhead_pct" ->
    if t.plain_ms > 0.0 then (t.paired_traced_ms /. t.plain_ms -. 1.0) *. 100.0 else 0.0
  | _ -> (
    match Hashtbl.find_opt t.fixed name with
    | Some v -> v
    | None -> per_op (Option.value (Hashtbl.find_opt t.ms name) ~default:0.0))

(* The exact counts, for the determinism comparison between passes. *)
let counts t =
  List.filter_map
    (fun (name, unit, _) ->
      if unit = "count" || name = "gc.minor_words" then Some (name, value t (name, unit, ""))
      else None)
    metrics

let layer_of metric =
  if metric = "other" then "other"
  else
    match String.index_opt metric '.' with
    | Some i -> (
      match String.sub metric 0 i with
      | "ir" -> "ndp_ir"
      | "core" -> "ndp_core"
      | "sim" -> "ndp_sim"
      | "validate" -> "ndp_analysis"
      | "serve" -> "ndp_serve"
      | l -> l)
    | None -> metric

(* One row of the self-time table: each library layer's share of the
   traced operations' wall time, and the single span metric with the most
   self time — the place a speed-up would have to come from. *)
let self_time_row t ~workload =
  let layers = [ "ndp_ir"; "ndp_core"; "ndp_sim"; "ndp_analysis"; "ndp_serve"; "other" ] in
  let total = Hashtbl.fold (fun _ v acc -> acc +. v) t.self_ms 0.0 in
  let share l =
    Hashtbl.fold (fun m v acc -> if layer_of m = l then acc +. v else acc) t.self_ms 0.0
  in
  let top =
    Hashtbl.fold
      (fun m v (bm, bv) -> if m <> "other" && v > bv then (m, v) else (bm, bv))
      t.self_ms ("-", 0.0)
  in
  let pct v = if total > 0.0 then 100.0 *. v /. total else 0.0 in
  let header =
    Printf.sprintf "%-14s %10s %s  %s" "workload" "self_ms"
      (String.concat " " (List.map (Printf.sprintf "%12s") layers))
      "top self-time metric"
  in
  let row =
    Printf.sprintf "%-14s %10.1f %s  %s (%.1f%%)" workload total
      (String.concat " " (List.map (fun l -> Printf.sprintf "%11.1f%%" (pct (share l))) layers))
      (fst top) (pct (snd top))
  in
  header ^ "\n" ^ row

(* Exact per-result counts of the compile and simulate layers. *)
let count_result t (r : Ndp_core.Pipeline.result) =
  count t "core.tasks" r.Ndp_core.Pipeline.tasks_emitted;
  count t "core.sync_arcs" r.Ndp_core.Pipeline.sync_arcs;
  count t "core.est_movement" r.Ndp_core.Pipeline.est_movement_total;
  count t "sim.messages" (Ndp_sim.Stats.messages r.Ndp_core.Pipeline.stats);
  count t "sim.tasks" (Ndp_sim.Stats.tasks r.Ndp_core.Pipeline.stats)
