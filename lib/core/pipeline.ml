module Config = Ndp_sim.Config
module Machine = Ndp_sim.Machine
module Engine = Ndp_sim.Engine
module Task = Ndp_sim.Task
module Dep = Ndp_ir.Dependence
module Loop = Ndp_ir.Loop

type window_policy = Adaptive | Fixed of int

type part_options = {
  window : window_policy;
  reuse_aware : bool;
  sync_minimize : bool;
  level_based : bool;
  balance_threshold : float option;
  ideal_data : bool;
  use_inspector : bool;
  fuse : bool;
  fuse_capacity : int option;
      (** footprint bound in bytes for one fused chain; [None] uses the
          configured L1 size, [Some 0] makes fusion the identity pass *)
}

type scheme = Default | Partitioned of part_options

let partitioned_defaults =
  {
    window = Adaptive;
    reuse_aware = true;
    sync_minimize = true;
    level_based = true;
    balance_threshold = None;
    ideal_data = false;
    use_inspector = true;
    fuse = false;
    fuse_capacity = None;
  }

type tweaks = {
  l1_boost : float;
  distance_factor : float;
  mc_overrides : (int * int) list;
  cost_scale : float;
  extra_syncs : int;
}

let no_tweaks =
  { l1_boost = 0.0; distance_factor = 1.0; mc_overrides = []; cost_scale = 1.0; extra_syncs = 0 }

(* What the schedule validator needs to re-check a compiled schedule:
   which statement instances ran, as which tasks, in which emission order,
   under which ordering regime. Captured only under [~validate:true]. *)
type schedule_trace =
  | Serialized of { t_nest : string; t_metas : Window.meta list; t_tasks : Task.t list }
      (** default scheme: one task per instance, emitted in global program
          order (every task is a barrier for the next) *)
  | Windowed of { t_nest : string; t_metas : Window.meta list; t_compiled : Window.compiled }
      (** one compiled window of the partitioned scheme *)

type result = {
  kernel_name : string;
  scheme_name : string;
  stats : Ndp_sim.Stats.t;
  energy : Ndp_sim.Energy.breakdown;
  exec_time : int;
  group_hops : int array;
  group_avg_latency : float array;
  parallelism : float array;
  group_syncs : int array;
  sync_arcs : int;
  num_instances : int;
  offload_mix : Task.op_mix;
  analyzable_fraction : float;
  predictor_accuracy : float;
  windows_chosen : (string * int) list;
  est_movement_total : int;
  tasks_emitted : int;
  remapped_tasks : int;
  node_finish : int array;
  node_busy : int array;
  fusion_decisions : Fusion.decision list;
      (** the fusion plans applied, aggregated per chain signature; empty
          unless the scheme fuses *)
  traces : schedule_trace list;
  emitted : Task.t list list;
      (** the task stream as issued to the engine (one sublist per
          [Engine.run] call, pre-tweaks); captured only with
          [~capture:true], for {!replay} *)
}

let scheme_name = function
  | Default -> "default"
  | Partitioned o ->
    let base =
      match o.window with
      | Adaptive -> "partitioned(adaptive)"
      | Fixed k -> Printf.sprintf "partitioned(w=%d)" k
    in
    if o.fuse then base ^ "+fuse" else base

(* Enumerate the statement-instance stream of a nest, in execution order,
   staged: every (instance, reference) is resolved once here
   ([Staged.stream]) and the kernel reads the flat address array. Built
   through one pre-sized array: nests reach hundreds of thousands of
   instances. *)
let instance_stream (ctx : Context.t) nest ~first_group =
  let s = Staged.stream ctx nest in
  let assignment = Baseline.assign_iterations ctx nest s in
  let stmts_per_iter = Array.length s.Staged.body in
  let n = Array.length s.Staged.envs * stmts_per_iter in
  let metas =
    Array.to_list
      (Array.init n (fun i ->
           let iter_idx = i / stmts_per_iter in
           let stmt_idx = i mod stmts_per_iter in
           let shape = s.Staged.body.(stmt_idx) in
           {
             Window.group = first_group + i;
             default_node = assignment.(iter_idx);
             inst = { Dep.stmt_idx; stmt = shape.Staged.stmt; env = s.Staged.envs.(iter_idx) };
             shape;
             addrs = s.Staged.stream_addrs;
             at = (iter_idx * s.Staged.stride) + s.Staged.offsets.(stmt_idx);
           }))
  in
  (metas, first_group + n)

let analyzable_fraction metas =
  let count (ok, total) (m : Window.meta) =
    let affine = m.Window.shape.Staged.affine in
    (Array.fold_left (fun n a -> if a then n + 1 else n) ok affine, total + Array.length affine)
  in
  let ok, total = List.fold_left count (0, 0) metas in
  if total = 0 then 1.0 else float_of_int ok /. float_of_int total

(* At most one idle (machine, engine) pair per domain, left by the last
   {!replay}. Building a machine allocates every cache's tag and stamp
   arrays (~160 K words at the default shape), so a run takes the pair
   when its shape fits and resets it in place ({!Machine.reset},
   {!Engine.reset}): a reset pair is indistinguishable from a fresh one.
   Per domain, so pool workers never share one; a run holds its pair
   outside the slot, so nested or overlapping runs on one domain simply
   build their own. *)
let idle : (Machine.t * Engine.t) option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

(* Place [kernel]'s hot ranges per memory mode: every machine a run or a
   static analysis of [kernel] reads addresses off starts here. *)
let place_hot_ranges machine config kernel =
  match config.Config.memory_mode with
  | Config.Flat ->
    Machine.set_hot_ranges machine (Kernel.hot_ranges kernel ~budget:config.Config.mcdram_capacity)
  | Config.Hybrid ->
    Machine.set_hot_ranges machine
      (Kernel.hot_ranges kernel ~budget:(config.Config.mcdram_capacity / 2))
  | Config.Cache_mode -> ()

(* The machine and engine a run of [kernel] simulates on: hot ranges
   placed, then the cost-model tweaks applied. Compilation and replay both
   start here, so a replayed schedule sees the capture run's machine. *)
let make_machine ?faults ~obs ~config ~tweaks kernel =
  let slot = Domain.DLS.get idle in
  let pair = !slot in
  slot := None;
  let machine, engine =
    match pair with
    | Some (machine, engine) when Config.same_shape (Machine.config machine) config ->
      Machine.reset ~obs ?faults machine config;
      Engine.reset ~obs ?faults engine;
      (machine, engine)
    | Some _ | None ->
      let machine = Machine.create ~obs ?faults config in
      (machine, Engine.create ~obs ?faults machine)
  in
  place_hot_ranges machine config kernel;
  Machine.set_l1_boost machine tweaks.l1_boost;
  Ndp_sim.Network.set_distance_factor (Machine.network machine) tweaks.distance_factor;
  Machine.set_mc_overrides machine tweaks.mc_overrides;
  Engine.set_tweaks engine ~cost_scale:tweaks.cost_scale ~extra_syncs:tweaks.extra_syncs;
  (machine, engine)

(* Put a finished replay's pair back for the next run on this domain. An
   enabled registry or a sampling log holds closures that read the
   machine's caches and the engine's counters, so an observed pair is
   left to the collector instead. *)
let release ~obs pair =
  if
    not
      (Ndp_obs.Metrics.enabled obs.Ndp_obs.Sink.metrics
      || Ndp_obs.Trace.interval obs.Ndp_obs.Sink.trace > 0)
  then Domain.DLS.get idle := Some pair

let make_context ?repair ~machine scheme kernel =
  let config = Machine.config machine in
  let opts = match scheme with Partitioned o -> o | Default -> partitioned_defaults in
  let insp = Kernel.inspector kernel in
  if opts.use_inspector then Ndp_ir.Inspector.run insp;
  let address_of = Kernel.address_of kernel in
  let runtime_resolve = Ndp_ir.Inspector.runtime_resolver insp ~address_of in
  let ctx_options =
    {
      Context.reuse_aware = opts.reuse_aware;
      sync_minimize = opts.sync_minimize;
      level_based = opts.level_based;
      balance_threshold =
        Option.value opts.balance_threshold ~default:config.Config.balance_threshold;
      ideal_location = opts.ideal_data;
    }
  in
  Context.create ~machine ~runtime_resolve
    ~indirect_known:(opts.ideal_data || Ndp_ir.Inspector.has_run insp)
    ~arrays:kernel.Kernel.program.Loop.arrays ?repair ~options:ctx_options ()

let line_of config va = va / config.Config.line_bytes

(* The record request behind every entry point: one value carries every
   input of a compile+simulate run, so jobs can be hashed
   (Ndp_serve.Key), batched ([run_batch]) and shipped over a wire
   (Ndp_serve.Protocol) without re-encoding eight optionals each time. *)
type job = {
  scheme : scheme;
  kernel : Kernel.t;
  config : Config.t;
  tweaks : tweaks;
  faults : Ndp_fault.Plan.t option;
  repair : bool;
  validate : bool;
  capture : bool;
}

let job_make ?(config = Config.default) ?(tweaks = no_tweaks) ?faults ?(repair = false)
    ?(validate = false) ?(capture = false) scheme kernel =
  { scheme; kernel; config; tweaks; faults; repair; validate; capture }

let run_job ?(obs = Ndp_obs.Sink.none) (j : job) =
  let { scheme; kernel; config; tweaks; faults; repair; validate; capture } = j in
  let repair_plan = if repair then faults else None in
  let spans = obs.Ndp_obs.Sink.spans in
  let sp_parse = Ndp_obs.Span.enter spans "parse" in
  (* A job takes an idle pair when one fits but does not put it back.
     Jobs alternate shapes (cluster and memory modes), and a fresh pair
     allocates ~20 K more minor words than a reset one, so a job's
     allocation would depend on which job ran before it on the domain —
     the repeatability perfbench's traced compile_suite checks. *)
  let machine, engine = make_machine ?faults ~obs ~config ~tweaks kernel in
  let ctx = make_context ?repair:repair_plan ~machine scheme kernel in
  let traces = ref [] in
  let emitted = ref [] in
  let streams, total_groups =
    List.fold_left
      (fun (acc, g) nest ->
        let metas, g' = instance_stream ctx nest ~first_group:g in
        ((nest, metas) :: acc, g'))
      ([], 0) kernel.Kernel.program.Loop.nests
  in
  let streams = List.rev streams in
  let ledger = obs.Ndp_obs.Sink.ledger in
  let ledger_on = Ndp_obs.Ledger.enabled ledger in
  (* Predicted-cost hook: [record_predicted group movement] files the
     compiler's [size x distance] estimate (in link units, one cache line
     per unit) under the group's statement, normalized to the flit-hop
     unit the ledger measures. Recording happens here — from the reports
     of the windows actually emitted — and never inside [Window.compile],
     which also runs on forked contexts during window-size estimation. *)
  let record_predicted =
    if not ledger_on then fun _ _ -> ()
    else begin
      let stmt_of_group = Array.make (Int.max 1 total_groups) 0 in
      List.iter
        (fun ((nest : Loop.nest), metas) ->
          List.iter
            (fun (m : Window.meta) ->
              stmt_of_group.(m.Window.group) <-
                Ndp_obs.Ledger.stmt_id ledger ~nest:nest.Loop.nest_name
                  ~stmt:m.Window.inst.Dep.stmt_idx)
            metas)
        streams;
      Ndp_obs.Ledger.set_group_resolver ledger (fun g ->
          if g >= 0 && g < total_groups then stmt_of_group.(g) else 0);
      let ranges =
        Array.of_list
          (List.sort compare
             (List.map
                (fun (d : Ndp_ir.Array_decl.t) ->
                  (d.base_va, d.base_va + (d.length * d.elem_size), Ndp_obs.Ledger.array_id ledger d.name))
                kernel.Kernel.program.Loop.arrays))
      in
      Ndp_obs.Ledger.set_va_resolver ledger (fun va ->
          let lo = ref 0 and hi = ref (Array.length ranges) in
          let found = ref 0 in
          while !lo < !hi do
            let mid = (!lo + !hi) / 2 in
            let base, limit, id = ranges.(mid) in
            if va < base then hi := mid
            else if va >= limit then lo := mid + 1
            else begin
              found := id;
              lo := !hi
            end
          done;
          !found);
      let line_flits = Config.flits_of_bytes config config.Config.line_bytes in
      fun group movement ->
        Ndp_obs.Ledger.predict ledger ~stmt:stmt_of_group.(group)
          ~flit_hops:(movement * line_flits)
    end
  in
  let parallelism = Array.make total_groups 1.0 in
  let group_syncs = Array.make total_groups 0 in
  let est_movement_total = ref 0 in
  let sync_arcs = ref 0 in
  let offload = ref Task.zero_mix in
  let windows_chosen = ref [] in
  let tasks_emitted = ref 0 in
  let fusion_decisions = ref [] in
  (* Arrays fusion must never elide: referenced by more than one nest
     (the intermediate outlives its nest), or read through an index-array
     indirection anywhere (those reads are invisible to the dependence
     analysis, which buckets by the referenced data array). *)
  let shared_arrays =
    let counts = Hashtbl.create 16 in
    List.iter
      (fun (nest : Loop.nest) ->
        let local = Hashtbl.create 16 in
        List.iter
          (fun (s : Ndp_ir.Stmt.t) ->
            List.iter
              (fun (r : Ndp_ir.Reference.t) ->
                Hashtbl.replace local r.Ndp_ir.Reference.array ();
                let rec index_arrays (sub : Ndp_ir.Subscript.t) =
                  match sub with
                  | Ndp_ir.Subscript.Indirect { index_array; inner } ->
                    Hashtbl.replace counts index_array 2;
                    index_arrays inner
                  | Ndp_ir.Subscript.Affine _ -> ()
                in
                index_arrays r.Ndp_ir.Reference.subscript)
              (Ndp_ir.Stmt.output s :: Ndp_ir.Stmt.inputs s))
          nest.Loop.body;
        Hashtbl.iter
          (fun a () ->
            Hashtbl.replace counts a (1 + Option.value (Hashtbl.find_opt counts a) ~default:0))
          local)
      kernel.Kernel.program.Loop.nests;
    let shared = Hashtbl.create 16 in
    Hashtbl.iter (fun a c -> if c > 1 then Hashtbl.replace shared a ()) counts;
    shared
  in
  Ndp_obs.Span.attr_int spans sp_parse "instances" total_groups;
  Ndp_obs.Span.exit spans sp_parse;
  (match scheme with
  | Default ->
    List.iter
      (fun ((nest : Loop.nest), metas) ->
        (* The default scheme interleaves per-instance compilation with
           execution, so it gets one coarse per-nest span rather than the
           partitioned scheme's phase breakdown. *)
        let sp_sim = Ndp_obs.Span.enter spans "simulate" in
        Ndp_obs.Span.attr_str spans sp_sim "nest" nest.Loop.nest_name;
        let c0 = Ndp_sim.Stats.finish_time (Engine.stats engine) in
        let nest_tasks = ref [] in
        List.iter
          (fun (m : Window.meta) ->
            let task =
              Baseline.compile_instance ctx ~group:m.Window.group ~node:m.Window.default_node m
            in
            if ledger_on then
              record_predicted m.Window.group
                (Splitter.default_movement ctx ~store_node:m.Window.default_node m);
            incr tasks_emitted;
            if validate then nest_tasks := task :: !nest_tasks;
            let batch = [ task ] in
            if capture then emitted := batch :: !emitted;
            Engine.run engine batch)
          metas;
        if validate then
          traces :=
            Serialized
              { t_nest = nest.Loop.nest_name; t_metas = metas; t_tasks = List.rev !nest_tasks }
            :: !traces;
        let c1 = Ndp_sim.Stats.finish_time (Engine.stats engine) in
        Ndp_obs.Span.exit ~cycles:(c1 - c0) spans sp_sim)
      streams
  | Partitioned opts ->
    List.iter
      (fun ((nest : Loop.nest), metas) ->
        let sp_w = Ndp_obs.Span.enter spans "window" in
        Ndp_obs.Span.attr_str spans sp_w "nest" nest.Loop.nest_name;
        let w =
          match opts.window with
          | Fixed k -> Int.max 1 k
          | Adaptive -> Window.choose_size ctx metas ~max:config.Config.max_window
        in
        Ndp_obs.Span.attr_int spans sp_w "w" w;
        Ndp_obs.Span.exit spans sp_w;
        windows_chosen := (nest.Loop.nest_name, w) :: !windows_chosen;
        let pending : (int, bool Queue.t) Hashtbl.t = Hashtbl.create 64 in
        let push_prediction (va, p) =
          let line = line_of config va in
          let q =
            match Hashtbl.find_opt pending line with
            | Some q -> q
            | None ->
              let q = Queue.create () in
              Hashtbl.replace pending line q;
              q
          in
          Queue.push p q
        in
        let pop_prediction line =
          match Hashtbl.find_opt pending line with
          | Some q when not (Queue.is_empty q) -> Some (Queue.pop q)
          | _ -> None
        in
        let on_load ~va level =
          let line = line_of config va in
          match level with
          | Machine.L1 ->
            (* Satisfied by the L1: the L2 prediction went untested. *)
            ignore (pop_prediction line)
          | Machine.L2 | Machine.Memory -> (
            let hit = level = Machine.L2 in
            match pop_prediction line with
            | Some predicted ->
              Ndp_mem.Miss_predictor.confirm ctx.Context.predictor ~addr:va ~predicted ~hit
            | None -> Ndp_mem.Miss_predictor.note_access ctx.Context.predictor va)
        in
        let nest_tasks = ref [] in
        (* Only a dependence whose two ends share a window becomes a sync
           arc or a Result operand, so each chunk is analyzed on its own
           (the analysis is pairwise: a chunk's analysis is the nest's
           sliced to the chunk, in the same order). Fusion is the
           exception: its first-kill and only-live-reader rules need every
           later access in view, so a fused nest is analyzed whole and the
           in-chunk deps are cut from that list ([Dep.slice]). Fusion and
           fault repair do not compose: repair may remap a chain member
           off its node, stranding the L1-resident intermediate. *)
        let chunks = Array.of_list (Window.chunk metas w) in
        let sp_d = Ndp_obs.Span.enter spans "deps" in
        Ndp_obs.Span.attr_str spans sp_d "nest" nest.Loop.nest_name;
        let nest_deps =
          if opts.fuse && repair_plan = None then Some (Staged.deps ctx metas) else None
        in
        let chunk_deps =
          match nest_deps with
          | Some deps -> Dep.slice ~chunk:w ~n:(List.length metas) deps
          | None -> Array.map (Staged.deps ctx) chunks
        in
        Ndp_obs.Span.attr_int spans sp_d "deps"
          (match nest_deps with
          | Some deps -> List.length deps
          | None -> Array.fold_left (fun acc ds -> acc + List.length ds) 0 chunk_deps);
        Ndp_obs.Span.exit spans sp_d;
        (* The fusion plan is computed once per nest against the full
           dependence analysis and sliced per chunk below. *)
        let fusion_slots =
          Option.map
            (fun deps ->
              let sp_f = Ndp_obs.Span.enter spans "fusion" in
              Ndp_obs.Span.attr_str spans sp_f "nest" nest.Loop.nest_name;
              let default_node =
                Array.of_list (List.map (fun (m : Window.meta) -> m.Window.default_node) metas)
              in
              let capacity = Option.value opts.fuse_capacity ~default:config.Config.l1_size in
              let slots, decs =
                Fusion.plan ctx ~nest:nest.Loop.nest_name ~window:w ~capacity
                  ~shared:shared_arrays ~default_node (Array.of_list metas) (Array.of_list deps)
              in
              fusion_decisions := !fusion_decisions @ decs;
              Ndp_obs.Span.attr_int spans sp_f "decisions" (List.length decs);
              Ndp_obs.Span.exit spans sp_f;
              slots)
            nest_deps
        in
        let sp_s = Ndp_obs.Span.enter spans "schedule" in
        Ndp_obs.Span.attr_str spans sp_s "nest" nest.Loop.nest_name;
        Array.iteri
          (fun ci window_metas ->
            let lo = ci * w in
            let fusion =
              Option.map (fun s -> Array.sub s lo (List.length window_metas)) fusion_slots
            in
            let compiled = Window.compile ~deps:chunk_deps.(ci) ?fusion ctx window_metas in
            if validate then
              traces :=
                Windowed
                  { t_nest = nest.Loop.nest_name; t_metas = window_metas; t_compiled = compiled }
                :: !traces;
            List.iter push_prediction (Lazy.force compiled.Window.predictions);
            List.iter
              (fun (r : Window.stmt_report) ->
                parallelism.(r.Window.r_group) <- float_of_int r.Window.parallelism;
                group_syncs.(r.Window.r_group) <- r.Window.syncs;
                record_predicted r.Window.r_group r.Window.est_movement;
                est_movement_total := !est_movement_total + r.Window.est_movement;
                offload := Task.mix_add !offload r.Window.offload_mix)
              (Lazy.force compiled.Window.reports);
            sync_arcs := !sync_arcs + compiled.Window.sync_count;
            let tasks = Lazy.force compiled.Window.tasks in
            tasks_emitted := !tasks_emitted + List.length tasks;
            nest_tasks := tasks :: !nest_tasks)
          chunks;
        (* Emit the whole nest level-major: every node first runs all of
           its dependency-free subcomputations across the nest's windows,
           then the joins. This is the decoupling the paper's code
           generation achieves by interleaving a node's own iterations
           with the subcomputations it hosts for others (Section 4.5) —
           producers finish long before consumers need them, so sync
           waits do not convoy. The stable sort keeps producers before
           consumers within a level chain. *)
        let ordered =
          let arr = Array.of_list (List.concat (List.rev !nest_tasks)) in
          Array.stable_sort (fun ((_ : Task.t), la) ((_ : Task.t), lb) -> compare la lb) arr;
          arr
        in
        Ndp_obs.Span.attr_int spans sp_s "tasks" (Array.length ordered);
        Ndp_obs.Span.exit spans sp_s;
        let sp_sim = Ndp_obs.Span.enter spans "simulate" in
        Ndp_obs.Span.attr_str spans sp_sim "nest" nest.Loop.nest_name;
        let c0 = Ndp_sim.Stats.finish_time (Engine.stats engine) in
        let batch = Array.fold_right (fun (t, _) acc -> t :: acc) ordered [] in
        if capture then emitted := batch :: !emitted;
        Engine.run ~on_load engine batch;
        let c1 = Ndp_sim.Stats.finish_time (Engine.stats engine) in
        Ndp_obs.Span.exit ~cycles:(c1 - c0) spans sp_sim)
      streams);
  let stats = Engine.stats engine in
  (* End every counter series at the run's last cycle, boundary or not. *)
  Ndp_obs.Trace.flush obs.Ndp_obs.Sink.trace ~now:(Ndp_sim.Stats.finish_time stats);
  let group_hops = Array.init total_groups (fun g -> Engine.group_hops engine g) in
  let group_avg_latency =
    Array.init total_groups (fun g ->
        let sum, count = Engine.group_latency engine g in
        if count = 0 then 0.0 else float_of_int sum /. float_of_int count)
  in
  let all_metas = List.concat_map snd streams in
  let reg = obs.Ndp_obs.Sink.metrics in
  if Ndp_obs.Metrics.enabled reg then
    List.iter
      (fun (nest_name, w) ->
        Ndp_obs.Metrics.set_gauge
          (Ndp_obs.Metrics.gauge reg (Printf.sprintf "core.window_size{nest=%s}" nest_name))
          (float_of_int w))
      (List.rev !windows_chosen);
  if repair_plan <> None then
    Ndp_obs.Metrics.add
      (Ndp_obs.Metrics.counter ~fresh:true reg "fault.remapped_tasks")
      ctx.Context.remapped_tasks;
  {
    kernel_name = kernel.Kernel.name;
    scheme_name = scheme_name scheme;
    stats;
    energy = Ndp_sim.Energy.of_stats stats;
    exec_time = Ndp_sim.Stats.finish_time stats;
    group_hops;
    group_avg_latency;
    parallelism;
    group_syncs;
    sync_arcs = !sync_arcs;
    num_instances = total_groups;
    offload_mix = !offload;
    analyzable_fraction = analyzable_fraction all_metas;
    predictor_accuracy = Ndp_mem.Miss_predictor.accuracy ctx.Context.predictor;
    windows_chosen = List.rev !windows_chosen;
    est_movement_total = !est_movement_total;
    tasks_emitted = !tasks_emitted;
    remapped_tasks = ctx.Context.remapped_tasks;
    node_finish = Engine.node_clocks engine;
    node_busy = Engine.node_busy engine;
    fusion_decisions = !fusion_decisions;
    traces = List.rev !traces;
    emitted = List.rev !emitted;
  }

module Job = struct
  type t = job = {
    scheme : scheme;
    kernel : Kernel.t;
    config : Config.t;
    tweaks : tweaks;
    faults : Ndp_fault.Plan.t option;
    repair : bool;
    validate : bool;
    capture : bool;
  }

  let make = job_make
  let run = run_job
end

(* --- Batched simulation ------------------------------------------------ *)

(* Each job builds its own machine, engine, context and inspector, and a
   [Kernel.t] is immutable, so jobs share no mutable state and each result
   is byte-identical to the corresponding solo [Job.run]. *)
let run_batch ?pool jobs =
  let run_one j = Job.run j in
  match pool with
  | None -> List.map run_one jobs
  | Some pool -> Ndp_prelude.Pool.parallel_map pool run_one jobs

type replayed = {
  rp_stats : Ndp_sim.Stats.t;
  rp_energy : Ndp_sim.Energy.breakdown;
  rp_exec_time : int;
  rp_node_finish : int array;
  rp_node_busy : int array;
}

(* Re-simulate a captured task stream on a fresh machine, skipping
   compilation entirely. The schedule is the one compiled under the
   capture run's config; replaying it under a different cost model asks
   "how would this fixed schedule perform on that hardware" — the
   design-space question a sweep explores. Address-shape parameters
   (mesh dimensions, line size, page size) must match the capture config,
   since task operands carry resolved virtual addresses. *)
let replay ?(config = Config.default) ?(tweaks = no_tweaks) ?(obs = Ndp_obs.Sink.none) kernel
    emitted =
  let ((_, engine) as pair) = make_machine ~obs ~config ~tweaks kernel in
  let spans = obs.Ndp_obs.Sink.spans in
  let sp = Ndp_obs.Span.enter spans "replay" in
  List.iter (Engine.run engine) emitted;
  let stats = Engine.stats engine in
  Ndp_obs.Span.exit ~cycles:(Ndp_sim.Stats.finish_time stats) spans sp;
  Ndp_obs.Trace.flush obs.Ndp_obs.Sink.trace ~now:(Ndp_sim.Stats.finish_time stats);
  let replayed =
    {
      rp_stats = stats;
      rp_energy = Ndp_sim.Energy.of_stats stats;
      rp_exec_time = Ndp_sim.Stats.finish_time stats;
      rp_node_finish = Engine.node_clocks engine;
      rp_node_busy = Engine.node_busy engine;
    }
  in
  release ~obs pair;
  replayed

(* Static analysis simulates nothing: it needs a machine with the hot
   ranges placed, not an engine, and it leaves the domain's idle pair to
   the next run. *)
let static_context ?(config = Config.default) scheme kernel =
  let machine = Machine.create config in
  place_hot_ranges machine config kernel;
  make_context ~machine scheme kernel

let nest_stream = instance_stream

let profile_page_accesses ?(config = Config.default) kernel =
  let ctx = static_context ~config Default kernel in
  let acc = ref [] in
  let _ =
    List.fold_left
      (fun g nest ->
        let metas, g' = instance_stream ctx nest ~first_group:g in
        List.iter
          (fun (m : Window.meta) ->
            for k = 0 to Array.length m.Window.shape.Staged.refs - 1 do
              let va = Staged.runtime_va m k in
              if va <> Staged.none then
                acc := (Data_mapping.page_of ctx va, m.Window.default_node) :: !acc
            done)
          metas;
        g')
      0 kernel.Kernel.program.Loop.nests
  in
  !acc
