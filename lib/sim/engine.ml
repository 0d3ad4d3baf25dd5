module Metrics = Ndp_obs.Metrics
module Trace = Ndp_obs.Trace
module Ledger = Ndp_obs.Ledger

(* Task and group ids are dense small integers (allocated by counters in
   the compiler context / instance streamer), so per-task bookkeeping
   lives in growable int arrays instead of hashtables: [Engine.run]
   performs several lookups per operand and this is the simulator's
   hottest loop. *)
module Slots = struct
  type t = { mutable data : int array; absent : int }

  let create absent = { data = Array.make 256 absent; absent }

  (* Cleared in place at the capacity it has grown to. Growth past 256
     entries allocates on the major heap only, so keeping the capacity
     leaves a run's minor allocation unchanged, while re-growing five
     tables from 256 entries on every run was most of a replay's major
     garbage (and raised a replay loop's peak heap by ~10%). *)
  let reset t = Array.fill t.data 0 (Array.length t.data) t.absent

  let ensure t i =
    let n = Array.length t.data in
    if i >= n then begin
      let n' = ref (n * 2) in
      while i >= !n' do
        n' := !n' * 2
      done;
      let grown = Array.make !n' t.absent in
      Array.blit t.data 0 grown 0 n;
      t.data <- grown
    end

  let set t i v =
    ensure t i;
    t.data.(i) <- v

  let get t i = if i >= 0 && i < Array.length t.data then t.data.(i) else t.absent
end

type t = {
  machine : Machine.t;
  mutable stats : Stats.t;
  mutable faults : Ndp_fault.Plan.t option;
  mutable cost_scale : float;
  mutable extra_syncs : int;
  node_free : int array;
  node_busy : int array;
  finished_node : Slots.t; (* task id -> executing node, -1 = not yet run *)
  finished_at : Slots.t; (* task id -> finish cycle *)
  group_hops : Slots.t;
  group_lat_sum : Slots.t;
  group_lat_count : Slots.t;
  (* Per-task working state of [exec]'s operand walk: record fields rather than
     refs captured by closures, so a task allocates nothing. *)
  mutable load_count : int;
  mutable longest : int;
  mutable total_latency : int;
  mutable trace : Trace.t;
  mutable ledger : Ledger.t;
  mutable result_array : int; (* interned ledger array id for forwarded partials *)
  mutable m_tasks : Metrics.vec; (* core.tasks{node} *)
  mutable m_busy : Metrics.vec; (* core.busy_cycles{node} *)
  mutable m_syncs : Metrics.vec; (* core.syncs{node} *)
  mutable m_stall_cycles : Metrics.counter; (* fault.stall_cycles *)
}

let node_label i = Printf.sprintf "node=%d" i

let reset ?(obs = Ndp_obs.Sink.none) ?faults t =
  let n = Array.length t.node_free in
  let reg = obs.Ndp_obs.Sink.metrics in
  let log = obs.Ndp_obs.Sink.trace in
  (* Fresh counters per run: a result keeps the stats of its own run even
     after the engine is reset for the next one. *)
  let stats = Stats.create () in
  t.stats <- stats;
  if Metrics.enabled reg then
    Stats.publish stats (fun name read -> Metrics.counter_fn reg ("sim." ^ name) read);
  t.faults <- faults;
  t.cost_scale <- 1.0;
  t.extra_syncs <- 0;
  Array.fill t.node_free 0 n 0;
  Array.fill t.node_busy 0 n 0;
  Slots.reset t.finished_node;
  Slots.reset t.finished_at;
  Slots.reset t.group_hops;
  Slots.reset t.group_lat_sum;
  Slots.reset t.group_lat_count;
  if Trace.interval log > 0 then begin
    (* Counter instruments: closures over counters the engine already
       maintains, sampled on the finish-time envelope as tasks retire. *)
    Trace.register log "noc.flit_hops" (fun () -> Stats.hops t.stats);
    Trace.register log "noc.messages" (fun () -> Stats.messages t.stats);
    Trace.register log "core.tasks" (fun () -> Stats.tasks t.stats);
    Trace.register log "mem.l1_misses" (fun () -> Stats.l1_misses t.stats);
    Trace.register log "mem.l2_misses" (fun () -> Stats.l2_misses t.stats);
    Trace.register log "sim.syncs" (fun () -> Stats.syncs t.stats)
  end;
  t.trace <- log;
  t.ledger <- obs.Ndp_obs.Sink.ledger;
  t.result_array <- Ledger.array_id obs.Ndp_obs.Sink.ledger "(result)";
  t.m_tasks <- Metrics.vec ~fresh:true reg "core.tasks" ~size:n ~label:node_label;
  t.m_busy <- Metrics.vec ~fresh:true reg "core.busy_cycles" ~size:n ~label:node_label;
  t.m_syncs <- Metrics.vec ~fresh:true reg "core.syncs" ~size:n ~label:node_label;
  t.m_stall_cycles <-
    (* Registered only under a plan, keeping fault-free dumps unchanged. *)
    Metrics.counter ~fresh:true
      (match faults with Some _ -> reg | None -> Metrics.none)
      "fault.stall_cycles"

let create ?obs ?faults machine =
  let n = Ndp_noc.Mesh.size (Machine.mesh machine) in
  let dead = Metrics.vec Metrics.none "" ~size:0 ~label:node_label in
  let t =
    {
      machine;
      stats = Stats.create ();
      faults = None;
      cost_scale = 1.0;
      extra_syncs = 0;
      node_free = Array.make n 0;
      node_busy = Array.make n 0;
      finished_node = Slots.create (-1);
      finished_at = Slots.create 0;
      group_hops = Slots.create 0;
      group_lat_sum = Slots.create 0;
      group_lat_count = Slots.create 0;
      load_count = 0;
      longest = 0;
      total_latency = 0;
      trace = Trace.none;
      ledger = Ledger.none;
      result_array = 0;
      m_tasks = dead;
      m_busy = dead;
      m_syncs = dead;
      m_stall_cycles = Metrics.counter Metrics.none "";
    }
  in
  reset ?obs ?faults t;
  t

let set_tweaks t ~cost_scale ~extra_syncs =
  t.cost_scale <- cost_scale;
  t.extra_syncs <- extra_syncs

let machine t = t.machine

let stats t = t.stats

let no_load ~va:_ _ = ()

(* Arrival of a [Result] operand: a partial computed on this node is ready
   at its producer's finish; one from another node crosses the network. *)
let result_arrival t (task : Task.t) producer bytes =
  let node = Slots.get t.finished_node producer in
  if node < 0 then invalid_arg "Engine.run: tasks not in producer-before-consumer order";
  let finish = Slots.get t.finished_at producer in
  if node = task.node then finish
  else begin
    Ledger.enter_array t.ledger t.result_array;
    Network.send (Machine.network t.machine) ~time:finish ~src:node ~dst:task.node ~bytes
      ~stats:t.stats
  end

(* Two direct passes — all loads, then all results, each in operand order.
   Loads overlap up to the MSHR bound: with [k] outstanding misses the
   task's memory time is at least the longest access and at least the
   summed latencies divided by [k]. The load pass leaves its count,
   longest arrival and summed latency in the engine's working fields. *)
let rec issue_loads t on_load (task : Task.t) issue = function
  | [] -> ()
  | Task.Load { va; bytes } :: rest ->
    let a = Machine.load t.machine ~node:task.node ~va ~bytes ~time:issue ~stats:t.stats in
    on_load ~va (Machine.last_level t.machine);
    t.load_count <- t.load_count + 1;
    if a > t.longest then t.longest <- a;
    t.total_latency <- t.total_latency + (a - issue);
    issue_loads t on_load task issue rest
  | Task.Result _ :: rest -> issue_loads t on_load task issue rest

let rec await_results t (task : Task.t) ready = function
  | [] -> ready
  | Task.Result { producer; bytes } :: rest ->
    await_results t task (Int.max ready (result_arrival t task producer bytes)) rest
  | Task.Load _ :: rest -> await_results t task ready rest

let exec t on_load (task : Task.t) =
  let config = Machine.config t.machine in
  (* The counterfactual tweaks (S3 cost scaling, S4 extra syncs) apply
     here rather than on copies of the task. *)
  let cost =
    if t.cost_scale > 1.0 then Int.max 1 (int_of_float (float_of_int task.cost /. t.cost_scale))
    else task.cost
  in
  let syncs = task.syncs + t.extra_syncs in
  Ledger.enter_group t.ledger task.group;
  let hops_before = Stats.hops t.stats in
  let lat_before = Stats.latency_sum t.stats in
  let msgs_before = Stats.messages t.stats in
  let issue = t.node_free.(task.node) in
  (* A stalled node issues nothing inside its fault windows: push the
     issue cycle past them and account the lost time. *)
  let issue =
    match t.faults with
    | None -> issue
    | Some plan ->
      let resumed = Ndp_fault.Plan.stall_until plan ~node:task.node ~time:issue in
      if resumed > issue then Metrics.add t.m_stall_cycles (resumed - issue);
      resumed
  in
  t.load_count <- 0;
  t.longest <- issue;
  t.total_latency <- 0;
  issue_loads t on_load task issue task.operands;
  let load_count = t.load_count in
  let load_ready =
    Int.max t.longest (issue + (t.total_latency / Int.max 1 config.Config.outstanding_loads))
  in
  let result_ready = await_results t task issue task.operands in
  let data_ready = Int.max load_ready result_ready in
  Stats.add_load_wait t.stats (load_ready - issue);
  Stats.add_result_wait t.stats (Int.max 0 (result_ready - load_ready));
  let start = data_ready + (syncs * config.Config.sync_cycles) in
  let finish = start + (cost * config.Config.op_cycles) in
  (match task.store with
  | Some (va, bytes) ->
    if task.store_local then
      ignore (Machine.store_local t.machine ~node:task.node ~va ~bytes ~time:finish ~stats:t.stats)
    else ignore (Machine.store t.machine ~node:task.node ~va ~bytes ~time:finish ~stats:t.stats)
  | None -> ());
  (* The core issues its loads, then overlaps part of the wait with the
     next tasks in its queue (outstanding-miss parallelism); the
     unhidden fraction plus sync and compute time occupies the core. *)
  (* Waiting on a remote partial result does not occupy the core: the
     generated per-node program runs other ready subcomputations in the
     meantime, and the synchronization handshake itself is charged via
     [sync_cycles]. The wait still delays this task's [finish], so
     dependence chains pay full latency. *)
  let occupancy =
    (load_count * config.Config.load_issue_cycles)
    + (syncs * config.Config.sync_cycles)
    + (cost * config.Config.op_cycles)
    + int_of_float ((1.0 -. config.Config.mlp_overlap) *. float_of_int (load_ready - issue))
  in
  t.node_free.(task.node) <- issue + occupancy;
  t.node_busy.(task.node) <- t.node_busy.(task.node) + occupancy;
  Slots.set t.finished_node task.id task.node;
  Slots.set t.finished_at task.id finish;
  Stats.incr_tasks t.stats;
  Stats.add_ops t.stats cost;
  Stats.add_syncs t.stats syncs;
  Stats.note_finish t.stats finish;
  Metrics.vadd t.m_tasks task.node 1;
  Metrics.vadd t.m_busy task.node occupancy;
  Metrics.vadd t.m_syncs task.node syncs;
  Trace.task t.trace ~name:task.label ~node:task.node ~start ~finish ~id:task.id
    ~group:task.group;
  if syncs > 0 then
    Trace.sync t.trace ~node:task.node ~ts:data_ready ~producer:(-1) ~consumer:task.id;
  Trace.tick t.trace ~now:(Stats.finish_time t.stats);
  let g = task.group in
  Slots.set t.group_hops g (Slots.get t.group_hops g + (Stats.hops t.stats - hops_before));
  Slots.set t.group_lat_sum g
    (Slots.get t.group_lat_sum g + (Stats.latency_sum t.stats - lat_before));
  Slots.set t.group_lat_count g
    (Slots.get t.group_lat_count g + (Stats.messages t.stats - msgs_before))

let run ?(on_load = no_load) t tasks =
  let rec go = function
    | [] -> ()
    | task :: rest ->
      exec t on_load task;
      go rest
  in
  go tasks

let group_hops t group = Slots.get t.group_hops group

let group_latency t group = (Slots.get t.group_lat_sum group, Slots.get t.group_lat_count group)

let finish_of t id =
  if Slots.get t.finished_node id < 0 then None else Some (Slots.get t.finished_at id)

let elapsed t = Array.fold_left max 0 t.node_free

let node_clocks t = Array.copy t.node_free

let node_busy t = Array.copy t.node_busy
