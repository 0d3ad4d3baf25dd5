module Metrics = Ndp_obs.Metrics
module Trace = Ndp_obs.Trace
module Ledger = Ndp_obs.Ledger
module Timeline = Ndp_obs.Timeline

type exec_record = { node : int; start : int; finish : int; group : int }

(* Task and group ids are dense small integers (allocated by counters in
   the compiler context / instance streamer), so per-task bookkeeping
   lives in growable arrays instead of hashtables: [Engine.run] performs
   several lookups per operand and this is the simulator's hottest loop. *)
module Slots = struct
  type 'a t = { mutable data : 'a array; absent : 'a }

  let create absent = { data = Array.make 256 absent; absent }

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

(* Execution spans of one statement group, packed [start0; finish0;
   start1; ...] in a growable array: span recording is once per task, and
   the cons-list encoding this replaced allocated on every append. *)
type spans = { mutable s_data : int array; mutable s_len : int (* ints used *) }

let empty_spans = { s_data = [||]; s_len = 0 }

type t = {
  machine : Machine.t;
  stats : Stats.t;
  faults : Ndp_fault.Plan.t option;
  node_free : int array;
  finished : exec_record option Slots.t; (* task id -> execution record *)
  group_hops : int Slots.t;
  group_latency : (int * int) Slots.t;
  group_spans : spans Slots.t; (* group -> packed (start, finish) pairs *)
  node_busy : int array;
  trace : Trace.t;
  ledger : Ledger.t;
  timeline : Timeline.t;
  result_array : int; (* interned ledger array id for forwarded partials *)
  m_tasks : Metrics.vec; (* core.tasks{node} *)
  m_busy : Metrics.vec; (* core.busy_cycles{node} *)
  m_syncs : Metrics.vec; (* core.syncs{node} *)
  m_stall_cycles : Metrics.counter; (* fault.stall_cycles *)
}

let create ?(obs = Ndp_obs.Sink.none) ?faults machine =
  let n = Ndp_noc.Mesh.size (Machine.mesh machine) in
  let reg = obs.Ndp_obs.Sink.metrics in
  let node_label i = Printf.sprintf "node=%d" i in
  let stats = Stats.create ~metrics:reg () in
  let timeline = obs.Ndp_obs.Sink.timeline in
  if Timeline.enabled timeline then begin
    (* Timeline instruments: closures over counters the engine already
       maintains, sampled on the finish-time envelope as tasks retire. *)
    Timeline.register timeline "noc.flit_hops" (fun () -> Stats.hops stats);
    Timeline.register timeline "noc.messages" (fun () -> Stats.messages stats);
    Timeline.register timeline "core.tasks" (fun () -> Stats.tasks stats);
    Timeline.register timeline "mem.l1_misses" (fun () -> Stats.l1_misses stats);
    Timeline.register timeline "mem.l2_misses" (fun () -> Stats.l2_misses stats);
    Timeline.register timeline "sim.syncs" (fun () -> Stats.syncs stats)
  end;
  {
    machine;
    stats;
    faults;
    node_free = Array.make n 0;
    finished = Slots.create None;
    group_hops = Slots.create 0;
    group_latency = Slots.create (0, 0);
    group_spans = Slots.create empty_spans;
    node_busy = Array.make n 0;
    trace = obs.Ndp_obs.Sink.trace;
    ledger = obs.Ndp_obs.Sink.ledger;
    timeline;
    result_array = Ledger.array_id obs.Ndp_obs.Sink.ledger "(result)";
    m_tasks = Metrics.vec reg "core.tasks" ~size:n ~label:node_label;
    m_busy = Metrics.vec reg "core.busy_cycles" ~size:n ~label:node_label;
    m_syncs = Metrics.vec reg "core.syncs" ~size:n ~label:node_label;
    m_stall_cycles =
      (* Registered only under a plan, keeping fault-free dumps unchanged. *)
      Metrics.counter (match faults with Some _ -> reg | None -> Metrics.none) "fault.stall_cycles";
  }

let machine t = t.machine

let stats t = t.stats

let attribute_group t group ~hops_before ~lat_before ~msgs_before =
  let s = t.stats in
  Slots.set t.group_hops group (Slots.get t.group_hops group + (Stats.hops s - hops_before));
  let sum, count = Slots.get t.group_latency group in
  Slots.set t.group_latency group
    (sum + (Stats.latency_sum s - lat_before), count + (Stats.messages s - msgs_before))

let run ?(on_load = fun ~va:_ ~l1_hit:_ ~l2_hit:_ -> ()) t tasks =
  let config = Machine.config t.machine in
  let exec (task : Task.t) =
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
    let operand_arrival = function
      | Task.Load { va; bytes } ->
        let outcome = Machine.load t.machine ~node:task.node ~va ~bytes ~time:issue ~stats:t.stats in
        on_load ~va ~l1_hit:outcome.Machine.l1_hit ~l2_hit:outcome.Machine.l2_hit;
        outcome.Machine.arrival
      | Task.Result { producer; bytes } -> (
        match Slots.get t.finished producer with
        | None -> invalid_arg "Engine.run: tasks not in producer-before-consumer order"
        | Some r ->
          if r.node = task.node then r.finish
          else begin
            Ledger.enter_array t.ledger t.result_array;
            Network.send (Machine.network t.machine) ~time:r.finish ~src:r.node ~dst:task.node
              ~bytes ~stats:t.stats
          end)
    in
    (* Two direct passes — all loads, then all results, each in operand
       order — replace the partition/map lists: same evaluation order as
       before, no per-task allocation. Loads overlap up to the MSHR bound:
       with [k] outstanding misses the task's memory time is at least the
       longest access and at least the summed latencies divided by [k]. *)
    let load_count = ref 0 and longest = ref issue and total_latency = ref 0 in
    List.iter
      (function
        | Task.Load _ as op ->
          let a = operand_arrival op in
          incr load_count;
          if a > !longest then longest := a;
          total_latency := !total_latency + (a - issue)
        | Task.Result _ -> ())
      task.operands;
    let load_ready =
      max !longest (issue + (!total_latency / max 1 config.Config.outstanding_loads))
    in
    let result_ready =
      List.fold_left
        (fun acc op ->
          match op with
          | Task.Result _ -> max acc (operand_arrival op)
          | Task.Load _ -> acc)
        issue task.operands
    in
    let data_ready = max load_ready result_ready in
    Stats.add_load_wait t.stats (load_ready - issue);
    Stats.add_result_wait t.stats (max 0 (result_ready - load_ready));
    let start = data_ready + (task.syncs * config.Config.sync_cycles) in
    let finish = start + (task.cost * config.Config.op_cycles) in
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
      (!load_count * config.Config.load_issue_cycles)
      + (task.syncs * config.Config.sync_cycles)
      + (task.cost * config.Config.op_cycles)
      + int_of_float ((1.0 -. config.Config.mlp_overlap) *. float_of_int (load_ready - issue))
    in
    t.node_free.(task.node) <- issue + occupancy;
    t.node_busy.(task.node) <- t.node_busy.(task.node) + occupancy;
    Slots.set t.finished task.id (Some { node = task.node; start; finish; group = task.group });
    let spans = Slots.get t.group_spans task.group in
    let spans =
      if spans == empty_spans then begin
        let fresh = { s_data = Array.make 8 0; s_len = 0 } in
        Slots.set t.group_spans task.group fresh;
        fresh
      end
      else spans
    in
    if spans.s_len = Array.length spans.s_data then begin
      let grown = Array.make (2 * spans.s_len) 0 in
      Array.blit spans.s_data 0 grown 0 spans.s_len;
      spans.s_data <- grown
    end;
    spans.s_data.(spans.s_len) <- start;
    spans.s_data.(spans.s_len + 1) <- finish;
    spans.s_len <- spans.s_len + 2;
    Stats.incr_tasks t.stats;
    Stats.add_ops t.stats task.cost;
    Stats.add_syncs t.stats task.syncs;
    Stats.note_finish t.stats finish;
    Metrics.vadd t.m_tasks task.node 1;
    Metrics.vadd t.m_busy task.node occupancy;
    Metrics.vadd t.m_syncs task.node task.syncs;
    Trace.task t.trace ~name:task.label ~node:task.node ~start ~finish ~id:task.id
      ~group:task.group;
    if task.syncs > 0 then
      Trace.sync t.trace ~node:task.node ~ts:data_ready ~producer:(-1) ~consumer:task.id;
    Timeline.tick t.timeline ~now:(Stats.finish_time t.stats);
    attribute_group t task.group ~hops_before ~lat_before ~msgs_before
  in
  List.iter exec tasks

let group_hops t group = Slots.get t.group_hops group

let group_latency t group = Slots.get t.group_latency group

let finish_of t id = Option.map (fun r -> r.finish) (Slots.get t.finished id)

let group_parallelism t group =
  let spans = Slots.get t.group_spans group in
  if spans.s_len = 0 then 0
  else begin
    (* Sweep over span endpoints counting maximum overlap. The sweep is
       order-independent once events are sorted (equal (time, delta)
       events are interchangeable), so the packed-array encoding needs no
       particular append order. *)
    let events = Array.make spans.s_len (0, 0) in
    for i = 0 to (spans.s_len / 2) - 1 do
      let s = spans.s_data.(2 * i) and f = spans.s_data.((2 * i) + 1) in
      events.(2 * i) <- (s, 1);
      events.((2 * i) + 1) <- (max (s + 1) f, -1)
    done;
    Array.sort compare events;
    let cur = ref 0 and peak = ref 0 in
    Array.iter
      (fun (_, d) ->
        cur := !cur + d;
        if !cur > !peak then peak := !cur)
      events;
    !peak
  end

let elapsed t = Array.fold_left max 0 t.node_free

let node_clocks t = Array.copy t.node_free

let node_busy t = Array.copy t.node_busy
