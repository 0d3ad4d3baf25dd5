module Metrics = Ndp_obs.Metrics
module Trace = Ndp_obs.Trace
module Ledger = Ndp_obs.Ledger
module Plan = Ndp_fault.Plan

type t = {
  mesh : Ndp_noc.Mesh.t;
  mutable config : Config.t;
  (* Per-link utilization accumulated in fixed time epochs. The engine
     replays tasks in program order while node clocks advance at different
     rates, so sends are observed out of simulated-time order; bucketing
     makes contention independent of processing order. One growable
     epoch-indexed array per link ([util.(link).(epoch)] = busy cycles)
     keeps state proportional to the links actually touched and makes the
     hot lookup two array reads. *)
  util : int array array;
  mutable distance_factor : float;
  mutable faults : Plan.t option;
  mutable link_flits : Metrics.vec; (* noc.link_flits{from->to}, indexed by link id *)
  mutable link_busy : Metrics.vec; (* noc.link_busy_cycles{from->to} *)
  mutable msg_latency : Metrics.histogram;
  mutable fault_retries : Metrics.counter; (* fault.link_retries *)
  mutable fault_drops : Metrics.counter; (* fault.msg_drops *)
  mutable trace : Trace.t;
  mutable ledger : Ledger.t;
}

let epoch_bits = 8
(* 256-cycle epochs: short enough to capture bursts, long enough that a
   message's own service time fits. *)

let epoch_span = 1 lsl epoch_bits

(* Render link [idx] as "x,y->x,y". [link_index] is dense, so a reverse
   table keyed by index serves every label; it is built only for an
   enabled registry, since a disabled one never asks for a label. *)
let link_labeler mesh =
  let labels = Array.make (Ndp_noc.Mesh.num_links mesh) "?" in
  List.iter
    (fun (link : Ndp_noc.Mesh.link) ->
      let c n =
        let { Ndp_noc.Coord.x; y } = Ndp_noc.Mesh.coord_of_node mesh n in
        Printf.sprintf "%d,%d" x y
      in
      labels.(Ndp_noc.Mesh.link_index mesh link) <-
        Printf.sprintf "%s->%s" (c link.Ndp_noc.Mesh.from_node) (c link.Ndp_noc.Mesh.to_node))
    (Ndp_noc.Mesh.links mesh);
  fun i -> labels.(i)

let reset ?(obs = Ndp_obs.Sink.none) ?faults t (config : Config.t) =
  if not (Config.same_shape config t.config) then
    invalid_arg "Network.reset: config has a different shape";
  let registry = obs.Ndp_obs.Sink.metrics in
  (* fault.* instruments live in the registry only when a plan is present,
     so fault-free metric dumps are byte-identical to pre-fault output. *)
  let fault_registry =
    match faults with Some _ -> registry | None -> Metrics.none
  in
  (match faults with
  | None -> ()
  | Some plan ->
      (* Static plan shape, published once so [stats --format json] shows
         what was injected alongside the dynamic fault.* counters. *)
      let killed, degraded, stalled, mcs = Plan.counts plan in
      Metrics.set_gauge (Metrics.gauge registry "fault.links_killed") (float_of_int killed);
      Metrics.set_gauge (Metrics.gauge registry "fault.links_degraded") (float_of_int degraded);
      Metrics.set_gauge (Metrics.gauge registry "fault.nodes_stalled") (float_of_int stalled);
      Metrics.set_gauge (Metrics.gauge registry "fault.mcs_slowed") (float_of_int mcs));
  let n = Array.length t.util in
  let label = if Metrics.enabled registry then link_labeler t.mesh else string_of_int in
  Array.fill t.util 0 n [||];
  t.config <- config;
  (* A counterfactual run must not leak its path-length scaling into the
     next experiment on a reused network. *)
  t.distance_factor <- 1.0;
  t.faults <- faults;
  t.link_flits <- Metrics.vec ~fresh:true registry "noc.link_flits" ~size:n ~label;
  t.link_busy <- Metrics.vec ~fresh:true registry "noc.link_busy_cycles" ~size:n ~label;
  t.msg_latency <- Metrics.histogram ~fresh:true registry "noc.msg_latency";
  t.fault_retries <- Metrics.counter ~fresh:true fault_registry "fault.link_retries";
  t.fault_drops <- Metrics.counter ~fresh:true fault_registry "fault.msg_drops";
  t.trace <- obs.Ndp_obs.Sink.trace;
  t.ledger <- obs.Ndp_obs.Sink.ledger

let create ?obs ?faults (config : Config.t) =
  let mesh = Config.mesh config in
  let none = Metrics.none in
  let t =
    {
      mesh;
      config;
      util = Array.make (Ndp_noc.Mesh.num_links mesh) [||];
      distance_factor = 1.0;
      faults = None;
      link_flits = Metrics.vec none "" ~size:0 ~label:string_of_int;
      link_busy = Metrics.vec none "" ~size:0 ~label:string_of_int;
      msg_latency = Metrics.histogram none "";
      fault_retries = Metrics.counter none "";
      fault_drops = Metrics.counter none "";
      trace = Trace.none;
      ledger = Ledger.none;
    }
  in
  reset ?obs ?faults t config;
  t

let set_distance_factor t f =
  if f < 0.0 || f > 1.0 then invalid_arg "Network.set_distance_factor: factor must be in [0,1]";
  t.distance_factor <- f

(* Under a distance factor < 1 we traverse only a prefix of the route,
   modelling a counterfactual where data had to travel proportionally
   fewer links. *)
let effective_hops t total =
  if t.distance_factor >= 1.0 then total
  else int_of_float (Float.round (t.distance_factor *. float_of_int total))

(* Occupancy of link [idx] in epoch [epoch], adding [service] busy cycles.
   Per-link arrays grow geometrically to the highest epoch touched. *)
let bump_util t idx epoch service =
  let a = t.util.(idx) in
  let a =
    if epoch < Array.length a then a
    else begin
      let len = ref (max 64 (Array.length a * 2)) in
      while epoch >= !len do len := !len * 2 done;
      let b = Array.make !len 0 in
      Array.blit a 0 b 0 (Array.length a);
      t.util.(idx) <- b;
      b
    end
  in
  let load = a.(epoch) in
  a.(epoch) <- load + service;
  load

(* One link crossing of a [flits]-flit message that occupies the link for
   [service] cycles, entered at cycle [now]; returns the cycle it leaves
   the link. A top-level function, not a closure over the message, so a
   send allocates nothing. *)
let traverse t now idx ~flits ~service =
  let load = bump_util t idx (now lsr epoch_bits) service in
  Metrics.vadd t.link_flits idx flits;
  Metrics.vadd t.link_busy idx service;
  (* Queueing: demand beyond the epoch's capacity waits. *)
  let wait = Int.max 0 (load + service - epoch_span) in
  now + t.config.Config.hop_cycles + (service - 1) + wait

let send t ~time ~src ~dst ~bytes ~stats =
  if src = dst then time
  else begin
    let flits = Config.flits_of_bytes t.config bytes in
    let route = Ndp_noc.Mesh.route_links t.mesh ~src ~dst in
    let hops = effective_hops t (Array.length route) in
    let service = flits * t.config.Config.link_service_cycles in
    let now = ref time in
    (match t.faults with
    | None ->
        (* Fault-free fast path: no per-link plan consultation. *)
        for i = 0 to hops - 1 do
          now := traverse t !now route.(i) ~flits ~service
        done
    | Some plan ->
        (* Fault model: a degraded link serves flits more slowly
           (service time scaled by its factor); a killed link times out
           [max_retries] send attempts before the message is forced
           through on the maintenance path — pure arithmetic on plan
           data, so runs stay deterministic. *)
        for i = 0 to hops - 1 do
          let idx = route.(i) in
          let f = Plan.link_factor plan idx in
          let service =
            if f = 1.0 then service
            else int_of_float (ceil (float_of_int service *. f))
          in
          if Plan.link_killed plan idx then begin
            Metrics.add t.fault_retries Plan.max_retries;
            Metrics.incr t.fault_drops;
            now := !now + (Plan.max_retries * Plan.retry_timeout)
          end;
          now := traverse t !now idx ~flits ~service
        done);
    let arrival = !now in
    (* Each traversed link also received [flits] in [noc.link_flits], so
       charging [flits x hops] here keeps the ledger total reconciled with
       the link-flit total by construction. *)
    Ledger.account t.ledger ~src ~dst ~flits ~links:hops;
    Stats.add_hops stats (hops * flits);
    Stats.incr_messages stats;
    let latency = arrival - time in
    Stats.note_latency stats latency;
    Metrics.observe_int t.msg_latency latency;
    Trace.message t.trace ~src ~dst ~depart:time ~arrival ~bytes;
    arrival
  end
