(** 2D-mesh network with per-link contention.

    Messages follow deterministic XY routes. Each directed link can accept
    one flit per [link_service_cycles]; a message occupies each link on its
    path for [flits * service] cycles, so overlapping transfers queue —
    long routes both add latency and raise contention, the two effects the
    paper's partitioner attacks. *)

type t

val create : ?obs:Ndp_obs.Sink.t -> ?faults:Ndp_fault.Plan.t -> Config.t -> t
(** With [obs], every traversal bumps per-link flit/busy counters
    ([noc.link_flits{x,y->x,y}], [noc.link_busy_cycles{...}]), message
    latencies feed the [noc.msg_latency] histogram, and each message emits
    a trace event. Disabled by default; observability never changes
    arrival times or [stats].

    With [faults], degraded links scale their per-flit service time by the
    plan's factor and killed links charge a bounded retry-with-timeout
    penalty ([max_retries * retry_timeout] cycles per crossing), surfaced
    through the [fault.link_retries] / [fault.msg_drops] counters and
    [fault.links_*] gauges. Without a plan, arrival arithmetic is exactly
    the pre-fault code path. *)

val send : t -> time:int -> src:int -> dst:int -> bytes:int -> stats:Stats.t -> int
(** Inject a message; returns its arrival time at [dst]. A [src = dst]
    message arrives immediately and touches no link. Updates hop, message
    and latency counters in [stats]. *)

val reset : ?obs:Ndp_obs.Sink.t -> ?faults:Ndp_fault.Plan.t -> t -> Config.t -> unit
(** Return the network to the state [create ?obs ?faults config] builds,
    reusing its storage: all link occupancy is dropped, the distance
    factor is back to 1.0, and the config, fault plan and observability
    handles are rebound. [config] must have the network's shape
    ({!Config.same_shape}); raises [Invalid_argument] otherwise. *)

val set_distance_factor : t -> float -> unit
(** Scale every message's effective path length by a factor in (0, 1].
    Used by the S2 isolation scheme (Figure 18) to impose the optimized
    code's data-movement costs on the default placement, and with factor 0
    by the ideal-network scenario (Section 6.4). Hop and latency statistics
    are scaled accordingly. *)

val mesh : t -> Ndp_noc.Mesh.t
