(** Deterministic fault-injection plans.

    A plan is an immutable description of hardware degradation: killed or
    slowed mesh links, node stall windows and memory-controller
    backpressure. Plans are built once (either programmatically from
    {!event} values or from the [--faults] mini-language via {!parse}) and
    then consumed read-only by the simulator, so a fixed seed yields
    byte-identical runs under any [--jobs] value — no randomness is drawn
    at simulation time.

    Random choices (e.g. which [N] links [kill=N] removes) are resolved at
    plan-construction time through {!Ndp_prelude.Rng} (splitmix64). *)

type t

(** One injected fault. Link faults given as [(a, b)] node pairs affect
    both directions of the physical link. *)
type event =
  | Kill_links of int  (** kill [n] distinct links chosen by the seed *)
  | Kill_link of int * int  (** kill the link between two adjacent nodes *)
  | Degrade_links of int * float
      (** degrade [n] seed-chosen links: service time multiplied by factor *)
  | Degrade_link of int * int * float  (** degrade one specific link *)
  | Stall of int * int * int
      (** [Stall (node, start, len)]: node issues no new tasks during
          [\[start, start+len)] cycles *)
  | Mc_slow of int * float
      (** multiply memory latency behind the MC nearest to this node *)

val make : mesh:Ndp_noc.Mesh.t -> seed:int -> event list -> t
(** Resolve events into a concrete plan. *)

val parse : mesh:Ndp_noc.Mesh.t -> seed:int -> string -> (t, string) result
(** Parse a comma-separated fault spec. Grammar (whitespace-free):
    - [kill=N] — kill N random links; [kill=A>B] — kill link A<->B
    - [slow=NxF] — degrade N random links by factor F; [slow=A>BxF]
    - [stall=NODE\@START+LEN] — stall window on a node
    - [mc=NODExF] — backpressure the MC nearest NODE by factor F

    Example: ["kill=2,slow=1x4.0,stall=9\@0+200000,mc=0x2.5"]. *)

val empty : mesh:Ndp_noc.Mesh.t -> t
(** A plan with no faults (behaves exactly like [None]). *)

val is_empty : t -> bool

val seed : t -> int

val retry_timeout : int
(** 256: the cycles lost per timed-out send attempt on a killed link. *)

val max_retries : int
(** 3: the attempts on a killed link before the message is forced through
    on the degraded maintenance path. *)

val link_killed : t -> int -> bool
(** Indexed by {!Ndp_noc.Mesh.link_index}. *)

val link_factor : t -> int -> float
(** Service-time multiplier for a link (1.0 when healthy, >= 1.0 when
    degraded; also >= 1.0 for killed links — the kill penalty is modelled
    by retries, not by the factor). *)

val mc_factor : t -> int -> float
(** Memory-latency multiplier for the MC hosted on the given node. *)

val stall_until : t -> node:int -> time:int -> int
(** Earliest cycle >= [time] at which [node] may issue a task: skips over
    any stall window containing [time]. Returns [time] when unaffected. *)

val avoided : t -> int -> bool
(** True for nodes the repair pass should route computation away from:
    nodes with a stall window, and nodes isolated by killed links. *)

val avoided_nodes : t -> int list

val distance : t -> int -> int -> int
(** Fault-aware distance: the cost of the XY route between two nodes where
    each healthy link costs 1, each degraded link costs its factor and
    each killed link costs the retry penalty expressed in hops. Equal to
    {!Ndp_noc.Mesh.distance} on a fault-free plan. Memoized; O(1) after
    first use of a pair. *)

val counts : t -> int * int * int * int
(** [(killed, degraded, stalled_nodes, slowed_mcs)]. *)

val describe : t -> string
(** Human-readable one-line-per-fault summary. *)
