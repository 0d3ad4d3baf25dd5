(** Static NUCA address-to-node homing.

    In SNUCA each cache line is statically mapped to an L2 bank (its home
    bank) from its physical address; the bank index is then a node of the
    mesh. Under the SNC-4 cluster mode the home bank is additionally
    constrained to the quadrant selected by the page's channel bits, which
    models KNL's quadrant-local address affinity. *)

type t

val create : ?metrics:Ndp_obs.Metrics.t -> Ndp_noc.Mesh.t -> Ndp_noc.Cluster.t -> Addr_map.t -> t
(** With an enabled [metrics] registry, every {!home_node} lookup bumps a
    per-bank [mem.home_lookups{bank}] counter. *)

val reset : ?metrics:Ndp_obs.Metrics.t -> t -> unit
(** Rebind the lookup counters to [metrics] (inert by default). The homing
    itself is stateless, so this is all a reused machine needs. *)

val home_node : t -> int -> int
(** Node id of the home L2 bank for a physical address. *)

val note_lookups : t -> bank:int -> count:int -> unit
(** Account [count] home-bank lookups against [bank] without performing
    them — for profiling passes that evaluate one lookup and reuse the
    result where the naive code would have looked the line up again. *)

val mc_node : t -> int -> int
(** Node id of the memory controller servicing an L2 miss on the address. *)

val mesh : t -> Ndp_noc.Mesh.t
val cluster : t -> Ndp_noc.Cluster.t
val addr_map : t -> Addr_map.t
