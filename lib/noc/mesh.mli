(** The [cols x rows] 2D-mesh on-chip network.

    Each node holds a core, a private L1 and one bank of the shared L2
    (Figure 1 of the paper). Memory controllers sit on the corner nodes.
    Nodes are identified by dense integer ids in [0 .. size-1]. *)

type t

type link = { from_node : int; to_node : int }
(** A directed physical link between two adjacent nodes. *)

val create : cols:int -> rows:int -> t

val cols : t -> int
val rows : t -> int

val size : t -> int
(** Number of nodes. *)

val coord_of_node : t -> int -> Coord.t
val node_of_coord : t -> Coord.t -> int

val distance : t -> int -> int -> int
(** Manhattan distance between two node ids. *)

val memory_controllers : t -> int list
(** Node ids hosting a memory controller: the four corners. *)

val memory_controller : t -> int -> int
(** [memory_controller t i] is element [i land 3] of {!memory_controllers},
    computed without building the list. *)

val nearest_mc : t -> int -> int
(** The memory controller closest to a node (ties broken by node id). *)

val xy_route : t -> src:int -> dst:int -> link list
(** Deterministic XY (dimension-ordered) route: travel along X first, then
    along Y. The list has exactly [distance t src dst] links. *)

val route_links : t -> src:int -> dst:int -> int array
(** The XY route as dense link indices ([link_index] of each hop of
    [xy_route]), served from a table built once per mesh shape for the
    whole process and shared by every mesh of that shape (and every
    domain). The returned array is shared — callers must not mutate it. *)

val route_nodes : t -> src:int -> dst:int -> int array
(** The nodes the XY route enters, one per hop ([to_node] of each link of
    [xy_route]), served from the shape's shared table like {!route_links}.
    The returned array is shared — callers must not mutate it. *)

val links : t -> link list
(** All directed links of the mesh. *)

val link_index : t -> link -> int
(** Dense index of a link, for O(1) occupancy tables. *)

val num_links : t -> int

val quadrant_of_node : t -> int -> int
(** Quadrant id in [0..3] used by the quadrant and SNC-4 cluster modes. *)

val nodes_in_quadrant : t -> int -> int list

val mc_of_quadrant : t -> int -> int
(** The corner memory controller that belongs to a quadrant. *)
