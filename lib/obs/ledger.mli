(** Data-movement attribution ledger.

    Every message the simulated NoC carries is charged to a provenance key
    [(nest, statement id, array, src -> dst)]. The simulator does not know
    statements or arrays — it sees task groups and virtual addresses — so
    the compiler registers two resolvers (group -> statement, va -> array)
    and the hot path only stamps a mutable current context: the engine
    marks the running task's group, the memory system marks the address
    being moved, and {!account} folds [flits x links] into the entry for
    the current context. Summing [flit_hops] over every entry therefore
    reconciles exactly with the [noc.link_flits] total, because both count
    the same per-link flit traversals.

    The compiler side also records each statement's *predicted* movement
    (the Kruskal/window [size x distance] estimate, normalized to
    flit-hops) via {!predict}, so readers can put measured and predicted
    movement side by side per statement.

    Like the rest of the [?obs] surface, a disabled ledger ({!none}) makes
    every operation a single always-false branch — no allocation, no
    behavioural difference. *)

type t

val none : t
(** The shared inert ledger — the default everywhere. *)

val create : unit -> t

val enabled : t -> bool

val clear : t -> unit
(** Back to the state {!create} left: no traffic, predictions,
    interned names or resolvers. [Machine.reset] clears its sink's ledger,
    so a ledger reused for a second run reports that run alone. *)

(** {1 Vocabulary and resolvers (compiler side)} *)

val stmt_id : t -> nest:string -> stmt:int -> int
(** Intern a statement [(nest name, statement index)] and return its dense
    id. Id [0] is reserved for the unattributed ["(other)"] statement.
    Returns [0] on a disabled ledger. *)

val array_id : t -> string -> int
(** Intern an array name. Id [0] is reserved for ["(other)"]. *)

val set_group_resolver : t -> (int -> int) -> unit
(** [group -> stmt id] map, consulted by {!enter_group}. The compiler owns
    group numbering, so it supplies the translation. *)

val set_va_resolver : t -> (int -> int) -> unit
(** [virtual address -> array id] map, consulted by {!enter_va}. *)

(** {1 Hot path (simulator side)} *)

val enter_group : t -> int -> unit
(** The engine is about to execute a task of this group: subsequent
    {!account} calls are charged to the group's statement. *)

val enter_va : t -> int -> unit
(** The memory system is about to move data at this address: subsequent
    {!account} calls are charged to the containing array. *)

val enter_array : t -> int -> unit
(** Like {!enter_va} but with a pre-interned array id — used for traffic
    with no address, e.g. forwarded partial results. *)

val account : t -> src:int -> dst:int -> flits:int -> links:int -> unit
(** Charge one message of [flits] flits that traversed [links] links to
    the current [(statement, array)] context: [flit_hops += flits x links],
    [flits += flits], [messages += 1]. *)

(** {1 Predicted cost (compiler side)} *)

val predict : t -> stmt:int -> flit_hops:int -> unit
(** Accumulate the compiler's predicted movement for a statement, in the
    same flit-hop unit {!account} measures. *)

(** {1 Reading} *)

type row = {
  nest : string;
  stmt : int; (** statement index within the nest; [-1] for "(other)" *)
  array_name : string;
  src : int;
  dst : int;
  messages : int;
  flits : int;
  flit_hops : int;
}

type stmt_total = {
  s_nest : string;
  s_stmt : int;
  s_messages : int;
  s_flits : int;
  s_flit_hops : int;
  s_predicted : int;
}

val rows : t -> row list
(** Every provenance entry, sorted by [(nest, stmt, array, src, dst)] —
    deterministic regardless of accumulation order. *)

val statements : t -> stmt_total list
(** Per-statement aggregation of {!rows} joined with the predicted table,
    sorted by [(nest, stmt)]. Statements with predicted cost but no
    measured traffic (and vice versa) are included. *)

val total_messages : t -> int

val total_flits : t -> int

val total_flit_hops : t -> int
(** The reconciliation total: equals the sum over links of
    [noc.link_flits] for the same run. *)

val total_predicted : t -> int

val to_json : t -> Render.Json.t
(** [{"rows": [...], "statements": [...], "totals": {...}}]. *)
