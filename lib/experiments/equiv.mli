(** Byte-identity digests of pipeline runs.

    [run] executes one (kernel, scheme, mode) combination and folds every
    observable output — [Stats.to_alist], the full emitted task stream
    (via [~validate:true] traces), per-group/per-node arrays, window
    choices and, for {!Profiled}, the movement-ledger totals — into a
    single FNV-1a digest string. The table of seed digests frozen in
    [test/test_equiv.ml] makes "the rewrite changed nothing observable"
    a one-line assertion per combination. *)

type mode = Plain | Faulted | Profiled

val mode_name : mode -> string

val modes : mode list

val schemes : Ndp_core.Pipeline.scheme list
(** [Default] and the full partitioned scheme, in that order. *)

val fault_seed : int

val run :
  ?config:Ndp_sim.Config.t ->
  mode:mode ->
  scheme:Ndp_core.Pipeline.scheme ->
  Ndp_core.Kernel.t ->
  string
(** Digest of one run at the default (or given) config. *)

val all_combos : unit -> (string * Ndp_core.Pipeline.scheme * mode) list
(** Workload-major list of the 12 x 2 x 3 combinations. *)

val combo_key : string -> Ndp_core.Pipeline.scheme -> mode -> string
(** ["<workload>/<scheme>/<mode>"] — the key used in the digest table. *)
