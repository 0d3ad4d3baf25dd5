(** Static (closed-form) movement cost tables and the W4xx lint family.

    A purely compile-time counterpart of the Ledger: per statement, the
    symbolic footprint and reuse class of every array reference, plus a
    closed-form movement estimate from the window model the pipeline's
    sizer decides with, in the splitter's link units (and its flit-hop
    normalization, the unit the Ledger measures). [ndp_run
    analyze] renders the table and reconciles it against a measured run;
    the W4xx lints surface the places where the static model is blind or
    fragile. *)

type ref_row = {
  r_array : string;
  r_text : string;  (** printed reference *)
  r_affine : bool;
  r_lines : int option;
      (** nest-wide footprint in cache lines; [None] when non-affine *)
  r_reuse : Ndp_ir.Reuse.t;
}

type stmt_row = {
  c_nest : string;
  c_stmt : int;  (** statement index within the nest body *)
  c_text : string;
  c_instances : int;  (** instances over the full stream (all sweeps) *)
  c_refs : ref_row list;  (** output first, then inputs *)
  c_links : int;  (** static movement over all instances, link units *)
  c_flit_hops : int;  (** [c_links] normalized to the Ledger's unit *)
}

type t = {
  rows : stmt_row list;
  total_links : int;
  total_flit_hops : int;
}

val table :
  ?config:Ndp_sim.Config.t ->
  scheme:Ndp_core.Pipeline.scheme ->
  windows:(string * int) list ->
  Ndp_core.Kernel.t ->
  t
(** The static cost table for a kernel under a scheme, at the window
    sizes a run of it chose ([windows]: the run's [windows_chosen], nest
    name to size). A nest with a size sums {!Ndp_core.Window.movement}
    over a {!Ndp_core.Window.curve} of its whole stream, built for that
    size alone; a nest without one (every nest under [Default]) is
    priced at its default movement. The table sizes nothing itself, so
    it prices exactly the windows the reconciled run compiled. *)

val lint_kernel : ?config:Ndp_sim.Config.t -> Ndp_core.Kernel.t -> Diagnostic.t list
(** The W4xx family, sorted by {!Diagnostic.compare_diag}:

    - [W401] — a reference with classified reuse has a footprint larger
      than the modelled L1 reuse window, so the reuse will mostly miss;
    - [W402] — a non-affine reference defeats static analysis entirely;
    - [W403] — one statement contributes ≥90% of a multi-statement nest's
      predicted movement, making the partitioner's decisions hinge on a
      single estimate. *)
