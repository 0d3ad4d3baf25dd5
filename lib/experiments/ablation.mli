(** Ablations of the design choices DESIGN.md calls out. *)

val all : Common.t -> unit
(** In order: reuse-aware vs reuse-agnostic fixed windows (Section 6.3
    reports the agnostic variant ~11% worse); level-based vs flat
    nested-set splitting; transitive-closure sync elimination on vs off;
    the load-balance threshold sweep around the paper's 10%; page-coloring
    OS support vs a scrambling allocator (location inference broken). *)
