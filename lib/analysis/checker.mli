(** Suite-level driver: run the IR linter and the schedule validator over
    kernels and collect per-kernel, per-scheme reports. Backs the
    [ndp_run check] subcommand and the analysis test suite. *)

type report = {
  kernel : string;
  scheme : string option; (** [None] for lint, scheme name for validation *)
  diagnostics : Diagnostic.t list;
}

val lint_kernel : ?window:int -> Ndp_core.Kernel.t -> report

val check_kernel :
  ?config:Ndp_sim.Config.t ->
  ?window:int ->
  schemes:Ndp_core.Pipeline.scheme list ->
  Ndp_core.Kernel.t ->
  report list
(** Lint once, then validate under each scheme. *)

val check_suite :
  ?config:Ndp_sim.Config.t ->
  ?window:int ->
  ?jobs:int ->
  schemes:Ndp_core.Pipeline.scheme list ->
  Ndp_core.Kernel.t list ->
  report list
(** With [jobs > 1] the (kernel, pass) cells run concurrently on a domain
    pool; the report list is identical to the serial one (cells are
    independent: each builds its own inspector, machine and context). *)

val has_errors : report list -> bool

val render : ?format:Diagnostic.format -> report list -> string
(** Human format prints a per-pass status line plus indented diagnostics
    and a final summary; sexp/jsonl print one machine-readable line per
    diagnostic; json prints a single array of every diagnostic. *)
