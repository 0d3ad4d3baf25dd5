(** Structured diagnostics shared by the IR linter and the schedule
    validator.

    Every finding carries a stable code so tooling can filter and tests can
    assert on specific rules:

    - [E1xx] — IR lint errors (malformed or out-of-bounds kernels)
    - [W2xx] — IR lint warnings (suspicious but executable kernels)
    - [E3xx] — schedule-validation errors (dependence races)

    Diagnostics render both human-readable ({!to_string}) and
    machine-readable (s-expression {!to_sexp}, JSON-lines {!to_json}). *)

type severity = Error | Warning | Info

type location = {
  kernel : string;
  nest : string option; (** loop nest name, when the finding is nest-scoped *)
  stmt : int option; (** statement index within the nest body *)
  reference : string option; (** offending reference, printed form *)
}

type t = { code : string; severity : severity; loc : location; message : string }

val location : ?nest:string -> ?stmt:int -> ?reference:string -> string -> location
(** [location kernel] with optional narrowing. *)

val make : code:string -> severity:severity -> loc:location -> string -> t

val makef :
  code:string -> severity:severity -> loc:location -> ('a, unit, string, t) format4 -> 'a

val is_error : t -> bool

val count : severity -> t list -> int

val compare_diag : t -> t -> int
(** Orders errors before warnings before infos, then by code. *)

val to_string : t -> string
(** [error[E101] barnes/force stmt 2 ref a[i+1]: ...] *)

val to_sexp : t -> string
(** One s-expression per diagnostic; atoms are quoted and escaped. *)

val to_json : t -> string
(** One JSON object per diagnostic (JSON-lines friendly). *)

type format = Ndp_obs.Render.format = Human | Sexp | Json | Jsonl
(** Re-export of the shared CLI format vocabulary. For a single
    diagnostic, [Json] and [Jsonl] coincide (one object); {!Checker.render}
    distinguishes them (one array vs. one object per line). *)

val render : format -> t -> string

val summary : t list -> string
(** ["N error(s), M warning(s), K info"]. *)
