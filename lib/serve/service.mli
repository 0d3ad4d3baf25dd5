(** The one execution-and-rendering path behind every consumer of the
    pipeline: `ndp_run`'s subcommands, the serve daemon and the tests all
    resolve a {!Protocol.job_spec} to a {!Ndp_core.Pipeline.Job} here and
    render results through the same document builders, so a response body
    from the daemon is byte-identical to the corresponding CLI output
    under [--format json]. *)

(** {1 Spec resolution} *)

val window_of_string : string -> (Ndp_core.Pipeline.window_policy, string) result
(** [""]/["adaptive"] (or its older spelling ["analytic"]) or a positive
    decimal fixed size. *)

val scheme_of_spec : Protocol.job_spec -> (Ndp_core.Pipeline.scheme, string) result

val config_of_spec : Protocol.job_spec -> (Ndp_sim.Config.t, string) result
(** The default config with the spec's cluster and memory modes applied. *)

val job_of_spec : Protocol.job_spec -> (Ndp_core.Pipeline.Job.t, string) result
(** Resolves the kernel by suite name, cluster/memory/scheme/window by
    their CLI spellings, and parses the fault spec (seeded by [fault_seed]
    or the config's seed). A spec with no fault text and no seed yields
    [faults = None]. *)

val variant_config :
  Ndp_sim.Config.t -> Protocol.variant -> (Ndp_sim.Config.t, string) result
(** Apply a sweep variant's integer overrides. Only simulation-side knobs
    (hop/service/hit/miss/op/sync/load-issue cycles, outstanding loads)
    may be overridden — address-shape parameters must match the capture
    config for replay to be meaningful. *)

(** {1 Shared renderers} *)

val result_human : Ndp_core.Pipeline.result -> string

val result_json : Ndp_core.Pipeline.result -> Ndp_obs.Render.Json.t

val link_flits_total : Ndp_obs.Metrics.t -> int
(** Sum of [noc.link_flits{..}] over every link — the ledger
    reconciliation target. *)

val windows_json : (string * int) list -> Ndp_obs.Render.Json.t
(** A run's [windows_chosen] as the documents print it: nest name to size. *)

val ratio_cell : float -> string

(** {1 Operations}

    Each operation runs one job and returns the result alongside the
    rendered JSON document and a lazy human rendering — exactly the
    artifacts the CLI prints and the daemon caches. *)

type run_outcome = {
  result : Ndp_core.Pipeline.result;
  sink : Ndp_obs.Sink.t;
  doc : Ndp_obs.Render.Json.t;
  human : unit -> string;
}

val run :
  ?metrics:bool ->
  ?spans:Ndp_obs.Span.t ->
  Ndp_core.Pipeline.Job.t ->
  run_outcome
(** [metrics] collects the registry during the run and nests the result
    under [{"result": .., "metrics": ..}], mirroring [ndp_run run
    --metrics]. [spans] (default disabled) collects the pipeline's phase
    spans — it never changes the document, so cached daemon responses
    stay byte-identical to CLI output. *)

type profile_outcome = {
  p_result : Ndp_core.Pipeline.result;
  p_doc : Ndp_obs.Render.Json.t;
  p_human : unit -> string;
  p_reconciled : bool; (** ledger flit-hops = noc.link_flits *)
  p_measured : int;
  p_link_flits : int;
}

val profile :
  ?spans:Ndp_obs.Span.t ->
  trace:Ndp_obs.Trace.t ->
  top:int ->
  Ndp_core.Pipeline.Job.t ->
  profile_outcome
(** Movement-attribution ledger + counter timeline. The run records into
    the log [trace]: its counter samples (taken every
    [Trace.create ~interval] cycles) are the document's timeline, and
    any simulator events it records are there for the CLI's Perfetto
    output. [spans] collects phase spans; passing one log as both puts
    the spans in that document too. Neither changes the other fields of
    the document. [top] bounds the human table only. *)

type analyze_outcome = {
  a_result : Ndp_core.Pipeline.result;
  a_doc : Ndp_obs.Render.Json.t;
  a_human : unit -> string;
  a_within : bool;
  a_ratio : float;
  a_static_total : int;
  a_measured_total : int;
}

val analyze :
  ?spans:Ndp_obs.Span.t ->
  threshold:float ->
  Ndp_core.Pipeline.Job.t ->
  analyze_outcome
(** Runs the job once, then reconciles its ledger against the static cost
    table priced at the windows that run chose: the document's [windows]
    are the run's [windows_chosen], so each nest is sized once. *)

type fusion_outcome = {
  f_fused : Ndp_core.Pipeline.result;
  f_unfused : Ndp_core.Pipeline.result;
  f_doc : Ndp_obs.Render.Json.t;
  f_human : unit -> string;
  f_fused_total : int;  (** measured ledger flit-hops, fused run *)
  f_unfused_total : int;
  f_reduction_pct : float;
}

val analyze_fusion : Ndp_core.Pipeline.Job.t -> fusion_outcome
(** Runs the job twice — fused and unfused partitioned schemes, same
    window policy and config, each under its own movement ledger — and
    joins the fused run's per-chain fusion decisions with the measured
    per-statement flit-hop deltas (unfused minus fused). The same
    reconciliation discipline as {!analyze}, aimed at the fusion pass's
    own savings predictions. *)

type inject_outcome = { i_doc : Ndp_obs.Render.Json.t; i_human : unit -> string }

val inject :
  ?spans:Ndp_obs.Span.t ->
  spec:string ->
  Ndp_core.Pipeline.Job.t ->
  inject_outcome
(** Runs the job under its fault plan (when the job carries none, an empty
    plan with the config's seed, as [ndp_run inject --seed] documents);
    [spec] is echoed into the document's plan description. *)
