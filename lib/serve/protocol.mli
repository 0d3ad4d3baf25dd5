(** The one typed request/response vocabulary shared by the daemon, the
    [ndp_run client] CLI and the tests.

    Wire format: length-delimited JSON. A frame is
    ["<decimal byte length>\n<payload>\n"]. A request is a single frame
    holding one JSON object [{"id": N, "op": "...", ...}]; a response is
    two frames — the {!envelope} object, then the raw body (itself a JSON
    document, rendered once by the server). Shipping the body as its own
    frame is what makes cached responses byte-identical: the server frames
    the stored string verbatim instead of reparsing and reserializing it. *)

(** What to compile and simulate — the wire-level mirror of
    {!Ndp_core.Pipeline.Job}, in CLI vocabulary (names, not variants), so
    the daemon resolves it through the same tables as the subcommands. *)
type job_spec = {
  app : string; (** suite kernel name *)
  scheme : string; (** ["default"] or ["partitioned"] *)
  window : string; (** ["adaptive"] or a positive fixed size *)
  cluster : string; (** all-to-all, quadrant or snc-4 *)
  memory : string; (** flat, cache or hybrid *)
  tweaks : Ndp_core.Pipeline.tweaks;
  faults : string; (** fault-plan spec; [""] injects nothing *)
  fault_seed : int option; (** [None]: the config's seed *)
  repair : bool;
}

val default_spec : app:string -> job_spec
(** Partitioned/adaptive/quadrant/flat, no tweaks, no faults. *)

(** One cost-model variant of a {!request.Sweep}: simulation-side integer
    config overrides (by field name, e.g. ["hop_cycles"]) plus tweaks,
    replayed against the captured schedule without recompiling. *)
type variant = { v_name : string; v_overrides : (string * int) list; v_tweaks : Ndp_core.Pipeline.tweaks }

type request =
  | Ping
  | List_apps
  | Run of { spec : job_spec; metrics : bool }
  | Compile of job_spec (** compile + capture into the schedule cache *)
  | Profile of { spec : job_spec; interval : int; top : int }
  | Analyze of { spec : job_spec; threshold : float }
  | Inject of job_spec
  | Batch of job_spec list (** one [run_batch] across the pool *)
  | Sweep of { spec : job_spec; variants : variant list }
  | Cache_stats
      (** cache counters plus per-op request-latency percentiles
          (deterministic under [NDP_FAKE_CLOCK]) *)
  | Metrics_dump (** full registry incl. latency (not deterministic) *)
  | Metrics_text
      (** full registry as Prometheus text exposition
          ([Metrics.to_prometheus]); the response body is plain text, not
          JSON *)
  | Shutdown

val op_name : request -> string
(** The wire op string — also the access-log ["op"] field and the label
    of the per-op [serve.request_ms{op=...}] histogram. *)

type envelope = { id : int; ok : bool; cached : bool; key : string }
(** [key] is the content digest the response was cached under ([""] for
    uncacheable ops); [cached] tells whether the body came from the
    result cache. *)

(** {1 JSON codecs}

    [request_of_json (request_to_json ~id r) = Ok (id, r)] for every
    request (floats survive via the {!Ndp_obs.Render.Json} round-trip
    guarantee). *)

val request_to_json : id:int -> request -> Ndp_obs.Render.Json.t

val request_of_json : Ndp_obs.Render.Json.t -> (int * request, string) result

val envelope_of_json : Ndp_obs.Render.Json.t -> (envelope, string) result

(** {1 Framing} *)

type frame = Frame of string | Eof | Corrupt of string

val write_frame : out_channel -> string -> unit

val read_frame : in_channel -> frame

val write_request : out_channel -> id:int -> request -> unit

val write_response : out_channel -> envelope -> body:string -> unit

val read_response : in_channel -> (envelope * string, string) result
