module Json = Ndp_obs.Render.Json
module Metrics = Ndp_obs.Metrics
module Pipeline = Ndp_core.Pipeline
module Pool = Ndp_prelude.Pool
module Stats = Ndp_sim.Stats

type reply = {
  seq : int;
  ok : bool;
  cached : bool;
  key : string;
  body : string;
  ms : float;
  spans : Ndp_obs.Span.t;
}

type t = {
  pool : Pool.t;
  reg : Metrics.t;
  results : string Cache.t;
  schedules : Pipeline.result Cache.t;
  requests : Metrics.counter;
  errors : Metrics.counter;
  latency_ms : Metrics.histogram;
  clock : unit -> float;
  access_log : out_channel option;
  slow_ms : float option;
  mutable seq : int;
  mutable stop : bool;
}

(* Rendered bodies: a repeat is answered from memory only while its body
   is held, and a body is small next to a capture. 256 is the capacity
   perfbench's serve_mixed hit and eviction counts were recorded at. *)
let result_capacity = 256

(* A captured schedule is a whole compiled job, its result and emitted
   task stream: 0.7-2.0 MB reachable for each kernel perfbench's
   serve_mixed sends, at the default config. The one sharing pattern in
   recorded traffic is a [Compile] followed by [Sweep]s of the same job,
   which the last capture serves; serve_mixed's stream of distinct jobs
   hit an older capture in 3 of 436 lookups with 64 kept, so keeping
   more only holds memory. *)
let schedule_capacity = 1

let create ?jobs ?metrics ?clock ?access_log ?slow_ms () =
  let reg = match metrics with Some r -> r | None -> Metrics.create () in
  let clock = match clock with Some c -> c | None -> Ndp_obs.Span.default_clock () in
  {
    pool = Pool.create ?jobs ();
    reg;
    results = Cache.create ~metrics:reg ~name:"results" ~capacity:result_capacity ();
    schedules = Cache.create ~metrics:reg ~name:"schedules" ~capacity:schedule_capacity ();
    requests = Metrics.counter reg "serve.requests";
    errors = Metrics.counter reg "serve.errors";
    latency_ms = Metrics.histogram reg "serve.request_ms";
    clock;
    access_log;
    slow_ms;
    seq = 0;
    stop = false;
  }

let registry t = t.reg

let shutdown t = Pool.shutdown t.pool

let body doc = Json.to_string doc

(* seq/ms/spans are stamped once per request by [handle]; the dispatch
   helpers below fill only the outcome fields. *)
let reply_of ~ok ~cached ~key body =
  { seq = 0; ok; cached; key; body; ms = 0.0; spans = Ndp_obs.Span.none }

let plain doc = reply_of ~ok:true ~cached:false ~key:"" (body doc)

let plain_text s = reply_of ~ok:true ~cached:false ~key:"" s

(* Body serialization is charged to its own "render" phase so that, on a
   cold traced request, the recorded phases account for (nearly) all of
   the request wall time (test_serve's "cold phases cover latency"). *)
let rendered spans f = Ndp_obs.Span.with_span spans "render" f

let error msg = reply_of ~ok:false ~cached:false ~key:"" (body (Json.Obj [ ("error", Json.Str msg) ]))

(* Resolve the spec, derive the content key from the *resolved* job (so
   spellings that mean the same job — e.g. window "adaptive" vs "" —
   share a cache line), then serve from the result cache. The cache
   stores rendered body strings: a hit returns the stored bytes verbatim,
   which is what makes cached and uncached responses byte-identical. *)
let cacheable t spec ~salt render =
  match Service.job_of_spec spec with
  | Error msg -> error msg
  | Ok job ->
    let key = Key.digest (salt ^ "#" ^ Key.job job) in
    let b, hit = Cache.find_or_add t.results key (fun () -> render job) in
    reply_of ~ok:true ~cached:hit ~key b

(* The schedule cache is keyed by the compile inputs alone (capture forced
   on), so a Compile and every Sweep over the same job share one entry
   while it is the last job captured. *)
let captured t ~spans (job : Pipeline.Job.t) =
  let job = { job with Pipeline.Job.capture = true } in
  let skey = Key.job_digest job in
  let obs = { Ndp_obs.Sink.none with Ndp_obs.Sink.spans = spans } in
  let r, hit =
    Cache.find_or_add t.schedules skey (fun () -> Pipeline.Job.run ~obs job)
  in
  (skey, r, hit)

let compile_body t ~spans (job : Pipeline.Job.t) =
  let skey, r, _hit = captured t ~spans job in
  rendered spans (fun () ->
      body
        (Json.Obj
           [
             ("schedule_key", Json.Str skey);
             ("app", Json.Str r.Pipeline.kernel_name);
             ("scheme", Json.Str r.Pipeline.scheme_name);
             ("exec_time", Json.Int r.Pipeline.exec_time);
             ("tasks", Json.Int r.Pipeline.tasks_emitted);
             ("instances", Json.Int r.Pipeline.num_instances);
             ("windows", Service.windows_json r.Pipeline.windows_chosen);
             ("captured_calls", Json.Int (List.length r.Pipeline.emitted));
           ]))

let sweep_body t ~spans (job : Pipeline.Job.t) (variants : Protocol.variant list) =
  let _skey, r, _hit = captured t ~spans job in
  let base_exec = max 1 r.Pipeline.exec_time in
  let kernel = job.Pipeline.Job.kernel in
  (* The replay fan-out runs on pool domains; the collector is
     single-domain, so one coarse span on this domain covers the sweep. *)
  let sp_replay = Ndp_obs.Span.enter spans "replay" in
  Ndp_obs.Span.attr_int spans sp_replay "variants" (List.length variants);
  let rows =
    Pool.parallel_map t.pool
      (fun (v : Protocol.variant) ->
        match Service.variant_config job.Pipeline.Job.config v with
        | Error msg -> Error (v.Protocol.v_name, msg)
        | Ok config ->
          let rp =
            Pipeline.replay ~config ~tweaks:v.Protocol.v_tweaks kernel r.Pipeline.emitted
          in
          Ok
            ( v.Protocol.v_name,
              Json.Obj
                [
                  ("name", Json.Str v.Protocol.v_name);
                  ("exec_time", Json.Int rp.Pipeline.rp_exec_time);
                  ( "vs_base",
                    Json.Float (float_of_int rp.Pipeline.rp_exec_time /. float_of_int base_exec)
                  );
                  ("hops", Json.Int (Stats.hops rp.Pipeline.rp_stats));
                  ("load_wait", Json.Int (Stats.load_wait rp.Pipeline.rp_stats));
                  ("energy_pj", Json.Float (Ndp_sim.Energy.total rp.Pipeline.rp_energy));
                ] ))
      variants
  in
  Ndp_obs.Span.exit spans sp_replay;
  match List.find_opt Result.is_error rows with
  | Some (Error (name, msg)) -> failwith (Printf.sprintf "variant %s: %s" name msg)
  | _ ->
    rendered spans (fun () ->
        body
          (Json.Obj
             [
               ("app", Json.Str r.Pipeline.kernel_name);
               ("scheme", Json.Str r.Pipeline.scheme_name);
               ("base_exec_time", Json.Int r.Pipeline.exec_time);
               ("base_hops", Json.Int (Stats.hops r.Pipeline.stats));
               ( "variants",
                 Json.List (List.filter_map (function Ok (_, j) -> Some j | Error _ -> None) rows)
               );
             ]))

let variants_salt (variants : Protocol.variant list) =
  String.concat ";"
    (List.map
       (fun (v : Protocol.variant) ->
         Printf.sprintf "%s(%s)%s" v.Protocol.v_name
           (String.concat ","
              (List.map (fun (k, n) -> Printf.sprintf "%s=%d" k n) v.Protocol.v_overrides))
           (Key.tweaks v.Protocol.v_tweaks))
       variants)

let cache_stats_json (s : Cache.stats) =
  Json.Obj
    [
      ("entries", Json.Int s.Cache.entries);
      ("hits", Json.Int s.Cache.hits);
      ("misses", Json.Int s.Cache.misses);
      ("evictions", Json.Int s.Cache.evictions);
    ]

(* Per-op latency percentiles, read back from [serve.request_ms] and its
   lazily-registered [serve.request_ms{op=..}] family. The aggregate
   histogram renders under the key "all". *)
let latency_json t =
  Json.Obj
    (List.filter_map
       (fun (name, sample) ->
         match sample with
         | Metrics.Histogram_v { counts; bounds; count; _ } ->
           let base, labels = Ndp_obs.Render.Prom.split_series name in
           if base <> "serve.request_ms" then None
           else
             let key =
               match List.assoc_opt "op" labels with Some op -> op | None -> "all"
             in
             let p q = Metrics.percentile ~counts ~bounds q in
             Some
               ( key,
                 Json.Obj
                   [
                     ("count", Json.Int count);
                     ("p50_ms", Json.Float (p 0.5));
                     ("p95_ms", Json.Float (p 0.95));
                     ("p99_ms", Json.Float (p 0.99));
                   ] )
         | _ -> None)
       (Metrics.to_alist t.reg))

let handle t (req : Protocol.request) =
  Metrics.incr t.requests;
  t.seq <- t.seq + 1;
  let seq = t.seq in
  let op = Protocol.op_name req in
  let spans = Ndp_obs.Span.create ~clock:t.clock () in
  let t0 = t.clock () in
  let root = Ndp_obs.Span.enter spans "request" in
  Ndp_obs.Span.attr_str spans root "op" op;
  let reply =
    try
      match req with
      | Protocol.Ping -> plain (Json.Obj [ ("pong", Json.Bool true) ])
      | Protocol.List_apps ->
        plain
          (Json.Obj
             [
               ( "apps",
                 Json.List (List.map (fun n -> Json.Str n) Ndp_workloads.Suite.names) );
             ])
      | Protocol.Shutdown -> plain (Json.Obj [ ("bye", Json.Bool true) ])
      | Protocol.Cache_stats ->
        plain
          (Json.Obj
             [
               ("results", cache_stats_json (Cache.stats t.results));
               ("schedules", cache_stats_json (Cache.stats t.schedules));
               ("latency", latency_json t);
             ])
      | Protocol.Metrics_dump -> plain (Metrics.to_json t.reg)
      | Protocol.Metrics_text -> plain_text (Metrics.to_prometheus t.reg)
      | Protocol.Run { spec; metrics } ->
        cacheable t spec
          ~salt:(Printf.sprintf "run:%b" metrics)
          (fun job ->
            let o = Service.run ~metrics ~spans job in
            rendered spans (fun () -> body o.Service.doc))
      | Protocol.Profile { spec; interval; top } ->
        cacheable t spec
          ~salt:(Printf.sprintf "profile:%d:%d" interval top)
          (fun job ->
            let trace = Ndp_obs.Trace.create ~events:false ~interval () in
            let o = Service.profile ~spans ~trace ~top job in
            rendered spans (fun () -> body o.Service.p_doc))
      | Protocol.Analyze { spec; threshold } ->
        cacheable t spec
          ~salt:(Printf.sprintf "analyze:%h" threshold)
          (fun job ->
            let o = Service.analyze ~spans ~threshold job in
            rendered spans (fun () -> body o.Service.a_doc))
      | Protocol.Inject spec ->
        cacheable t spec ~salt:"inject" (fun job ->
            let o = Service.inject ~spans ~spec:spec.Protocol.faults job in
            rendered spans (fun () -> body o.Service.i_doc))
      | Protocol.Compile spec ->
        cacheable t spec ~salt:"compile" (fun job -> compile_body t ~spans job)
      | Protocol.Sweep { spec; variants } ->
        cacheable t spec
          ~salt:("sweep:" ^ variants_salt variants)
          (fun job -> sweep_body t ~spans job variants)
      | Protocol.Batch specs -> (
        let jobs =
          List.fold_left
            (fun acc spec ->
              Result.bind acc (fun js ->
                  Result.map (fun j -> j :: js) (Service.job_of_spec spec)))
            (Ok []) specs
          |> Result.map List.rev
        in
        match jobs with
        | Error msg -> error msg
        | Ok jobs ->
          let key =
            Key.digest (String.concat "#" ("batch" :: List.map Key.job jobs))
          in
          let b, hit =
            Cache.find_or_add t.results key (fun () ->
                let results = Pipeline.run_batch ~pool:t.pool jobs in
                body (Json.Obj [ ("results", Json.List (List.map Service.result_json results)) ]))
          in
          reply_of ~ok:true ~cached:hit ~key b)
    with e -> error (Printexc.to_string e)
  in
  Ndp_obs.Span.exit spans root;
  let ms = (t.clock () -. t0) *. 1000.0 in
  Metrics.observe t.latency_ms ms;
  Metrics.observe (Metrics.histogram t.reg (Printf.sprintf "serve.request_ms{op=%s}" op)) ms;
  if not reply.ok then Metrics.incr t.errors;
  { reply with seq; ms; spans }

(* ------------------------------------------------------------------ *)
(* Access and slow logs                                                *)

(* Per-phase totals from the request's span log, without the synthetic
   "request" root (it would double-count everything under it). *)
let phase_fields spans =
  List.filter_map
    (fun (name, (count, total_ms, _cycles)) ->
      if name = "request" then None
      else
        Some (name, Json.Obj [ ("count", Json.Int count); ("ms", Json.Float total_ms) ]))
    (Ndp_obs.Span.summary spans)

(* One JSONL object per request: who, what, hit/miss, latency, bytes out
   and the per-phase breakdown. *)
let log_access t ~id ~op (reply : reply) =
  match t.access_log with
  | None -> ()
  | Some oc ->
    let line =
      Json.to_string
        (Json.Obj
           [
             ("seq", Json.Int reply.seq);
             ("id", Json.Int id);
             ("op", Json.Str op);
             ("key", Json.Str reply.key);
             ("ok", Json.Bool reply.ok);
             ("cached", Json.Bool reply.cached);
             ("ms", Json.Float reply.ms);
             ("bytes_out", Json.Int (String.length reply.body));
             ("spans", Json.Int (Ndp_obs.Span.count reply.spans));
             ("phases", Json.Obj (phase_fields reply.spans));
           ])
    in
    output_string oc line;
    output_char oc '\n';
    flush oc

let log_slow t ~op (reply : reply) =
  match t.slow_ms with
  | Some threshold when reply.ms > threshold ->
    Printf.eprintf "[slow] #%d %s %.3f ms (threshold %.1f ms)\n" reply.seq op reply.ms
      threshold;
    List.iter
      (fun (name, (count, total_ms, _cycles)) ->
        if name <> "request" then
          Printf.eprintf "[slow]   %-9s x%-4d %12.3f ms\n" name count total_ms)
      (Ndp_obs.Span.summary reply.spans);
    flush stderr
  | _ -> ()

(* ------------------------------------------------------------------ *)
(* Session loops                                                       *)

(* One framed session: read request frames until EOF / Shutdown /
   corrupt framing, answering each with an envelope + body pair.
   Per-frame JSON or vocabulary errors are answered in-band (the framing
   is still intact); corrupt framing poisons the byte stream, so the
   session answers once with id 0 and closes. *)
let serve_channels t ic oc =
  let continue = ref true in
  while !continue do
    match Protocol.read_frame ic with
    | Protocol.Eof -> continue := false
    | Protocol.Corrupt msg ->
      Protocol.write_response oc
        { Protocol.id = 0; ok = false; cached = false; key = "" }
        ~body:(body (Json.Obj [ ("error", Json.Str ("framing: " ^ msg)) ]));
      flush oc;
      continue := false
    | Protocol.Frame payload -> (
      match Result.bind (Json.parse payload) Protocol.request_of_json with
      | Error msg ->
        Metrics.incr t.requests;
        Metrics.incr t.errors;
        Protocol.write_response oc
          { Protocol.id = 0; ok = false; cached = false; key = "" }
          ~body:(body (Json.Obj [ ("error", Json.Str msg) ]));
        flush oc
      | Ok (id, req) ->
        let reply = handle t req in
        Protocol.write_response oc
          { Protocol.id = id; ok = reply.ok; cached = reply.cached; key = reply.key }
          ~body:reply.body;
        flush oc;
        let op = Protocol.op_name req in
        log_access t ~id ~op reply;
        log_slow t ~op reply;
        if req = Protocol.Shutdown then begin
          t.stop <- true;
          continue := false
        end)
  done

let serve t ~socket_path =
  (* A client that hangs up before its reply must end only its own
     connection: with SIGPIPE ignored, the failed write surfaces as
     [Sys_error] (EPIPE/ECONNRESET), which the session loop absorbs. *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  (try Unix.unlink socket_path with Unix.Unix_error _ -> ());
  let sock = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind sock (Unix.ADDR_UNIX socket_path);
  Unix.listen sock 16;
  let cleanup () =
    (try Unix.close sock with Unix.Unix_error _ -> ());
    try Unix.unlink socket_path with Unix.Unix_error _ -> ()
  in
  (try
     (* Connections are served one at a time: a sweep's replays and a
        batch's jobs fan out across the domain pool, and sequential
        sessions keep cache accounting and replies deterministic for a
        given request order. *)
     while not t.stop do
       let fd, _ = Unix.accept sock in
       let ic = Unix.in_channel_of_descr fd in
       let oc = Unix.out_channel_of_descr fd in
       (try serve_channels t ic oc with Sys_error _ | End_of_file -> ());
       (try flush oc with Sys_error _ -> ());
       try Unix.close fd with Unix.Unix_error _ -> ()
     done
   with e ->
     cleanup ();
     raise e);
  cleanup ()
