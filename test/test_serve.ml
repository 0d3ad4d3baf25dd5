(* ndp_serve: canonical content keys, the bounded LRU cache, the framed
   wire protocol, and the daemon's caching behaviour (repeat requests are
   byte-identical to cold ones; sweeps reuse captured schedules). *)

module Key = Ndp_serve.Key
module Cache = Ndp_serve.Cache
module Protocol = Ndp_serve.Protocol
module Server = Ndp_serve.Server
module Pipeline = Ndp_core.Pipeline
module Config = Ndp_sim.Config
module Plan = Ndp_fault.Plan

let fft () = Ndp_workloads.Suite.find "fft"
let water () = Ndp_workloads.Suite.find "water"

(* -------------------------------------------------------------------- *)
(* Key: every collision-sensitive input perturbs the canonical key.      *)

(* Each perturbation table destructures the default with a record
   pattern that names every field, and each bound value feeds its own
   entry. A field added to the record is a compile error here (warning 9,
   missing field in a record pattern) until it is bound, and a bound field
   with no entry is one too (unused variable): the tables count fields
   exactly, so a field the key forgets fails [distinct_keys]. *)

(* Every entry changes the key, and no two entries share one. *)
let distinct_keys what key base perturbations =
  let k0 = key base in
  let seen = Hashtbl.create 32 in
  List.iter
    (fun (name, v) ->
      let k = key v in
      if String.equal k k0 then Alcotest.failf "perturbing %s.%s does not change the key" what name;
      (match Hashtbl.find_opt seen k with
      | Some other -> Alcotest.failf "%s.%s and %s.%s key alike" what name what other
      | None -> ());
      Hashtbl.replace seen k name)
    perturbations

let config_perturbations : (string * Config.t) list =
  let d = Config.default in
  let {
    Config.mesh_cols;
    mesh_rows;
    cluster;
    memory_mode;
    line_bytes;
    l1_size;
    l1_assoc;
    l2_bank_size;
    l2_assoc;
    mcdram_capacity;
    hop_cycles;
    link_service_cycles;
    flit_bytes;
    l1_hit_cycles;
    l2_hit_cycles;
    mcdram_cycles;
    ddr_cycles;
    op_cycles;
    sync_cycles;
    load_issue_cycles;
    outstanding_loads;
    coherence;
    prefetch_next_line;
    mlp_overlap;
    page_policy;
    seed;
  } =
    d
  in
  [
    ("mesh_cols", { d with Config.mesh_cols = mesh_cols + 1 });
    ("mesh_rows", { d with Config.mesh_rows = mesh_rows + 1 });
    ( "cluster",
      { d with Config.cluster = (if cluster = Ndp_noc.Cluster.Snc4 then Quadrant else Snc4) } );
    ( "memory_mode",
      { d with Config.memory_mode = (if memory_mode = Config.Flat then Cache_mode else Flat) } );
    ("line_bytes", { d with Config.line_bytes = line_bytes * 2 });
    ("l1_size", { d with Config.l1_size = l1_size * 2 });
    ("l1_assoc", { d with Config.l1_assoc = l1_assoc + 1 });
    ("l2_bank_size", { d with Config.l2_bank_size = l2_bank_size * 2 });
    ("l2_assoc", { d with Config.l2_assoc = l2_assoc + 1 });
    ("mcdram_capacity", { d with Config.mcdram_capacity = mcdram_capacity * 2 });
    ("hop_cycles", { d with Config.hop_cycles = hop_cycles + 1 });
    ("link_service_cycles", { d with Config.link_service_cycles = link_service_cycles + 1 });
    ("flit_bytes", { d with Config.flit_bytes = flit_bytes * 2 });
    ("l1_hit_cycles", { d with Config.l1_hit_cycles = l1_hit_cycles + 1 });
    ("l2_hit_cycles", { d with Config.l2_hit_cycles = l2_hit_cycles + 1 });
    ("mcdram_cycles", { d with Config.mcdram_cycles = mcdram_cycles + 1 });
    ("ddr_cycles", { d with Config.ddr_cycles = ddr_cycles + 1 });
    ("op_cycles", { d with Config.op_cycles = op_cycles + 1 });
    ("sync_cycles", { d with Config.sync_cycles = sync_cycles + 1 });
    ("load_issue_cycles", { d with Config.load_issue_cycles = load_issue_cycles + 1 });
    ("outstanding_loads", { d with Config.outstanding_loads = outstanding_loads + 1 });
    ("coherence", { d with Config.coherence = not coherence });
    ("prefetch_next_line", { d with Config.prefetch_next_line = not prefetch_next_line });
    ("mlp_overlap", { d with Config.mlp_overlap = mlp_overlap +. 0.125 });
    ( "page_policy",
      {
        d with
        Config.page_policy =
          (if page_policy = Ndp_mem.Page_alloc.Coloring then Scrambled else Coloring);
      } );
    ("seed", { d with Config.seed = seed + 1 });
  ]

let key_covers_config () =
  distinct_keys "Config" Key.config Config.default config_perturbations

let tweak_perturbations : (string * Pipeline.tweaks) list =
  let d = Pipeline.no_tweaks in
  let { Pipeline.l1_boost; distance_factor; mc_overrides; cost_scale; extra_syncs } = d in
  [
    ("l1_boost", { d with Pipeline.l1_boost = l1_boost +. 0.25 });
    ("distance_factor", { d with Pipeline.distance_factor = distance_factor *. 0.5 });
    ("mc_overrides", { d with Pipeline.mc_overrides = (3, 1) :: mc_overrides });
    ("cost_scale", { d with Pipeline.cost_scale = cost_scale *. 2.0 });
    ("extra_syncs", { d with Pipeline.extra_syncs = extra_syncs + 1 });
  ]

let key_covers_tweaks () =
  Alcotest.(check string) "no_tweaks keys empty" "" (Key.tweaks Pipeline.no_tweaks);
  distinct_keys "tweaks" Key.tweaks Pipeline.no_tweaks tweak_perturbations;
  (* mc_overrides must serialize pairwise: same flattened ints, different
     pairing, different key. *)
  let a = { Pipeline.no_tweaks with Pipeline.mc_overrides = [ (1, 2); (3, 0) ] } in
  let b = { Pipeline.no_tweaks with Pipeline.mc_overrides = [ (1, 23); (0, 0) ] } in
  if String.equal (Key.tweaks a) (Key.tweaks b) then
    Alcotest.fail "mc_overrides pairings collide"

let option_perturbations : (string * Pipeline.part_options) list =
  let d = Pipeline.partitioned_defaults in
  let {
    Pipeline.window;
    reuse_aware;
    sync_minimize;
    level_based;
    balance_threshold;
    ideal_data;
    use_inspector;
    fuse;
    fuse_capacity;
  } =
    d
  in
  [
    ( "window",
      {
        d with
        Pipeline.window =
          (match window with Pipeline.Adaptive -> Fixed 2 | Pipeline.Fixed k -> Fixed (k + 1));
      } );
    ("reuse_aware", { d with Pipeline.reuse_aware = not reuse_aware });
    ("sync_minimize", { d with Pipeline.sync_minimize = not sync_minimize });
    ("level_based", { d with Pipeline.level_based = not level_based });
    ("balance_threshold", { d with Pipeline.balance_threshold = balance_threshold +. 0.125 });
    ("ideal_data", { d with Pipeline.ideal_data = not ideal_data });
    ("use_inspector", { d with Pipeline.use_inspector = not use_inspector });
    ("fuse", { d with Pipeline.fuse = not fuse });
    ( "fuse_capacity",
      { d with Pipeline.fuse_capacity = Some (Option.value fuse_capacity ~default:0 + 4096) } );
  ]

let key_covers_options () =
  distinct_keys "part_options"
    (fun o -> Key.scheme (Pipeline.Partitioned o))
    Pipeline.partitioned_defaults option_perturbations

let key_covers_scheme () =
  let schemes =
    [
      Pipeline.Default;
      Pipeline.Partitioned Pipeline.partitioned_defaults;
      Pipeline.Partitioned { Pipeline.partitioned_defaults with Pipeline.window = Pipeline.Fixed 2 };
      Pipeline.Partitioned { Pipeline.partitioned_defaults with Pipeline.window = Pipeline.Fixed 4 };
      (* A job differing only in --fuse (or its capacity bound) must miss
         the schedule cache: fused schedules store different task graphs. *)
      Pipeline.Partitioned { Pipeline.partitioned_defaults with Pipeline.fuse = true };
      Pipeline.Partitioned
        { Pipeline.partitioned_defaults with Pipeline.fuse = true; fuse_capacity = Some 4096 };
    ]
  in
  let keys = List.map Key.scheme schemes in
  let distinct = List.sort_uniq compare keys in
  Alcotest.(check int) "scheme keys pairwise distinct" (List.length keys) (List.length distinct)

let key_covers_fault () =
  let mesh = Config.mesh Config.default in
  let p1 = Plan.make ~mesh ~seed:1 [ Plan.Degrade_link (0, 1, 2.0) ] in
  let p2 = Plan.make ~mesh ~seed:2 [ Plan.Degrade_link (0, 1, 2.0) ] in
  let p3 = Plan.make ~mesh ~seed:1 [ Plan.Degrade_link (0, 1, 4.0) ] in
  Alcotest.(check string) "no plan keys empty" "" (Key.fault None);
  let k1 = Key.fault (Some p1) in
  if String.equal k1 "" then Alcotest.fail "a real plan must not key empty";
  if String.equal k1 (Key.fault (Some p2)) then Alcotest.fail "fault seed does not perturb key";
  if String.equal k1 (Key.fault (Some p3)) then Alcotest.fail "fault events do not perturb key"

let key_covers_kernel_content () =
  let f = fft () and w = water () in
  if String.equal (Key.kernel f) (Key.kernel w) then Alcotest.fail "distinct kernels collide";
  (* Same name, different body: content digests must still differ. *)
  let impostor = { w with Ndp_core.Kernel.name = f.Ndp_core.Kernel.name } in
  if String.equal (Key.kernel f) (Key.kernel impostor) then
    Alcotest.fail "same-named kernels with different bodies collide"

let key_covers_job_flags () =
  let job = Pipeline.Job.make Pipeline.Default (fft ()) in
  let base = Key.job job in
  List.iter
    (fun (name, j) ->
      if String.equal (Key.job j) base then
        Alcotest.failf "flipping %s does not change the job key" name)
    [
      ("repair", { job with Pipeline.Job.repair = true });
      ("validate", { job with Pipeline.Job.validate = true });
      ("capture", { job with Pipeline.Job.capture = true });
    ];
  Alcotest.(check int) "digest is 32 hex chars" 32 (String.length (Key.job_digest job))

(* -------------------------------------------------------------------- *)
(* Cache: LRU order, eviction accounting, hit/miss counts.               *)

let cache_lru () =
  let c = Cache.create ~name:"t" ~capacity:2 () in
  let v, hit = Cache.find_or_add c "a" (fun () -> 1) in
  Alcotest.(check bool) "first add misses" false hit;
  Alcotest.(check int) "computed value" 1 v;
  ignore (Cache.find_or_add c "b" (fun () -> 2));
  (* Refresh "a" so "b" is the least recently used entry. *)
  let v, hit = Cache.find_or_add c "a" (fun () -> 99) in
  Alcotest.(check bool) "repeat hits" true hit;
  Alcotest.(check int) "hit returns stored value" 1 v;
  ignore (Cache.find_or_add c "c" (fun () -> 3));
  Alcotest.(check bool) "LRU entry evicted" true (Cache.find c "b" = None);
  Alcotest.(check bool) "refreshed entry survives" true (Cache.find c "a" = Some 1);
  let st = Cache.stats c in
  Alcotest.(check int) "entries" 2 st.Cache.entries;
  Alcotest.(check int) "hits" 1 st.Cache.hits;
  Alcotest.(check int) "misses" 3 st.Cache.misses;
  Alcotest.(check int) "evictions" 1 st.Cache.evictions

let cache_capacity_clamped () =
  let c = Cache.create ~name:"t" ~capacity:0 () in
  Alcotest.(check int) "capacity clamps to 1" 1 (Cache.capacity c);
  ignore (Cache.find_or_add c "a" (fun () -> 1));
  ignore (Cache.find_or_add c "b" (fun () -> 2));
  Alcotest.(check int) "never over capacity" 1 (Cache.stats c).Cache.entries

(* -------------------------------------------------------------------- *)
(* Protocol: JSON codec and framing round-trips.                         *)

let representative_requests () =
  let spec = Protocol.default_spec ~app:"fft" in
  let faulty =
    { spec with Protocol.faults = "kill=2,slow=1x2.5"; fault_seed = Some 7; repair = true }
  in
  [
    Protocol.Ping;
    Protocol.List_apps;
    Protocol.Run { spec; metrics = true };
    Protocol.Compile spec;
    Protocol.Profile { spec; interval = 500; top = 5 };
    Protocol.Analyze { spec; threshold = 2.5 };
    Protocol.Inject faulty;
    Protocol.Batch [ spec; faulty ];
    Protocol.Sweep
      {
        spec;
        variants =
          [
            { Protocol.v_name = "base"; v_overrides = []; v_tweaks = Pipeline.no_tweaks };
            {
              Protocol.v_name = "hop8";
              v_overrides = [ ("hop_cycles", 8) ];
              v_tweaks = { Pipeline.no_tweaks with Pipeline.cost_scale = 2.0 };
            };
          ];
      };
    Protocol.Cache_stats;
    Protocol.Metrics_dump;
    Protocol.Metrics_text;
    Protocol.Shutdown;
  ]

let codec_round_trip () =
  List.iteri
    (fun i req ->
      let id = i + 1 in
      match Protocol.request_of_json (Protocol.request_to_json ~id req) with
      | Ok (id', req') ->
        Alcotest.(check int) "id survives" id id';
        if req' <> req then Alcotest.failf "request %d does not round-trip" id
      | Error msg -> Alcotest.failf "request %d rejected: %s" id msg)
    (representative_requests ())

let framing_round_trip () =
  let path = Filename.temp_file "ndp_serve_test" ".bin" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      let oc = open_out_bin path in
      Protocol.write_frame oc "hello\nworld";
      Protocol.write_frame oc "";
      Protocol.write_request oc ~id:7 (Protocol.Analyze { spec = Protocol.default_spec ~app:"lu"; threshold = 1.5 });
      Protocol.write_response oc
        { Protocol.id = 7; ok = true; cached = true; key = "abc" }
        ~body:"{\n  \"x\": [1,\n2]\n}";
      close_out oc;
      let ic = open_in_bin path in
      (match Protocol.read_frame ic with
      | Protocol.Frame s -> Alcotest.(check string) "payload with newlines" "hello\nworld" s
      | _ -> Alcotest.fail "expected a frame");
      (match Protocol.read_frame ic with
      | Protocol.Frame s -> Alcotest.(check string) "empty payload" "" s
      | _ -> Alcotest.fail "expected an empty frame");
      (match Protocol.read_frame ic with
      | Protocol.Frame s -> (
        match Ndp_obs.Render.Json.parse s with
        | Ok doc -> (
          match Protocol.request_of_json doc with
          | Ok (7, Protocol.Analyze { threshold; _ }) ->
            Alcotest.(check (float 0.0)) "threshold" 1.5 threshold
          | Ok _ -> Alcotest.fail "wrong request decoded"
          | Error m -> Alcotest.fail m)
        | Error m -> Alcotest.fail m)
      | _ -> Alcotest.fail "expected a request frame");
      (match Protocol.read_response ic with
      | Ok (env, body) ->
        Alcotest.(check int) "envelope id" 7 env.Protocol.id;
        Alcotest.(check bool) "envelope cached" true env.Protocol.cached;
        Alcotest.(check string) "envelope key" "abc" env.Protocol.key;
        Alcotest.(check string) "body verbatim" "{\n  \"x\": [1,\n2]\n}" body
      | Error m -> Alcotest.fail m);
      (match Protocol.read_frame ic with
      | Protocol.Eof -> ()
      | _ -> Alcotest.fail "expected EOF");
      close_in ic)

let framing_rejects_garbage () =
  let path = Filename.temp_file "ndp_serve_test" ".bin" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      let oc = open_out_bin path in
      output_string oc "not-a-length\n{}\n";
      close_out oc;
      let ic = open_in_bin path in
      (match Protocol.read_frame ic with
      | Protocol.Corrupt _ -> ()
      | _ -> Alcotest.fail "expected Corrupt on a non-numeric length line");
      close_in ic)

(* -------------------------------------------------------------------- *)
(* Server: cached replies are byte-identical to cold ones.               *)

let specs_for_suite () =
  List.concat_map
    (fun app ->
      List.map
        (fun scheme -> { (Protocol.default_spec ~app) with Protocol.scheme })
        [ "default"; "partitioned" ])
    Ndp_workloads.Suite.names

let cached_replies_byte_identical () =
  let warm = Server.create () in
  let fresh = Server.create () in
  Fun.protect
    ~finally:(fun () ->
      Server.shutdown warm;
      Server.shutdown fresh)
    (fun () ->
      List.iter
        (fun spec ->
          let req = Protocol.Run { spec; metrics = false } in
          let r1 = Server.handle warm req in
          let r2 = Server.handle warm req in
          let rf = Server.handle fresh req in
          let ctx = spec.Protocol.app ^ "/" ^ spec.Protocol.scheme in
          Alcotest.(check bool) (ctx ^ " first reply ok") true r1.Server.ok;
          Alcotest.(check bool) (ctx ^ " first reply uncached") false r1.Server.cached;
          Alcotest.(check bool) (ctx ^ " repeat reply cached") true r2.Server.cached;
          Alcotest.(check string) (ctx ^ " repeat body identical") r1.Server.body r2.Server.body;
          Alcotest.(check string) (ctx ^ " keys agree") r1.Server.key r2.Server.key;
          Alcotest.(check bool) (ctx ^ " fresh reply uncached") false rf.Server.cached;
          Alcotest.(check string) (ctx ^ " fresh body identical") r1.Server.body rf.Server.body)
        (specs_for_suite ()))

(* The [schedules] object of the server's [cache-stats] reply. *)
let schedule_stats server =
  let module J = Ndp_obs.Render.Json in
  let r = Server.handle server Protocol.Cache_stats in
  let sched =
    match Result.map (J.member "schedules") (J.parse r.Server.body) with
    | Ok (Some s) -> s
    | Ok None -> Alcotest.fail "cache-stats has no schedules object"
    | Error m -> Alcotest.fail m
  in
  let field k =
    match J.member k sched with
    | Some (J.Int n) -> n
    | _ -> Alcotest.failf "cache-stats schedules.%s is not an integer" k
  in
  {
    Cache.entries = field "entries";
    hits = field "hits";
    misses = field "misses";
    evictions = field "evictions";
  }

let sweep_variants =
  [
    { Protocol.v_name = "baseline"; v_overrides = []; v_tweaks = Pipeline.no_tweaks };
    { Protocol.v_name = "hop8"; v_overrides = [ ("hop_cycles", 8) ]; v_tweaks = Pipeline.no_tweaks };
  ]

let sweep_reuses_schedule () =
  let spec = Protocol.default_spec ~app:"fft" in
  let sweep = Protocol.Sweep { spec; variants = sweep_variants } in
  let warm = Server.create () in
  let fresh = Server.create () in
  Fun.protect
    ~finally:(fun () ->
      Server.shutdown warm;
      Server.shutdown fresh)
    (fun () ->
      let compile = Server.handle warm (Protocol.Compile spec) in
      Alcotest.(check bool) "compile ok" true compile.Server.ok;
      let s1 = Server.handle warm sweep in
      let sched = schedule_stats warm in
      (* The compile populated the schedule cache; the sweep replayed it. *)
      Alcotest.(check int) "one captured compile" 1 sched.Cache.misses;
      Alcotest.(check int) "sweep reused the capture" 1 sched.Cache.hits;
      let s2 = Server.handle warm sweep in
      Alcotest.(check bool) "repeat sweep cached" true s2.Server.cached;
      Alcotest.(check string) "repeat sweep body identical" s1.Server.body s2.Server.body;
      (* A fresh server compiles from scratch; the body must not leak
         cache state (cold and warm sweeps are byte-identical). *)
      let sf = Server.handle fresh sweep in
      Alcotest.(check string) "cold sweep body identical" s1.Server.body sf.Server.body)

(* One captured schedule is kept, the last: a compile of a second job
   evicts the first job's capture, a sweep of the job just compiled
   replays it, and a sweep of the evicted job compiles again, with a body
   no different from a fresh server's. *)
let keeps_one_capture () =
  let sweep app = Protocol.Sweep { spec = Protocol.default_spec ~app; variants = sweep_variants } in
  let server = Server.create () in
  let fresh = Server.create () in
  Fun.protect
    ~finally:(fun () ->
      Server.shutdown server;
      Server.shutdown fresh)
    (fun () ->
      List.iter
        (fun req ->
          let r = Server.handle server req in
          Alcotest.(check bool) (Protocol.op_name req ^ " ok") true r.Server.ok)
        [
          Protocol.Compile (Protocol.default_spec ~app:"fft");
          Protocol.Compile (Protocol.default_spec ~app:"lu");
          sweep "lu";
        ];
      let fft = Server.handle server (sweep "fft") in
      Alcotest.(check bool) "fft sweep ok" true fft.Server.ok;
      let sched = schedule_stats server in
      Alcotest.(check int) "entries" 1 sched.Cache.entries;
      Alcotest.(check int) "hits" 1 sched.Cache.hits;
      Alcotest.(check int) "misses" 3 sched.Cache.misses;
      Alcotest.(check int) "evictions" 2 sched.Cache.evictions;
      Alcotest.(check string) "fft sweep body is a fresh server's"
        (Server.handle fresh (sweep "fft")).Server.body fft.Server.body)

let errors_reported_in_band () =
  let server = Server.create () in
  Fun.protect
    ~finally:(fun () -> Server.shutdown server)
    (fun () ->
      let r =
        Server.handle server
          (Protocol.Run { spec = Protocol.default_spec ~app:"no-such-app"; metrics = false })
      in
      Alcotest.(check bool) "error reply not ok" false r.Server.ok;
      Alcotest.(check bool) "error reply uncached" false r.Server.cached;
      let is_sub = Astring.String.is_infix ~affix:"error" r.Server.body in
      Alcotest.(check bool) "body carries an error document" true is_sub;
      (* A non-positive fixed window is rejected, not clamped to w=1 under
         a key of its own. *)
      List.iter
        (fun window ->
          let spec = { (Protocol.default_spec ~app:"fft") with Protocol.window } in
          let r = Server.handle server (Protocol.Run { spec; metrics = false }) in
          Alcotest.(check bool) ("window " ^ window ^ " rejected") false r.Server.ok;
          Alcotest.(check bool)
            ("window " ^ window ^ " error names the size")
            true
            (Astring.String.is_infix ~affix:"window size must be positive" r.Server.body))
        [ "0"; "-3" ])

(* "analytic" is an older spelling of the adaptive sizer: both specs must
   resolve to one job and so share one cache entry. *)
let analytic_spelling_shares_key () =
  let digest window =
    match
      Ndp_serve.Service.job_of_spec { (Protocol.default_spec ~app:"fft") with Protocol.window }
    with
    | Ok job -> Key.job_digest job
    | Error m -> Alcotest.fail m
  in
  Alcotest.(check string) "analytic = adaptive" (digest "adaptive") (digest "analytic");
  Alcotest.(check string) "empty = adaptive" (digest "adaptive") (digest "")

(* -------------------------------------------------------------------- *)
(* Telemetry: request tracing, per-op latency, exposition, access log.   *)

module RJ = Ndp_obs.Render.Json
module Metrics = Ndp_obs.Metrics
module Span = Ndp_obs.Span

(* A deterministic server clock: 0.5 ms per reading. *)
let test_clock () =
  let t = ref 0.0 in
  fun () ->
    t := !t +. 0.0005;
    !t

let replies_are_traced () =
  let server = Server.create ~clock:(test_clock ()) () in
  Fun.protect
    ~finally:(fun () -> Server.shutdown server)
    (fun () ->
      let r1 = Server.handle server Protocol.Ping in
      let r2 = Server.handle server (Protocol.Run { spec = Protocol.default_spec ~app:"fft"; metrics = false }) in
      let r3 = Server.handle server Protocol.Ping in
      Alcotest.(check (list int)) "seq is a monotone request counter" [ 1; 2; 3 ]
        [ r1.Server.seq; r2.Server.seq; r3.Server.seq ];
      Alcotest.(check bool) "latency stamped" true (r2.Server.ms > 0.0);
      Alcotest.(check bool) "root span recorded" true (Span.count r1.Server.spans >= 1);
      Alcotest.(check bool) "uncached run records phase spans" true (Span.count r2.Server.spans > 1);
      let phases = List.map fst (Span.summary r2.Server.spans) in
      List.iter
        (fun p ->
          if not (List.mem p phases) then Alcotest.failf "run reply is missing a %S span" p)
        [ "request"; "parse"; "window"; "deps"; "schedule"; "simulate" ];
      (* per-phase span time reconciles with the request latency: the
         phases live under the root, so their sum is bounded by it *)
      let phase_ms =
        List.fold_left
          (fun acc (name, (_, ms, _)) -> if name = "request" then acc else acc +. ms)
          0.0 (Span.summary r2.Server.spans)
      in
      Alcotest.(check bool) "phase spans sum within request latency" true
        (phase_ms > 0.0 && phase_ms <= r2.Server.ms);
      (* a cached repeat skips the pipeline: root span only *)
      let r4 = Server.handle server (Protocol.Run { spec = Protocol.default_spec ~app:"fft"; metrics = false }) in
      Alcotest.(check bool) "cached repeat" true r4.Server.cached;
      Alcotest.(check int) "cached reply has only the root span" 1 (Span.count r4.Server.spans);
      (* per-op histograms appear in the registry *)
      let reg = Server.registry server in
      (match Metrics.find reg "serve.request_ms{op=ping}" with
      | Some (Metrics.Histogram_v h) -> Alcotest.(check int) "two pings observed" 2 h.count
      | _ -> Alcotest.fail "no per-op histogram for ping");
      match Metrics.find reg "serve.request_ms" with
      | Some (Metrics.Histogram_v h) -> Alcotest.(check int) "aggregate counts all" 4 h.count
      | _ -> Alcotest.fail "no aggregate latency histogram")

(* Under the wall clock, the phase spans of a cold profile account for
   nearly all of the request latency: what runs outside a named phase
   (key digest, cache lookup, framing) stays under 5%. *)
let cold_phases_cover_latency () =
  let server = Server.create ~jobs:1 () in
  let spec = Protocol.default_spec ~app:"fft" in
  Fun.protect
    ~finally:(fun () -> Server.shutdown server)
    (fun () ->
      List.iter
        (fun req ->
          let r = Server.handle server req in
          let op = Protocol.op_name req in
          Alcotest.(check bool) (op ^ " cold") false r.Server.cached;
          let phase_ms =
            List.fold_left
              (fun acc (name, (_, ms, _)) -> if name = "request" then acc else acc +. ms)
              0.0 (Span.summary r.Server.spans)
          in
          if phase_ms < 0.95 *. r.Server.ms || phase_ms > r.Server.ms then
            Alcotest.failf "%s: phase spans %.3f ms vs request %.3f ms (ratio %.3f)" op phase_ms
              r.Server.ms (phase_ms /. r.Server.ms))
        [
          Protocol.Profile { spec; interval = 1000; top = 10 };
          Protocol.Analyze { spec; threshold = 4.0 };
          Protocol.Compile spec;
          Protocol.Sweep
            {
              spec;
              variants =
                [
                  { Protocol.v_name = "base"; v_overrides = []; v_tweaks = Pipeline.no_tweaks };
                  {
                    Protocol.v_name = "hop8";
                    v_overrides = [ ("hop_cycles", 8) ];
                    v_tweaks = Pipeline.no_tweaks;
                  };
                ];
            };
        ])

let metrics_text_exposition () =
  let server = Server.create ~clock:(test_clock ()) () in
  Fun.protect
    ~finally:(fun () -> Server.shutdown server)
    (fun () ->
      ignore (Server.handle server Protocol.Ping);
      let r = Server.handle server Protocol.Metrics_text in
      Alcotest.(check bool) "ok" true r.Server.ok;
      Alcotest.(check bool) "uncached" false r.Server.cached;
      let has affix = Astring.String.is_infix ~affix r.Server.body in
      Alcotest.(check bool) "body is not JSON" false (Astring.String.is_prefix ~affix:"{" r.Server.body);
      Alcotest.(check bool) "counter family present" true (has "# TYPE serve_requests counter");
      Alcotest.(check bool) "histogram family present" true (has "# TYPE serve_request_ms histogram");
      Alcotest.(check bool) "per-op label series" true (has "serve_request_ms_bucket{op=\"ping\",le=");
      Alcotest.(check bool) "+Inf closes buckets" true (has "le=\"+Inf\"}");
      Alcotest.(check bool) "count series" true (has "serve_request_ms_count "))

let cache_stats_latency_section () =
  let server = Server.create ~clock:(test_clock ()) () in
  Fun.protect
    ~finally:(fun () -> Server.shutdown server)
    (fun () ->
      ignore (Server.handle server Protocol.Ping);
      ignore (Server.handle server (Protocol.Run { spec = Protocol.default_spec ~app:"fft"; metrics = false }));
      let r = Server.handle server Protocol.Cache_stats in
      match RJ.parse r.Server.body with
      | Error m -> Alcotest.fail m
      | Ok doc -> (
        match RJ.member "latency" doc with
        | Some lat ->
          List.iter
            (fun key ->
              match RJ.member key lat with
              | Some entry ->
                (match (RJ.member "count" entry, RJ.member "p95_ms" entry) with
                | Some (RJ.Int n), Some _ -> Alcotest.(check bool) (key ^ " count positive") true (n > 0)
                | _ -> Alcotest.failf "latency.%s missing count/p95_ms" key)
              | None -> Alcotest.failf "latency section missing %S" key)
            [ "all"; "ping"; "run" ]
        | None -> Alcotest.fail "cache-stats has no latency section"))

let access_log_jsonl () =
  let req_path = Filename.temp_file "ndp_serve_req" ".bin" in
  let rsp_path = Filename.temp_file "ndp_serve_rsp" ".bin" in
  let log_path = Filename.temp_file "ndp_serve_log" ".jsonl" in
  Fun.protect
    ~finally:(fun () ->
      List.iter (fun p -> try Sys.remove p with Sys_error _ -> ()) [ req_path; rsp_path; log_path ])
    (fun () ->
      let oc = open_out_bin req_path in
      let session =
        [
          Protocol.Ping;
          Protocol.Run { spec = Protocol.default_spec ~app:"fft"; metrics = false };
          Protocol.Run { spec = Protocol.default_spec ~app:"fft"; metrics = false };
          Protocol.Shutdown;
        ]
      in
      List.iteri (fun i req -> Protocol.write_request oc ~id:(i + 1) req) session;
      close_out oc;
      let log_oc = open_out log_path in
      let server = Server.create ~clock:(test_clock ()) ~access_log:log_oc ~slow_ms:1e9 () in
      let ic = open_in_bin req_path in
      let rsp_oc = open_out_bin rsp_path in
      Server.serve_channels server ic rsp_oc;
      close_in ic;
      close_out rsp_oc;
      Server.shutdown server;
      close_out log_oc;
      let lines = In_channel.with_open_bin log_path In_channel.input_all in
      let lines = String.split_on_char '\n' lines |> List.filter (fun l -> l <> "") in
      Alcotest.(check int) "one JSONL line per request" (List.length session) (List.length lines);
      List.iteri
        (fun i line ->
          match RJ.parse line with
          | Error m -> Alcotest.failf "access-log line %d unparseable: %s" i m
          | Ok doc ->
            Alcotest.(check bool) (Printf.sprintf "line %d seq" i) true
              (RJ.member "seq" doc = Some (RJ.Int (i + 1)));
            Alcotest.(check bool) (Printf.sprintf "line %d id" i) true
              (RJ.member "id" doc = Some (RJ.Int (i + 1)));
            List.iter
              (fun field ->
                if RJ.member field doc = None then
                  Alcotest.failf "access-log line %d missing %S" i field)
              [ "op"; "key"; "ok"; "cached"; "ms"; "bytes_out"; "spans"; "phases" ])
        lines;
      (* the uncached run (line 2) carries phase totals; the cached repeat
         (line 3) does not *)
      let phases_of line =
        match RJ.parse line with
        | Ok doc -> (match RJ.member "phases" doc with Some (RJ.Obj kvs) -> List.map fst kvs | _ -> [])
        | Error _ -> []
      in
      Alcotest.(check bool) "cold run logs phase breakdown" true
        (List.mem "simulate" (phases_of (List.nth lines 1)));
      Alcotest.(check (list string)) "cached repeat logs no phases" [] (phases_of (List.nth lines 2));
      (* ops recorded via Protocol.op_name *)
      let op_of line =
        match RJ.parse line with
        | Ok doc -> (match RJ.member "op" doc with Some (RJ.Str s) -> s | _ -> "?")
        | Error _ -> "?"
      in
      Alcotest.(check (list string)) "ops in request order" [ "ping"; "run"; "run"; "shutdown" ]
        (List.map op_of lines))

let op_names_cover_requests () =
  List.iter
    (fun req ->
      let name = Protocol.op_name req in
      if name = "" then Alcotest.fail "empty op name";
      (* ops that round-trip through the wire decode back to the same op
         name (the access-log vocabulary is the wire vocabulary) *)
      match Protocol.request_of_json (Protocol.request_to_json ~id:1 req) with
      | Ok (_, req') -> Alcotest.(check string) "op name stable" name (Protocol.op_name req')
      | Error m -> Alcotest.fail m)
    (representative_requests ())

(* -------------------------------------------------------------------- *)
(* The CLI resolves its flags as the daemon resolves a spec.             *)

let ndp_run args =
  let exe = Filename.concat (Filename.dirname Sys.executable_name) "../bin/ndp_run.exe" in
  let ic = Unix.open_process_args_in exe (Array.of_list (exe :: args)) in
  let out = In_channel.input_all ic in
  match Unix.close_process_in ic with
  | Unix.WEXITED 0 -> String.trim out
  | _ -> Alcotest.failf "ndp_run %s failed" (String.concat " " args)

let cli_bodies_match_service () =
  let job spec =
    match Ndp_serve.Service.job_of_spec spec with Ok j -> j | Error m -> Alcotest.fail m
  in
  let json = Ndp_obs.Render.Json.to_string in
  let water = Protocol.default_spec ~app:"water" in
  let inject spec = json (Ndp_serve.Service.inject ~spec:spec.Protocol.faults (job spec)).i_doc in
  Alcotest.(check string) "inject, empty fault spec" (inject water)
    (ndp_run [ "inject"; "water"; "--format"; "json" ]);
  Alcotest.(check string) "inject, seeded faults with repair"
    (inject { water with Protocol.faults = "kill=2"; fault_seed = Some 7; repair = true })
    (ndp_run [ "inject"; "water"; "--faults"; "kill=2"; "--seed"; "7"; "--repair"; "--format"; "json" ]);
  Alcotest.(check string) "run --fuse"
    (json (Ndp_serve.Service.run (job { water with Protocol.scheme = "partitioned+fuse" })).doc)
    (ndp_run [ "run"; "water"; "--fuse"; "--format"; "json" ])

(* -------------------------------------------------------------------- *)
(* analyze: one window decision per job.                                 *)

(* The [windows] object of an analyze or compile document. *)
let json_windows = function
  | RJ.Obj fields -> (
    match List.assoc_opt "windows" fields with
    | Some (RJ.Obj ws) ->
      List.map
        (function n, RJ.Int w -> (n, w) | n, _ -> Alcotest.failf "window %s is not an integer" n)
        ws
    | _ -> Alcotest.fail "document has no windows object")
  | _ -> Alcotest.fail "document is not an object"

(* [analyze] prices the windows its own run compiled. barnes, fft and
   raytrace are the kernels whose nests a fresh static context sizes
   differently from the run (whose miss predictor the earlier nests
   trained), under the all-to-all and snc-4 cluster modes. *)
let analyze_windows_are_the_runs () =
  let modes =
    List.concat_map
      (fun cluster -> List.map (fun memory -> (cluster, memory)) Config.all_memory_modes)
      Ndp_noc.Cluster.all
  in
  List.iter
    (fun (cluster, memory) ->
      let config = Config.with_modes Config.default cluster memory in
      List.iter
        (fun name ->
          let job =
            Pipeline.Job.make ~config
              (Pipeline.Partitioned Pipeline.partitioned_defaults)
              (Ndp_workloads.Suite.find name)
          in
          let { Ndp_serve.Service.a_result; a_doc; _ } =
            Ndp_serve.Service.analyze ~threshold:4.0 job
          in
          Alcotest.(check (list (pair string int)))
            (Printf.sprintf "%s %s/%s" name (Ndp_noc.Cluster.to_string cluster)
               (Config.memory_mode_to_string memory))
            a_result.Pipeline.windows_chosen (json_windows a_doc))
        [ "barnes"; "fft"; "raytrace" ])
    modes

(* -------------------------------------------------------------------- *)
(* compile and sweep: the daemon's bodies are in-process runs.           *)

(* The daemon's [compile] body reports the in-process capture run, and
   each [sweep] row is [Pipeline.replay] of that capture under the
   variant's config and tweaks. *)
let compile_and_sweep_bodies_are_in_process () =
  let variants =
    sweep_variants
    @ [
        {
          Protocol.v_name = "hop8-scaled";
          v_overrides = [ ("hop_cycles", 8) ];
          v_tweaks = { Pipeline.no_tweaks with Pipeline.cost_scale = 2.0 };
        };
      ]
  in
  let parse (r : Server.reply) =
    Alcotest.(check bool) "reply ok" true r.Server.ok;
    match RJ.parse r.Server.body with Ok doc -> doc | Error m -> Alcotest.fail m
  in
  let field ctx k doc =
    match RJ.member k doc with Some v -> v | None -> Alcotest.failf "%s has no %s" ctx k
  in
  let check_int ctx k want doc =
    match field ctx k doc with
    | RJ.Int got -> Alcotest.(check int) (ctx ^ " " ^ k) want got
    | _ -> Alcotest.failf "%s %s is not an integer" ctx k
  in
  let server = Server.create () in
  Fun.protect
    ~finally:(fun () -> Server.shutdown server)
    (fun () ->
      List.iter
        (fun (app, scheme_name, scheme) ->
          let ctx = app ^ "/" ^ scheme_name in
          let spec = { (Protocol.default_spec ~app) with Protocol.scheme = scheme_name } in
          let job = Pipeline.Job.make ~capture:true scheme (Ndp_workloads.Suite.find app) in
          let r = Pipeline.Job.run job in
          let compile = parse (Server.handle server (Protocol.Compile spec)) in
          Alcotest.(check string) (ctx ^ " schedule_key")
            (RJ.to_string (RJ.Str (Key.job_digest job)))
            (RJ.to_string (field ctx "schedule_key" compile));
          check_int ctx "exec_time" r.Pipeline.exec_time compile;
          check_int ctx "tasks" r.Pipeline.tasks_emitted compile;
          check_int ctx "instances" r.Pipeline.num_instances compile;
          check_int ctx "captured_calls" (List.length r.Pipeline.emitted) compile;
          Alcotest.(check (list (pair string int)))
            (ctx ^ " windows") r.Pipeline.windows_chosen (json_windows compile);
          let sweep = parse (Server.handle server (Protocol.Sweep { spec; variants })) in
          let rows =
            match field ctx "variants" sweep with
            | RJ.List rows -> rows
            | _ -> Alcotest.failf "%s sweep variants is not a list" ctx
          in
          Alcotest.(check int) (ctx ^ " one row per variant") (List.length variants)
            (List.length rows);
          List.iter2
            (fun (v : Protocol.variant) row ->
              let ctx = ctx ^ " " ^ v.Protocol.v_name in
              let config =
                match Ndp_serve.Service.variant_config job.Pipeline.Job.config v with
                | Ok c -> c
                | Error m -> Alcotest.fail m
              in
              let rp =
                Pipeline.replay ~config ~tweaks:v.Protocol.v_tweaks job.Pipeline.Job.kernel
                  r.Pipeline.emitted
              in
              let stats = rp.Pipeline.rp_stats in
              check_int ctx "exec_time" rp.Pipeline.rp_exec_time row;
              check_int ctx "hops" (Ndp_sim.Stats.hops stats) row;
              check_int ctx "load_wait" (Ndp_sim.Stats.load_wait stats) row;
              Alcotest.(check string) (ctx ^ " energy_pj")
                (RJ.to_string (RJ.Float (Ndp_sim.Energy.total rp.Pipeline.rp_energy)))
                (RJ.to_string (field ctx "energy_pj" row)))
            variants rows)
        [
          ("fft", "partitioned", Pipeline.Partitioned Pipeline.partitioned_defaults);
          ("lu", "default", Pipeline.Default);
        ])

(* -------------------------------------------------------------------- *)
(* The socket daemon outlives a client that hangs up before its reply.   *)

(* The reply to a closed socket fails with EPIPE; unless the daemon
   ignores SIGPIPE, the signal kills it before the error can be handled.
   A daemon process (the CLI's [serve], spawned rather than forked: the
   test process may already hold live pool domains) gets a cold run, the
   client hangs up at once, and a fresh connection must still be answered
   by the same process. That connection then sends one profile request
   twice: the repeat is a result-cache hit whose body is byte-identical to
   the cold reply's. *)
let daemon_survives_hangup () =
  let socket_path = Filename.temp_file "ndp_serve" ".sock" in
  Sys.remove socket_path;
  let exe = Filename.concat (Filename.dirname Sys.executable_name) "../bin/ndp_run.exe" in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let pid =
    Fun.protect
      ~finally:(fun () -> Unix.close null)
      (fun () ->
        Unix.create_process exe
          [| exe; "serve"; "--socket"; socket_path; "--jobs"; "1" |]
          null null null)
  in
  let status = ref None in
  let reap () =
    if !status = None then status := Some (snd (Unix.waitpid [] pid));
    Option.get !status
  in
  Fun.protect
    ~finally:(fun () ->
      if !status = None then (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      ignore (reap ());
      try Sys.remove socket_path with Sys_error _ -> ())
    (fun () ->
      (* Retry until the daemon has bound and is listening. *)
      let rec connect tries =
        let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
        match Unix.connect fd (Unix.ADDR_UNIX socket_path) with
        | () -> fd
        | exception Unix.Unix_error (err, _, _) ->
          Unix.close fd;
          if tries = 0 then Alcotest.failf "cannot connect: %s" (Unix.error_message err);
          Unix.sleepf 0.05;
          connect (tries - 1)
      in
      let oc = Unix.out_channel_of_descr (connect 200) in
      Protocol.write_request oc ~id:1
        (Protocol.Run { spec = Protocol.default_spec ~app:"fft"; metrics = false });
      close_out oc;
      let client =
        match Ndp_serve.Client.connect socket_path with
        | Ok c -> c
        | Error m -> Alcotest.failf "daemon gone after the hang-up: %s" m
      in
      (match Ndp_serve.Client.rpc client Protocol.Ping with
      | Ok (env, body) ->
        Alcotest.(check bool) "ping ok" true env.Protocol.ok;
        Alcotest.(check string) "pong" {|{"pong":true}|} body
      | Error m | (exception Sys_error m) -> Alcotest.failf "ping after the hang-up failed: %s" m);
      Alcotest.(check bool) "daemon still running" true
        (fst (Unix.waitpid [ Unix.WNOHANG ] pid) = 0);
      let profile () =
        match
          Ndp_serve.Client.rpc client
            (Protocol.Profile
               { spec = Protocol.default_spec ~app:"fft"; interval = 1000; top = 10 })
        with
        | Ok (env, body) ->
          Alcotest.(check bool) "profile ok" true env.Protocol.ok;
          (env.Protocol.cached, body)
        | Error m | (exception Sys_error m) -> Alcotest.failf "profile over the socket failed: %s" m
      in
      let cold_cached, cold = profile () in
      let warm_cached, warm = profile () in
      Alcotest.(check bool) "first profile is cold" false cold_cached;
      Alcotest.(check bool) "repeat profile is cached" true warm_cached;
      Alcotest.(check string) "cached body byte-identical" cold warm;
      ignore (Ndp_serve.Client.rpc client Protocol.Shutdown);
      Ndp_serve.Client.close client;
      match reap () with
      | Unix.WEXITED 0 -> ()
      | Unix.WEXITED n -> Alcotest.failf "daemon exited with %d" n
      | Unix.WSIGNALED n | Unix.WSTOPPED n -> Alcotest.failf "daemon killed by signal %d" n)

let tests =
  [
    ( "serve",
      [
        Alcotest.test_case "key covers every Config field" `Quick key_covers_config;
        Alcotest.test_case "key covers every tweak field" `Quick key_covers_tweaks;
        Alcotest.test_case "key covers scheme + window policy" `Quick key_covers_scheme;
        Alcotest.test_case "key covers every pass option" `Quick key_covers_options;
        Alcotest.test_case "key covers fault spec + seed" `Quick key_covers_fault;
        Alcotest.test_case "key covers kernel content" `Quick key_covers_kernel_content;
        Alcotest.test_case "key covers job flags" `Quick key_covers_job_flags;
        Alcotest.test_case "cache LRU eviction accounting" `Quick cache_lru;
        Alcotest.test_case "cache capacity clamps to 1" `Quick cache_capacity_clamped;
        Alcotest.test_case "request codec round-trips" `Quick codec_round_trip;
        Alcotest.test_case "framing round-trips" `Quick framing_round_trip;
        Alcotest.test_case "framing rejects garbage" `Quick framing_rejects_garbage;
        Alcotest.test_case "cached replies byte-identical (suite x schemes)" `Slow
          cached_replies_byte_identical;
        Alcotest.test_case "sweep reuses the captured schedule" `Quick sweep_reuses_schedule;
        Alcotest.test_case "errors reported in band" `Quick errors_reported_in_band;
        Alcotest.test_case "analytic spelling shares the adaptive key" `Quick
          analytic_spelling_shares_key;
        Alcotest.test_case "replies are traced" `Quick replies_are_traced;
        Alcotest.test_case "cold phases cover latency" `Quick cold_phases_cover_latency;
        Alcotest.test_case "metrics-text exposition" `Quick metrics_text_exposition;
        Alcotest.test_case "cache-stats latency section" `Quick cache_stats_latency_section;
        Alcotest.test_case "access log JSONL" `Quick access_log_jsonl;
        Alcotest.test_case "op names cover requests" `Quick op_names_cover_requests;
        Alcotest.test_case "CLI bodies match the service's" `Quick cli_bodies_match_service;
        Alcotest.test_case "daemon survives a client hang-up" `Quick daemon_survives_hangup;
        Alcotest.test_case "analyze windows are the run's" `Slow analyze_windows_are_the_runs;
        Alcotest.test_case "the daemon keeps one captured schedule" `Quick keeps_one_capture;
        Alcotest.test_case "compile and sweep bodies are the in-process run's" `Quick
          compile_and_sweep_bodies_are_in_process;
      ] );
  ]
