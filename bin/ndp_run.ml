(* Command-line driver: compile one of the twelve application kernels under
   a placement scheme and simulate it on the KNL-like mesh.

     ndp_run list
     ndp_run run barnes --scheme partitioned --cluster quadrant --memory flat
     ndp_run compare water --window 4
     ndp_run stats ocean --format json
     ndp_run trace mg -o trace.json
     ndp_run codegen fft

   Every subcommand is an entry in the declarative [commands] table below:
   name, one-line summary, and a term built from the shared flag specs in
   [Args]. Help output is generated from the table. *)

open Cmdliner
module Render = Ndp_obs.Render
module Metrics = Ndp_obs.Metrics
module Trace = Ndp_obs.Trace
module Stats = Ndp_sim.Stats
module Pipeline = Ndp_core.Pipeline
module Service = Ndp_serve.Service
module Protocol = Ndp_serve.Protocol

(* ------------------------------------------------------------------ *)
(* Shared flag specs                                                   *)

module Args = struct
  let kernel_conv =
    let parse name =
      match Ndp_workloads.Suite.find name with
      | k -> Ok k
      | exception Not_found ->
        Error (`Msg (Printf.sprintf "unknown application %S (try `ndp_run list')" name))
    in
    Arg.conv (parse, fun ppf k -> Format.pp_print_string ppf k.Ndp_core.Kernel.name)

  let cluster_conv =
    let parse s = Result.map_error (fun m -> `Msg m) (Ndp_noc.Cluster.of_string s) in
    Arg.conv (parse, fun ppf c -> Format.pp_print_string ppf (Ndp_noc.Cluster.to_string c))

  let memory_conv =
    let parse s = Result.map_error (fun m -> `Msg m) (Ndp_sim.Config.memory_mode_of_string s) in
    Arg.conv
      (parse, fun ppf m -> Format.pp_print_string ppf (Ndp_sim.Config.memory_mode_to_string m))

  let kernel =
    Arg.(
      required & pos 0 (some kernel_conv) None & info [] ~docv:"APP" ~doc:"Application kernel name.")

  let kernel_opt =
    Arg.(
      value
      & pos 0 (some kernel_conv) None
      & info [] ~docv:"APP" ~doc:"Check one application only (default: the whole suite).")

  let cluster =
    Arg.(
      value
      & opt cluster_conv Ndp_noc.Cluster.Quadrant
      & info [ "cluster" ] ~doc:"Cluster mode: all-to-all, quadrant or snc-4.")

  let memory =
    Arg.(
      value
      & opt memory_conv Ndp_sim.Config.Flat
      & info [ "memory" ] ~doc:"Memory mode: flat, cache or hybrid.")

  let window_to_string = function
    | Pipeline.Adaptive -> "adaptive"
    | Pipeline.Fixed k -> string_of_int k

  let window_conv =
    let parse s = Result.map_error (fun m -> `Msg m) (Service.window_of_string s) in
    Arg.conv (parse, fun ppf w -> Format.pp_print_string ppf (window_to_string w))

  let window =
    Arg.(
      value
      & opt window_conv Pipeline.Adaptive
      & info [ "window" ]
          ~doc:
            "Window size: a positive fixed integer, or $(b,adaptive) to size each nest for \
             the least estimated data movement ($(b,analytic) is an older spelling of \
             $(b,adaptive)).")

  let threshold =
    Arg.(
      value
      & opt float 4.0
      & info [ "threshold" ] ~docv:"R"
          ~doc:
            "Maximum tolerated total divergence ratio between the static cost model and the \
             measured ledger, as max(static,measured)/min(static,measured) ($(b,analyze) \
             only). The static model prices compiler-visible movement; runtime adds traffic \
             it cannot see (misses, syncs, inspector), so suite ratios sit between x1.0 and \
             x3.02 at the default cluster and memory modes. Exceeding it exits nonzero.")

  let scheme =
    Arg.(
      value
      & opt (enum [ ("default", `Default); ("partitioned", `Partitioned) ]) `Partitioned
      & info [ "scheme" ] ~doc:"Computation placement: default or partitioned.")

  (* The one output-format vocabulary, shared by check/stats/trace/run. *)
  let format =
    Arg.(
      value
      & opt (enum Render.all_formats) Render.Human
      & info [ "format" ] ~doc:"Output format: human, sexp, json or jsonl.")

  let metrics =
    Arg.(
      value
      & flag
      & info [ "metrics" ]
          ~doc:"Collect the metrics registry during the run and dump it after the result.")

  let jobs =
    Arg.(
      value
      & opt (some int) None
      & info [ "j"; "jobs" ]
          ~doc:
            "Number of domains for parallel work: $(b,check)'s validation cells, $(b,serve)'s \
             sweep replays and batch jobs. Default: $(b,NDP_JOBS) or the recommended domain \
             count. Output is identical at any job count.")

  let out_file =
    Arg.(
      value
      & opt string "trace.json"
      & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Output file; \"-\" writes to stdout.")

  let interval =
    Arg.(
      value
      & opt int 1000
      & info [ "interval" ] ~docv:"N"
          ~doc:
            "Timeline sampling interval in simulated cycles ($(b,profile) only). 0 disables \
             the timeline and keeps just the movement ledger.")

  let top =
    Arg.(
      value
      & opt int 10
      & info [ "top" ] ~docv:"K"
          ~doc:"Rows shown in the top-K movement-source table ($(b,profile) only).")

  let profile_out =
    Arg.(
      value
      & opt string ""
      & info [ "o"; "output" ] ~docv:"FILE"
          ~doc:
            "Also write a Chrome/Perfetto trace — task events plus one counter track per \
             timeline series — to FILE; \"-\" writes it to stdout.")

  let spans =
    Arg.(
      value
      & flag
      & info [ "spans" ]
          ~doc:
            "Collect per-phase pipeline spans (parse/deps/window/fusion/schedule/simulate) \
             and append them to the output: a $(b,spans) object under $(b,--format json), a \
             per-phase summary table under $(b,--format human), nested slices in the \
             Perfetto trace written by $(b,-o).")

  let faults =
    Arg.(
      value
      & opt string ""
      & info [ "faults" ] ~docv:"SPEC"
          ~doc:
            "Comma-separated fault spec: $(b,kill=N) or $(b,kill=A>B) (kill N random links / \
             one specific link), $(b,slow=NxF) or $(b,slow=A>BxF) (degrade links by factor F), \
             $(b,stall=NODE\\@START+LEN) (node stall window), $(b,mc=NODExF) (backpressure the \
             MC nearest NODE). Empty spec injects nothing.")

  let fault_seed =
    Arg.(
      value
      & opt (some int) None
      & info [ "seed"; "fault-seed" ] ~docv:"SEED"
          ~doc:
            "Seed for the plan's random choices (which links $(b,kill=N) removes). Default: the \
             simulator config's seed. A fixed seed gives byte-identical runs.")

  let repair =
    Arg.(
      value
      & flag
      & info [ "repair" ]
          ~doc:
            "Hand the fault plan to the compiler as well: partition over the surviving mesh \
             with degraded link weights and remap subcomputations off stalled/isolated nodes.")

  let fuse =
    Arg.(
      value
      & flag
      & info [ "fuse" ]
          ~doc:
            "Fuse producer$(b,->)consumer statement chains before MST scheduling (partitioned \
             scheme only): each fused group runs on one node and intermediate store write-backs \
             stay in that node's L1 instead of crossing the NoC.")

  let fuse_capacity =
    Arg.(
      value
      & opt (some int) None
      & info [ "fuse-capacity" ] ~docv:"BYTES"
          ~doc:
            "L1 footprint budget per fused group in bytes (with $(b,--fuse)). Default: the \
             config's L1 size. 0 disables fusion (identity pass).")

  let fusion =
    Arg.(
      value
      & flag
      & info [ "fusion" ]
          ~doc:
            "$(b,analyze) only: report the fusion decision table instead of the static cost \
             table — each fused chain with its predicted saved flit-hops reconciled against the \
             measured delta between an unfused and a fused run.")
end

(* ------------------------------------------------------------------ *)
(* Shared helpers                                                      *)

(* The job flags in the daemon's wire vocabulary. *)
let spec_of_flags app cluster memory scheme window =
  {
    Protocol.app;
    scheme = (match scheme with `Default -> "default" | `Partitioned -> "partitioned");
    window = Args.window_to_string window;
    cluster = Ndp_noc.Cluster.to_string cluster;
    memory = Ndp_sim.Config.memory_mode_to_string memory;
    tweaks = Pipeline.no_tweaks;
    faults = "";
    fault_seed = None;
    repair = false;
  }

(* [--fuse] selects the partitioned+fuse scheme. *)
let with_fuse fuse (spec : Protocol.job_spec) =
  if fuse && spec.Protocol.scheme = "partitioned" then
    { spec with Protocol.scheme = "partitioned+fuse" }
  else spec

(* The one term for the job a subcommand runs: APP, --cluster, --memory,
   --scheme and --window. *)
let job_spec =
  Term.(
    const (fun (k : Ndp_core.Kernel.t) -> spec_of_flags k.Ndp_core.Kernel.name)
    $ Args.kernel $ Args.cluster $ Args.memory $ Args.scheme $ Args.window)

let or_exit cmd = function
  | Ok v -> v
  | Error msg ->
    Printf.eprintf "ndp_run %s: %s\n" cmd msg;
    exit 2

(* Every job is resolved by [Service.job_of_spec], as the daemon resolves
   a request, so a subcommand's [--format json] output is byte-identical
   to the matching response body (the document builders live in
   [Service] too). [fuse_capacity] has no wire spelling: it is set on the
   resolved job. *)
let job_of_flags ?(fuse = false) ?fuse_capacity cmd spec =
  let job = or_exit cmd (Service.job_of_spec (with_fuse fuse spec)) in
  match (fuse_capacity, job.Pipeline.Job.scheme) with
  | Some _, Pipeline.Partitioned o ->
    { job with Pipeline.Job.scheme = Pipeline.Partitioned { o with Pipeline.fuse_capacity } }
  | _ -> job

(* ------------------------------------------------------------------ *)
(* run / compare                                                       *)

let run_act spec fuse fuse_capacity metrics format =
  let job = job_of_flags ~fuse ?fuse_capacity "run" spec in
  let o = Service.run ~metrics job in
  print_endline (Render.output format ~human:o.Service.human o.Service.doc)

let compare_act kernel cluster memory window fuse metrics format =
  let job scheme =
    job_of_flags ~fuse "compare"
      (spec_of_flags kernel.Ndp_core.Kernel.name cluster memory scheme window)
  in
  let od = Service.run ~metrics (job `Default) in
  let oo = Service.run ~metrics (job `Partitioned) in
  let d = od.Service.result and o = oo.Service.result in
  let imp base opt = 100.0 *. float_of_int (base - opt) /. float_of_int (max 1 base) in
  let exec_imp = imp d.Pipeline.exec_time o.Pipeline.exec_time in
  let move_imp = imp (Stats.hops d.Pipeline.stats) (Stats.hops o.Pipeline.stats) in
  let doc =
    Render.Json.Obj
      [
        ("default", od.Service.doc);
        ("partitioned", oo.Service.doc);
        ( "improvement",
          Render.Json.Obj
            [ ("exec_pct", Render.Json.Float exec_imp); ("movement_pct", Render.Json.Float move_imp) ]
        );
      ]
  in
  let human () =
    String.concat "\n"
      [
        od.Service.human ();
        "";
        oo.Service.human ();
        "";
        Printf.sprintf "improvement: exec %.1f%%, movement %.1f%%" exec_imp move_imp;
      ]
  in
  print_endline (Render.output format ~human doc)

(* ------------------------------------------------------------------ *)
(* stats: per-node / per-link breakdown                                *)

let lookup_int reg name =
  match Metrics.find reg name with Some (Metrics.Counter_v v) -> v | _ -> 0

let node_table reg n =
  let t =
    Ndp_prelude.Table.create
      ~header:[ "node"; "tasks"; "busy"; "l1_hits"; "l1_miss"; "l2_hits"; "l2_miss"; "mc_reqs" ]
  in
  for i = 0 to n - 1 do
    let g fam key = lookup_int reg (Printf.sprintf "%s{%s=%d}" fam key i) in
    Ndp_prelude.Table.add_row t
      [
        string_of_int i;
        string_of_int (g "core.tasks" "node");
        string_of_int (g "core.busy_cycles" "node");
        string_of_int (g "mem.l1_hits" "node");
        string_of_int (g "mem.l1_misses" "node");
        string_of_int (g "mem.l2_bank_hits" "bank");
        string_of_int (g "mem.l2_bank_misses" "bank");
        string_of_int (g "mem.mc_requests" "node");
      ]
  done;
  Ndp_prelude.Table.render t

let link_table reg =
  let t = Ndp_prelude.Table.create ~header:[ "link"; "flits"; "busy_cycles" ] in
  let prefix = "noc.link_flits{" in
  List.iter
    (fun (name, sample) ->
      match sample with
      | Metrics.Counter_v flits when Astring.String.is_prefix ~affix:prefix name ->
        let label = String.sub name (String.length prefix) (String.length name - String.length prefix - 1) in
        let busy = lookup_int reg (Printf.sprintf "noc.link_busy_cycles{%s}" label) in
        Ndp_prelude.Table.add_row t [ label; string_of_int flits; string_of_int busy ]
      | _ -> ())
    (Metrics.to_alist reg);
  Ndp_prelude.Table.render t

let stats_act spec fuse format =
  let obs = Ndp_obs.Sink.create ~metrics:true ~trace:false () in
  let job = job_of_flags ~fuse "stats" spec in
  let r = Pipeline.Job.run ~obs job in
  let reg = obs.Ndp_obs.Sink.metrics in
  let n = Ndp_noc.Mesh.size (Ndp_sim.Config.mesh job.Pipeline.Job.config) in
  let doc =
    Render.Json.Obj
      [ ("result", Service.result_json r); ("metrics", Service.metrics_json reg) ]
  in
  let human () =
    String.concat "\n"
      [
        Service.result_human r;
        "";
        "per-node:";
        node_table reg n;
        "per-link (nonzero):";
        link_table reg;
      ]
  in
  print_endline (Render.output format ~human doc)

(* ------------------------------------------------------------------ *)
(* inject: deterministic fault injection + schedule repair             *)

let inject_act spec faults fault_seed repair format =
  let job = job_of_flags "inject" { spec with Protocol.faults; fault_seed; repair } in
  let o = Service.inject ~spec:faults job in
  print_endline (Render.output format ~human:o.Service.i_human o.Service.i_doc)

(* ------------------------------------------------------------------ *)
(* trace: Chrome trace_event JSON                                      *)

let trace_act spec out format =
  let render =
    match format with
    | Render.Jsonl -> Trace.to_jsonl
    | Render.Human | Render.Json -> fun t -> Trace.to_chrome t
    | Render.Sexp ->
      prerr_endline "ndp_run trace: --format sexp is not supported; use json or jsonl";
      exit 2
  in
  let obs = Ndp_obs.Sink.create ~metrics:true ~trace:true () in
  ignore (Pipeline.Job.run ~obs (job_of_flags "trace" spec));
  let tracer = obs.Ndp_obs.Sink.trace in
  let payload = render tracer in
  (match out with
  | "-" -> print_string payload
  | file ->
    let oc = open_out file in
    output_string oc payload;
    close_out oc;
    Printf.printf "wrote %s (%d events, %d dropped)\n" file (Trace.length tracer)
      (Trace.dropped tracer))

(* ------------------------------------------------------------------ *)
(* profile: movement attribution ledger + counter timeline             *)

let profile_act spec interval top out spans format =
  let job = job_of_flags "profile" spec in
  (* One log takes the counter samples, the simulator's events (for -o)
     and the phase spans (for --spans): one Perfetto document. *)
  let log = Trace.create ~events:(out <> "") ~interval ~spans () in
  let o = Service.profile ~trace:log ~spans:log ~top job in
  if out <> "" then begin
    let payload = Trace.to_chrome log in
    match out with
    | "-" -> print_string payload
    | file ->
      let oc = open_out file in
      output_string oc payload;
      close_out oc;
      Printf.printf "wrote %s (%d events + %d counter samples)\n" file
        (List.length (Trace.events log))
        (List.fold_left (fun n s -> n + List.length s.Trace.samples) 0 (Trace.series log))
  end;
  (* The service keeps spans out of the shared document (daemon bodies
     must stay byte-identical); --spans composes them into the CLI
     output here. *)
  let doc =
    if not spans then o.Service.p_doc
    else
      match o.Service.p_doc with
      | Render.Json.Obj fields ->
        Render.Json.Obj (fields @ [ ("spans", Ndp_obs.Span.to_json log) ])
      | other -> other
  in
  let human () =
    if not spans then o.Service.p_human ()
    else o.Service.p_human () ^ "\nphase spans\n" ^ Ndp_obs.Span.summary_table log
  in
  print_endline (Render.output format ~human doc);
  if not o.Service.p_reconciled then begin
    Printf.eprintf "ndp_run profile: ledger flit-hops %d do not reconcile with noc.link_flits %d\n"
      o.Service.p_measured o.Service.p_link_flits;
    exit 1
  end

(* ------------------------------------------------------------------ *)
(* analyze: static cost table reconciled against a measured run        *)

let analyze_act spec fuse fuse_capacity fusion threshold format =
  let job = job_of_flags ~fuse ?fuse_capacity "analyze" spec in
  if fusion then begin
    (* The decision table: [analyze_fusion] forces the fused/unfused pair
       itself, so --fusion works with or without --fuse. *)
    let o = Service.analyze_fusion job in
    print_endline (Render.output format ~human:o.Service.f_human o.Service.f_doc)
  end
  else begin
    let o = Service.analyze ~threshold job in
    print_endline (Render.output format ~human:o.Service.a_human o.Service.a_doc);
    if not o.Service.a_within then begin
      Printf.eprintf
        "ndp_run analyze: static model diverges from the measured ledger: static %d vs measured \
         %d flit-hops (%s > x%.2f)\n"
        o.Service.a_static_total o.Service.a_measured_total
        (Service.ratio_cell o.Service.a_ratio) threshold;
      exit 1
    end
  end

(* ------------------------------------------------------------------ *)
(* list / codegen / dot / check                                        *)

let list_act () =
  List.iter
    (fun name ->
      let k = Ndp_workloads.Suite.find name in
      Printf.printf "%-10s %s\n" name k.Ndp_core.Kernel.description)
    Ndp_workloads.Suite.names

let codegen_act kernel =
  (* Render the subcomputation program of the first window of the first
     nest, Figure 8 style. *)
  let ctx = Pipeline.static_context Pipeline.Default kernel in
  match kernel.Ndp_core.Kernel.program.Ndp_ir.Loop.nests with
  | [] -> prerr_endline "kernel has no loop nests"
  | nest :: _ ->
    let envs = Ndp_ir.Loop.iterations nest in
    let mesh_size = Ndp_noc.Mesh.size (Ndp_sim.Machine.mesh ctx.Ndp_core.Context.machine) in
    let triples =
      List.concat
        (List.mapi
           (fun ii env ->
             List.mapi
               (fun si stmt ->
                 ( (ii * List.length nest.Ndp_ir.Loop.body) + si,
                   ii mod mesh_size,
                   { Ndp_ir.Dependence.stmt_idx = si; stmt; env } ))
               nest.Ndp_ir.Loop.body)
           envs)
    in
    let window = Ndp_core.Staged.make ctx (List.filteri (fun i _ -> i < 4) triples) in
    let compiled = Ndp_core.Window.compile ctx window in
    List.iter
      (fun (m : Ndp_core.Window.meta) ->
        Printf.printf "S%d: %s  %s\n" m.Ndp_core.Window.group
          (Ndp_ir.Stmt.to_string m.Ndp_core.Window.inst.Ndp_ir.Dependence.stmt)
          (Format.asprintf "%a" Ndp_ir.Env.pp m.Ndp_core.Window.inst.Ndp_ir.Dependence.env))
      window;
    print_newline ();
    print_endline (Ndp_core.Codegen.emit (List.map fst (Lazy.force compiled.Ndp_core.Window.tasks)))

let dot_act kernel =
  let ctx = Pipeline.static_context Pipeline.Default kernel in
  match kernel.Ndp_core.Kernel.program.Ndp_ir.Loop.nests with
  | [] -> prerr_endline "kernel has no loop nests"
  | nest :: _ ->
    let env = List.hd (Ndp_ir.Loop.iterations nest) in
    let metas =
      Ndp_core.Staged.make ctx
        (List.mapi
           (fun si stmt -> (si, 0, { Ndp_ir.Dependence.stmt_idx = si; stmt; env }))
           nest.Ndp_ir.Loop.body)
    in
    let split = Ndp_core.Splitter.split ctx ~store_node:0 (List.hd metas) in
    print_endline (Ndp_core.Graphviz.statement_mst split);
    let compiled = Ndp_core.Window.compile ctx metas in
    print_endline (Ndp_core.Graphviz.task_graph (Lazy.force compiled.Ndp_core.Window.tasks))

let check_act kernel cluster memory window fuse format jobs =
  let spec = spec_of_flags "" cluster memory `Partitioned window in
  let config = or_exit "check" (Service.config_of_spec spec) in
  let scheme fuse = or_exit "check" (Service.scheme_of_spec (with_fuse fuse spec)) in
  let kernels =
    match kernel with
    | Some k -> [ k ]
    | None -> List.map Ndp_workloads.Suite.find Ndp_workloads.Suite.names
  in
  let jobs = match jobs with Some j -> max 1 j | None -> Ndp_prelude.Pool.default_jobs () in
  let schemes =
    [ Pipeline.Default; scheme false ] @ if fuse then [ scheme true ] else []
  in
  (* W204 checks a concrete size against each nest; only a fixed window
     gives it one. *)
  let fixed = match window with Pipeline.Fixed k -> Some k | Pipeline.Adaptive -> None in
  let reports = Ndp_analysis.Checker.check_suite ~config ?window:fixed ~jobs ~schemes kernels in
  print_endline (Ndp_analysis.Checker.render ~format reports);
  if Ndp_analysis.Checker.has_errors reports then exit 1

(* ------------------------------------------------------------------ *)
(* serve / client: the compile-as-a-service daemon and its CLI client  *)

(* The canonical demo session: exercises compile sharing (the repeated
   Run and the Compile/Sweep pair) and ends with deterministic cache
   counters plus a clean shutdown. [serve --demo-requests] prints it;
   the golden tests feed it back through [serve --stdio]. *)
let demo_requests () =
  let spec = Protocol.default_spec ~app:"fft" in
  let sweep_variants =
    [
      { Protocol.v_name = "baseline"; v_overrides = []; v_tweaks = Pipeline.no_tweaks };
      { Protocol.v_name = "hop-cycles-8"; v_overrides = [ ("hop_cycles", 8) ]; v_tweaks = Pipeline.no_tweaks };
    ]
  in
  let session =
    [
      Protocol.Ping;
      Protocol.List_apps;
      Protocol.Run { spec; metrics = false };
      Protocol.Run { spec; metrics = false };
      Protocol.Compile spec;
      Protocol.Sweep { spec; variants = sweep_variants };
      Protocol.Cache_stats;
      Protocol.Shutdown;
    ]
  in
  List.iteri (fun i req -> Protocol.write_request stdout ~id:(i + 1) req) session;
  flush stdout

let serve_act socket stdio demo result_capacity schedule_capacity access_log slow_ms jobs =
  if demo then demo_requests ()
  else begin
    let access_oc = if access_log = "" then None else Some (open_out access_log) in
    let server =
      Ndp_serve.Server.create ?jobs ~result_capacity ~schedule_capacity ?access_log:access_oc
        ?slow_ms ()
    in
    if stdio then Ndp_serve.Server.serve_channels server stdin stdout
    else if socket = "" then begin
      prerr_endline "ndp_run serve: --socket PATH required (or --stdio / --demo-requests)";
      exit 2
    end
    else begin
      Printf.eprintf "ndp_run serve: listening on %s\n%!" socket;
      Ndp_serve.Server.serve server ~socket_path:socket
    end;
    Ndp_serve.Server.shutdown server;
    Option.iter close_out access_oc
  end

(* Sim-side cost-model variants for [client sweep]: the same standard
   set the bench replays, minus the tweak-based ones (sweep over the
   wire carries config overrides). *)
let client_sweep_variants =
  List.map
    (fun (v_name, v_overrides) -> { Protocol.v_name; v_overrides; v_tweaks = Pipeline.no_tweaks })
    [
      ("baseline", []);
      ("hop-cycles-8", [ ("hop_cycles", 8) ]);
      ("hop-cycles-32", [ ("hop_cycles", 32) ]);
      ("ddr-cycles-520", [ ("ddr_cycles", 520) ]);
      ("op-cycles-16", [ ("op_cycles", 16) ]);
      ("l2-hit-cycles-36", [ ("l2_hit_cycles", 36) ]);
    ]

let client_act op app socket cluster memory scheme window faults fault_seed repair interval top
    threshold metrics meta =
  if socket = "" then begin
    prerr_endline "ndp_run client: --socket PATH required";
    exit 2
  end;
  let spec_of name =
    { (spec_of_flags name cluster memory scheme window) with Protocol.faults; fault_seed; repair }
  in
  let need_app () =
    match app with
    | Some (k : Ndp_core.Kernel.t) -> spec_of k.Ndp_core.Kernel.name
    | None ->
      prerr_endline "ndp_run client: this operation needs an APP argument";
      exit 2
  in
  let request =
    match op with
    | `Ping -> Protocol.Ping
    | `List -> Protocol.List_apps
    | `Run -> Protocol.Run { spec = need_app (); metrics }
    | `Compile -> Protocol.Compile (need_app ())
    | `Profile -> Protocol.Profile { spec = need_app (); interval; top }
    | `Analyze -> Protocol.Analyze { spec = need_app (); threshold }
    | `Inject -> Protocol.Inject (need_app ())
    | `Sweep -> Protocol.Sweep { spec = need_app (); variants = client_sweep_variants }
    | `Cache_stats -> Protocol.Cache_stats
    | `Metrics -> Protocol.Metrics_dump
    | `Metrics_text -> Protocol.Metrics_text
    | `Shutdown -> Protocol.Shutdown
  in
  match Ndp_serve.Client.connect socket with
  | Error msg ->
    Printf.eprintf "ndp_run client: %s\n" msg;
    exit 1
  | Ok client -> (
    let r = Ndp_serve.Client.rpc client request in
    Ndp_serve.Client.close client;
    match r with
    | Error msg ->
      Printf.eprintf "ndp_run client: %s\n" msg;
      exit 1
    | Ok (env, body) ->
      if meta then
        Printf.eprintf "id=%d ok=%b cached=%b key=%s\n" env.Protocol.id env.Protocol.ok
          env.Protocol.cached env.Protocol.key;
      print_endline body;
      if not env.Protocol.ok then exit 1)

(* ------------------------------------------------------------------ *)

let socket_arg =
  Arg.(
    value
    & opt string ""
    & info [ "socket" ] ~docv:"PATH" ~doc:"Unix-domain socket path of the serve daemon.")

let stdio_arg =
  Arg.(
    value
    & flag
    & info [ "stdio" ]
        ~doc:"Serve one framed session over stdin/stdout instead of binding a socket.")

let access_log_arg =
  Arg.(
    value
    & opt string ""
    & info [ "access-log" ] ~docv:"FILE"
        ~doc:
          "Append one JSON line per request to FILE: sequence number, request id, op, cache \
           key, hit/miss, latency ms, response bytes and the per-phase span breakdown.")

let slow_ms_arg =
  Arg.(
    value
    & opt (some float) None
    & info [ "slow-ms" ] ~docv:"MS"
        ~doc:
          "Print a span breakdown to stderr for every request slower than MS milliseconds.")

let demo_arg =
  Arg.(
    value
    & flag
    & info [ "demo-requests" ]
        ~doc:
          "Print the canonical demo request stream (a framed \
           ping/list/run/run/compile/sweep/cache-stats/shutdown session) and exit; pipe it \
           back through $(b,serve --stdio).")

let result_capacity_arg =
  Arg.(
    value
    & opt int 256
    & info [ "result-cache" ] ~docv:"N" ~doc:"Result-cache capacity (rendered response bodies).")

let schedule_capacity_arg =
  Arg.(
    value
    & opt int 64
    & info [ "schedule-cache" ] ~docv:"N" ~doc:"Schedule-cache capacity (captured compiles).")

let meta_arg =
  Arg.(
    value
    & flag
    & info [ "meta" ] ~doc:"Print the response envelope (id/ok/cached/key) to stderr.")

let op_arg =
  let ops =
    [
      ("ping", `Ping);
      ("list", `List);
      ("run", `Run);
      ("compile", `Compile);
      ("profile", `Profile);
      ("analyze", `Analyze);
      ("inject", `Inject);
      ("sweep", `Sweep);
      ("cache-stats", `Cache_stats);
      ("metrics", `Metrics);
      ("metrics-text", `Metrics_text);
      ("shutdown", `Shutdown);
    ]
  in
  Arg.(
    required
    & pos 0 (some (enum ops)) None
    & info [] ~docv:"OP"
        ~doc:
          "Operation: ping, list, run, compile, profile, analyze, inject, sweep, cache-stats, \
           metrics, metrics-text (Prometheus text exposition) or shutdown.")

let client_app =
  Arg.(
    value
    & pos 1 (some Args.kernel_conv) None
    & info [] ~docv:"APP"
        ~doc:"Application kernel name (run/compile/profile/analyze/inject/sweep only).")

(* ------------------------------------------------------------------ *)
(* Command table                                                       *)

type command = { name : string; summary : string; term : unit Term.t }

let commands =
  [
    {
      name = "run";
      summary = "Compile and simulate one application.";
      term =
        Term.(
          const run_act $ job_spec $ Args.fuse $ Args.fuse_capacity $ Args.metrics $ Args.format);
    };
    {
      name = "compare";
      summary = "Run default and partitioned placements and compare.";
      term =
        Term.(
          const compare_act $ Args.kernel $ Args.cluster $ Args.memory $ Args.window
          $ Args.fuse $ Args.metrics $ Args.format);
    };
    {
      name = "stats";
      summary = "Simulate with metrics enabled and print per-node/per-link breakdowns.";
      term =
        Term.(
          const stats_act $ job_spec $ Args.fuse $ Args.format);
    };
    {
      name = "inject";
      summary =
        "Simulate under a deterministic fault plan (killed/degraded links, node stalls, MC \
         backpressure), optionally repairing the schedule around it.";
      term =
        Term.(
          const inject_act $ job_spec $ Args.faults $ Args.fault_seed $ Args.repair $ Args.format);
    };
    {
      name = "trace";
      summary = "Simulate with tracing enabled and write Chrome trace_event JSON (Perfetto).";
      term =
        Term.(
          const trace_act $ job_spec $ Args.out_file $ Args.format);
    };
    {
      name = "profile";
      summary =
        "Simulate with the data-movement attribution ledger and counter timeline enabled: \
         top-K movement sources, predicted-vs-measured reconciliation, optional Perfetto \
         counter tracks.";
      term =
        Term.(
          const profile_act $ job_spec $ Args.interval $ Args.top $ Args.profile_out $ Args.spans
          $ Args.format);
    };
    {
      name = "analyze";
      summary =
        "Static cost model: symbolic footprints, reuse classes and closed-form per-statement \
         movement at the windows one run chose, reconciled against that run's measured \
         ledger; exit nonzero when the totals diverge beyond --threshold. With --fusion, \
         report the fusion decision table (predicted vs measured saved flit-hops per fused \
         chain) instead.";
      term =
        Term.(
          const analyze_act $ job_spec $ Args.fuse $ Args.fuse_capacity $ Args.fusion
          $ Args.threshold $ Args.format);
    };
    { name = "list"; summary = "List the application kernels."; term = Term.(const list_act $ const ()) };
    {
      name = "codegen";
      summary = "Show the generated per-node subcomputation program for one window.";
      term = Term.(const codegen_act $ Args.kernel);
    };
    {
      name = "dot";
      summary = "Emit Graphviz DOT for a statement MST and one window's task graph.";
      term = Term.(const dot_act $ Args.kernel);
    };
    {
      name = "serve";
      summary =
        "Run the compile-as-a-service daemon: accept framed JSON requests on a Unix-domain \
         socket (or stdin with --stdio) and answer them from content-addressed result and \
         schedule caches.";
      term =
        Term.(
          const serve_act $ socket_arg $ stdio_arg $ demo_arg $ result_capacity_arg
          $ schedule_capacity_arg $ access_log_arg $ slow_ms_arg $ Args.jobs);
    };
    {
      name = "client";
      summary = "Send one request to a running serve daemon and print the response body.";
      term =
        Term.(
          const client_act $ op_arg $ client_app $ socket_arg $ Args.cluster $ Args.memory
          $ Args.scheme $ Args.window $ Args.faults $ Args.fault_seed $ Args.repair
          $ Args.interval $ Args.top $ Args.threshold $ Args.metrics $ meta_arg);
    };
    {
      name = "check";
      summary =
        "Lint every kernel's IR and validate the compiled schedules (dependence race detection) \
         under the default and partitioned schemes — plus the fused partitioned scheme with \
         --fuse; exit nonzero on any error.";
      term =
        Term.(
          const check_act $ Args.kernel_opt $ Args.cluster $ Args.memory $ Args.window
          $ Args.fuse $ Args.format $ Args.jobs);
    };
  ]

let () =
  let info = Cmd.info "ndp_run" ~doc:"Data-movement-aware computation partitioning playground." in
  let cmds = List.map (fun c -> Cmd.v (Cmd.info c.name ~doc:c.summary) c.term) commands in
  exit (Cmd.eval (Cmd.group info cmds))
