(* Machine reuse: a replay (or job) that takes a machine another run left
   behind, reset in place, must be indistinguishable from one on a
   freshly built machine — results, metric dumps and ledgers alike — and
   what a replay allocates must not depend on what ran before it. *)

module P = Ndp_core.Pipeline
module Config = Ndp_sim.Config
module Stats = Ndp_sim.Stats
module Sink = Ndp_obs.Sink
module Json = Ndp_obs.Render.Json

let schemes = [ P.Default; P.Partitioned P.partitioned_defaults ]

(* The nine (cluster, memory) mode combinations. *)
let modes =
  List.concat_map
    (fun c -> List.map (Config.with_modes Config.default c) Config.all_memory_modes)
    Ndp_noc.Cluster.all

let mode_name (c : Config.t) =
  Ndp_noc.Cluster.to_string c.Config.cluster
  ^ "/"
  ^ Config.memory_mode_to_string c.Config.memory_mode

let capture name scheme =
  (P.Job.run (P.Job.make ~capture:true scheme (Ndp_workloads.Suite.find name))).P.emitted

(* The first 400 batches of lu's and ocean's default-scheme streams (one
   task per batch): enough to touch plenty of lines, pages, links and
   task ids. Kept small — the suite's later tests run with this process's
   heap. *)
let dirty_streams =
  lazy
    (List.map
       (fun name -> (name, List.filteri (fun i _ -> i < 400) (capture name P.Default)))
       [ "lu"; "ocean" ])

(* Leave a machine of another shape in this domain's slot, so the next
   run builds a fresh machine. *)
let evict () =
  ignore
    (P.replay
       ~config:{ Config.default with Config.mesh_cols = 2; mesh_rows = 2 }
       (Ndp_workloads.Suite.find "lu") [])

(* A run that leaves every piece of resettable state dirty: another
   kernel's hot ranges and addresses, the other scheme's schedule, a
   different seed and latencies, every tweak, and a live trace and
   ledger. Same shape as [config], so the next run there reuses its
   machine. *)
let dirty ~config (k : Ndp_core.Kernel.t) =
  let other = if k.Ndp_core.Kernel.name = "lu" then "ocean" else "lu" in
  let config =
    { config with Config.seed = config.Config.seed + 11; hop_cycles = 7; ddr_cycles = 400 }
  in
  let tweaks =
    {
      P.l1_boost = 0.3;
      distance_factor = 0.5;
      mc_overrides = List.init 40 (fun p -> (p, 35 - (p mod 36)));
      cost_scale = 2.0;
      extra_syncs = 1;
    }
  in
  let obs = Sink.create ~metrics:false ~trace:true ~ledger:true () in
  let batches = List.assoc other (Lazy.force dirty_streams) in
  ignore (P.replay ~config ~tweaks ~obs (Ndp_workloads.Suite.find other) batches);
  (* Later runs on the reset machine must not feed this run's sinks. *)
  (obs, Ndp_obs.Ledger.total_messages obs.Sink.ledger, Ndp_obs.Trace.total obs.Sink.trace)

let fingerprint (rp : P.replayed) =
  (Stats.to_alist rp.P.rp_stats, rp.P.rp_exec_time, rp.P.rp_node_finish, rp.P.rp_node_busy)

let label ((config : Config.t), (k : Ndp_core.Kernel.t), s, _) =
  Printf.sprintf "%s/%s/%s" k.Ndp_core.Kernel.name (P.scheme_name s) (mode_name config)

(* Every kernel x mode x scheme: one schedule captured per kernel and
   scheme at the default config (cluster and memory modes move no
   address, so it replays under all nine modes), replayed on a machine
   built for it, then — at pool sizes 1 and 4 — replayed right after a
   dirty run of another kernel on the same domain. Each reused replay
   must equal the fresh one exactly, and must leave the dirty run's
   sinks alone. The fresh replays run on a pool too: every item evicts
   its own domain's idle machine first, so the pool only spreads the
   work. *)
let reused_equals_fresh () =
  let items =
    let captures =
      List.concat_map
        (fun (k : Ndp_core.Kernel.t) ->
          List.map (fun s -> (k, s, capture k.Ndp_core.Kernel.name s)) schemes)
        (Ndp_workloads.Suite.all ())
    in
    List.concat_map (fun config -> List.map (fun (k, s, e) -> (config, k, s, e)) captures) modes
  in
  let on_pool jobs f =
    Ndp_prelude.Pool.with_pool ~jobs (fun pool -> Ndp_prelude.Pool.parallel_map pool f items)
  in
  let fresh =
    on_pool 4 (fun (config, k, _, e) ->
        evict ();
        fingerprint (P.replay ~config k e))
  in
  List.iter
    (fun jobs ->
      let reused =
        on_pool jobs (fun (config, k, _, e) ->
            let obs, messages, events = dirty ~config k in
            let fp = fingerprint (P.replay ~config k e) in
            let untouched =
              Ndp_obs.Ledger.total_messages obs.Sink.ledger = messages
              && Ndp_obs.Trace.total obs.Sink.trace = events
            in
            (fp, untouched))
      in
      List.iter2
        (fun item ((stats, exec, finish, busy), ((rstats, rexec, rfinish, rbusy), untouched)) ->
          let l = Printf.sprintf "jobs %d %s" jobs (label item) in
          Alcotest.(check bool) (l ^ " stats") true (stats = rstats);
          Alcotest.(check int) (l ^ " exec time") exec rexec;
          Alcotest.(check (array int)) (l ^ " node_finish") finish rfinish;
          Alcotest.(check (array int)) (l ^ " node_busy") busy rbusy;
          Alcotest.(check bool) (l ^ " earlier sinks untouched") true untouched)
        items (List.combine fresh reused))
    [ 1; 4 ]

let dumps (obs : Sink.t) =
  ( Json.to_string (Ndp_obs.Metrics.to_json obs.Sink.metrics),
    Json.to_string (Ndp_obs.Ledger.to_json obs.Sink.ledger),
    Json.to_string (Ndp_obs.Trace.series_json obs.Sink.trace),
    Ndp_obs.Trace.to_jsonl obs.Sink.trace )

let observed () = Sink.create ~metrics:true ~trace:true ~ledger:true ~timeline_interval:500 ()

(* With every observability layer on, a run on a reused machine dumps
   byte-identical metrics, ledger, timeline and trace to one on a fresh
   machine — for a replay and for a full job alike. *)
let observed_dumps_match () =
  let config = Config.with_modes Config.default Ndp_noc.Cluster.Snc4 Config.Hybrid in
  List.iter
    (fun name ->
      let k = Ndp_workloads.Suite.find name in
      List.iter
        (fun scheme ->
          let e = capture name scheme in
          let run_replay obs = ignore (P.replay ~config ~obs k e) in
          let run_job obs = ignore (P.Job.run ~obs (P.Job.make ~config scheme k)) in
          List.iter
            (fun (what, run) ->
              let l = Printf.sprintf "%s/%s %s" name (P.scheme_name scheme) what in
              evict ();
              let fresh = observed () in
              run fresh;
              ignore (dirty ~config k);
              let reused = observed () in
              run reused;
              let fm, fl, ft, ftr = dumps fresh and rm, rl, rt, rtr = dumps reused in
              Alcotest.(check string) (l ^ " metrics") fm rm;
              Alcotest.(check string) (l ^ " ledger") fl rl;
              Alcotest.(check string) (l ^ " timeline") ft rt;
              Alcotest.(check bool) (l ^ " trace") true (ftr = rtr))
            [ ("replay", run_replay); ("job", run_job) ])
        schemes)
    [ "radix" ]

(* Full jobs — plain, faulted (the plan is rebound by the reset) and
   profiled (ledger) — digest identically on a fresh and a reused
   machine. *)
let job_digests_match () =
  List.iter
    (fun name ->
      let k = Ndp_workloads.Suite.find name in
      List.iter
        (fun scheme ->
          List.iter
            (fun mode ->
              let run () = Ndp_experiments.Equiv.run ~mode ~scheme k in
              evict ();
              let fresh = run () in
              ignore (dirty ~config:Config.default k);
              Alcotest.(check string)
                (Ndp_experiments.Equiv.combo_key name scheme mode)
                fresh (run ()))
            Ndp_experiments.Equiv.modes)
        Ndp_experiments.Equiv.schemes)
    [ "fft" ]

let minor_words f =
  let before = Gc.minor_words () in
  f ();
  Gc.minor_words () -. before

(* A replay's minor allocation does not depend on what ran before it on
   the domain — the repeatability a traced benchmark's per-layer counts
   rely on. Machine construction itself does allocate in the minor heap,
   so the first replay (fresh machine) is the one that allocates more. *)
let allocation_independent_of_history () =
  List.iter
    (fun (x, y) ->
      let k = Ndp_workloads.Suite.find x in
      let e = capture x (P.Partitioned P.partitioned_defaults) in
      let other = capture y P.Default in
      let replay () = ignore (P.replay k e) in
      evict ();
      let fresh = minor_words replay in
      let after_self = minor_words replay in
      ignore (P.replay (Ndp_workloads.Suite.find y) other);
      let after_other = minor_words replay in
      ignore (dirty ~config:Config.default k);
      let after_dirty = minor_words replay in
      let l = Printf.sprintf "%s after %s" x y in
      Alcotest.(check (float 0.0)) (l ^ ": same minor words") after_self after_other;
      Alcotest.(check (float 0.0)) (l ^ " (dirty): same minor words") after_self after_dirty;
      Alcotest.(check bool) (l ^ ": reuse skips construction") true (after_self < fresh))
    [ ("fft", "barnes"); ("barnes", "lu"); ("resnet_block", "minimd") ]

let tests =
  [
    ( "reuse",
      [
        Alcotest.test_case "reused replay = fresh (suite x 9 modes x 2 schemes, jobs 1 and 4)"
          `Quick reused_equals_fresh;
        Alcotest.test_case "observed dumps match on a reused machine" `Quick observed_dumps_match;
        Alcotest.test_case "job digests match on a reused machine" `Quick job_digests_match;
        Alcotest.test_case "replay allocation independent of history" `Quick
          allocation_independent_of_history;
      ] );
  ]
