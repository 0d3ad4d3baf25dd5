(* Fault injection and schedule repair: the plan mini-language and its
   resolved semantics, retry/stall/backpressure accounting through the
   fault.* metric family, empty-plan identity, repair effectiveness over
   the whole 12-application suite, race-freedom of repaired schedules and
   bit-determinism of faulted runs across worker-pool sizes. *)

module Plan = Ndp_fault.Plan
module Pipeline = Ndp_core.Pipeline
module Config = Ndp_sim.Config
module Mesh = Ndp_noc.Mesh
module Suite = Ndp_workloads.Suite
module Sink = Ndp_obs.Sink
module Metrics = Ndp_obs.Metrics

let mesh = Config.mesh Config.default
let seed = Config.default.Config.seed

let partitioned = Pipeline.Partitioned Pipeline.partitioned_defaults

let fixed2 =
  Pipeline.Partitioned
    { Pipeline.partitioned_defaults with Pipeline.window = Pipeline.Fixed 2 }

let parse_exn spec =
  match Plan.parse ~mesh ~seed spec with
  | Ok p -> p
  | Error e -> Alcotest.failf "spec %S rejected: %s" spec e

let metric_counter alist name =
  match List.assoc_opt name alist with
  | Some (Metrics.Counter_v n) -> n
  | Some _ -> Alcotest.failf "%s is not a counter" name
  | None -> Alcotest.failf "%s missing from registry" name

(* -------------------------------------------------------------------- *)
(* Plan construction and the --faults mini-language.                     *)

let parse_full_spec () =
  let p = parse_exn "kill=2,slow=1x4.0,stall=9@0+200000,mc=0x2.5" in
  let k, d, st, m = Plan.counts p in
  Alcotest.(check (list int)) "counts" [ 2; 1; 1; 1 ] [ k; d; st; m ];
  Alcotest.(check bool) "not empty" false (Plan.is_empty p);
  Alcotest.(check int) "stall skips the window" 200000
    (Plan.stall_until p ~node:9 ~time:150);
  Alcotest.(check int) "stall over, time unchanged" 200000
    (Plan.stall_until p ~node:9 ~time:200000);
  Alcotest.(check int) "other nodes unaffected" 150
    (Plan.stall_until p ~node:8 ~time:150);
  Alcotest.(check bool) "stalled node avoided" true (Plan.avoided p 9);
  Alcotest.(check (float 1e-9)) "mc factor" 2.5 (Plan.mc_factor p 0)

let parse_directed_kill () =
  let p = parse_exn "kill=14>20" in
  let fwd = Mesh.link_index mesh { Mesh.from_node = 14; to_node = 20 } in
  let bwd = Mesh.link_index mesh { Mesh.from_node = 20; to_node = 14 } in
  Alcotest.(check bool) "forward direction killed" true (Plan.link_killed p fwd);
  Alcotest.(check bool) "reverse direction killed" true (Plan.link_killed p bwd);
  let k, d, st, m = Plan.counts p in
  Alcotest.(check (list int)) "one link only" [ 1; 0; 0; 0 ] [ k; d; st; m ]

let parse_rejects_garbage () =
  let rejected spec =
    match Plan.parse ~mesh ~seed spec with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "spec %S should not parse" spec
  in
  rejected "kill=";
  rejected "stall=9";
  rejected "mc=0";
  rejected "slow=2";
  rejected "frobnicate=1";
  (* nodes 0 and 35 are opposite mesh corners, not adjacent *)
  rejected "kill=0>35"

let plans_are_seed_deterministic () =
  let killed p =
    List.init (Mesh.num_links mesh) (fun i -> Plan.link_killed p i)
  in
  let a = Plan.make ~mesh ~seed:123 [ Plan.Kill_links 3 ] in
  let b = Plan.make ~mesh ~seed:123 [ Plan.Kill_links 3 ] in
  Alcotest.(check (list bool)) "same seed, same links" (killed a) (killed b);
  Alcotest.(check string) "same describe" (Plan.describe a) (Plan.describe b)

let distance_respects_faults () =
  let free = Plan.empty ~mesh in
  for u = 0 to 35 do
    Alcotest.(check int)
      (Printf.sprintf "fault-free distance 0->%d" u)
      (Mesh.distance mesh 0 u) (Plan.distance free 0 u)
  done;
  let p = parse_exn "kill=14>20" in
  Alcotest.(check bool) "killed link costs more than a hop" true
    (Plan.distance p 14 20 > Mesh.distance mesh 14 20);
  Alcotest.(check int) "unrelated pair unchanged" (Mesh.distance mesh 0 1)
    (Plan.distance p 0 1)

(* -------------------------------------------------------------------- *)
(* Accounting through the fault.* metric family.                         *)

let run_with_metrics ?faults ?repair kernel =
  let obs = Sink.create ~metrics:true () in
  let result = Pipeline.Job.run ~obs (Pipeline.Job.make ?faults ?repair fixed2 kernel) in
  (result, Metrics.to_alist obs.Sink.metrics)

let kill_charges_retries () =
  let kernel = Suite.find "fft" in
  let _, alist = run_with_metrics ~faults:(parse_exn "kill=2") kernel in
  Alcotest.(check bool) "link_retries > 0" true (metric_counter alist "fault.link_retries" > 0);
  Alcotest.(check bool) "msg_drops > 0" true (metric_counter alist "fault.msg_drops" > 0)

let stall_charges_cycles_and_repair_clears_them () =
  let kernel = Suite.find "fft" in
  let faults = parse_exn "stall=9@0+200000" in
  let _, stalled = run_with_metrics ~faults kernel in
  Alcotest.(check bool) "stall_cycles > 0" true (metric_counter stalled "fault.stall_cycles" > 0);
  let repaired, alist = run_with_metrics ~faults ~repair:true kernel in
  Alcotest.(check int) "repair leaves the stalled node idle" 0
    (metric_counter alist "fault.stall_cycles");
  Alcotest.(check int) "stalled node runs nothing" 0
    repaired.Pipeline.node_busy.(9);
  Alcotest.(check bool) "tasks were remapped" true (repaired.Pipeline.remapped_tasks > 0);
  Alcotest.(check int) "remapped counter matches result field"
    repaired.Pipeline.remapped_tasks
    (metric_counter alist "fault.remapped_tasks")

let fault_free_registry_has_no_fault_entries () =
  let kernel = Suite.find "fft" in
  let _, alist = run_with_metrics kernel in
  Alcotest.(check (list string)) "no fault.* samples" []
    (List.filter
       (fun (name, _) -> String.length name >= 6 && String.sub name 0 6 = "fault.")
       alist
    |> List.map fst)

let empty_plan_identical_on_workload () =
  let kernel = Suite.find "fft" in
  let plain = Pipeline.Job.run (Pipeline.Job.make partitioned kernel) in
  let faulted =
    Pipeline.Job.run (Pipeline.Job.make ~faults:(Plan.empty ~mesh) partitioned kernel)
  in
  Alcotest.(check int) "exec_time" plain.Pipeline.exec_time faulted.Pipeline.exec_time;
  Alcotest.(check (list (pair string int)))
    "stats"
    (Ndp_sim.Stats.to_alist plain.Pipeline.stats)
    (Ndp_sim.Stats.to_alist faulted.Pipeline.stats);
  Alcotest.(check (array int)) "node finish times" plain.Pipeline.node_finish
    faulted.Pipeline.node_finish

(* -------------------------------------------------------------------- *)
(* Repair effectiveness and safety over the whole suite.                 *)

let repair_beats_unrepaired () =
  (* One killed link on a hot center route. Repair must win on at least
     10 of the 12 applications (a remap that avoids the retry penalty can
     still lose a close race when the detour congests another link). *)
  let faults = parse_exn "kill=14>20" in
  let verdicts =
    List.map
      (fun kernel ->
        let broken = Pipeline.Job.run (Pipeline.Job.make ~faults partitioned kernel) in
        let repaired =
          Pipeline.Job.run (Pipeline.Job.make ~faults ~repair:true partitioned kernel)
        in
        (kernel.Ndp_core.Kernel.name,
         repaired.Pipeline.exec_time < broken.Pipeline.exec_time))
      (Suite.all ())
  in
  let wins = List.length (List.filter snd verdicts) in
  let losses = List.filter_map (fun (n, w) -> if w then None else Some n) verdicts in
  if wins < 10 then
    Alcotest.failf "repair won only %d/12 (lost on: %s)" wins (String.concat ", " losses)

let repaired_schedules_race_free () =
  let faults = parse_exn "kill=14>20,stall=9@0+200000" in
  List.iter
    (fun name ->
      let kernel = Suite.find name in
      let result =
        Pipeline.Job.run
          (Pipeline.Job.make ~validate:true ~faults ~repair:true partitioned kernel)
      in
      let errors =
        List.filter Ndp_analysis.Diagnostic.is_error
          (Ndp_analysis.Validate.check_result ~kernel result)
      in
      Alcotest.(check (list string))
        (name ^ " repaired schedule race-free") []
        (List.map Ndp_analysis.Diagnostic.to_string errors))
    [ "fft"; "water"; "lu"; "radix" ]

let deterministic_across_pool_sizes () =
  (* Faulted + repaired jobs batched across a worker pool must be
     bit-identical to their serial runs at any worker count, because every
     random choice lives in the plan. *)
  let faults = parse_exn "kill=2,stall=9@0+200000,mc=0x2" in
  let kernels = Suite.all () in
  let jobs = List.map (Pipeline.Job.make ~faults ~repair:true partitioned) kernels in
  let fingerprint (r : Pipeline.result) =
    ( Ndp_sim.Stats.to_alist r.Pipeline.stats,
      r.Pipeline.exec_time,
      r.Pipeline.node_finish,
      r.Pipeline.remapped_tasks,
      r.Pipeline.windows_chosen )
  in
  let reference = List.map fingerprint (Pipeline.run_batch jobs) in
  List.iter
    (fun n ->
      Ndp_prelude.Pool.with_pool ~jobs:n (fun pool ->
          let got = List.map fingerprint (Pipeline.run_batch ~pool jobs) in
          List.iter2
            (fun (kernel : Ndp_core.Kernel.t) (g, r) ->
              Alcotest.(check bool)
                (Printf.sprintf "%s identical at %d jobs" kernel.Ndp_core.Kernel.name n)
                true (g = r))
            kernels (List.combine got reference)))
    [ 1; 4; 7 ]

let repaired_schedule_identical_across_pool_sizes () =
  (* Stronger than the stats fingerprint: the emitted task lists of the
     repaired schedule themselves, compared task by task, for copies of
     the job run concurrently. *)
  let faults = parse_exn "kill=14>20,stall=9@0+200000" in
  let job =
    Pipeline.Job.make ~validate:true ~faults ~repair:true partitioned (Suite.find "fft")
  in
  let tasks_of (r : Pipeline.result) =
    List.map
      (function
        | Pipeline.Serialized { t_tasks; _ } -> t_tasks
        | Pipeline.Windowed { t_compiled; _ } ->
          List.map fst (Lazy.force t_compiled.Ndp_core.Window.tasks))
      r.Pipeline.traces
  in
  let reference = tasks_of (Pipeline.Job.run job) in
  List.iter
    (fun jobs ->
      Ndp_prelude.Pool.with_pool ~jobs (fun pool ->
          List.iter
            (fun r ->
              Alcotest.(check bool)
                (Printf.sprintf "schedules identical at %d jobs" jobs)
                true
                (tasks_of r = reference))
            (Pipeline.run_batch ~pool (List.init 4 (fun _ -> job)))))
    [ 1; 4; 7 ]

let tests =
  [
    ( "fault",
      [
        Alcotest.test_case "parse full spec" `Quick parse_full_spec;
        Alcotest.test_case "parse directed kill" `Quick parse_directed_kill;
        Alcotest.test_case "parse rejects garbage" `Quick parse_rejects_garbage;
        Alcotest.test_case "plans seed-deterministic" `Quick plans_are_seed_deterministic;
        Alcotest.test_case "distance respects faults" `Quick distance_respects_faults;
        Alcotest.test_case "kill charges retries" `Quick kill_charges_retries;
        Alcotest.test_case "stall charged, repair clears" `Quick
          stall_charges_cycles_and_repair_clears_them;
        Alcotest.test_case "fault-free registry clean" `Quick
          fault_free_registry_has_no_fault_entries;
        Alcotest.test_case "empty plan identical on workload" `Quick
          empty_plan_identical_on_workload;
        Alcotest.test_case "repair beats unrepaired on >= 10/12" `Slow repair_beats_unrepaired;
        Alcotest.test_case "repaired schedules race-free" `Slow repaired_schedules_race_free;
        Alcotest.test_case "deterministic across pool sizes" `Slow
          deterministic_across_pool_sizes;
        Alcotest.test_case "repaired schedule identical across pool sizes" `Slow
          repaired_schedule_identical_across_pool_sizes;
      ] );
  ]
