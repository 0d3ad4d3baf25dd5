module Pool = Ndp_prelude.Pool
module P = Ndp_core.Pipeline

let ordering () =
  Pool.with_pool ~jobs:4 (fun pool ->
      let xs = List.init 100 Fun.id in
      let ys = Pool.parallel_map pool (fun x -> x * x) xs in
      Alcotest.(check (list int)) "squares in order" (List.map (fun x -> x * x) xs) ys)

let empty_and_singleton () =
  Pool.with_pool ~jobs:4 (fun pool ->
      Alcotest.(check (list int)) "empty" [] (Pool.parallel_map pool succ []);
      Alcotest.(check (list int)) "singleton" [ 8 ] (Pool.parallel_map pool succ [ 7 ]))

exception Boom of int

let exception_propagation () =
  Pool.with_pool ~jobs:4 (fun pool ->
      let ran = Array.make 8 false in
      let attempt () =
        Pool.parallel_map pool
          (fun i ->
            ran.(i) <- true;
            if i = 2 || i = 5 then raise (Boom i);
            i)
          (List.init 8 Fun.id)
      in
      (match attempt () with
      | _ -> Alcotest.fail "expected Boom"
      | exception Boom i -> Alcotest.(check int) "lowest-index failure wins" 2 i);
      Alcotest.(check bool) "all tasks still ran" true (Array.for_all Fun.id ran);
      (* The pool survives a failing call. *)
      Alcotest.(check (list int)) "pool usable afterwards" [ 1; 2; 3 ]
        (Pool.parallel_map pool succ [ 0; 1; 2 ]))

let nested_use () =
  Pool.with_pool ~jobs:3 (fun pool ->
      let ys =
        Pool.parallel_map pool
          (fun x -> List.fold_left ( + ) 0 (Pool.parallel_map pool (fun y -> x * y) [ 1; 2; 3 ]))
          [ 1; 2; 3; 4 ]
      in
      Alcotest.(check (list int)) "nested maps" [ 6; 12; 18; 24 ] ys)

let size_one_inline () =
  Pool.with_pool ~jobs:1 (fun pool ->
      Alcotest.(check int) "size clamped" 1 (Pool.size pool);
      Alcotest.(check (list int)) "inline map" [ 2; 3 ] (Pool.parallel_map pool succ [ 1; 2 ]));
  Pool.with_pool ~jobs:(-3) (fun pool -> Alcotest.(check int) "negative clamped" 1 (Pool.size pool))

let shutdown_idempotent () =
  let pool = Pool.create ~jobs:3 () in
  Alcotest.(check (list int)) "before shutdown" [ 1; 4; 9 ]
    (Pool.parallel_map pool (fun x -> x * x) [ 1; 2; 3 ]);
  Pool.shutdown pool;
  Pool.shutdown pool;
  Alcotest.(check (list int)) "inline after shutdown" [ 1; 4; 9 ]
    (Pool.parallel_map pool (fun x -> x * x) [ 1; 2; 3 ])

(* Fanning the whole evaluation sweep across domains changes nothing
   about the numbers. Every (workload, scheme) cell is run once across a
   parallel pool and once serially, and the metrics the paper reports
   must be identical field for field. *)
let suite_determinism () =
  let kernels = List.map Ndp_workloads.Suite.find Ndp_workloads.Suite.names in
  let schemes = [ P.Default; P.Partitioned P.partitioned_defaults ] in
  let cells = List.concat_map (fun k -> List.map (fun s -> (k, s)) schemes) kernels in
  Pool.with_pool ~jobs:4 (fun pool ->
      let run_cell (k, s) = P.Job.run (P.Job.make s k) in
      let par = Pool.parallel_map pool run_cell cells in
      let ser = List.map run_cell cells in
      List.iter2
        (fun (p : P.result) (s : P.result) ->
          let label field = Printf.sprintf "%s/%s %s" p.P.kernel_name p.P.scheme_name field in
          Alcotest.(check int) (label "exec_time") s.P.exec_time p.P.exec_time;
          Alcotest.(check int) (label "est_movement") s.P.est_movement_total p.P.est_movement_total;
          Alcotest.(check int) (label "sync_arcs") s.P.sync_arcs p.P.sync_arcs;
          Alcotest.(check int) (label "tasks") s.P.tasks_emitted p.P.tasks_emitted;
          Alcotest.(check int) (label "hops") (Ndp_sim.Stats.hops s.P.stats)
            (Ndp_sim.Stats.hops p.P.stats);
          Alcotest.(check int) (label "messages") (Ndp_sim.Stats.messages s.P.stats)
            (Ndp_sim.Stats.messages p.P.stats);
          Alcotest.(check int) (label "l1_hits") (Ndp_sim.Stats.l1_hits s.P.stats)
            (Ndp_sim.Stats.l1_hits p.P.stats);
          Alcotest.(check int) (label "l1_misses") (Ndp_sim.Stats.l1_misses s.P.stats)
            (Ndp_sim.Stats.l1_misses p.P.stats);
          Alcotest.(check int) (label "finish_time") (Ndp_sim.Stats.finish_time s.P.stats)
            (Ndp_sim.Stats.finish_time p.P.stats);
          Alcotest.(check (list (pair string int)))
            (label "windows") s.P.windows_chosen p.P.windows_chosen)
        par ser)

(* The one window sizer against the compile-every-candidate oracle, on
   every nest of the suite under all nine cluster x memory modes (the
   default config is quadrant/flat, one of them). Each sizer gets a fresh
   context, as the pipeline gives each job one. *)
let choose_size_matches_oracle () =
  let modes =
    List.concat_map
      (fun cluster -> List.map (fun memory -> (cluster, memory)) Ndp_sim.Config.all_memory_modes)
      Ndp_noc.Cluster.all
  in
  let scheme = P.Partitioned P.partitioned_defaults in
  List.iter
    (fun (cluster, memory) ->
      let config = Ndp_sim.Config.with_modes Ndp_sim.Config.default cluster memory in
      List.iter
        (fun name ->
          let kernel = Ndp_workloads.Suite.find name in
          List.iter
            (fun (nest : Ndp_ir.Loop.nest) ->
              let size_with sizer =
                let ctx = P.static_context ~config scheme kernel in
                sizer ctx (fst (P.nest_stream ctx nest ~first_group:0))
              in
              let oracle = size_with (Window_oracle.choose_size ~max:8) in
              let label what =
                Printf.sprintf "%s/%s %s/%s: %s" (Ndp_noc.Cluster.to_string cluster)
                  (Ndp_sim.Config.memory_mode_to_string memory) name nest.Ndp_ir.Loop.nest_name
                  what
              in
              Alcotest.(check int) (label "serial") oracle
                (size_with (Ndp_core.Window.choose_size ~max:8)))
            kernel.Ndp_core.Kernel.program.Ndp_ir.Loop.nests)
        Ndp_workloads.Suite.names)
    modes

let tests =
  [
    ( "pool",
      [
        Alcotest.test_case "ordering" `Quick ordering;
        Alcotest.test_case "empty and singleton" `Quick empty_and_singleton;
        Alcotest.test_case "exception propagation" `Quick exception_propagation;
        Alcotest.test_case "nested use" `Quick nested_use;
        Alcotest.test_case "pool size 1" `Quick size_one_inline;
        Alcotest.test_case "shutdown idempotent" `Quick shutdown_idempotent;
        Alcotest.test_case "suite determinism" `Slow suite_determinism;
        Alcotest.test_case "choose_size matches oracle" `Slow choose_size_matches_oracle;
      ] );
  ]
