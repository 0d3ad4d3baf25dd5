(* compile_suite: every suite kernel under the default scheme, the paper's
   partitioned scheme and partitioned+fusion, as one closed serial loop on
   one domain. The seed draws each job's cluster and memory mode and the
   job order. Compile layers (window, deps, schedule, fusion) do most of the
   work; the default-scheme third is mostly simulation, so a compiler gain
   cannot hide a simulator loss. *)

open Common
module Stats = Ndp_sim.Stats

let unfused = P.Partitioned P.partitioned_defaults

let fused = P.Partitioned { P.partitioned_defaults with P.fuse = true }

(* Each kernel draws one configuration for its default job and one shared
   by its two partitioned jobs, so fused and unfused compare like for
   like. *)
let jobs ~seed kernels =
  let rng = Ndp_prelude.Rng.create seed in
  let configs = balanced_configs rng (2 * List.length kernels) in
  shuffled rng
    (List.concat
       (List.mapi
          (fun i k ->
            [
              P.Job.make ~config:configs.(2 * i) P.Default k;
              P.Job.make ~config:configs.((2 * i) + 1) unfused k;
              P.Job.make ~config:configs.((2 * i) + 1) fused k;
            ])
          kernels))

(* The frozen Plain-mode equivalence digests (default and partitioned
   schemes at the default config), one "key digest" pair per line. *)
let expected_digests path =
  let ic = open_in path in
  let rec go acc =
    match input_line ic with
    | exception End_of_file -> List.rev acc
    | line -> (
      match String.split_on_char ' ' (String.trim line) with
      | [ k; d ] -> go ((k, d) :: acc)
      | _ -> go acc)
  in
  let r = go [] in
  close_in ic;
  r

let digest_checks kernels =
  let expected = expected_digests "perfbench/expected_digests.txt" in
  let module E = Ndp_experiments.Equiv in
  List.concat_map
    (fun (k : Ndp_core.Kernel.t) ->
      List.map
        (fun scheme ->
          let key = E.combo_key k.Ndp_core.Kernel.name scheme E.Plain in
          ( "digest " ^ key,
            List.assoc_opt key expected = Some (E.run ~mode:E.Plain ~scheme k) ))
        E.schemes)
    kernels

(* A fused job moves no more flits than the same job unfused (both from
   the first pass), and its movement ledger reconciles exactly with the
   per-link flit counters. *)
let fusion_checks outcomes =
  List.filter_map
    (fun ((job : P.Job.t), (hops, _)) ->
      if job.P.Job.scheme <> fused then None
      else
        let name = job.P.Job.kernel.Ndp_core.Kernel.name in
        let unfused_hops =
          List.find_map
            (fun ((j : P.Job.t), (h, _)) ->
              if j.P.Job.scheme = unfused && j.P.Job.kernel == job.P.Job.kernel then Some h
              else None)
            outcomes
        in
        let obs = Ndp_obs.Sink.create ~metrics:true ~trace:false ~ledger:true () in
        ignore (P.Job.run ~obs job);
        Some
          ( "fusion " ^ name,
            Option.fold ~none:false ~some:(fun u -> hops <= u) unfused_hops
            && Ndp_obs.Ledger.total_flit_hops obs.Ndp_obs.Sink.ledger
               = Ndp_serve.Service.link_flits_total obs.Ndp_obs.Sink.metrics ))
    outcomes

let run ~seed ~seconds ~trace =
  let setup_s, (kernels, ops) =
    setup_median (fun () ->
        let kernels = Ndp_workloads.Suite.all () in
        (kernels, jobs ~seed kernels))
  in
  (* Pass-0 outcome of each job: (flit-hops, cycles). Later passes must
     reproduce it exactly. *)
  let first = Array.make (List.length ops) (0, 0) in
  let loop =
    drive ~seconds ~trace ~ops
      ~exec:(fun spans job ->
        Ndp_obs.Span.with_span spans "job" (fun () -> P.Job.run ~obs:(sink spans) job))
      ~account:Layers.count_result
      ~check:(fun pass i r ->
        let outcome = (Stats.hops r.P.stats, r.P.exec_time) in
        if pass = 0 then first.(i) <- outcome;
        outcome = first.(i))
  in
  let peak_mem_mb = peak_rss_mb None in
  let checks =
    digest_checks kernels @ fusion_checks (List.mapi (fun i j -> (j, first.(i))) ops)
  in
  let samples = loop.samples_ms in
  let flit_hops = Array.fold_left (fun acc (h, _) -> acc + h) 0 first in
  let exec_cycles = Array.to_list (Array.map snd first) in
  {
    setup_s;
    loop;
    ops_per_s = float_of_int loop.attempted /. loop.elapsed_s;
    tail = ("p90", percentile 0.9 samples);
    flit_hops;
    exec_cycles;
    peak_mem_mb;
    named =
      [
        ("job_ms_p50", median samples, "ms");
        ("job_ms_tail", percentile 0.9 samples, "ms");
        ("flit_hops", float_of_int flit_hops, "flit-hops");
        ("exec_cycles_geomean", geomean exec_cycles, "cycles");
      ];
    checks;
  }
