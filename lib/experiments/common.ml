module Pipeline = Ndp_core.Pipeline
module Config = Ndp_sim.Config
module Pool = Ndp_prelude.Pool

type t = {
  cache : Pipeline.result Ndp_serve.Cache.t;
  lock : Mutex.t; (* guards [kernels] *)
  pool : Pool.t;
  mutable kernels : Ndp_core.Kernel.t list option;
}

let create () =
  {
    cache = Ndp_serve.Cache.create ~name:"experiments" ~capacity:max_int ();
    lock = Mutex.create ();
    pool = Pool.create ();
    kernels = None;
  }

let apps t =
  Mutex.protect t.lock (fun () ->
      match t.kernels with
      | Some ks -> ks
      | None ->
        let ks = Ndp_workloads.Suite.all () in
        t.kernels <- Some ks;
        ks)

(* [Key.job] covers every input of the run (the kernel by IR content), so
   same-named kernels with different bodies cannot alias. *)
let run t ?(config = Config.default) ?(tweaks = Pipeline.no_tweaks) scheme kernel =
  let job = Pipeline.Job.make ~config ~tweaks scheme kernel in
  fst
    (Ndp_serve.Cache.find_or_add t.cache (Ndp_serve.Key.job job) (fun () ->
         Pipeline.Job.run job))

let map_apps t f = Pool.parallel_map t.pool f (apps t)

let default_of t kernel = run t Pipeline.Default kernel

let ours_of t kernel = run t (Pipeline.Partitioned Pipeline.partitioned_defaults) kernel

let improvement ~base ~opt =
  Ndp_prelude.Stats.improvement_pct (float_of_int base) (float_of_int opt)

let geomean_improvement rows =
  (* Geometric mean over percentages needs positive values; clamp small. *)
  Ndp_prelude.Stats.geomean (List.map (fun (v, _) -> max 0.1 v) rows)
