(* Shared plumbing for the workloads: clocks, order statistics, seeded
   configuration draws, process memory, and the report every workload
   returns to [Main]. *)

module Json = Ndp_obs.Render.Json
module P = Ndp_core.Pipeline
module Config = Ndp_sim.Config
include Clock

(* Nearest-rank percentile: the smallest sample with at least [q] of the
   samples at or below it. No interpolation, so a reported value is always
   one that was measured. *)
let percentile q xs =
  match xs with
  | [] -> nan
  | _ ->
    let a = Array.of_list xs in
    Array.sort compare a;
    let n = Array.length a in
    a.(max 0 (min (n - 1) (int_of_float (Float.ceil (q *. float_of_int n)) - 1)))

let median xs = percentile 0.5 xs

let geomean xs =
  match xs with
  | [] -> nan
  | _ ->
    exp
      (List.fold_left (fun acc x -> acc +. log (float_of_int (max 1 x))) 0.0 xs
      /. float_of_int (List.length xs))

(* Run [f] repeatedly and keep the last state; the set-up time is the
   median of the wall times, so one slow start (page faults, a busy
   neighbour) does not move it. A cheap set-up is repeated until it has
   taken half a second in all, so its median is not a single clock tick.
   Earlier states are dropped before the next run so the repetition does
   not inflate peak memory. *)
let setup_median f =
  let times = ref [] and total = ref 0.0 and reps = ref 0 in
  let last = ref None in
  while !reps < 3 || (!total < 500.0 && !reps < 200) do
    last := None;
    let st, ms = timed f in
    last := Some st;
    times := ms :: !times;
    total := !total +. ms;
    incr reps
  done;
  (median !times /. 1000.0, Option.get !last)

(* Resident-set high-water mark of a process, in MiB, from /proc. *)
let peak_rss_mb pid =
  let path = match pid with None -> "/proc/self/status" | Some p -> Printf.sprintf "/proc/%d/status" p in
  match open_in path with
  | exception Sys_error _ -> nan
  | ic ->
    let rec scan () =
      match input_line ic with
      | exception End_of_file -> nan
      | line ->
        if String.length line > 6 && String.sub line 0 6 = "VmHWM:" then
          Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB" (fun kb ->
              float_of_int kb /. 1024.0)
        else scan ()
    in
    let v = scan () in
    close_in ic;
    v

(* The nine (cluster, memory) mode combinations. *)
let modes =
  Array.of_list
    (List.concat_map
       (fun c -> List.map (fun m -> (c, m)) Config.all_memory_modes)
       Ndp_noc.Cluster.all)

(* Seeded machine configurations: the modes drawn so that each combination
   appears (nearly) equally often across [n] draws — only which job gets
   which depends on the seed, which keeps seed-to-seed variation of the
   summed schedule metrics small. *)
let balanced_configs rng n =
  let a = Array.init n (fun i -> modes.(i mod Array.length modes)) in
  Ndp_prelude.Rng.shuffle rng a;
  Array.map (fun (c, m) -> Config.with_modes Config.default c m) a

let shuffled rng xs =
  let a = Array.of_list xs in
  Ndp_prelude.Rng.shuffle rng a;
  Array.to_list a

(* One operation in the run's mode. Untraced, it is simply timed. Traced,
   it runs once untraced and once traced, in alternating order, so the
   tracing overhead is measured on the same operations; the traced
   execution feeds [layers] and its value is returned. Pass 0 is the
   counting pass. *)
let measure ~trace layers ~pass ~index f =
  if not trace then timed (fun () -> f Ndp_obs.Span.none)
  else begin
    let counting = pass = 0 in
    let plain () = Layers.plain (fun () -> f Ndp_obs.Span.none) in
    let traced () = Layers.traced layers ~counting f in
    let (v, traced_ms), (_, plain_ms) =
      if index mod 2 = 0 then
        let p = plain () in
        (traced (), p)
      else
        let t = traced () in
        (t, plain ())
    in
    Layers.pair layers ~plain_ms ~traced_ms;
    (v, traced_ms)
  end

let sink spans = { Ndp_obs.Sink.none with Ndp_obs.Sink.spans }

(* The timed closed loop of an in-process workload: cycle through [ops]
   until [seconds] have passed, then finish the pass under way, so every
   run measures whole passes — the same mix of operations whatever the
   seed and however fast the machine. [exec spans op] performs one
   operation, [account layers r] adds its exact counts (traced counting
   pass only) and [check pass i r] is its per-operation output check; an
   operation that raises counts as failed. In the traced run the counting
   pass is repeated afterwards on a fresh accumulator: the counts must
   come out identical. *)
type loop = {
  attempted : int;
  failed : int;
  elapsed_s : float;
  samples_ms : float list;
  layers : Layers.t;
  counts_repeat : bool;
}

let drive ~seconds ~trace ~ops ~exec ~account ~check =
  let layers = Layers.create () in
  let samples = ref [] in
  let arr = Array.of_list ops in
  let n = Array.length arr in
  let t0 = now () in
  let attempted = ref 0 and failed = ref 0 in
  while !attempted mod n <> 0 || !attempted = 0 || now () < t0 +. seconds do
    let pass = !attempted / n and i = !attempted mod n in
    let ok =
      try
        let r, ms = measure ~trace layers ~pass ~index:i (fun spans -> exec spans arr.(i)) in
        samples := ms :: !samples;
        if trace && pass = 0 then account layers r;
        check pass i r
      with _ -> false
    in
    incr attempted;
    if not ok then incr failed
  done;
  let elapsed_s = now () -. t0 in
  let counts_repeat =
    (not trace)
    ||
    let again = Layers.create () in
    List.iter
      (fun op ->
        let r, _ = Layers.traced again ~counting:true (fun spans -> exec spans op) in
        account again r)
      ops;
    let a = Layers.counts layers and b = Layers.counts again in
    List.iter2
      (fun (name, x) (_, y) ->
        if x <> y then Printf.printf "# count %s differs on repeat: %.17g vs %.17g\n" name x y)
      a b;
    a = b
  in
  { attempted = !attempted; failed = !failed; elapsed_s; samples_ms = !samples; layers; counts_repeat }

(* Workload outcome handed to [Main]. [tail] is the tail of
   [loop.samples_ms] and how it was taken: where the samples allow, the
   highest percentile with at least ten samples beyond it at the expected
   sample count. [named] are the workload's metrics under their own names,
   printed for people; [checks] are the known-answer output checks. *)
type report = {
  setup_s : float;
  loop : loop;
  ops_per_s : float; (* unit operations completed per second *)
  tail : string * float;
  flit_hops : int;
  exec_cycles : int list;
  peak_mem_mb : float;
  named : (string * float * string) list;
  checks : (string * bool) list;
}
