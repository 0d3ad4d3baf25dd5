(* Byte-identity digests over everything a pipeline run observably
   produces: stats, schedules (the full task stream), ledger totals.
   The digest table frozen in test/test_equiv.ml is the correctness
   oracle for simulator-internals rewrites: any change to a counter, a
   task field or an emission order shows up as a digest mismatch. *)

module P = Ndp_core.Pipeline

type mode = Plain | Faulted | Profiled

let mode_name = function
  | Plain -> "plain"
  | Faulted -> "faulted"
  | Profiled -> "profiled"

let modes = [ Plain; Faulted; Profiled ]

let schemes = [ P.Default; P.Partitioned P.partitioned_defaults ]

let fault_spec = "kill=2,slow=1x4.0,stall=9@0+20000,mc=0x2.5"

let fault_seed = 7

(* FNV-1a folded into OCaml's 63-bit int (offset basis truncated to fit);
   deterministic across runs and platforms with 64-bit ints. *)
let fnv_offset = 0x4bf29ce484222325
let fnv_prime = 0x100000001b3

let hash_string h s =
  let h = ref h in
  String.iter (fun c -> h := (!h lxor Char.code c) * fnv_prime) s;
  !h

let buf_int b i = Buffer.add_string b (string_of_int i); Buffer.add_char b ';'

let buf_task b (t : Ndp_sim.Task.t) =
  buf_int b t.id;
  buf_int b t.group;
  buf_int b t.node;
  buf_int b t.cost;
  buf_int b t.mix.add_sub;
  buf_int b t.mix.mul_div;
  buf_int b t.mix.other;
  List.iter
    (function
      | Ndp_sim.Task.Load { va; bytes } ->
        Buffer.add_char b 'L'; buf_int b va; buf_int b bytes
      | Ndp_sim.Task.Result { producer; bytes } ->
        Buffer.add_char b 'R'; buf_int b producer; buf_int b bytes)
    t.operands;
  (match t.store with
  | None -> Buffer.add_char b '-'
  | Some (va, bytes) -> Buffer.add_char b 'S'; buf_int b va; buf_int b bytes);
  buf_int b t.syncs;
  Buffer.add_string b t.label;
  Buffer.add_char b '\n'

let buf_trace b = function
  | P.Serialized { t_nest; t_tasks; _ } ->
    Buffer.add_string b t_nest;
    Buffer.add_char b ':';
    List.iter (buf_task b) t_tasks
  | P.Windowed { t_nest; t_compiled; _ } ->
    Buffer.add_string b t_nest;
    Buffer.add_char b ':';
    List.iter
      (fun (t, level) -> buf_int b level; buf_task b t)
      (Lazy.force t_compiled.Ndp_core.Window.tasks);
    List.iter (fun (a, c) -> buf_int b a; buf_int b c)
      t_compiled.Ndp_core.Window.sync_arcs

let digest_result ?obs (r : P.result) =
  let b = Buffer.create 65536 in
  List.iter (fun (k, v) -> Buffer.add_string b k; buf_int b v)
    (Ndp_sim.Stats.to_alist r.P.stats);
  buf_int b r.P.exec_time;
  buf_int b r.P.sync_arcs;
  buf_int b r.P.tasks_emitted;
  buf_int b r.P.remapped_tasks;
  Array.iter (buf_int b) r.P.group_hops;
  Array.iter (buf_int b) r.P.group_syncs;
  Array.iter (buf_int b) r.P.node_finish;
  Array.iter (buf_int b) r.P.node_busy;
  List.iter (fun (n, w) -> Buffer.add_string b n; buf_int b w)
    r.P.windows_chosen;
  buf_int b r.P.est_movement_total;
  List.iter (buf_trace b) r.P.traces;
  (match obs with
  | Some (sink : Ndp_obs.Sink.t) when Ndp_obs.Ledger.enabled sink.ledger ->
    let l = sink.Ndp_obs.Sink.ledger in
    buf_int b (Ndp_obs.Ledger.total_messages l);
    buf_int b (Ndp_obs.Ledger.total_flits l);
    buf_int b (Ndp_obs.Ledger.total_flit_hops l);
    buf_int b (Ndp_obs.Ledger.total_predicted l)
  | _ -> ());
  Printf.sprintf "%015x" (hash_string fnv_offset (Buffer.contents b) land max_int)

let run ?config ~mode ~scheme kernel =
  let config = Option.value config ~default:Ndp_sim.Config.default in
  match mode with
  | Plain ->
    let r = P.Job.run (P.Job.make ~config ~validate:true scheme kernel) in
    digest_result r
  | Faulted ->
    let mesh = Ndp_sim.Config.mesh config in
    let plan =
      match Ndp_fault.Plan.parse ~mesh ~seed:fault_seed fault_spec with
      | Ok p -> p
      | Error e -> failwith ("Equiv.run: bad fault spec: " ^ e)
    in
    let r = P.Job.run (P.Job.make ~config ~validate:true ~faults:plan ~repair:true scheme kernel) in
    digest_result r
  | Profiled ->
    let obs =
      Ndp_obs.Sink.create ~metrics:true ~trace:false ~ledger:true ()
    in
    let r = P.Job.run ~obs (P.Job.make ~config ~validate:true scheme kernel) in
    digest_result ~obs r

let all_combos () =
  List.concat_map
    (fun name ->
      List.concat_map
        (fun scheme ->
          List.map (fun mode -> (name, scheme, mode)) modes)
        schemes)
    Ndp_workloads.Suite.names

let combo_key name scheme mode =
  Printf.sprintf "%s/%s/%s" name (P.scheme_name scheme) (mode_name mode)
