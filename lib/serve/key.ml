module Pipeline = Ndp_core.Pipeline
module Config = Ndp_sim.Config
module Kernel = Ndp_core.Kernel
module Plan = Ndp_fault.Plan

(* Every [Config.t] field participates in the key: a key that kept only
   cluster/memory/page-policy would let configs differing in (for example)
   mesh dimensions, a latency or MCDRAM capacity alias each other's
   memoized results. Floats are rendered in hex ([%h])
   so distinct values can never round to the same key. *)
let config (c : Config.t) =
  String.concat ","
    [
      string_of_int c.Config.mesh_cols;
      string_of_int c.Config.mesh_rows;
      Ndp_noc.Cluster.letter c.Config.cluster;
      Config.memory_mode_letter c.Config.memory_mode;
      string_of_int c.Config.line_bytes;
      string_of_int c.Config.l1_size;
      string_of_int c.Config.l1_assoc;
      string_of_int c.Config.l2_bank_size;
      string_of_int c.Config.l2_assoc;
      string_of_int c.Config.mcdram_capacity;
      string_of_int c.Config.hop_cycles;
      string_of_int c.Config.link_service_cycles;
      string_of_int c.Config.flit_bytes;
      string_of_int c.Config.l1_hit_cycles;
      string_of_int c.Config.l2_hit_cycles;
      string_of_int c.Config.mcdram_cycles;
      string_of_int c.Config.ddr_cycles;
      string_of_int c.Config.op_cycles;
      string_of_int c.Config.sync_cycles;
      string_of_int c.Config.load_issue_cycles;
      string_of_int c.Config.outstanding_loads;
      string_of_bool c.Config.coherence;
      string_of_bool c.Config.prefetch_next_line;
      Printf.sprintf "%h" c.Config.mlp_overlap;
      (match c.Config.page_policy with
      | Ndp_mem.Page_alloc.Coloring -> "col"
      | Ndp_mem.Page_alloc.Scrambled -> "scr");
      string_of_int c.Config.seed;
    ]

let tweaks (tw : Pipeline.tweaks) =
  if tw = Pipeline.no_tweaks then ""
  else
    (* The override list is serialized pairwise: keying on its length alone
       would let two different page->MC maps of equal size collide. *)
    Printf.sprintf "|b%h d%h mc[%s] c%h s%d" tw.Pipeline.l1_boost tw.Pipeline.distance_factor
      (String.concat ";"
         (List.map (fun (page, mc) -> Printf.sprintf "%d:%d" page mc) tw.Pipeline.mc_overrides))
      tw.Pipeline.cost_scale tw.Pipeline.extra_syncs

let scheme = function
  | Pipeline.Default -> "default"
  | Pipeline.Partitioned o ->
    Printf.sprintf "part(w=%s,r=%b,s=%b,l=%b,bt=%h,id=%b,insp=%b,f=%b,fc=%s)"
      (match o.Pipeline.window with
      | Pipeline.Adaptive -> "a"
      | Pipeline.Fixed k -> string_of_int k)
      o.Pipeline.reuse_aware o.Pipeline.sync_minimize o.Pipeline.level_based
      o.Pipeline.balance_threshold
      o.Pipeline.ideal_data o.Pipeline.use_inspector o.Pipeline.fuse
      (match o.Pipeline.fuse_capacity with None -> "-" | Some c -> string_of_int c)

let digest s = Digest.to_hex (Digest.string s)

(* The kernel key covers the whole IR content, not just the name: program
   text (statements and loop bounds), array layout, index-array contents
   and the MCDRAM placement hints all change what the compiler produces,
   so two kernels registered under the same name but different bodies must
   not alias. The content is digested so the key stays short. *)
let kernel (k : Kernel.t) =
  let b = Buffer.create 1024 in
  let add fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  let p = k.Kernel.program in
  add "%s\x00" p.Ndp_ir.Loop.prog_name;
  List.iter
    (fun (a : Ndp_ir.Array_decl.t) ->
      add "a:%s:%d:%d:%d\x00" a.Ndp_ir.Array_decl.name a.Ndp_ir.Array_decl.length
        a.Ndp_ir.Array_decl.elem_size a.Ndp_ir.Array_decl.base_va)
    p.Ndp_ir.Loop.arrays;
  List.iter
    (fun (n : Ndp_ir.Loop.nest) ->
      add "n:%s:%d\x00" n.Ndp_ir.Loop.nest_name n.Ndp_ir.Loop.sweeps;
      List.iter
        (fun (v : Ndp_ir.Loop.loop_var) ->
          add "v:%s:%d:%d\x00" v.Ndp_ir.Loop.var v.Ndp_ir.Loop.lo v.Ndp_ir.Loop.hi)
        n.Ndp_ir.Loop.vars;
      List.iter (fun s -> add "s:%s\x00" (Ndp_ir.Stmt.to_string s)) n.Ndp_ir.Loop.body)
    p.Ndp_ir.Loop.nests;
  List.iter
    (fun (name, contents) ->
      add "i:%s:%d:" name (Array.length contents);
      Array.iter (fun v -> add "%d," v) contents;
      Buffer.add_char b '\x00')
    k.Kernel.index_arrays;
  List.iter (fun name -> add "h:%s\x00" name) k.Kernel.hot_arrays;
  Printf.sprintf "%s:%s" k.Kernel.name (digest (Buffer.contents b))

(* The plan's own seed (not just the spec's) plus its resolved event list:
   [describe] renders every concrete choice the seeded RNG made, so two
   plans from the same spec but different seeds — or different specs that
   happen to share a seed — key apart. *)
let fault = function
  | None -> ""
  | Some p ->
    Printf.sprintf "f(seed=%d,%s)" (Plan.seed p) (Plan.describe p)

let job (j : Pipeline.Job.t) =
  String.concat "#"
    [
      kernel j.Pipeline.Job.kernel;
      scheme j.Pipeline.Job.scheme;
      config j.Pipeline.Job.config;
      tweaks j.Pipeline.Job.tweaks;
      fault j.Pipeline.Job.faults;
      (if j.Pipeline.Job.repair then "r" else "");
      (if j.Pipeline.Job.validate then "v" else "");
      (if j.Pipeline.Job.capture then "c" else "");
    ]

let job_digest j = digest (job j)
