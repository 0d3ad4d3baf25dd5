module Mesh = Ndp_noc.Mesh
module Cache = Ndp_mem.Cache
module Snuca = Ndp_mem.Snuca
module Page_alloc = Ndp_mem.Page_alloc
module Metrics = Ndp_obs.Metrics
module Ledger = Ndp_obs.Ledger

(* Per-line coherence state: a bitset over node ids for O(1) membership
   plus an insertion-order stack so invalidations still walk holders
   newest-first (the order the old cons-list encoding iterated in). The
   record is mutated in place — one table lookup per touch, no list
   rebuilding. *)
type sharer_set = {
  mutable bits : int array; (* node-id bitset, 63 nodes per word *)
  mutable stack : int array; (* nodes in insertion order *)
  mutable len : int;
}

type level = L1 | L2 | Memory

type t = {
  mutable config : Config.t;
  mesh : Mesh.t;
  mutable faults : Ndp_fault.Plan.t option;
  snuca : Snuca.t;
  pages : Page_alloc.t;
  network : Network.t;
  l1s : Cache.t array; (* one per node *)
  l2s : Cache.t array; (* one bank per node *)
  mcdram_cache : Cache.t option; (* memory-side cache: cache & hybrid modes *)
  mutable hot_ranges : (int * int) list;
  mutable hot_sorted : (int * int) array; (* by base, for binary search *)
  mutable hot_max_len : int;
  mutable l1_boost : float;
  mutable boost_rng : Ndp_prelude.Rng.t;
  mutable mc_overrides : (int, int) Hashtbl.t; (* virtual page -> mc node *)
  sharers : (int, sharer_set) Hashtbl.t; (* VA line -> nodes with an L1 copy *)
  mutable m_l1_hits : Metrics.vec; (* mem.l1_hits{node} *)
  mutable m_l1_misses : Metrics.vec;
  mutable m_l2_bank_hits : Metrics.vec; (* mem.l2_bank_hits{bank} *)
  mutable m_l2_bank_misses : Metrics.vec;
  mutable m_mc_requests : Metrics.vec; (* mem.mc_requests{node}: L2-miss service per MC *)
  mutable m_mc_penalty : Metrics.counter; (* fault.mc_penalty_cycles *)
  mutable ledger : Ledger.t;
  mutable last_level : level; (* what served the latest [load] *)
}

(* Shared and never written: a machine without overrides points here, and
   [set_mc_overrides] installs a table of its own, so what a run allocates
   for overrides depends on that run's overrides alone. *)
let no_overrides : (int, int) Hashtbl.t = Hashtbl.create 1

let node_label i = Printf.sprintf "node=%d" i

let bank_label i = Printf.sprintf "bank=%d" i

(* Everything that is not storage sized by the machine's shape is
   (re)bound here, and [create] ends by calling it too, so a reused
   machine and a fresh one start from one definition of "initial". The
   growable tables go back to their creation capacity ([Hashtbl.reset]):
   a reused machine then allocates, and iterates, exactly like a fresh
   one. Cache metric names are formatted only for an enabled registry.
   The sink's instruments are rebound fresh (zeroed) and its ledger is
   cleared, so a sink reused for another run reports that run alone. *)
let reset ?(obs = Ndp_obs.Sink.none) ?faults t (config : Config.t) =
  if not (Config.same_shape config t.config) then
    invalid_arg "Machine.reset: config has a different shape";
  let reg = obs.Ndp_obs.Sink.metrics in
  let clear_all prefix caches =
    Array.iteri
      (fun i c ->
        Cache.clear c;
        if Metrics.enabled reg then Cache.publish c reg (Printf.sprintf "%s.%d" prefix i))
      caches
  in
  clear_all "mem.l1" t.l1s;
  clear_all "mem.l2_bank" t.l2s;
  Option.iter
    (fun c ->
      Cache.clear c;
      Cache.publish c reg "mem.mcdram_cache")
    t.mcdram_cache;
  Snuca.reset ~metrics:reg t.snuca;
  Page_alloc.reset ~seed:config.seed ~metrics:reg t.pages;
  Network.reset ~obs ?faults t.network config;
  let n = Mesh.size t.mesh in
  t.config <- config;
  t.faults <- faults;
  t.hot_ranges <- [];
  t.hot_sorted <- [||];
  t.hot_max_len <- 0;
  t.l1_boost <- 0.0;
  t.boost_rng <- Ndp_prelude.Rng.create (config.seed + 7);
  t.mc_overrides <- no_overrides;
  Hashtbl.reset t.sharers;
  t.m_l1_hits <- Metrics.vec ~fresh:true reg "mem.l1_hits" ~size:n ~label:node_label;
  t.m_l1_misses <- Metrics.vec ~fresh:true reg "mem.l1_misses" ~size:n ~label:node_label;
  t.m_l2_bank_hits <- Metrics.vec ~fresh:true reg "mem.l2_bank_hits" ~size:n ~label:bank_label;
  t.m_l2_bank_misses <- Metrics.vec ~fresh:true reg "mem.l2_bank_misses" ~size:n ~label:bank_label;
  t.m_mc_requests <- Metrics.vec ~fresh:true reg "mem.mc_requests" ~size:n ~label:node_label;
  (* Registered only under a plan, keeping fault-free dumps unchanged. *)
  t.m_mc_penalty <-
    Metrics.counter ~fresh:true
      (match faults with Some _ -> reg | None -> Metrics.none)
      "fault.mc_penalty_cycles";
  Ledger.clear obs.Ndp_obs.Sink.ledger;
  t.ledger <- obs.Ndp_obs.Sink.ledger;
  t.last_level <- L1

let create ?obs ?faults (config : Config.t) =
  let mesh = Config.mesh config in
  let map = Config.addr_map config in
  let cache size_bytes assoc =
    Cache.create ~size_bytes ~assoc ~line_bytes:config.line_bytes ()
  in
  let dead = Metrics.vec Metrics.none "" ~size:0 ~label:node_label in
  let t =
    {
      config;
      mesh;
      faults = None;
      snuca = Snuca.create mesh config.cluster map;
      pages = Page_alloc.create ~policy:config.page_policy map;
      network = Network.create config;
      l1s = Array.init (Mesh.size mesh) (fun _ -> cache config.l1_size config.l1_assoc);
      l2s = Array.init (Mesh.size mesh) (fun _ -> cache config.l2_bank_size config.l2_assoc);
      mcdram_cache =
        (match config.memory_mode with
        | Config.Flat -> None
        | Config.Cache_mode -> Some (cache config.mcdram_capacity 1)
        | Config.Hybrid -> Some (cache (config.mcdram_capacity / 2) 1));
      hot_ranges = [];
      hot_sorted = [||];
      hot_max_len = 0;
      l1_boost = 0.0;
      boost_rng = Ndp_prelude.Rng.create 0;
      mc_overrides = no_overrides;
      sharers = Hashtbl.create 4096;
      m_l1_hits = dead;
      m_l1_misses = dead;
      m_l2_bank_hits = dead;
      m_l2_bank_misses = dead;
      m_mc_requests = dead;
      m_mc_penalty = Metrics.counter Metrics.none "";
      ledger = Ledger.none;
      last_level = L1;
    }
  in
  reset ?obs ?faults t config;
  t

let set_hot_ranges t ranges =
  t.hot_ranges <- ranges;
  let sorted = Array.of_list ranges in
  Array.sort (fun (a, _) (b, _) -> compare a b) sorted;
  t.hot_sorted <- sorted;
  t.hot_max_len <- Array.fold_left (fun m (_, len) -> max m len) 0 sorted

let set_l1_boost t p =
  if p < 0.0 || p > 1.0 then invalid_arg "Machine.set_l1_boost: probability out of range";
  t.l1_boost <- p

let set_mc_overrides t pairs =
  let table = Hashtbl.create (List.length pairs) in
  List.iter (fun (page, mc) -> Hashtbl.replace table page mc) pairs;
  t.mc_overrides <- table

(* Whether one of the ranges [a.(i)], [a.(i-1)], ... still covers [va];
   [max_len] bounds how far left a covering range can start. *)
let rec covered a max_len va i =
  if i < 0 then false
  else
    let base, len = a.(i) in
    if base + max_len <= va then false
    else (va >= base && va < base + len) || covered a max_len va (i - 1)

(* Binary search for the rightmost range with [base <= va], then walk left
   only as far as [hot_max_len] allows a range to still cover [va] — exact
   for overlapping ranges, O(log n) for the disjoint common case. *)
let is_hot t va =
  let a = t.hot_sorted in
  let n = Array.length a in
  if n = 0 then false
  else begin
    let lo = ref 0 and hi = ref n in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if fst a.(mid) <= va then lo := mid + 1 else hi := mid
    done;
    (* a.(!lo - 1) is the rightmost range starting at or below va. *)
    covered a t.hot_max_len va (!lo - 1)
  end

let translate t va = Page_alloc.translate t.pages va

let compiler_translate t va = Page_alloc.compiler_view t.pages va

let home_node t ~va = Snuca.home_node t.snuca (translate t va)

let note_home_lookups t ~bank ~count = Snuca.note_lookups t.snuca ~bank ~count

let compiler_home_node t ~va = Snuca.home_node t.snuca (compiler_translate t va)

let compiler_mc_node t ~va = Snuca.mc_node t.snuca (compiler_translate t va)

(* Latency of servicing a request at the backing memory, per memory mode.
   Under flat/hybrid modes, arrays placed in MCDRAM are fast; under
   cache/hybrid modes a direct-mapped memory-side cache filters DDR. *)
let mcdram_latency t stats =
  Stats.incr_mcdram_accesses stats;
  t.config.Config.mcdram_cycles

let ddr_latency t stats =
  Stats.incr_ddr_accesses stats;
  t.config.Config.ddr_cycles

let through_cache t cache pa stats =
  if Cache.access cache pa then mcdram_latency t stats
  else
    let m = mcdram_latency t stats in
    m + ddr_latency t stats

let memory_latency t va pa stats =
  match (t.config.Config.memory_mode, t.mcdram_cache) with
  | Config.Flat, _ -> if is_hot t va then mcdram_latency t stats else ddr_latency t stats
  | Config.Cache_mode, Some cache -> through_cache t cache pa stats
  | Config.Hybrid, Some cache ->
    if is_hot t va then mcdram_latency t stats else through_cache t cache pa stats
  | (Config.Cache_mode | Config.Hybrid), None -> assert false

(* A request header is small; replies carry the data payload. *)
let request_bytes = 8

let line_of t va = va / t.config.Config.line_bytes

let set_words n = (n + 62) / 63

let set_mem s node = s.bits.(node / 63) land (1 lsl (node mod 63)) <> 0

let set_add s node =
  s.bits.(node / 63) <- s.bits.(node / 63) lor (1 lsl (node mod 63));
  if s.len = Array.length s.stack then begin
    let grown = Array.make (max 4 (2 * s.len)) 0 in
    Array.blit s.stack 0 grown 0 s.len;
    s.stack <- grown
  end;
  s.stack.(s.len) <- node;
  s.len <- s.len + 1

(* [Hashtbl.find] rather than [find_opt]: a hit then allocates nothing. *)
let sharer_set_of t line =
  match Hashtbl.find t.sharers line with
  | s -> s
  | exception Not_found ->
    let s =
      { bits = Array.make (set_words (Mesh.size t.mesh)) 0; stack = Array.make 4 0; len = 0 }
    in
    Hashtbl.add t.sharers line s;
    s

let note_sharer t ~node ~va =
  let s = sharer_set_of t (line_of t va) in
  if not (set_mem s node) then set_add s node

(* Write-invalidate coherence: a store kills every other node's L1 copy of
   the line; each invalidation is a small message from the writer. The
   holder walk runs newest-first — the iteration order of the cons-list
   encoding this replaced — because each send perturbs link occupancy, so
   the order is observable in latency stats. *)
let invalidate_sharers t ~writer ~va ~time ~stats =
  if t.config.Config.coherence then begin
    let line = line_of t va in
    let s = sharer_set_of t line in
    for i = s.len - 1 downto 0 do
      let node = s.stack.(i) in
      if node <> writer && Cache.probe t.l1s.(node) va then begin
        ignore (Network.send t.network ~time ~src:writer ~dst:node ~bytes:request_bytes ~stats);
        (* Evict by filling the slot with a poison tag: reinsert of the
           same line later will miss. *)
        Cache.invalidate t.l1s.(node) va;
        Stats.incr_invalidations stats
      end
    done;
    Array.fill s.bits 0 (Array.length s.bits) 0;
    s.len <- 0;
    set_add s writer
  end

(* Next-line prefetch: on an L1 miss, also pull line+1 from its own home
   bank into the requester's L1, off the critical path. *)
let prefetch_next t ~node ~va ~time ~stats =
  if t.config.Config.prefetch_next_line then begin
    let next_va = ((line_of t va) + 1) * t.config.Config.line_bytes in
    if not (Cache.probe t.l1s.(node) next_va) then begin
      Ledger.enter_va t.ledger next_va;
      let pa = translate t next_va in
      let home = Snuca.home_node t.snuca pa in
      ignore (Network.send t.network ~time ~src:node ~dst:home ~bytes:request_bytes ~stats);
      ignore
        (Network.send t.network ~time ~src:home ~dst:node ~bytes:t.config.Config.line_bytes ~stats);
      Cache.insert t.l2s.(home) pa;
      Cache.insert t.l1s.(node) next_va;
      note_sharer t ~node ~va:next_va;
      Stats.incr_prefetches stats
    end
  end

let mc_for t ~va ~pa =
  let vpage = va lsr Ndp_mem.Addr_map.page_bits (Snuca.addr_map t.snuca) in
  match Hashtbl.find t.mc_overrides vpage with
  | mc -> mc
  | exception Not_found -> Snuca.mc_node t.snuca pa

let load t ~node ~va ~bytes ~time ~stats =
  ignore bytes;
  Ledger.enter_va t.ledger va;
  let c = t.config in
  (* Data always moves at cache-line granularity on the mesh. *)
  let fill_bytes = c.Config.line_bytes in
  let l1_hit =
    Cache.access t.l1s.(node) va
    ||
    (t.l1_boost > 0.0
    &&
    if Ndp_prelude.Rng.chance t.boost_rng t.l1_boost then begin
      Cache.insert t.l1s.(node) va;
      true
    end
    else false)
  in
  if l1_hit then begin
    Stats.incr_l1_hits stats;
    Metrics.vadd t.m_l1_hits node 1;
    t.last_level <- L1;
    time + c.l1_hit_cycles
  end
  else begin
    Stats.incr_l1_misses stats;
    Metrics.vadd t.m_l1_misses node 1;
    let pa = translate t va in
    let home = Snuca.home_node t.snuca pa in
    let at_home = Network.send t.network ~time ~src:node ~dst:home ~bytes:request_bytes ~stats in
    let l2 = t.l2s.(home) in
    if Cache.access l2 pa then begin
      Stats.incr_l2_hits stats;
      Metrics.vadd t.m_l2_bank_hits home 1;
      let ready = at_home + c.l2_hit_cycles in
      let arrival = Network.send t.network ~time:ready ~src:home ~dst:node ~bytes:fill_bytes ~stats in
      Cache.insert t.l1s.(node) va;
      note_sharer t ~node ~va;
      prefetch_next t ~node ~va ~time:arrival ~stats;
      t.last_level <- L2;
      arrival + c.l1_hit_cycles
    end
    else begin
      Stats.incr_l2_misses stats;
      Metrics.vadd t.m_l2_bank_misses home 1;
      let mc = mc_for t ~va ~pa in
      Metrics.vadd t.m_mc_requests mc 1;
      let tag_checked = at_home + c.l2_hit_cycles in
      let at_mc =
        Network.send t.network ~time:tag_checked ~src:home ~dst:mc ~bytes:request_bytes ~stats
      in
      let mem_lat = memory_latency t va pa stats in
      (* MC backpressure: a plan can multiply the service latency behind a
         controller, modelling a saturated or throttled channel. *)
      let mem_lat =
        match t.faults with
        | None -> mem_lat
        | Some plan ->
          let f = Ndp_fault.Plan.mc_factor plan mc in
          if f = 1.0 then mem_lat
          else begin
            let slowed = int_of_float (ceil (float_of_int mem_lat *. f)) in
            Metrics.add t.m_mc_penalty (slowed - mem_lat);
            slowed
          end
      in
      let served = at_mc + mem_lat in
      (* The memory reply returns directly to the requester (as on KNL);
         the home bank receives its fill off the critical path. *)
      ignore (Network.send t.network ~time:served ~src:mc ~dst:home ~bytes:c.line_bytes ~stats);
      Cache.insert l2 pa;
      let arrival = Network.send t.network ~time:served ~src:mc ~dst:node ~bytes:fill_bytes ~stats in
      Cache.insert t.l1s.(node) va;
      note_sharer t ~node ~va;
      prefetch_next t ~node ~va ~time:arrival ~stats;
      t.last_level <- Memory;
      arrival + c.l1_hit_cycles
    end
  end

let store t ~node ~va ~bytes ~time ~stats =
  ignore bytes;
  Ledger.enter_va t.ledger va;
  let pa = translate t va in
  let home = Snuca.home_node t.snuca pa in
  invalidate_sharers t ~writer:node ~va ~time ~stats;
  Cache.insert t.l1s.(node) va;
  note_sharer t ~node ~va;
  let arrival = Network.send t.network ~time ~src:node ~dst:home ~bytes:t.config.Config.line_bytes ~stats in
  Cache.insert t.l2s.(home) pa;
  arrival

(* Fused-intermediate store: the value stays in the producer node's L1 and
   is never written back to the home bank, because the fusion pass proved
   every consumer runs on this same node. Coherence invalidations still
   fire (another node may hold a stale copy from an earlier sweep), but no
   line crosses the NoC toward home and the L2 bank is left untouched. *)
let store_local t ~node ~va ~bytes ~time ~stats =
  ignore bytes;
  Ledger.enter_va t.ledger va;
  invalidate_sharers t ~writer:node ~va ~time ~stats;
  Cache.insert t.l1s.(node) va;
  note_sharer t ~node ~va;
  time

let probe_l2 t ~va =
  let pa = translate t va in
  let home = Snuca.home_node t.snuca pa in
  Cache.probe t.l2s.(home) pa

let l1_probe t ~node ~va = Cache.probe t.l1s.(node) va

let last_level t = t.last_level

let network t = t.network

let config t = t.config

let mesh t = t.mesh
