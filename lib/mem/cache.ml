type t = {
  num_sets : int;
  assoc : int;
  line_bits : int;
  tags : int array; (* num_sets * assoc, -1 = invalid *)
  stamps : int array; (* LRU recency stamps *)
  mutable clock : int;
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
}

let log2_exact n =
  let rec go acc v = if v = 1 then acc else go (acc + 1) (v / 2) in
  if n <= 0 || n land (n - 1) <> 0 then invalid_arg "Cache: size must be a power of two"
  else go 0 n

let create ~size_bytes ~assoc ~line_bytes () =
  if assoc <= 0 then invalid_arg "Cache.create: assoc must be positive";
  let lines = size_bytes / line_bytes in
  if lines < assoc || lines mod assoc <> 0 then
    invalid_arg "Cache.create: size / line_bytes must be a positive multiple of assoc";
  let num_sets = lines / assoc in
  ignore (log2_exact num_sets);
  {
    num_sets;
    assoc;
    line_bits = log2_exact line_bytes;
    tags = Array.make (num_sets * assoc) (-1);
    stamps = Array.make (num_sets * assoc) 0;
    clock = 0;
    hits = 0;
    misses = 0;
    evictions = 0;
  }

(* Derived gauges read the cache's own counters at dump time, so the
   access path is identical whether or not metrics are enabled. *)
let publish t metrics name =
  if Ndp_obs.Metrics.enabled metrics then begin
    let open Ndp_obs.Metrics in
    gauge_fn metrics (name ^ ".hits") (fun () -> float_of_int t.hits);
    gauge_fn metrics (name ^ ".misses") (fun () -> float_of_int t.misses);
    gauge_fn metrics (name ^ ".evictions") (fun () -> float_of_int t.evictions)
  end

let set_of t block = block land (t.num_sets - 1)

(* Allocation-free way lookup (-1 = miss): the cache is probed several
   times per simulated memory access. The scans are top-level recursions
   over explicit arguments — a local [let rec] closing over the set's
   base would allocate a closure on every probe. *)
let rec scan_ways (tags : int array) (block : int) i last =
  if i = last then -1 else if tags.(i) = block then i else scan_ways tags block (i + 1) last

let find_slot t block =
  let base = set_of t block * t.assoc in
  scan_ways t.tags block base (base + t.assoc)

let touch t slot =
  t.clock <- t.clock + 1;
  t.stamps.(slot) <- t.clock

(* The first invalid way, else the least recently used one (the lowest
   stamp, earliest way on ties). *)
let rec lru_way (tags : int array) (stamps : int array) best i last =
  if i = last then best
  else if tags.(i) = -1 then i
  else lru_way tags stamps (if stamps.(i) < stamps.(best) then i else best) (i + 1) last

let victim_slot t block =
  let base = set_of t block * t.assoc in
  lru_way t.tags t.stamps base base (base + t.assoc)

let fill t slot block =
  if t.tags.(slot) >= 0 then t.evictions <- t.evictions + 1;
  t.tags.(slot) <- block;
  touch t slot

let insert t addr =
  let block = addr lsr t.line_bits in
  let slot = find_slot t block in
  if slot >= 0 then touch t slot else fill t (victim_slot t block) block

let invalidate t addr =
  let slot = find_slot t (addr lsr t.line_bits) in
  if slot >= 0 then begin
    t.tags.(slot) <- -1;
    t.stamps.(slot) <- 0
  end

let access t addr =
  let block = addr lsr t.line_bits in
  let slot = find_slot t block in
  if slot >= 0 then begin
    touch t slot;
    t.hits <- t.hits + 1;
    true
  end
  else begin
    t.misses <- t.misses + 1;
    fill t (victim_slot t block) block;
    false
  end

let probe t addr = find_slot t (addr lsr t.line_bits) >= 0

let hits t = t.hits
let misses t = t.misses
let evictions t = t.evictions

let clear t =
  Array.fill t.tags 0 (Array.length t.tags) (-1);
  Array.fill t.stamps 0 (Array.length t.stamps) 0;
  t.clock <- 0;
  t.hits <- 0;
  t.misses <- 0;
  t.evictions <- 0

let num_sets t = t.num_sets
let assoc t = t.assoc
