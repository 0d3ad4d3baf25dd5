type policy = Coloring | Scrambled

(* Direct-mapped software TLB in front of the frame table. Every memory
   reference the simulator models goes through [translate], so the
   Hashtbl probe per access was one of the hottest paths in the whole
   pipeline. The TLB caches only pages that already exist in [frames]:
   first-touch allocation (and its fault counter / RNG draws) still runs
   exactly once per page, in first-access order. *)
let tlb_slots = 1024 (* power of two *)

type t = {
  policy : policy;
  map : Addr_map.t;
  frames : (int, int) Hashtbl.t; (* virtual page -> physical page *)
  tlb_tags : int array; (* vpage per slot, -1 = empty *)
  tlb_frames : int array;
  mutable rng : Ndp_prelude.Rng.t;
  mutable m_faults : Ndp_obs.Metrics.counter; (* mem.page_faults: first-touch allocations *)
}

let default_seed = 0x5eed

let reset ?(seed = default_seed) ?(metrics = Ndp_obs.Metrics.none) t =
  (* [Hashtbl.reset] shrinks the table to its creation size, so a reused
     allocator grows (and allocates) exactly as a fresh one would. *)
  Hashtbl.reset t.frames;
  Array.fill t.tlb_tags 0 tlb_slots (-1);
  t.rng <- Ndp_prelude.Rng.create seed;
  t.m_faults <- Ndp_obs.Metrics.counter ~fresh:true metrics "mem.page_faults";
  if Ndp_obs.Metrics.enabled metrics then
    Ndp_obs.Metrics.gauge_fn metrics "mem.pages_resident" (fun () ->
        float_of_int (Hashtbl.length t.frames))

let create ?seed ~policy ?metrics map =
  let t =
    {
      policy;
      map;
      frames = Hashtbl.create 1024;
      tlb_tags = Array.make tlb_slots (-1);
      tlb_frames = Array.make tlb_slots 0;
      rng = Ndp_prelude.Rng.create default_seed;
      m_faults = Ndp_obs.Metrics.counter Ndp_obs.Metrics.none "mem.page_faults";
    }
  in
  reset ?seed ?metrics t;
  t

let policy t = t.policy

let frame_of t vpage =
  let slot = vpage land (tlb_slots - 1) in
  if t.tlb_tags.(slot) = vpage then t.tlb_frames.(slot)
  else begin
    let p =
      match Hashtbl.find t.frames vpage with
      | p -> p
      | exception Not_found ->
        Ndp_obs.Metrics.incr t.m_faults;
        let p =
          match t.policy with
          | Coloring -> vpage
          | Scrambled ->
            (* A fresh random frame per page, deterministic in allocation
               order. *)
            let r = Ndp_prelude.Rng.int t.rng (1 lsl 20) in
            (r lsl 2) lor (Ndp_prelude.Rng.int t.rng 4)
        in
        Hashtbl.replace t.frames vpage p;
        p
    in
    t.tlb_tags.(slot) <- vpage;
    t.tlb_frames.(slot) <- p;
    p
  end

let translate t va =
  let bits = Addr_map.page_bits t.map in
  let offset = va land ((1 lsl bits) - 1) in
  (frame_of t (va lsr bits) lsl bits) lor offset

let compiler_view t va =
  match t.policy with
  | Coloring -> translate t va
  | Scrambled -> va
