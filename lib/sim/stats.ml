(* One plain int slot per counter, in [names] order. Counting never
   depends on observability: an enabled registry reads the slots through
   [publish]. *)
type t = int array

let names =
  [|
    "l1_hits";
    "l1_misses";
    "l2_hits";
    "l2_misses";
    "mcdram_accesses";
    "ddr_accesses";
    "hops";
    "messages";
    "latency_sum";
    "latency_max";
    "ops";
    "syncs";
    "tasks";
    "finish_time";
    "load_wait";
    "result_wait";
    "invalidations";
    "prefetches";
  |]

let create () = Array.make (Array.length names) 0

let l1_hits t = t.(0)
let l1_misses t = t.(1)
let l2_hits t = t.(2)
let l2_misses t = t.(3)
let mcdram_accesses t = t.(4)
let ddr_accesses t = t.(5)
let hops t = t.(6)
let messages t = t.(7)
let latency_sum t = t.(8)
let latency_max t = t.(9)
let ops t = t.(10)
let syncs t = t.(11)
let tasks t = t.(12)
let finish_time t = t.(13)
let load_wait t = t.(14)
let result_wait t = t.(15)
let invalidations t = t.(16)
let prefetches t = t.(17)

let to_alist t = List.init (Array.length names) (fun i -> (names.(i), t.(i)))

let equal (a : t) b = a = b

let publish t register = Array.iteri (fun i name -> register name (fun () -> t.(i))) names

let add t i n = t.(i) <- t.(i) + n

let raise_to t i v = if v > t.(i) then t.(i) <- v

let incr_l1_hits t = add t 0 1
let incr_l1_misses t = add t 1 1
let incr_l2_hits t = add t 2 1
let incr_l2_misses t = add t 3 1
let incr_mcdram_accesses t = add t 4 1
let incr_ddr_accesses t = add t 5 1
let add_hops t n = add t 6 n
let incr_messages t = add t 7 1

let note_latency t l =
  add t 8 l;
  raise_to t 9 l

let add_ops t n = add t 10 n
let add_syncs t n = add t 11 n
let incr_tasks t = add t 12 1
let note_finish t cycle = raise_to t 13 cycle
let add_load_wait t n = add t 14 n
let add_result_wait t n = add t 15 n
let incr_invalidations t = add t 16 1
let incr_prefetches t = add t 17 1

let rate hits misses =
  let total = hits + misses in
  if total = 0 then 0.0 else float_of_int hits /. float_of_int total

let l1_hit_rate t = rate (l1_hits t) (l1_misses t)

let l2_hit_rate t = rate (l2_hits t) (l2_misses t)

let avg_latency t =
  if messages t = 0 then 0.0 else float_of_int (latency_sum t) /. float_of_int (messages t)

let pp ppf t =
  (* An empty-message run has no meaningful average latency: print "-"
     rather than a division artifact. *)
  let avg = if messages t = 0 then "-" else Printf.sprintf "%.1f" (avg_latency t) in
  Format.fprintf ppf
    "@[<v>L1 %d/%d (%.1f%%)@ L2 %d/%d (%.1f%%)@ hops %d, msgs %d, avg lat %s, max lat %d@ \
     ops %d, syncs %d, tasks %d, finish %d@]"
    (l1_hits t)
    (l1_hits t + l1_misses t)
    (100.0 *. l1_hit_rate t)
    (l2_hits t)
    (l2_hits t + l2_misses t)
    (100.0 *. l2_hit_rate t)
    (hops t) (messages t) avg (latency_max t) (ops t) (syncs t) (tasks t) (finish_time t)
