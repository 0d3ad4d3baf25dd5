module Metrics = Ndp_obs.Metrics

type stats = { entries : int; hits : int; misses : int; evictions : int }

type 'a entry = { value : 'a; mutable tick : int }

type 'a t = {
  name : string;
  capacity : int;
  tbl : (string, 'a entry) Hashtbl.t;
  lock : Mutex.t;
  mutable clock : int;
  (* Exact whatever the registry: [stats] feeds the deterministic
     [cache-stats] response, and an enabled registry reads them too. *)
  mutable n_hits : int;
  mutable n_misses : int;
  mutable n_evictions : int;
}

let create ?(metrics = Metrics.none) ~name ~capacity () =
  let t =
    {
      name;
      capacity = max 1 capacity;
      tbl = Hashtbl.create 64;
      lock = Mutex.create ();
      clock = 0;
      n_hits = 0;
      n_misses = 0;
      n_evictions = 0;
    }
  in
  let publish kind read =
    Metrics.counter_fn metrics (Printf.sprintf "serve.cache_%s{cache=%s}" kind name) read
  in
  publish "hits" (fun () -> t.n_hits);
  publish "misses" (fun () -> t.n_misses);
  publish "evictions" (fun () -> t.n_evictions);
  t

let name t = t.name

let capacity t = t.capacity

let touch t e =
  t.clock <- t.clock + 1;
  e.tick <- t.clock

(* Caller holds the lock. O(n) victim scan — capacities are small (tens
   to hundreds) and eviction is off the hot (hit) path. *)
let evict_lru t =
  let victim = ref None in
  Hashtbl.iter
    (fun k e ->
      match !victim with
      | Some (_, tick) when tick <= e.tick -> ()
      | _ -> victim := Some (k, e.tick))
    t.tbl;
  match !victim with
  | None -> ()
  | Some (k, _) ->
    Hashtbl.remove t.tbl k;
    t.n_evictions <- t.n_evictions + 1

let find t key =
  Mutex.protect t.lock (fun () ->
      match Hashtbl.find_opt t.tbl key with
      | Some e ->
        touch t e;
        Some e.value
      | None -> None)

let insert_locked t key v =
  while Hashtbl.length t.tbl >= t.capacity do
    evict_lru t
  done;
  t.clock <- t.clock + 1;
  Hashtbl.replace t.tbl key { value = v; tick = t.clock }

let find_or_add t key compute =
  Mutex.lock t.lock;
  match Hashtbl.find_opt t.tbl key with
  | Some e ->
    touch t e;
    t.n_hits <- t.n_hits + 1;
    Mutex.unlock t.lock;
    (e.value, true)
  | None ->
    Mutex.unlock t.lock;
    (* Compute outside the lock; a concurrent caller computing the same
       key produces a bit-identical value (runs are deterministic), and
       the first writer wins so every reader sees one value. *)
    let v = compute () in
    Mutex.lock t.lock;
    let r =
      match Hashtbl.find_opt t.tbl key with
      | Some e ->
        touch t e;
        e.value
      | None ->
        insert_locked t key v;
        v
    in
    t.n_misses <- t.n_misses + 1;
    Mutex.unlock t.lock;
    (r, false)

let stats t =
  Mutex.protect t.lock (fun () ->
      {
        entries = Hashtbl.length t.tbl;
        hits = t.n_hits;
        misses = t.n_misses;
        evictions = t.n_evictions;
      })
