(* Wall clock for every timing the benchmark takes. *)

let now = Unix.gettimeofday

(* [f ()] and its wall time in milliseconds. *)
let timed f =
  let t0 = now () in
  let r = f () in
  (r, (now () -. t0) *. 1000.0)
