let sum = List.fold_left ( +. ) 0.0

let mean = function
  | [] -> 0.0
  | xs -> sum xs /. float_of_int (List.length xs)

let geomean = function
  | [] -> 0.0
  | xs ->
    let logs = List.map (fun x -> assert (x > 0.0); log x) xs in
    exp (mean logs)

let stddev = function
  | [] | [ _ ] -> 0.0
  | xs ->
    let m = mean xs in
    let sq = List.map (fun x -> (x -. m) ** 2.0) xs in
    sqrt (mean sq)

let min_max = function
  | [] -> invalid_arg "Stats.min_max: empty list"
  | x :: xs ->
    List.fold_left (fun (lo, hi) v -> (min lo v, max hi v)) (x, x) xs

let percentile p = function
  | [] -> invalid_arg "Stats.percentile: empty list"
  | xs ->
    let sorted = List.sort compare xs in
    let n = List.length sorted in
    let rank = int_of_float (ceil (p /. 100.0 *. float_of_int n)) in
    let rank = max 1 (min n rank) in
    List.nth sorted (rank - 1)

let improvement_pct base opt =
  if base = 0.0 then 0.0 else (base -. opt) /. base *. 100.0
