let permutation ~seed n =
  let rng = Ndp_prelude.Rng.create seed in
  let a = Array.init n Fun.id in
  Ndp_prelude.Rng.shuffle rng a;
  a

let uniform ~seed ~n ~range =
  let rng = Ndp_prelude.Rng.create seed in
  Array.init n (fun _ -> Ndp_prelude.Rng.int rng range)

let clustered ~seed ~n ~range ~spread =
  let rng = Ndp_prelude.Rng.create seed in
  Array.init n (fun i ->
      let base = i * range / max 1 n in
      let off = Ndp_prelude.Rng.int rng (2 * spread) - spread in
      ((base + off) mod range + range) mod range)
