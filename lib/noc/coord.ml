type t = { x : int; y : int }

let make x y = { x; y }

let manhattan a b = abs (a.x - b.x) + abs (a.y - b.y)
