type counter = { mutable c_v : int; c_on : bool }

type vec = { v_data : int array; v_label : int -> string; v_on : bool }

type gauge = { mutable g_v : float; g_on : bool }

type histogram = {
  h_bounds : float array; (* upper bounds, strictly increasing *)
  h_counts : int array; (* length bounds + 1; last slot = overflow *)
  mutable h_sum : float;
  mutable h_count : int;
  h_on : bool;
}

type instrument =
  | I_counter of counter
  | I_vec of vec
  | I_gauge of gauge
  | I_counter_fn of (unit -> int)
  | I_gauge_fn of (unit -> float)
  | I_histogram of histogram

type t = { on : bool; table : (string, instrument) Hashtbl.t }

let create () = { on = true; table = Hashtbl.create 64 }

let none = { on = false; table = Hashtbl.create 0 }

let enabled t = t.on

(* Inert handles shared by every instrument of a disabled registry: no
   allocation, and bumps reduce to one always-false branch. *)
let dead_counter = { c_v = 0; c_on = false }

let dead_vec = { v_data = [||]; v_label = string_of_int; v_on = false }

let dead_gauge = { g_v = 0.0; g_on = false }

let dead_histogram =
  { h_bounds = [||]; h_counts = [| 0 |]; h_sum = 0.0; h_count = 0; h_on = false }

(* [zero] clears an existing instrument when the caller asks for a
   [fresh] one. *)
let register ~fresh t name make get zero =
  match Hashtbl.find_opt t.table name with
  | Some i -> (
    match get i with
    | Some h ->
      if fresh then zero h;
      h
    | None -> invalid_arg (Printf.sprintf "Metrics: %S already registered with another type" name))
  | None -> make ()

let counter ?(fresh = false) t name =
  if not t.on then dead_counter
  else
    register ~fresh t name
      (fun () ->
        let c = { c_v = 0; c_on = true } in
        Hashtbl.replace t.table name (I_counter c);
        c)
      (function I_counter c -> Some c | _ -> None)
      (fun c -> c.c_v <- 0)

let add c n = if c.c_on then c.c_v <- c.c_v + n

let incr c = add c 1

let counter_value c = c.c_v

let counter_fn t name f = if t.on then Hashtbl.replace t.table name (I_counter_fn f)

let vec ?(fresh = false) t name ~size ~label =
  if not t.on then dead_vec
  else
    register ~fresh t name
      (fun () ->
        let v = { v_data = Array.make size 0; v_label = label; v_on = true } in
        Hashtbl.replace t.table name (I_vec v);
        v)
      (function
        | I_vec v ->
          if Array.length v.v_data <> size then
            invalid_arg (Printf.sprintf "Metrics.vec: %S re-registered with size %d" name size);
          Some v
        | _ -> None)
      (fun v -> Array.fill v.v_data 0 size 0)

let vadd v i n = if v.v_on && i >= 0 && i < Array.length v.v_data then v.v_data.(i) <- v.v_data.(i) + n

let vec_value v i = if i >= 0 && i < Array.length v.v_data then v.v_data.(i) else 0

let gauge t name =
  if not t.on then dead_gauge
  else
    register ~fresh:false t name
      (fun () ->
        let g = { g_v = 0.0; g_on = true } in
        Hashtbl.replace t.table name (I_gauge g);
        g)
      (function I_gauge g -> Some g | _ -> None)
      ignore

let set_gauge g v = if g.g_on then g.g_v <- v

let gauge_fn t name f = if t.on then Hashtbl.replace t.table name (I_gauge_fn f)

let default_buckets = Array.init 21 (fun i -> float_of_int (1 lsl i))

let histogram ?(buckets = default_buckets) ?(fresh = false) t name =
  if not t.on then dead_histogram
  else
    register ~fresh t name
      (fun () ->
        let h =
          {
            h_bounds = Array.copy buckets;
            h_counts = Array.make (Array.length buckets + 1) 0;
            h_sum = 0.0;
            h_count = 0;
            h_on = true;
          }
        in
        Hashtbl.replace t.table name (I_histogram h);
        h)
      (function I_histogram h -> Some h | _ -> None)
      (fun h ->
        Array.fill h.h_counts 0 (Array.length h.h_counts) 0;
        h.h_sum <- 0.0;
        h.h_count <- 0)

let observe h x =
  if h.h_on then begin
    let n = Array.length h.h_bounds in
    let rec slot i = if i = n || x <= h.h_bounds.(i) then i else slot (i + 1) in
    let i = slot 0 in
    h.h_counts.(i) <- h.h_counts.(i) + 1;
    h.h_sum <- h.h_sum +. x;
    h.h_count <- h.h_count + 1
  end

(* The int entry point converts only once the histogram is known to be
   live, so a disabled one costs a branch and boxes no float. *)
let observe_int h x = if h.h_on then observe h (float_of_int x)

type sample =
  | Counter_v of int
  | Gauge_v of float
  | Histogram_v of { counts : int array; bounds : float array; sum : float; count : int }

let explode name instrument acc =
  match instrument with
  | I_counter c -> (name, Counter_v c.c_v) :: acc
  | I_counter_fn f -> (name, Counter_v (f ())) :: acc
  | I_gauge g -> (name, Gauge_v g.g_v) :: acc
  | I_gauge_fn f -> (name, Gauge_v (f ())) :: acc
  | I_histogram h ->
    ( name,
      Histogram_v
        {
          counts = Array.copy h.h_counts;
          bounds = Array.copy h.h_bounds;
          sum = h.h_sum;
          count = h.h_count;
        } )
    :: acc
  | I_vec v ->
    let acc = ref acc in
    for i = Array.length v.v_data - 1 downto 0 do
      if v.v_data.(i) <> 0 then
        acc := (Printf.sprintf "%s{%s}" name (v.v_label i), Counter_v v.v_data.(i)) :: !acc
    done;
    !acc

let to_alist t =
  let samples = Hashtbl.fold (fun name i acc -> explode name i acc) t.table [] in
  List.sort (fun (a, _) (b, _) -> compare a b) samples

let find t name = List.assoc_opt name (to_alist t)

(* Quantile estimate from cumulative-style buckets: find the bucket the
   rank lands in and interpolate linearly between its bounds (the first
   bucket's lower bound is 0; the overflow bucket clamps to the largest
   bound, the best statement the histogram can make). *)
let percentile ~counts ~bounds q =
  let total = Array.fold_left ( + ) 0 counts in
  if total = 0 then 0.0
  else begin
    let target = q *. float_of_int total in
    let nb = Array.length bounds in
    let top = if nb = 0 then 0.0 else bounds.(nb - 1) in
    let rec go i cum =
      if i >= Array.length counts then top
      else begin
        let cum' = cum + counts.(i) in
        if counts.(i) > 0 && float_of_int cum' >= target then
          if i >= nb then top
          else begin
            let lo = if i = 0 then 0.0 else bounds.(i - 1) in
            let frac = (target -. float_of_int cum) /. float_of_int counts.(i) in
            lo +. (frac *. (bounds.(i) -. lo))
          end
        else go (i + 1) cum'
      end
    in
    go 0 0
  end

let to_json t =
  let sample_json = function
    | Counter_v n -> Render.Json.Int n
    | Gauge_v v -> Render.Json.Float v
    | Histogram_v { counts; bounds; sum; count } ->
      let buckets =
        List.concat
          (List.init (Array.length counts) (fun i ->
               if counts.(i) = 0 then []
               else
                 [
                   Render.Json.List
                     [
                       (if i < Array.length bounds then Render.Json.Float bounds.(i)
                        else Render.Json.Str "+inf");
                       Render.Json.Int counts.(i);
                     ];
                 ]))
      in
      let p q = Render.Json.Float (percentile ~counts ~bounds q) in
      Render.Json.Obj
        [
          ("count", Render.Json.Int count);
          ("sum", Render.Json.Float sum);
          ("p50", p 0.5);
          ("p95", p 0.95);
          ("p99", p 0.99);
          ("buckets", Render.Json.List buckets);
        ]
  in
  Render.Json.Obj (List.map (fun (name, s) -> (name, sample_json s)) (to_alist t))

(* Prometheus text exposition of the whole registry. Families are the
   mangled instrument names; exploded-vec labels ride along as label
   pairs; histograms emit cumulative _bucket series plus _sum/_count, the
   standard shape. Output is name-sorted (inherited from [to_alist]), so
   the exposition is deterministic and free of duplicate series. *)
let to_prometheus t =
  let open Render.Prom in
  let buf = Buffer.create 1024 in
  let typed = Hashtbl.create 32 in
  let emit_type family kind =
    if not (Hashtbl.mem typed family) then begin
      Hashtbl.add typed family kind;
      Buffer.add_string buf (Printf.sprintf "# TYPE %s %s\n" family kind)
    end
  in
  let line name labels value =
    Buffer.add_string buf (sample_line name labels value);
    Buffer.add_char buf '\n'
  in
  List.iter
    (fun (name, sample) ->
      let base, labels = split_series name in
      let family = mangle base in
      match sample with
      | Counter_v n ->
        emit_type family "counter";
        line family labels (string_of_int n)
      | Gauge_v v ->
        emit_type family "gauge";
        line family labels (float_repr v)
      | Histogram_v { counts; bounds; sum; count } ->
        emit_type family "histogram";
        let cum = ref 0 in
        Array.iteri
          (fun i n ->
            cum := !cum + n;
            let le = if i < Array.length bounds then float_repr bounds.(i) else "+Inf" in
            line (family ^ "_bucket") (labels @ [ ("le", le) ]) (string_of_int !cum))
          counts;
        line (family ^ "_sum") labels (float_repr sum);
        line (family ^ "_count") labels (string_of_int count))
    (to_alist t);
  Buffer.contents buf
