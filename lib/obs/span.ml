(* Request-scoped nestable spans. A collector is a single-domain append
   log of (name, parent, depth, wall, cycles, attrs) records; nesting is
   derived from an explicit open-span stack, so parent links and depths
   are structural, never guessed from timestamps. A collector lives on
   one domain and nothing merges collectors, so traced output is
   byte-identical at any [--jobs]. *)

type attr = Int of int | Str of string

type node = {
  sp_id : int;
  sp_parent : int; (* -1 for roots *)
  sp_depth : int;
  sp_name : string;
  sp_start : float; (* seconds, relative to the collector epoch *)
  mutable sp_stop : float; (* < sp_start while the span is open *)
  mutable sp_cycles : int;
  mutable sp_attrs : (string * attr) list;
}

type span = node

let dead =
  {
    sp_id = -1;
    sp_parent = -1;
    sp_depth = 0;
    sp_name = "";
    sp_start = 0.0;
    sp_stop = 0.0;
    sp_cycles = 0;
    sp_attrs = [];
  }

type t = {
  on : bool;
  clock : unit -> float;
  epoch : float;
  mutable nodes : node array;
  mutable count : int;
  mutable stack : node list; (* innermost open span first *)
}

(* The fake clock backs golden tests: one process-global monotone counter
   stepping in exact binary fractions of a second, shared by every
   collector created while NDP_FAKE_CLOCK is set, so durations are
   reproducible byte-for-byte across runs. *)
let fake_counter = Atomic.make 0

let fake_clock () = float_of_int (Atomic.fetch_and_add fake_counter 1) /. 1024.0

let wall_clock = Unix.gettimeofday

let default_clock () =
  match Sys.getenv_opt "NDP_FAKE_CLOCK" with
  | None | Some "" | Some "0" -> wall_clock
  | Some _ -> fake_clock

let none =
  { on = false; clock = (fun () -> 0.0); epoch = 0.0; nodes = [||]; count = 0; stack = [] }

let create ?clock () =
  let clock = match clock with Some c -> c | None -> default_clock () in
  { on = true; clock; epoch = clock (); nodes = Array.make 16 dead; count = 0; stack = [] }

let enabled t = t.on

let count t = t.count

let depth t = List.length t.stack

let push t n =
  let cap = Array.length t.nodes in
  if t.count = cap then begin
    let bigger = Array.make (max 16 (2 * cap)) dead in
    Array.blit t.nodes 0 bigger 0 t.count;
    t.nodes <- bigger
  end;
  t.nodes.(t.count) <- n;
  t.count <- t.count + 1

let enter t name =
  if not t.on then dead
  else begin
    let parent, d =
      match t.stack with [] -> (-1, 0) | p :: _ -> (p.sp_id, p.sp_depth + 1)
    in
    let start = t.clock () -. t.epoch in
    let n =
      {
        sp_id = t.count;
        sp_parent = parent;
        sp_depth = d;
        sp_name = name;
        sp_start = start;
        sp_stop = start -. 1.0;
        sp_cycles = 0;
        sp_attrs = [];
      }
    in
    push t n;
    t.stack <- n :: t.stack;
    n
  end

let exit ?(cycles = 0) t sp =
  if t.on && sp != dead then begin
    sp.sp_stop <- t.clock () -. t.epoch;
    sp.sp_cycles <- sp.sp_cycles + cycles;
    (* Pop through any unclosed children so an exception path cannot wedge
       the stack; their stop stays unset and [wall_ms] clamps to 0. *)
    let rec pop = function
      | [] -> []
      | n :: rest -> if n == sp then rest else pop rest
    in
    t.stack <- pop t.stack
  end

let attr t sp key v = if t.on && sp != dead then sp.sp_attrs <- sp.sp_attrs @ [ (key, v) ]

let attr_int t sp key v = attr t sp key (Int v)

let attr_str t sp key v = attr t sp key (Str v)

let with_span ?cycles t name f =
  let sp = enter t name in
  match f () with
  | v ->
      exit ?cycles t sp;
      v
  | exception e ->
      exit ?cycles t sp;
      raise e

let wall_ms n = if n.sp_stop < n.sp_start then 0.0 else (n.sp_stop -. n.sp_start) *. 1000.0

let nodes t = Array.to_list (Array.sub t.nodes 0 t.count)

let attr_json = function Int i -> Render.Json.Int i | Str s -> Render.Json.Str s

let node_json ~wall n =
  let open Render.Json in
  let base =
    [
      ("id", Int n.sp_id);
      ("parent", Int n.sp_parent);
      ("depth", Int n.sp_depth);
      ("name", Str n.sp_name);
    ]
  in
  let timing = if wall then [ ("ms", Float (wall_ms n)) ] else [] in
  let cyc = if n.sp_cycles <> 0 then [ ("cycles", Int n.sp_cycles) ] else [] in
  let attrs =
    match n.sp_attrs with
    | [] -> []
    | kvs -> [ ("attrs", Obj (List.map (fun (k, v) -> (k, attr_json v)) kvs)) ]
  in
  Obj (base @ timing @ cyc @ attrs)

let to_json ?(wall = true) t =
  Render.Json.Obj
    [
      ("count", Render.Json.Int t.count);
      ("spans", Render.Json.List (List.map (node_json ~wall) (nodes t)));
    ]

(* Per-phase aggregate: name -> (occurrences, total wall ms, total cycles),
   name-sorted so renders are deterministic. *)
let summary t =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun n ->
      let c, ms, cy = try Hashtbl.find tbl n.sp_name with Not_found -> (0, 0.0, 0) in
      Hashtbl.replace tbl n.sp_name (c + 1, ms +. wall_ms n, cy + n.sp_cycles))
    (nodes t);
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let summary_table t =
  let tbl = Ndp_prelude.Table.create ~header:[ "phase"; "count"; "ms"; "cycles" ] in
  List.iter
    (fun (name, (c, ms, cy)) ->
      Ndp_prelude.Table.add_row tbl
        [ name; string_of_int c; Printf.sprintf "%.3f" ms; string_of_int cy ])
    (summary t);
  Ndp_prelude.Table.render tbl

(* Chrome trace slices: wall-clock "X" events on their own pid track so
   they sit next to (not interleaved with) the cycle-domain task/counter
   tracks. Nesting falls out of ts/dur containment on one tid. *)
let chrome_events ?(pid = 1) t =
  List.map
    (fun n ->
      let open Render.Json in
      Obj
        [
          ("name", Str n.sp_name);
          ("cat", Str "span");
          ("ph", Str "X");
          ("pid", Int pid);
          ("tid", Int 0);
          ("ts", Int (int_of_float (n.sp_start *. 1e6)));
          ("dur", Int (int_of_float (wall_ms n *. 1e3)));
          ( "args",
            Obj
              ([
                 ("id", Int n.sp_id);
                 ("parent", Int n.sp_parent);
                 ("cycles", Int n.sp_cycles);
               ]
              @ List.map (fun (k, v) -> (k, attr_json v)) n.sp_attrs) );
        ])
    (nodes t)
