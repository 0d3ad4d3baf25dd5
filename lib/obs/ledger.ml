type entry = { mutable e_messages : int; mutable e_flits : int; mutable e_flit_hops : int }

(* Keys pack (stmt id, array id, src, dst) into one int so the per-message
   hashtable lookup allocates nothing. The field widths bound array ids to
   2^10 and node ids to 2^12 — far above any mesh or kernel we model. *)
let array_bits = 10

let node_bits = 12

let pack ~stmt ~array ~src ~dst =
  (((((stmt lsl array_bits) lor array) lsl node_bits) lor src) lsl node_bits) lor dst

let unpack key =
  let mask b = (1 lsl b) - 1 in
  let dst = key land mask node_bits in
  let key = key lsr node_bits in
  let src = key land mask node_bits in
  let key = key lsr node_bits in
  let array = key land mask array_bits in
  (key lsr array_bits, array, src, dst)

type t = {
  on : bool;
  table : (int, entry) Hashtbl.t;
  (* Interned statements: id -> (nest name, statement index). Slot 0 is
     the "(other)" statement charged for traffic outside any resolver. *)
  mutable stmts : (string * int) array;
  mutable stmt_count : int;
  stmt_ids : (string * int, int) Hashtbl.t;
  mutable arrays : string array;
  mutable array_count : int;
  array_ids : (string, int) Hashtbl.t;
  mutable predicted : int array; (* stmt id -> predicted flit-hops *)
  mutable group_resolve : int -> int;
  mutable va_resolve : int -> int;
  mutable cur_stmt : int;
  mutable cur_array : int;
}

let other = "(other)"

let none =
  {
    on = false;
    table = Hashtbl.create 1;
    stmts = [| (other, -1) |];
    stmt_count = 1;
    stmt_ids = Hashtbl.create 1;
    arrays = [| other |];
    array_count = 1;
    array_ids = Hashtbl.create 1;
    predicted = [| 0 |];
    group_resolve = (fun _ -> 0);
    va_resolve = (fun _ -> 0);
    cur_stmt = 0;
    cur_array = 0;
  }

let create () =
  {
    on = true;
    table = Hashtbl.create 1024;
    stmts = Array.make 16 (other, -1);
    stmt_count = 1;
    stmt_ids = Hashtbl.create 64;
    arrays = Array.make 16 other;
    array_count = 1;
    array_ids = Hashtbl.create 16;
    predicted = Array.make 16 0;
    group_resolve = (fun _ -> 0);
    va_resolve = (fun _ -> 0);
    cur_stmt = 0;
    cur_array = 0;
  }

let enabled t = t.on

let clear t =
  if t.on then begin
    Hashtbl.reset t.table;
    t.stmt_count <- 1;
    Hashtbl.reset t.stmt_ids;
    t.array_count <- 1;
    Hashtbl.reset t.array_ids;
    Array.fill t.predicted 0 (Array.length t.predicted) 0;
    t.group_resolve <- (fun _ -> 0);
    t.va_resolve <- (fun _ -> 0);
    t.cur_stmt <- 0;
    t.cur_array <- 0
  end

let grow arr count absent =
  if count < Array.length arr then arr
  else begin
    let grown = Array.make (2 * Array.length arr) absent in
    Array.blit arr 0 grown 0 (Array.length arr);
    grown
  end

let stmt_id t ~nest ~stmt =
  if not t.on then 0
  else
    match Hashtbl.find_opt t.stmt_ids (nest, stmt) with
    | Some id -> id
    | None ->
      let id = t.stmt_count in
      t.stmts <- grow t.stmts id (other, -1);
      t.stmts.(id) <- (nest, stmt);
      t.stmt_count <- id + 1;
      Hashtbl.replace t.stmt_ids (nest, stmt) id;
      id

let array_id t name =
  if not t.on then 0
  else
    match Hashtbl.find_opt t.array_ids name with
    | Some id -> id
    | None ->
      let id = t.array_count in
      t.arrays <- grow t.arrays id other;
      t.arrays.(id) <- name;
      t.array_count <- id + 1;
      Hashtbl.replace t.array_ids name id;
      id

let set_group_resolver t f = if t.on then t.group_resolve <- f

let set_va_resolver t f = if t.on then t.va_resolve <- f

let enter_group t group = if t.on then t.cur_stmt <- t.group_resolve group

let enter_va t va = if t.on then t.cur_array <- t.va_resolve va

let enter_array t id = if t.on then t.cur_array <- id

let account t ~src ~dst ~flits ~links =
  if t.on then begin
    let key = pack ~stmt:t.cur_stmt ~array:t.cur_array ~src ~dst in
    match Hashtbl.find_opt t.table key with
    | Some e ->
      e.e_messages <- e.e_messages + 1;
      e.e_flits <- e.e_flits + flits;
      e.e_flit_hops <- e.e_flit_hops + (flits * links)
    | None ->
      Hashtbl.add t.table key
        { e_messages = 1; e_flits = flits; e_flit_hops = flits * links }
  end

let predict t ~stmt ~flit_hops =
  if t.on then begin
    t.predicted <- grow t.predicted stmt 0;
    t.predicted.(stmt) <- t.predicted.(stmt) + flit_hops
  end

type row = {
  nest : string;
  stmt : int;
  array_name : string;
  src : int;
  dst : int;
  messages : int;
  flits : int;
  flit_hops : int;
}

type stmt_total = {
  s_nest : string;
  s_stmt : int;
  s_messages : int;
  s_flits : int;
  s_flit_hops : int;
  s_predicted : int;
}

let rows t =
  let unsorted =
    Hashtbl.fold
      (fun key e acc ->
        let stmt_id, array_id, src, dst = unpack key in
        let nest, stmt = t.stmts.(stmt_id) in
        {
          nest;
          stmt;
          array_name = t.arrays.(array_id);
          src;
          dst;
          messages = e.e_messages;
          flits = e.e_flits;
          flit_hops = e.e_flit_hops;
        }
        :: acc)
      t.table []
  in
  List.sort
    (fun a b ->
      compare
        (a.nest, a.stmt, a.array_name, a.src, a.dst)
        (b.nest, b.stmt, b.array_name, b.src, b.dst))
    unsorted

let statements t =
  (* stmt id -> (messages, flits, flit_hops) over all of its entries. *)
  let measured = Array.make t.stmt_count (0, 0, 0) in
  Hashtbl.iter
    (fun key e ->
      let stmt_id, _, _, _ = unpack key in
      let m, f, fh = measured.(stmt_id) in
      measured.(stmt_id) <- (m + e.e_messages, f + e.e_flits, fh + e.e_flit_hops))
    t.table;
  let totals = ref [] in
  for id = t.stmt_count - 1 downto 0 do
    let m, f, fh = measured.(id) in
    let p = if id < Array.length t.predicted then t.predicted.(id) else 0 in
    if m <> 0 || p <> 0 then begin
      let nest, stmt = t.stmts.(id) in
      totals :=
        {
          s_nest = nest;
          s_stmt = stmt;
          s_messages = m;
          s_flits = f;
          s_flit_hops = fh;
          s_predicted = p;
        }
        :: !totals
    end
  done;
  List.sort (fun a b -> compare (a.s_nest, a.s_stmt) (b.s_nest, b.s_stmt)) !totals

let fold_entries t f = Hashtbl.fold (fun _ e acc -> f acc e) t.table 0

let total_messages t = fold_entries t (fun acc e -> acc + e.e_messages)

let total_flits t = fold_entries t (fun acc e -> acc + e.e_flits)

let total_flit_hops t = fold_entries t (fun acc e -> acc + e.e_flit_hops)

let total_predicted t = Array.fold_left ( + ) 0 t.predicted

let to_json t =
  let open Render.Json in
  let row r =
    Obj
      [
        ("nest", Str r.nest);
        ("stmt", Int r.stmt);
        ("array", Str r.array_name);
        ("src", Int r.src);
        ("dst", Int r.dst);
        ("messages", Int r.messages);
        ("flits", Int r.flits);
        ("flit_hops", Int r.flit_hops);
      ]
  in
  let stmt s =
    Obj
      [
        ("nest", Str s.s_nest);
        ("stmt", Int s.s_stmt);
        ("messages", Int s.s_messages);
        ("flits", Int s.s_flits);
        ("flit_hops", Int s.s_flit_hops);
        ("predicted", Int s.s_predicted);
      ]
  in
  Obj
    [
      ("rows", List (List.map row (rows t)));
      ("statements", List (List.map stmt (statements t)));
      ( "totals",
        Obj
          [
            ("messages", Int (total_messages t));
            ("flits", Int (total_flits t));
            ("flit_hops", Int (total_flit_hops t));
            ("predicted", Int (total_predicted t));
          ] );
    ]
