(* The span view of the event log: Trace holds the spans and the open
   stack; this module names the operations and renders the readers. *)

type attr = Trace.attr = Int of int | Str of string

type t = Trace.t

type span = Trace.span

let none = Trace.none

let create ?clock () = Trace.create ?clock ~events:false ~spans:true ()

let default_clock = Trace.default_clock

let enabled = Trace.records_spans

let count t = List.length (Trace.spans t)

let depth = Trace.depth

let enter = Trace.enter

let exit = Trace.exit

let attr_int t sp key v = Trace.attr t sp key (Int v)

let attr_str t sp key v = Trace.attr t sp key (Str v)

let with_span ?cycles t name f =
  let sp = enter t name in
  match f () with
  | v ->
      exit ?cycles t sp;
      v
  | exception e ->
      exit ?cycles t sp;
      raise e

let span_json ~wall (s : span) =
  let open Render.Json in
  let base =
    [ ("id", Int s.sp_id); ("parent", Int s.sp_parent); ("depth", Int s.sp_depth);
      ("name", Str s.sp_name) ]
  in
  let timing = if wall then [ ("ms", Float (Trace.wall_ms s)) ] else [] in
  let cyc = if s.sp_cycles <> 0 then [ ("cycles", Int s.sp_cycles) ] else [] in
  let attrs =
    match s.sp_attrs with
    | [] -> []
    | kvs -> [ ("attrs", Obj (List.map (fun (k, v) -> (k, Trace.attr_json v)) kvs)) ]
  in
  Obj (base @ timing @ cyc @ attrs)

let to_json ?(wall = true) t =
  let spans = Trace.spans t in
  Render.Json.Obj
    [
      ("count", Render.Json.Int (List.length spans));
      ("spans", Render.Json.List (List.map (span_json ~wall) spans));
    ]

(* Per-phase aggregate: name -> (occurrences, total wall ms, total cycles),
   name-sorted so renders are deterministic. *)
let summary t =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun (s : span) ->
      let c, ms, cy = try Hashtbl.find tbl s.sp_name with Not_found -> (0, 0.0, 0) in
      Hashtbl.replace tbl s.sp_name (c + 1, ms +. Trace.wall_ms s, cy + s.sp_cycles))
    (Trace.spans t);
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
