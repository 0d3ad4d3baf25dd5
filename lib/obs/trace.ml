type kind = Task | Message | Sync

type event = {
  kind : kind;
  name : string;
  node : int;
  start_ts : int;
  end_ts : int;
  id : int;
  args : (string * int) list;
}

let dummy_event =
  { kind = Sync; name = ""; node = 0; start_ts = 0; end_ts = 0; id = 0; args = [] }

type t = {
  on : bool;
  ring : event array;
  mutable emitted : int; (* events ever pushed; write cursor = emitted mod capacity *)
}

let create ?(capacity = 65536) () =
  { on = true; ring = Array.make (max 1 capacity) dummy_event; emitted = 0 }

let none = { on = false; ring = [| dummy_event |]; emitted = 0 }

let enabled t = t.on

let emit t e =
  if t.on then begin
    t.ring.(t.emitted mod Array.length t.ring) <- e;
    t.emitted <- t.emitted + 1
  end

let task t ~name ~node ~start ~finish ~id ~group =
  if t.on then
    emit t
      {
        kind = Task;
        name;
        node;
        start_ts = start;
        end_ts = finish;
        id;
        args = [ ("group", group) ];
      }

let message t ~src ~dst ~depart ~arrival ~bytes =
  if t.on then
    emit t
      {
        kind = Message;
        name = "msg";
        node = src;
        start_ts = depart;
        end_ts = arrival;
        id = t.emitted;
        args = [ ("dst", dst); ("bytes", bytes) ];
      }

let sync t ~node ~ts ~producer ~consumer =
  if t.on then
    emit t
      {
        kind = Sync;
        name = "sync";
        node;
        start_ts = ts;
        end_ts = ts;
        id = consumer;
        args = [ ("producer", producer) ];
      }

let length t = min t.emitted (Array.length t.ring)

let total t = t.emitted

let dropped t = t.emitted - length t

let events t =
  let cap = Array.length t.ring in
  let n = length t in
  let first = if t.emitted <= cap then 0 else t.emitted mod cap in
  List.init n (fun i -> t.ring.((first + i) mod cap))

let kind_to_string = function Task -> "task" | Message -> "message" | Sync -> "sync"

let sorted_events t =
  (* Stable sort on the start cycle keeps emission order among equal
     timestamps and makes the rendered stream monotonic, which both
     Perfetto and the chrome-trace test rely on. *)
  List.stable_sort (fun a b -> compare a.start_ts b.start_ts) (events t)

let chrome_event e =
  let open Render.Json in
  let common =
    [
      ("name", Str e.name);
      ("cat", Str (kind_to_string e.kind));
      ("pid", Int 0);
      ("tid", Int e.node);
      ("ts", Int e.start_ts);
    ]
  in
  let shape =
    match e.kind with
    | Task | Message -> [ ("ph", Str "X"); ("dur", Int (max 0 (e.end_ts - e.start_ts))) ]
    | Sync -> [ ("ph", Str "i"); ("s", Str "t") ]
  in
  let args = ("id", e.id) :: e.args in
  common @ shape @ [ ("args", Obj (List.map (fun (k, v) -> (k, Int v)) args)) ]

let to_chrome ?(counters = []) ?spans t =
  let open Render.Json in
  let events = List.map (fun e -> Obj (chrome_event e)) (sorted_events t) in
  let span_events = match spans with None -> [] | Some s -> Span.chrome_events s in
  to_string
    (Obj
       [
         ("traceEvents", List (events @ counters @ span_events));
         ("displayTimeUnit", Str "ns");
         ("otherData", Obj [ ("emitted", Int (total t)); ("dropped", Int (dropped t)) ]);
       ])

let to_jsonl t =
  String.concat "\n"
    (List.map (fun e -> Render.Json.to_string (Render.Json.Obj (chrome_event e))) (sorted_events t))
