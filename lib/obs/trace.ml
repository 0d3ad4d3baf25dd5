(* The event log. One growable buffer, bounded at [cap], holds three
   kinds of entry: simulator events and counter samples stamped in
   simulated cycles, and spans stamped in wall-clock seconds. Each kind
   is switched at creation; a switched-off kind returns after one branch
   and allocates nothing. *)

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

type attr = Int of int | Str of string

type span = {
  sp_id : int;
  sp_parent : int; (* -1 for roots *)
  sp_depth : int;
  sp_name : string;
  sp_start : float; (* seconds, relative to the log's epoch *)
  mutable sp_stop : float; (* < sp_start while the span is open *)
  mutable sp_cycles : int;
  mutable sp_attrs : (string * attr) list;
}

type sample = { s_name : string; s_ts : int; s_value : int }

(* The constructor is the clock tag: [Sim] and [Sample] run on cycles,
   [Span] on the wall clock. *)
type entry = Sim of event | Span of span | Sample of sample

type instrument = {
  i_name : string;
  mutable sampler : unit -> int;
  mutable last_ts : int; (* latest timestamp sampled, kept or dropped *)
  mutable missed : int;
}

type t = {
  events_on : bool;
  spans_on : bool;
  iv : int; (* sampling period in cycles; 0 = no samples *)
  cap : int;
  mutable buf : entry array;
  mutable len : int;
  mutable dropped : int;
  mutable emitted : int; (* simulator events ever emitted: message ids count these *)
  mutable next : int; (* next sampling boundary; max_int when not sampling *)
  mutable instruments : instrument list; (* reverse registration order *)
  clock : unit -> float;
  epoch : float;
  mutable stack : span list; (* innermost open span first *)
  mutable n_spans : int;
}

(* The fake clock backs golden tests: one process-global monotone counter
   stepping in exact binary fractions of a second, shared by every log
   created while NDP_FAKE_CLOCK is set, so durations are reproducible
   byte-for-byte across runs. *)
let fake_counter = Atomic.make 0

let fake_clock () = float_of_int (Atomic.fetch_and_add fake_counter 1) /. 1024.0

let default_clock () =
  match Sys.getenv_opt "NDP_FAKE_CLOCK" with
  | None | Some "" | Some "0" -> Unix.gettimeofday
  | Some _ -> fake_clock

let make ~events ~spans ~iv ~cap ~clock ~epoch =
  { events_on = events; spans_on = spans; iv; cap; buf = [||]; len = 0; dropped = 0; emitted = 0;
    next = (if iv > 0 then iv else max_int); instruments = []; clock; epoch; stack = [];
    n_spans = 0 }

let none =
  make ~events:false ~spans:false ~iv:0 ~cap:0 ~clock:(fun () -> 0.0) ~epoch:0.0

let create ?(capacity = 65536) ?clock ?(events = true) ?(interval = 0) ?(spans = false) () =
  let iv = max 0 interval in
  if not (events || spans || iv > 0) then none
  else
    let clock = match clock with Some c -> c | None -> default_clock () in
    (* Only a span log reads the clock, so the fake clock's sequence does
       not depend on which other kinds are on. *)
    let epoch = if spans then clock () else 0.0 in
    make ~events ~spans ~iv ~cap:(max 1 capacity) ~clock ~epoch

let length t = t.len

let total t = t.emitted

let dropped t = t.dropped

(* Keep the first [cap] entries; count the rest. *)
let append t e =
  if t.len >= t.cap then begin
    t.dropped <- t.dropped + 1;
    false
  end
  else begin
    if t.len = Array.length t.buf then begin
      let bigger = Array.make (min t.cap (max 16 (2 * t.len))) e in
      Array.blit t.buf 0 bigger 0 t.len;
      t.buf <- bigger
    end;
    t.buf.(t.len) <- e;
    t.len <- t.len + 1;
    true
  end

let entries t = Array.to_list (Array.sub t.buf 0 t.len)

(* {1 Simulator events} *)

let sim t kind name node start_ts end_ts id args =
  t.emitted <- t.emitted + 1;
  ignore (append t (Sim { kind; name; node; start_ts; end_ts; id; args }))

let task t ~name ~node ~start ~finish ~id ~group =
  if t.events_on then sim t Task name node start finish id [ ("group", group) ]

let message t ~src ~dst ~depart ~arrival ~bytes =
  if t.events_on then
    sim t Message "msg" src depart arrival t.emitted [ ("dst", dst); ("bytes", bytes) ]

let sync t ~node ~ts ~producer ~consumer =
  if t.events_on then sim t Sync "sync" node ts ts consumer [ ("producer", producer) ]

let events t = List.filter_map (function Sim e -> Some e | _ -> None) (entries t)

(* {1 Counter samples} *)

let interval t = t.iv

let register t name sampler =
  if t.iv > 0 then
    match List.find_opt (fun i -> String.equal i.i_name name) t.instruments with
    | Some i ->
      (* A new run on a reused log: its samples restart at cycle 0. *)
      i.sampler <- sampler;
      i.last_ts <- -1;
      t.next <- t.iv
    | None -> t.instruments <- { i_name = name; sampler; last_ts = -1; missed = 0 } :: t.instruments

let sample_all t ~ts =
  List.iter
    (fun i ->
      if ts > i.last_ts then begin
        i.last_ts <- ts;
        if not (append t (Sample { s_name = i.i_name; s_ts = ts; s_value = i.sampler () })) then
          i.missed <- i.missed + 1
      end)
    t.instruments

let tick t ~now =
  if now >= t.next then begin
    (* Sample once, at the latest boundary crossed; skipped boundaries are
       implied by the step semantics of a counter series. *)
    let boundary = now - (now mod t.iv) in
    sample_all t ~ts:boundary;
    t.next <- boundary + t.iv
  end

let flush t ~now = if t.iv > 0 then sample_all t ~ts:now

type series = { name : string; samples : (int * int) list; dropped : int }

let series t =
  let all = entries t in
  let samples_of name =
    List.filter_map
      (function Sample s when String.equal s.s_name name -> Some (s.s_ts, s.s_value) | _ -> None)
      all
  in
  List.map (fun i -> { name = i.i_name; samples = samples_of i.i_name; dropped = i.missed }) t.instruments
  |> List.sort (fun a b -> String.compare a.name b.name)

let series_json t =
  let open Render.Json in
  let one s =
    Obj
      [
        ("name", Str s.name);
        ("dropped", Int s.dropped);
        ("samples", List (List.map (fun (ts, v) -> List [ Int ts; Int v ]) s.samples));
      ]
  in
  Obj [ ("interval", Int t.iv); ("series", List (List.map one (series t))) ]

(* {1 Spans} *)

let dead =
  { sp_id = -1; sp_parent = -1; sp_depth = 0; sp_name = ""; sp_start = 0.0; sp_stop = 0.0;
    sp_cycles = 0; sp_attrs = [] }

let records_spans t = t.spans_on

let depth t = List.length t.stack

let enter t name =
  if not t.spans_on then dead
  else begin
    let sp_parent, sp_depth =
      match t.stack with [] -> (-1, 0) | p :: _ -> (p.sp_id, p.sp_depth + 1)
    in
    let start = t.clock () -. t.epoch in
    let sp =
      { sp_id = t.n_spans; sp_parent; sp_depth; sp_name = name; sp_start = start;
        sp_stop = start -. 1.0; sp_cycles = 0; sp_attrs = [] }
    in
    if append t (Span sp) then begin
      t.n_spans <- t.n_spans + 1;
      t.stack <- sp :: t.stack;
      sp
    end
    else dead
  end

let exit ?(cycles = 0) t sp =
  if t.spans_on && sp != dead then begin
    sp.sp_stop <- t.clock () -. t.epoch;
    sp.sp_cycles <- sp.sp_cycles + cycles;
    (* Pop through any unclosed children so an exception path cannot wedge
       the stack; their stop stays unset and [wall_ms] clamps to 0. *)
    let rec pop = function [] -> [] | s :: rest -> if s == sp then rest else pop rest in
    t.stack <- pop t.stack
  end

let attr t sp key v = if t.spans_on && sp != dead then sp.sp_attrs <- sp.sp_attrs @ [ (key, v) ]

let spans t = List.filter_map (function Span s -> Some s | _ -> None) (entries t)

let wall_ms s = if s.sp_stop < s.sp_start then 0.0 else (s.sp_stop -. s.sp_start) *. 1000.0

let attr_json = function Int i -> Render.Json.Int i | Str s -> Render.Json.Str s

(* {1 Rendering} *)

let kind_to_string = function Task -> "task" | Message -> "message" | Sync -> "sync"

(* Simulator events and counter tracks on pid 0 (tid = node for the
   former), spans on their own pid 1 track, nested by ts/dur containment.
   Field order is part of the pinned document. *)
let chrome_event =
  let open Render.Json in
  function
  | Sim e ->
    let shape =
      match e.kind with
      | Task | Message -> [ ("ph", Str "X"); ("dur", Int (max 0 (e.end_ts - e.start_ts))) ]
      | Sync -> [ ("ph", Str "i"); ("s", Str "t") ]
    in
    let args = List.map (fun (k, v) -> (k, Int v)) (("id", e.id) :: e.args) in
    Obj
      ([ ("name", Str e.name); ("cat", Str (kind_to_string e.kind)); ("pid", Int 0);
         ("tid", Int e.node); ("ts", Int e.start_ts) ]
      @ shape @ [ ("args", Obj args) ])
  | Sample s ->
    Obj
      [ ("name", Str s.s_name); ("ph", Str "C"); ("pid", Int 0); ("tid", Int 0);
        ("ts", Int s.s_ts); ("args", Obj [ ("value", Int s.s_value) ]) ]
  | Span s ->
    let args =
      [ ("id", Int s.sp_id); ("parent", Int s.sp_parent); ("cycles", Int s.sp_cycles) ]
      @ List.map (fun (k, v) -> (k, attr_json v)) s.sp_attrs
    in
    Obj
      [ ("name", Str s.sp_name); ("cat", Str "span"); ("ph", Str "X"); ("pid", Int 1);
        ("tid", Int 0); ("ts", Int (int_of_float (s.sp_start *. 1e6)));
        ("dur", Int (int_of_float (wall_ms s *. 1e3))); ("args", Obj args) ]

(* Simulator events stable-sorted by start cycle (timestamps
   non-decreasing, emission order among ties), then each counter series
   in time order, by name, then the spans in enter order. *)
let ordered t =
  let sims = ref [] and samples = ref [] and spans = ref [] in
  for i = t.len - 1 downto 0 do
    let e = t.buf.(i) in
    match e with
    | Sim _ -> sims := e :: !sims
    | Sample _ -> samples := e :: !samples
    | Span _ -> spans := e :: !spans
  done;
  let start = function Sim e -> e.start_ts | _ -> 0 in
  let name = function Sample s -> s.s_name | _ -> "" in
  List.stable_sort (fun a b -> Int.compare (start a) (start b)) !sims
  @ List.stable_sort (fun a b -> String.compare (name a) (name b)) !samples
  @ !spans

let to_chrome t =
  let open Render.Json in
  to_string
    (Obj
       [
         ("traceEvents", List (List.map chrome_event (ordered t)));
         ("displayTimeUnit", Str "ns");
         ("otherData", Obj [ ("emitted", Int t.emitted); ("dropped", Int t.dropped) ]);
       ])

let to_jsonl t =
  String.concat "\n" (List.map (fun e -> Render.Json.to_string (chrome_event e)) (ordered t))
