type instrument = {
  i_name : string;
  mutable sampler : unit -> int;
  (* Delta-encoded samples: [dts]/[dvs] hold timestamp and value deltas
     against the previous sample ([last_ts]/[last_v] are the running
     absolutes). Deltas of bounded counters are small, so the series stays
     compact without a second encoding pass. *)
  mutable dts : int array;
  mutable dvs : int array;
  mutable len : int;
  mutable last_ts : int;
  mutable last_v : int;
  mutable dropped : int;
}

type t = {
  on : bool;
  iv : int;
  cap : int;
  mutable next : int; (* next boundary to sample at *)
  mutable instruments : instrument list; (* reverse registration order *)
}

let none = { on = false; iv = 0; cap = 0; next = max_int; instruments = [] }

let default_capacity = 4096

let create ?(capacity = default_capacity) ~interval () =
  if interval <= 0 then none
  else { on = true; iv = interval; cap = max 1 capacity; next = interval; instruments = [] }

let enabled t = t.on

let interval t = t.iv

let register t name sampler =
  if t.on then
    match List.find_opt (fun i -> String.equal i.i_name name) t.instruments with
    | Some i -> i.sampler <- sampler
    | None ->
      t.instruments <-
        {
          i_name = name;
          sampler;
          dts = Array.make 64 0;
          dvs = Array.make 64 0;
          len = 0;
          last_ts = 0;
          last_v = 0;
          dropped = 0;
        }
        :: t.instruments

let push t i ~ts ~v =
  if i.len >= t.cap then i.dropped <- i.dropped + 1
  else begin
    if i.len >= Array.length i.dts then begin
      let grow a =
        let g = Array.make (2 * Array.length a) 0 in
        Array.blit a 0 g 0 (Array.length a);
        g
      in
      i.dts <- grow i.dts;
      i.dvs <- grow i.dvs
    end;
    i.dts.(i.len) <- ts - i.last_ts;
    i.dvs.(i.len) <- v - i.last_v;
    i.len <- i.len + 1;
    i.last_ts <- ts;
    i.last_v <- v
  end

let sample_all t ~ts =
  List.iter (fun i -> if ts > i.last_ts || i.len = 0 then push t i ~ts ~v:(i.sampler ())) t.instruments

let tick t ~now =
  if t.on && now >= t.next then begin
    (* Sample once, at the latest boundary crossed; skipped boundaries are
       implied by the step semantics of a counter series. *)
    let boundary = now - (now mod t.iv) in
    sample_all t ~ts:boundary;
    t.next <- boundary + t.iv
  end

let flush t ~now = if t.on then sample_all t ~ts:now

type series = { name : string; samples : (int * int) list; dropped : int }

let decode i =
  let acc = ref [] in
  let ts = ref 0 and v = ref 0 in
  for k = 0 to i.len - 1 do
    ts := !ts + i.dts.(k);
    v := !v + i.dvs.(k);
    acc := (!ts, !v) :: !acc
  done;
  List.rev !acc

let series t =
  List.sort
    (fun a b -> compare a.name b.name)
    (List.map (fun i -> { name = i.i_name; samples = decode i; dropped = i.dropped }) t.instruments)

let to_json t =
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

let chrome_counter_events t =
  let open Render.Json in
  List.concat_map
    (fun s ->
      List.map
        (fun (ts, v) ->
          Obj
            [
              ("name", Str s.name);
              ("ph", Str "C");
              ("pid", Int 0);
              ("tid", Int 0);
              ("ts", Int ts);
              ("args", Obj [ ("value", Int v) ]);
            ])
        s.samples)
    (series t)
