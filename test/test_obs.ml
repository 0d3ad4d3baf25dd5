(* Observability subsystem: registry semantics, event-log bounds,
   Chrome-JSON well-formedness, and the no-perturbation guarantee
   (observed runs byte-identical to unobserved ones). *)

module M = Ndp_obs.Metrics
module T = Ndp_obs.Trace
module L = Ndp_obs.Ledger
module Sink = Ndp_obs.Sink
module P = Ndp_core.Pipeline
module Stats = Ndp_sim.Stats
module Pool = Ndp_prelude.Pool

let water () = Ndp_workloads.Suite.find "water"

(* {1 A minimal JSON reader}

   Enough of RFC 8259 to validate the tracer's output without a JSON
   dependency: objects, arrays, strings with the common escapes, numbers,
   literals. Raises [Failure] on malformed input. *)
module Json = struct
  type t =
    | Null
    | Bool of bool
    | Num of float
    | Str of string
    | Arr of t list
    | Obj of (string * t) list

  let parse (s : string) : t =
    let n = String.length s in
    let pos = ref 0 in
    let fail msg = failwith (Printf.sprintf "json: %s at offset %d" msg !pos) in
    let peek () = if !pos < n then s.[!pos] else '\000' in
    let advance () = incr pos in
    let rec skip_ws () =
      match peek () with ' ' | '\t' | '\n' | '\r' -> advance (); skip_ws () | _ -> ()
    in
    let expect c = if peek () = c then advance () else fail (Printf.sprintf "expected %c" c) in
    let literal word v =
      String.iter expect word;
      v
    in
    let parse_string () =
      expect '"';
      let b = Buffer.create 16 in
      let rec go () =
        match peek () with
        | '\000' -> fail "unterminated string"
        | '"' -> advance ()
        | '\\' ->
          advance ();
          (match peek () with
          | 'n' -> Buffer.add_char b '\n'
          | 't' -> Buffer.add_char b '\t'
          | 'r' -> Buffer.add_char b '\r'
          | 'b' -> Buffer.add_char b '\b'
          | 'f' -> Buffer.add_char b '\012'
          | 'u' ->
            (* keep validation simple: skip the four hex digits *)
            for _ = 1 to 4 do
              advance ();
              match peek () with
              | '0' .. '9' | 'a' .. 'f' | 'A' .. 'F' -> ()
              | _ -> fail "bad \\u escape"
            done;
            Buffer.add_char b '?'
          | c -> Buffer.add_char b c);
          advance ();
          go ()
        | c ->
          Buffer.add_char b c;
          advance ();
          go ()
      in
      go ();
      Buffer.contents b
    in
    let parse_number () =
      let start = !pos in
      let num_char = function
        | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
        | _ -> false
      in
      while num_char (peek ()) do
        advance ()
      done;
      match float_of_string_opt (String.sub s start (!pos - start)) with
      | Some f -> Num f
      | None -> fail "bad number"
    in
    let rec parse_value () =
      skip_ws ();
      match peek () with
      | '{' ->
        advance ();
        skip_ws ();
        if peek () = '}' then (advance (); Obj [])
        else
          let rec members acc =
            skip_ws ();
            let key = parse_string () in
            skip_ws ();
            expect ':';
            let v = parse_value () in
            skip_ws ();
            match peek () with
            | ',' -> advance (); members ((key, v) :: acc)
            | '}' -> advance (); Obj (List.rev ((key, v) :: acc))
            | _ -> fail "expected , or }"
          in
          members []
      | '[' ->
        advance ();
        skip_ws ();
        if peek () = ']' then (advance (); Arr [])
        else
          let rec elements acc =
            let v = parse_value () in
            skip_ws ();
            match peek () with
            | ',' -> advance (); elements (v :: acc)
            | ']' -> advance (); Arr (List.rev (v :: acc))
            | _ -> fail "expected , or ]"
          in
          elements []
      | '"' -> Str (parse_string ())
      | 't' -> literal "true" (Bool true)
      | 'f' -> literal "false" (Bool false)
      | 'n' -> literal "null" Null
      | _ -> parse_number ()
    in
    let v = parse_value () in
    skip_ws ();
    if !pos <> n then fail "trailing garbage";
    v

  let member key = function Obj kvs -> List.assoc_opt key kvs | _ -> None

  let str = function Some (Str s) -> s | _ -> failwith "json: expected string"

  let num = function Some (Num f) -> f | _ -> failwith "json: expected number"
end

(* {1 Registry} *)

let registry_instruments () =
  let reg = M.create () in
  let c = M.counter reg "a.count" in
  M.add c 5;
  M.incr c;
  Alcotest.(check int) "counter value" 6 (M.counter_value c);
  let v = M.vec reg "a.vec" ~size:3 ~label:(fun i -> Printf.sprintf "slot=%d" i) in
  M.vadd v 0 2;
  M.vadd v 2 7;
  M.vadd v 99 1 (* out of range: ignored *);
  Alcotest.(check int) "vec slot" 7 (M.vec_value v 2);
  let g = M.gauge reg "a.gauge" in
  M.set_gauge g 1.5;
  M.gauge_fn reg "a.derived" (fun () -> 42.0);
  let h = M.histogram reg "a.hist" in
  M.observe h 3.0;
  M.observe h 5.0;
  let names = List.map fst (M.to_alist reg) in
  Alcotest.(check (list string)) "exploded, name-sorted"
    [ "a.count"; "a.derived"; "a.gauge"; "a.hist"; "a.vec{slot=0}"; "a.vec{slot=2}" ]
    names;
  (match M.find reg "a.vec{slot=2}" with
  | Some (M.Counter_v 7) -> ()
  | _ -> Alcotest.fail "find on exploded vec slot");
  match M.find reg "a.hist" with
  | Some (M.Histogram_v h) ->
    Alcotest.(check int) "hist count" 2 h.count;
    Alcotest.(check (float 1e-9)) "hist sum" 8.0 h.sum
  | _ -> Alcotest.fail "find histogram"

let registry_same_name_same_handle () =
  let reg = M.create () in
  let a = M.counter reg "x" and b = M.counter reg "x" in
  M.add a 3;
  M.add b 4;
  Alcotest.(check int) "shared storage" 7 (M.counter_value a)

let disabled_inert () =
  Alcotest.(check bool) "disabled flag" false (M.enabled M.none);
  let c = M.counter M.none "dead.count" in
  let v = M.vec M.none "dead.vec" ~size:4 ~label:string_of_int in
  let h = M.histogram M.none "dead.hist" in
  M.add c 10;
  M.vadd v 1 10;
  M.observe h 10.0;
  M.set_gauge (M.gauge M.none "dead.gauge") 1.0;
  Alcotest.(check int) "dead counter stays zero" 0 (M.counter_value c);
  Alcotest.(check (list string)) "nothing registered" [] (List.map fst (M.to_alist M.none))

(* {1 Event log} *)

let ring_overflow () =
  let t = T.create ~capacity:4 () in
  for i = 0 to 9 do
    T.task t ~name:"t" ~node:0 ~start:i ~finish:(i + 1) ~id:i ~group:0
  done;
  Alcotest.(check int) "length" 4 (T.length t);
  Alcotest.(check int) "total" 10 (T.total t);
  Alcotest.(check int) "dropped" 6 (T.dropped t);
  Alcotest.(check (list int)) "first survive" [ 0; 1; 2; 3 ]
    (List.map (fun (e : T.event) -> e.T.id) (T.events t))

let trace_chrome_well_formed () =
  List.iter
    (fun app ->
      let obs = Sink.create ~metrics:true ~trace:true () in
      let r =
        P.Job.run ~obs
          (P.Job.make (P.Partitioned P.partitioned_defaults) (Ndp_workloads.Suite.find app))
      in
      let check_int what = Alcotest.(check int) (app ^ ": " ^ what) in
      let check_bool what = Alcotest.(check bool) (app ^ ": " ^ what) true in
      check_int "nothing dropped" 0 (T.dropped obs.Sink.trace);
      let doc = Json.parse (T.to_chrome obs.Sink.trace) in
      let events =
        match Json.member "traceEvents" doc with
        | Some (Json.Arr es) -> es
        | _ -> Alcotest.fail "traceEvents array missing"
      in
      check_bool "events present" (events <> []);
      let last_ts = ref (-1.0) in
      let tasks = ref 0 in
      let max_task_end = ref 0.0 in
      List.iter
        (fun e ->
          let ts = Json.num (Json.member "ts" e) in
          check_bool "ts monotone" (ts >= !last_ts);
          last_ts := ts;
          match Json.str (Json.member "ph" e) with
          | "X" ->
            let dur = Json.num (Json.member "dur" e) in
            check_bool "dur non-negative" (dur >= 0.0);
            if Json.str (Json.member "cat" e) = "task" then begin
              incr tasks;
              if ts +. dur > !max_task_end then max_task_end := ts +. dur
            end
          | "i" -> Alcotest.(check string) "sync cat" "sync" (Json.str (Json.member "cat" e))
          | ph -> Alcotest.fail ("unexpected phase " ^ ph))
        events;
      (* The trace must reconcile with the aggregate stats: one complete
         event per executed task, ending at the simulated finish time. *)
      check_int "task events == Stats.tasks" (Stats.tasks r.P.stats) !tasks;
      check_int "last task ends at finish_time" (Stats.finish_time r.P.stats)
        (int_of_float !max_task_end))
    [ "water"; "mg" ]

let trace_jsonl_lines_parse () =
  let obs = Sink.create ~metrics:false ~trace:true () in
  ignore (P.Job.run ~obs (P.Job.make P.Default (water ())));
  let lines =
    String.split_on_char '\n' (T.to_jsonl obs.Sink.trace)
    |> List.filter (fun l -> l <> "")
  in
  Alcotest.(check int) "one line per event" (T.length obs.Sink.trace) (List.length lines);
  List.iter
    (fun line ->
      match Json.parse line with
      | Json.Obj _ -> ()
      | _ -> Alcotest.fail "jsonl line is not an object")
    lines

let metrics_json_parses () =
  let obs = Sink.create ~metrics:true ~trace:false () in
  ignore (P.Job.run ~obs (P.Job.make (P.Partitioned P.partitioned_defaults) (water ())));
  match Json.parse (Ndp_obs.Render.Json.to_string (M.to_json obs.Sink.metrics)) with
  | Json.Obj kvs ->
    Alcotest.(check bool) "per-link family present" true
      (List.exists (fun (k, _) -> Astring.String.is_prefix ~affix:"noc.link_flits{" k) kvs);
    Alcotest.(check bool) "sim aggregate present" true (List.mem_assoc "sim.tasks" kvs)
  | _ -> Alcotest.fail "metrics json is not an object"

(* {1 Percentiles} *)

let percentile_estimates () =
  (* 10 observations <= 10, 10 more <= 20: p50 lands at the first bucket's
     upper bound, p75 halfway through the second. *)
  let counts = [| 10; 10 |] and bounds = [| 10.0; 20.0 |] in
  Alcotest.(check (float 1e-9)) "p50" 10.0 (M.percentile ~counts ~bounds 0.5);
  Alcotest.(check (float 1e-9)) "p75" 15.0 (M.percentile ~counts ~bounds 0.75);
  Alcotest.(check (float 1e-9)) "p100" 20.0 (M.percentile ~counts ~bounds 1.0);
  Alcotest.(check (float 1e-9)) "empty histogram" 0.0 (M.percentile ~counts:[| 0; 0 |] ~bounds 0.5);
  (* Overflow-bucket mass clamps to the largest bound. *)
  Alcotest.(check (float 1e-9)) "overflow clamps" 20.0
    (M.percentile ~counts:[| 0; 0; 5 |] ~bounds 0.99)

(* {1 Movement ledger} *)

let link_flits_total reg =
  List.fold_left
    (fun acc (name, s) ->
      match s with
      | M.Counter_v v when Astring.String.is_prefix ~affix:"noc.link_flits{" name -> acc + v
      | _ -> acc)
    0 (M.to_alist reg)

let profiled_sink () = Sink.create ~metrics:true ~trace:false ~ledger:true ()

(* The central invariant: the ledger charges [flits x links] per message
   while the NoC adds [flits] to each traversed link's counter, so their
   totals must agree exactly — for every workload, under both schemes. *)
let ledger_reconciles_suite () =
  List.iter
    (fun name ->
      let k = Ndp_workloads.Suite.find name in
      List.iter
        (fun (scheme_name, scheme) ->
          let obs = profiled_sink () in
          ignore (P.Job.run ~obs (P.Job.make scheme k));
          Alcotest.(check int)
            (Printf.sprintf "%s/%s ledger == link flits" name scheme_name)
            (link_flits_total obs.Sink.metrics)
            (L.total_flit_hops obs.Sink.ledger))
        [ ("default", P.Default); ("partitioned", P.Partitioned P.partitioned_defaults) ])
    Ndp_workloads.Suite.names

let ledger_attributes_and_predicts () =
  let obs = profiled_sink () in
  ignore (P.Job.run ~obs (P.Job.make (P.Partitioned P.partitioned_defaults) (water ())));
  let ledger = obs.Sink.ledger in
  let rows = L.rows ledger in
  Alcotest.(check bool) "rows present" true (rows <> []);
  (* Resolvers are registered, so real traffic lands on real provenance:
     named nests and arrays, not the "(other)" fallback. *)
  let attributed = List.filter (fun (r : L.row) -> r.L.nest <> "(other)") rows in
  Alcotest.(check bool) "most traffic attributed to statements" true
    (List.length attributed > List.length rows / 2);
  Alcotest.(check bool) "some array-resolved traffic" true
    (List.exists (fun (r : L.row) -> r.L.array_name <> "(other)" && r.L.array_name <> "(result)") rows);
  (* The compiler recorded its Kruskal/window estimates. *)
  Alcotest.(check bool) "predicted cost recorded" true (L.total_predicted ledger > 0);
  let stmts = L.statements ledger in
  Alcotest.(check bool) "statement aggregation present" true (stmts <> []);
  let sum_stmt = List.fold_left (fun acc (s : L.stmt_total) -> acc + s.L.s_flit_hops) 0 stmts in
  Alcotest.(check int) "statement totals partition row totals" (L.total_flit_hops ledger) sum_stmt

(* [jobs] copies of [f ()] fanned across a pool of [jobs] domains. *)
let on_pool jobs f = Pool.with_pool ~jobs (fun pool -> Pool.parallel_map pool f (List.init jobs ignore))

let ledger_output_deterministic_across_jobs () =
  let render () =
    let obs = profiled_sink () in
    ignore (P.Job.run ~obs (P.Job.make (P.Partitioned P.partitioned_defaults) (water ())));
    Ndp_obs.Render.Json.to_string (L.to_json obs.Sink.ledger)
  in
  let serial = render () in
  List.iter (Alcotest.(check string) "jobs=4 byte-identical" serial) (on_pool 4 render);
  List.iter (Alcotest.(check string) "jobs=7 byte-identical" serial) (on_pool 7 render)

(* {1 Counter samples} *)

let timeline_samples_run () =
  let interval = 500 in
  let obs = Sink.create ~metrics:true ~trace:false ~timeline_interval:interval () in
  let r = P.Job.run ~obs (P.Job.make (P.Partitioned P.partitioned_defaults) (water ())) in
  let series = T.series obs.Sink.trace in
  Alcotest.(check bool) "series registered" true (series <> []);
  let finish = Stats.finish_time r.P.stats in
  List.iter
    (fun (s : T.series) ->
      Alcotest.(check bool) (s.T.name ^ " sampled") true (s.T.samples <> []);
      let rec monotone = function
        | (t1, v1) :: ((t2, v2) :: _ as rest) ->
          t1 <= t2 && v1 <= v2 (* counters never decrease *) && monotone rest
        | _ -> true
      in
      Alcotest.(check bool) (s.T.name ^ " monotone") true (monotone s.T.samples);
      List.iter
        (fun (ts, _) ->
          if ts <> finish then
            Alcotest.(check int) (s.T.name ^ " on-boundary sample") 0 (ts mod interval))
        s.T.samples;
      (* The flush pinned the series' end to the run's last cycle. *)
      let last_ts = List.fold_left (fun _ (ts, _) -> ts) 0 s.T.samples in
      Alcotest.(check int) (s.T.name ^ " ends at finish") finish last_ts)
    series;
  (* The final flit-hop sample agrees with the aggregate counter. *)
  let hops_series = List.find (fun (s : T.series) -> s.T.name = "noc.flit_hops") series in
  let _, last_v = List.nth hops_series.T.samples (List.length hops_series.T.samples - 1) in
  Alcotest.(check int) "final sample == stats hops" (Stats.hops r.P.stats) last_v

let timeline_bounded () =
  let t = T.create ~capacity:3 ~events:false ~interval:10 () in
  T.register t "c" (fun () -> 1);
  for i = 1 to 10 do
    T.tick t ~now:(i * 10)
  done;
  match T.series t with
  | [ s ] ->
    Alcotest.(check int) "capacity respected" 3 (List.length s.T.samples);
    Alcotest.(check int) "overflow counted as dropped" 7 s.T.dropped
  | _ -> Alcotest.fail "expected one series"

(* {1 Observation must not perturb} *)

let observed_run_identical () =
  let bare = P.Job.run (P.Job.make (P.Partitioned P.partitioned_defaults) (water ())) in
  let obs = Sink.create ~metrics:true ~trace:true () in
  let seen = P.Job.run ~obs (P.Job.make (P.Partitioned P.partitioned_defaults) (water ())) in
  Alcotest.(check bool) "stats equal" true (Stats.equal bare.P.stats seen.P.stats);
  Alcotest.(check int) "exec_time equal" bare.P.exec_time seen.P.exec_time;
  Alcotest.(check (list (pair string int))) "windows equal" bare.P.windows_chosen
    seen.P.windows_chosen;
  (* The profiling layers (ledger + timeline) must be just as inert. *)
  let full =
    Sink.create ~metrics:true ~trace:true ~ledger:true ~timeline_interval:1000 ()
  in
  let profiled =
    P.Job.run ~obs:full (P.Job.make (P.Partitioned P.partitioned_defaults) (water ()))
  in
  Alcotest.(check bool) "stats equal under profiling" true
    (Stats.equal bare.P.stats profiled.P.stats);
  Alcotest.(check int) "exec_time equal under profiling" bare.P.exec_time profiled.P.exec_time

let observed_run_identical_under_pool () =
  let job = P.Job.make (P.Partitioned P.partitioned_defaults) (water ()) in
  let bare = P.Job.run job in
  List.iter
    (fun (seen : P.result) ->
      Alcotest.(check bool) "stats equal under jobs=4" true (Stats.equal bare.P.stats seen.P.stats);
      Alcotest.(check int) "exec_time equal under jobs=4" bare.P.exec_time seen.P.exec_time)
    (on_pool 4 (fun () -> P.Job.run ~obs:(Sink.create ~metrics:true ~trace:true ()) job))

(* One sink reused across runs: each result counts its own run only, and
   the registry's sim.* counters, its per-structure families and the
   ledger all read the latest run. *)
let reused_sink_counts_once () =
  let job = P.Job.make (P.Partitioned P.partitioned_defaults) (Ndp_workloads.Suite.find "fft") in
  let fresh = P.Job.run job in
  let obs = Sink.create ~metrics:true ~ledger:true () in
  ignore (P.Job.run ~obs job);
  let again = P.Job.run ~obs job in
  Alcotest.(check (list (pair string int)))
    "second run's stats" (Stats.to_alist fresh.P.stats) (Stats.to_alist again.P.stats);
  Alcotest.(check bool) "second run's energy" true (fresh.P.energy = again.P.energy);
  let reg = obs.Sink.metrics in
  let counter name =
    match M.find reg name with
    | Some (M.Counter_v v) -> v
    | _ -> Alcotest.failf "%s is not a counter sample" name
  in
  let family prefix =
    List.fold_left
      (fun acc (name, s) ->
        match s with
        | M.Counter_v v when Astring.String.is_prefix ~affix:prefix name -> acc + v
        | _ -> acc)
      0 (M.to_alist reg)
  in
  let hops = Stats.hops fresh.P.stats in
  Alcotest.(check int) "sim.hops" hops (counter "sim.hops");
  Alcotest.(check int) "sum of link flits" hops (family "noc.link_flits{");
  Alcotest.(check int) "ledger total" hops (L.total_flit_hops obs.Sink.ledger);
  Alcotest.(check int) "sim.tasks" (Stats.tasks fresh.P.stats) (counter "sim.tasks");
  Alcotest.(check int) "sum of core.tasks" (counter "sim.tasks") (family "core.tasks{")

(* A log reused for a second run samples that run too, from cycle 0: each
   series holds the first run's samples followed by an identical copy. *)
let reused_log_samples_every_run () =
  let job = P.Job.make (P.Partitioned P.partitioned_defaults) (Ndp_workloads.Suite.find "fft") in
  let obs = Sink.create ~timeline_interval:1000 () in
  ignore (P.Job.run ~obs job);
  let first = T.series obs.Sink.trace in
  ignore (P.Job.run ~obs job);
  List.iter2
    (fun (s1 : T.series) (s2 : T.series) ->
      Alcotest.(check bool) (s1.T.name ^ " sampled") true (s1.T.samples <> []);
      Alcotest.(check int) (s1.T.name ^ " nothing dropped") 0 s2.T.dropped;
      Alcotest.(check (list (pair int int)))
        (s1.T.name ^ " second run sampled like the first")
        (s1.T.samples @ s1.T.samples) s2.T.samples)
    first (T.series obs.Sink.trace)

(* {1 Stats surface} *)

let stats_alist_shape () =
  let s = Stats.create () in
  Stats.incr_l1_hits s;
  Stats.add_hops s 9;
  let alist = Stats.to_alist s in
  Alcotest.(check int) "18 counters" 18 (List.length alist);
  Alcotest.(check (pair string int)) "l1_hits first" ("l1_hits", 1) (List.hd alist);
  Alcotest.(check int) "hops via alist" 9 (List.assoc "hops" alist)

let stats_pp_no_nan () =
  (* Regression: a run with zero messages used to render avg latency as
     "nan"; it must render as "-". *)
  let s = Stats.create () in
  Stats.incr_tasks s;
  let text = Format.asprintf "%a" Stats.pp s in
  Alcotest.(check bool) "no nan" false (Astring.String.is_infix ~affix:"nan" text);
  Alcotest.(check bool) "dash placeholder" true (Astring.String.is_infix ~affix:"-" text);
  Alcotest.(check (float 1e-9)) "avg_latency total" 0.0 (Stats.avg_latency s)

(* {1 Spans} *)

module Span = Ndp_obs.Span
module RJ = Ndp_obs.Render.Json

(* A deterministic test clock: 1 ms per reading. *)
let tick_clock () =
  let t = ref 0.0 in
  fun () ->
    t := !t +. 0.001;
    !t

let span_fields t =
  match RJ.member "spans" (Span.to_json ~wall:false t) with
  | Some (RJ.List items) ->
    List.map
      (fun item ->
        let int name = match RJ.member name item with Some (RJ.Int n) -> n | _ -> -999 in
        let str name = match RJ.member name item with Some (RJ.Str s) -> s | _ -> "?" in
        (str "name", int "id", int "parent", int "depth"))
      items
  | _ -> Alcotest.fail "span json has no spans list"

let span_nesting_and_attrs () =
  let t = Span.create ~clock:(tick_clock ()) () in
  Alcotest.(check bool) "enabled" true (Span.enabled t);
  let a = Span.enter t "a" in
  let b = Span.enter t "b" in
  Span.attr_int t b "n" 7;
  Span.attr_str t b "k" "v";
  Alcotest.(check int) "two open" 2 (Span.depth t);
  Span.exit t b;
  let c = Span.enter t "c" in
  Span.exit ~cycles:42 t c;
  Span.exit t a;
  Alcotest.(check int) "stack drained" 0 (Span.depth t);
  Alcotest.(check int) "three recorded" 3 (Span.count t);
  (* ids in enter order; parents/depths reflect the open stack *)
  Alcotest.(check (list (pair string (pair int (pair int int)))))
    "structure"
    [ ("a", (0, (-1, 0))); ("b", (1, (0, 1))); ("c", (2, (0, 1))) ]
    (List.map (fun (n, i, p, d) -> (n, (i, (p, d)))) (span_fields t));
  (* attrs and cycles survive into the JSON *)
  (match RJ.member "spans" (Span.to_json ~wall:false t) with
  | Some (RJ.List [ _; b_item; c_item ]) ->
    (match RJ.member "attrs" b_item with
    | Some attrs ->
      Alcotest.(check bool) "int attr" true (RJ.member "n" attrs = Some (RJ.Int 7));
      Alcotest.(check bool) "str attr" true (RJ.member "k" attrs = Some (RJ.Str "v"))
    | None -> Alcotest.fail "span b lost its attrs");
    Alcotest.(check bool) "cycles attr" true (RJ.member "cycles" c_item = Some (RJ.Int 42))
  | _ -> Alcotest.fail "expected three spans");
  (* summary aggregates by name, name-sorted *)
  let names = List.map fst (Span.summary t) in
  Alcotest.(check (list string)) "summary sorted" [ "a"; "b"; "c" ] names

let span_disabled_inert () =
  let t = Span.none in
  Alcotest.(check bool) "disabled" false (Span.enabled t);
  let sp = Span.enter t "dead" in
  Span.attr_int t sp "n" 1;
  Span.attr_str t sp "s" "x";
  Span.exit t sp;
  Alcotest.(check int) "nothing recorded" 0 (Span.count t);
  Alcotest.(check int) "nothing open" 0 (Span.depth t);
  Alcotest.(check bool) "empty json" true
    (RJ.member "count" (Span.to_json t) = Some (RJ.Int 0))

let span_exception_safe () =
  let t = Span.create ~clock:(tick_clock ()) () in
  (try Span.with_span t "boom" (fun () -> failwith "inner") with Failure _ -> ());
  Alcotest.(check int) "span closed by exception path" 0 (Span.depth t);
  Alcotest.(check int) "span still recorded" 1 (Span.count t)

(* Byte-identical span logs at any pool size: jobs fanned across domains
   each record the same phase spans as their serial runs. *)
let span_deterministic_across_jobs () =
  let apps = [ "water"; "fft" ] in
  let pipeline app =
    let spans = Span.create ~clock:(fun () -> 0.0) () in
    let obs = { Sink.none with Sink.spans } in
    ignore
      (P.Job.run ~obs
         (P.Job.make (P.Partitioned P.partitioned_defaults) (Ndp_workloads.Suite.find app)));
    RJ.to_string (Span.to_json ~wall:false spans)
  in
  let serial = List.map pipeline apps in
  List.iter
    (fun jobs ->
      let pooled = Pool.with_pool ~jobs (fun pool -> Pool.parallel_map pool pipeline apps) in
      List.iter2
        (fun app (p1, p) ->
          Alcotest.(check string) (Printf.sprintf "%s pipeline spans %d jobs == serial" app jobs) p1 p)
        apps (List.combine serial pooled))
    [ 4; 7 ]

let span_pipeline_phases () =
  let phases scheme kernel =
    let spans = Span.create ~clock:(fun () -> 0.0) () in
    let obs = { Sink.none with Sink.spans } in
    ignore (P.Job.run ~obs (P.Job.make scheme kernel));
    List.map fst (Span.summary spans)
  in
  Alcotest.(check (list string)) "partitioned phases"
    [ "deps"; "parse"; "schedule"; "simulate"; "window" ]
    (phases (P.Partitioned P.partitioned_defaults) (water ()));
  Alcotest.(check (list string)) "fused adds a fusion phase"
    [ "deps"; "fusion"; "parse"; "schedule"; "simulate"; "window" ]
    (phases
       (P.Partitioned { P.partitioned_defaults with P.fuse = true })
       (Ndp_workloads.Suite.find "resnet_block"));
  Alcotest.(check (list string)) "default scheme coarse phases"
    [ "parse"; "simulate" ]
    (phases P.Default (water ()))

let span_chrome_containment () =
  let t = Span.create ~clock:(tick_clock ()) () in
  Span.with_span t "outer" (fun () ->
      Span.with_span t "inner" (fun () -> ());
      Span.with_span t "inner" (fun () -> ()));
  let slices =
    match Json.member "traceEvents" (Json.parse (T.to_chrome t)) with
    | Some (Json.Arr events) ->
      List.map
        (fun e ->
          Alcotest.(check string) "span slice" "span" (Json.str (Json.member "cat" e));
          (Json.str (Json.member "name" e), Json.num (Json.member "ts" e), Json.num (Json.member "dur" e)))
        events
    | _ -> Alcotest.fail "traceEvents array missing"
  in
  let outer = List.find (fun (n, _, _) -> n = "outer") slices in
  let _, ots, odur = outer in
  List.iter
    (fun (n, ts, dur) ->
      if n = "inner" then begin
        Alcotest.(check bool) "inner starts after outer" true (ts >= ots);
        Alcotest.(check bool) "inner ends before outer" true (ts +. dur <= ots +. odur)
      end)
    slices;
  Alcotest.(check int) "three slices" 3 (List.length slices)

(* {1 Pinned Chrome documents}

   The Perfetto documents run to megabytes, too big for goldens, so their
   MD5s are pinned instead: any change to what the recorders keep or how
   they render moves a digest. *)

let md5 s = Digest.to_hex (Digest.string s)

let chrome_documents_pinned () =
  let partitioned app =
    P.Job.make (P.Partitioned P.partitioned_defaults) (Ndp_workloads.Suite.find app)
  in
  let obs = Sink.create ~metrics:true ~trace:true () in
  ignore (P.Job.run ~obs (partitioned "mg"));
  let pin what digest doc = Alcotest.(check string) what digest (md5 doc) in
  pin "mg chrome" "049c3313234408c4b61fe2232d41c634" (T.to_chrome obs.Sink.trace);
  pin "mg jsonl" "9e6f0f50f3558a3480e072a2c37370d5" (T.to_jsonl obs.Sink.trace);
  let log = T.create ~clock:(tick_clock ()) ~interval:1000 ~spans:true () in
  ignore (Ndp_serve.Service.profile ~trace:log ~spans:log ~top:10 (partitioned "fft"));
  pin "fft profile chrome" "093fecf806a6a7c0df3f14ceb2c5054f" (T.to_chrome log)

(* {1 Prometheus exposition} *)

let prometheus_exposition_valid () =
  let reg = M.create () in
  M.add (M.counter reg "a.count") 3;
  let v = M.vec reg "noc.link" ~size:3 ~label:(fun i -> Printf.sprintf "%d->%d" i (i + 1)) in
  M.vadd v 0 2;
  M.vadd v 2 5;
  M.set_gauge (M.gauge reg "g.val") 1.5;
  let h = M.histogram ~buckets:[| 1.0; 2.0; 4.0 |] reg "h.lat" in
  List.iter (M.observe h) [ 0.5; 1.5; 3.0; 9.0 ];
  let text = M.to_prometheus reg in
  let lines = String.split_on_char '\n' text |> List.filter (fun l -> l <> "") in
  let series = List.filter (fun l -> not (Astring.String.is_prefix ~affix:"#" l)) lines in
  (* every sample line is "name{labels} value" with a numeric value *)
  List.iter
    (fun l ->
      match String.rindex_opt l ' ' with
      | None -> Alcotest.failf "sample line %S has no value" l
      | Some i -> (
        let value = String.sub l (i + 1) (String.length l - i - 1) in
        match float_of_string_opt value with
        | Some _ -> ()
        | None ->
          if not (List.mem value [ "NaN"; "+Inf"; "-Inf" ]) then
            Alcotest.failf "line %S has non-numeric value %S" l value))
    series;
  (* mangled names only, no duplicate series *)
  let keys =
    List.map
      (fun l -> match String.rindex_opt l ' ' with Some i -> String.sub l 0 i | None -> l)
    series
  in
  Alcotest.(check int) "no duplicate series" (List.length keys)
    (List.length (List.sort_uniq compare keys));
  List.iter
    (fun k ->
      if Astring.String.is_infix ~affix:"." k then
        Alcotest.failf "series %S kept an unmangled dot in its name" k)
    keys;
  (* one TYPE line per family *)
  let types = List.filter (fun l -> Astring.String.is_prefix ~affix:"# TYPE " l) lines in
  Alcotest.(check int) "one TYPE per family" 4 (List.length types);
  Alcotest.(check int) "TYPE lines distinct" 4 (List.length (List.sort_uniq compare types));
  (* histogram: cumulative buckets ending at +Inf, plus _sum/_count *)
  let bucket_values =
    List.filter_map
      (fun l ->
        if Astring.String.is_prefix ~affix:"h_lat_bucket{" l then
          String.rindex_opt l ' '
          |> Option.map (fun i -> float_of_string (String.sub l (i + 1) (String.length l - i - 1)))
        else None)
      series
  in
  Alcotest.(check int) "bucket series incl +Inf" 4 (List.length bucket_values);
  let rec monotone = function a :: (b :: _ as rest) -> a <= b && monotone rest | _ -> true in
  Alcotest.(check bool) "buckets cumulative" true (monotone bucket_values);
  Alcotest.(check bool) "+Inf bucket closes the family" true
    (List.exists (fun l -> Astring.String.is_prefix ~affix:"h_lat_bucket{le=\"+Inf\"} 4" l) series);
  Alcotest.(check bool) "count series" true (List.mem "h_lat_count 4" series);
  Alcotest.(check bool) "sum series" true
    (List.exists (fun l -> Astring.String.is_prefix ~affix:"h_lat_sum " l) series)

let prometheus_deterministic () =
  let build () =
    let reg = M.create () in
    M.add (M.counter reg "z.last") 1;
    M.add (M.counter reg "a.first") 2;
    M.observe (M.histogram reg "m.h") 3.0;
    reg
  in
  Alcotest.(check string) "same registry, same exposition" (M.to_prometheus (build ()))
    (M.to_prometheus (build ()))

let tests =
  [
    ( "obs",
      [
        Alcotest.test_case "registry instruments" `Quick registry_instruments;
        Alcotest.test_case "same name same handle" `Quick registry_same_name_same_handle;
        Alcotest.test_case "disabled handles inert" `Quick disabled_inert;
        Alcotest.test_case "ring overflow" `Quick ring_overflow;
        Alcotest.test_case "chrome trace well-formed" `Quick trace_chrome_well_formed;
        Alcotest.test_case "jsonl lines parse" `Quick trace_jsonl_lines_parse;
        Alcotest.test_case "metrics json parses" `Quick metrics_json_parses;
        Alcotest.test_case "percentile estimates" `Quick percentile_estimates;
        Alcotest.test_case "ledger reconciles across suite" `Quick ledger_reconciles_suite;
        Alcotest.test_case "ledger attributes and predicts" `Quick ledger_attributes_and_predicts;
        Alcotest.test_case "ledger deterministic across jobs" `Quick
          ledger_output_deterministic_across_jobs;
        Alcotest.test_case "timeline samples a run" `Quick timeline_samples_run;
        Alcotest.test_case "timeline bounded" `Quick timeline_bounded;
        Alcotest.test_case "observed run identical" `Quick observed_run_identical;
        Alcotest.test_case "observed run identical under pool" `Quick observed_run_identical_under_pool;
        Alcotest.test_case "reused sink counts each run once" `Quick reused_sink_counts_once;
        Alcotest.test_case "reused log samples every run" `Quick reused_log_samples_every_run;
        Alcotest.test_case "stats alist shape" `Quick stats_alist_shape;
        Alcotest.test_case "stats pp no nan" `Quick stats_pp_no_nan;
        Alcotest.test_case "span nesting and attrs" `Quick span_nesting_and_attrs;
        Alcotest.test_case "span disabled inert" `Quick span_disabled_inert;
        Alcotest.test_case "span exception safe" `Quick span_exception_safe;
        Alcotest.test_case "span deterministic across jobs" `Slow span_deterministic_across_jobs;
        Alcotest.test_case "span pipeline phases" `Quick span_pipeline_phases;
        Alcotest.test_case "span chrome containment" `Quick span_chrome_containment;
        Alcotest.test_case "chrome documents pinned" `Quick chrome_documents_pinned;
        Alcotest.test_case "prometheus exposition valid" `Quick prometheus_exposition_valid;
        Alcotest.test_case "prometheus deterministic" `Quick prometheus_deterministic;
      ] );
  ]
