(* serve_mixed: an `ndp_run serve` daemon on a Unix socket, driven by one
   process over two connections.

   Connection A is one closed-loop client sending a seeded stream of run,
   profile, analyze, compile and sweep requests; a fixed share of the
   stream repeats an earlier request. Repeats are answered from the result
   cache (cache, framing and socket only); first occurrences run the whole
   compile stack under the render layer. Connection B sends `ping`
   open-loop at a fixed rate and is timed from when each ping was due; the
   generator never blocks on it. The daemon serves one connection until
   EOF, so today every ping waits for A to finish: the ping tail exposes
   that head-of-line blocking. *)

open Common
module Protocol = Ndp_serve.Protocol
module Rng = Ndp_prelude.Rng

let daemon_exe = "perfbench/_src/_build/default/bin/ndp_run.exe"

let run_dir = "perfbench/_run"

let socket_path = Filename.concat run_dir "serve.sock"

let access_log = Filename.concat run_dir "access.jsonl"

(* Two of every three requests on connection A repeat an earlier one: the
   2/3 result-cache hit ratio of the repository's serve load generator
   (bench/main.ml, three rounds of identical requests), the only record of
   serve traffic the repository has. *)
let repeats = 2

(* Connection B's probe rate. No record gives one: 20 pings a second sends
   about 400 pings in a 20 s run, enough for a p96 tail with ten samples
   beyond it, while the pings cost the daemon far less than 1% of its
   time. *)
let ping_rate = 20.0

(* ---- requests ---------------------------------------------------------- *)

let sweep_variants =
  List.map
    (fun (v_name, v_overrides) -> { Protocol.v_name; v_overrides; v_tweaks = P.no_tweaks })
    [ ("baseline", []); ("hop-cycles-8", [ ("hop_cycles", 8) ]); ("ddr-cycles-520", [ ("ddr_cycles", 520) ]) ]

let spec_of ~tweaks ~app ~scheme (cluster, memory) =
  {
    (Protocol.default_spec ~app) with
    Protocol.scheme;
    cluster = Ndp_noc.Cluster.to_string cluster;
    memory = Config.memory_mode_to_string memory;
    tweaks;
  }

(* The kernels new requests draw on: half the suite, mixing small and
   large, stencil, irregular and DNN kernels, so that one block of new
   requests fits in a few seconds. *)
let apps = [ "cholesky"; "fft"; "lu"; "ocean"; "radix"; "water"; "resnet_block" ]

(* New requests come in blocks: every (kernel, operation, scheme) triple
   once, in seeded order. The timed loop ends on a block boundary, so
   every seed sends the same mix of work and only its order and modes
   change. Every new request must really be new: within a block the five
   operations on one (kernel, scheme) take five different cluster/memory
   modes, so a compile and a sweep never share a cached schedule, and each
   block scales compute cost by a different hair (block b divides it by
   1 + b/100), so no block repeats an earlier block's cache keys. *)
let block rng b =
  let tweaks = { P.no_tweaks with P.cost_scale = 1.0 +. (0.01 *. float_of_int b) } in
  let requests =
    List.concat_map
      (fun app ->
        List.concat_map
          (fun scheme ->
            let base = Rng.int rng (Array.length modes) in
            List.mapi
              (fun k op ->
                let spec = spec_of ~tweaks ~app ~scheme modes.((base + k) mod Array.length modes) in
                match op with
                | `Run -> Protocol.Run { spec; metrics = false }
                | `Profile -> Protocol.Profile { spec; interval = 1000; top = 10 }
                | `Analyze -> Protocol.Analyze { spec; threshold = 4.0 }
                | `Compile -> Protocol.Compile spec
                | `Sweep -> Protocol.Sweep { spec; variants = sweep_variants })
              [ `Run; `Profile; `Analyze; `Compile; `Sweep ])
          [ "default"; "partitioned" ])
      apps
  in
  shuffled rng requests

let block_requests = 5 * 2 * List.length apps * (repeats + 1)

(* Connection A's stream: each new request is followed by [repeats]
   requests drawn from those already sent, so exactly that share of the
   stream repeats earlier work. The next block of new requests is drawn
   when the last one is used up, so the mix holds however long the run. *)
let stream ~seed =
  let rng = Rng.create seed in
  let fresh = ref [] and blocks = ref 0 in
  let sent = ref [||] and i = ref 0 in
  let next () =
    let k = !i in
    incr i;
    if k mod (repeats + 1) <> 0 then Rng.pick rng !sent
    else begin
      if !fresh = [] then begin
        fresh := block rng !blocks;
        incr blocks
      end;
      match !fresh with
      | r :: rest ->
        fresh := rest;
        sent := Array.append !sent [| r |];
        r
      | [] -> assert false
    end
  in
  next

(* Known answers: a partitioned run of every kernel at the default modes,
   asked of the daemon after the timed part and compared byte for byte
   with the same job run in process. *)
let reference =
  List.map
    (fun app -> { (Protocol.default_spec ~app) with Protocol.scheme = "partitioned" })
    Ndp_workloads.Suite.names

(* ---- connections ----------------------------------------------------------- *)

(* Requests go out, and blocking replies come in, through the protocol's
   own frame encoder and decoder. *)
type conn = { fd : Unix.file_descr; ic : in_channel; oc : out_channel }

let connect () =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match Unix.connect fd (Unix.ADDR_UNIX socket_path) with
  | () -> Some { fd; ic = Unix.in_channel_of_descr fd; oc = Unix.out_channel_of_descr fd }
  | exception Unix.Unix_error _ ->
    Unix.close fd;
    None

let send c ~id req =
  Protocol.write_request c.oc ~id req;
  flush c.oc

let receive c =
  match Protocol.read_response c.ic with Ok r -> r | Error msg -> failwith ("connection: " ^ msg)

let rpc c ~id req =
  send c ~id req;
  receive c

let close c = close_out c.oc

(* Connection B is read without blocking inside the select loop, where a
   buffered channel would hide replies that have already arrived; there
   the bytes are split into frames by hand. *)
type reader = { mutable pending : string; mutable frames : string list }

(* Move whatever the socket has into complete frames; false on EOF. *)
let fill r fd =
  let buf = Bytes.create 65536 in
  let n = Unix.read fd buf 0 (Bytes.length buf) in
  r.pending <- r.pending ^ Bytes.sub_string buf 0 n;
  let rec split () =
    match String.index_opt r.pending '\n' with
    | None -> ()
    | Some nl ->
      let len = int_of_string (String.sub r.pending 0 nl) in
      let stop = nl + 1 + len + 1 in
      if String.length r.pending >= stop then begin
        r.frames <- r.frames @ [ String.sub r.pending (nl + 1) len ];
        r.pending <- String.sub r.pending stop (String.length r.pending - stop);
        split ()
      end
  in
  split ();
  n > 0

(* A response is two frames: the envelope, then the body. *)
let take_response r =
  match r.frames with
  | env :: body :: rest -> (
    r.frames <- rest;
    match Result.bind (Ndp_obs.Render.Json.parse env) Protocol.envelope_of_json with
    | Ok e -> Some (e, body)
    | Error msg -> failwith ("bad envelope: " ^ msg))
  | _ -> None

(* ---- daemon ------------------------------------------------------------- *)

type daemon = { pid : int; first : conn }

(* Daemons not yet shut down; killed at exit if the benchmark fails
   half-way, so it never leaves a process behind. *)
let live = ref []

let () =
  at_exit (fun () ->
      List.iter
        (fun pid ->
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          ignore (Unix.waitpid [] pid))
        !live)

(* Start the daemon and connect as soon as it listens; the time this takes
   is the set-up cost. The first connection is the one the daemon will
   serve first: connection A. *)
let spawn ~logged =
  (try Unix.mkdir run_dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  (try Unix.unlink socket_path with Unix.Unix_error _ -> ());
  let err =
    Unix.openfile (Filename.concat run_dir "daemon.err") [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644
  in
  let args =
    [ daemon_exe; "serve"; "--jobs"; "1"; "--socket"; socket_path ] @ if logged then [ "--access-log"; access_log ] else []
  in
  let pid = Unix.create_process daemon_exe (Array.of_list args) Unix.stdin err err in
  Unix.close err;
  live := pid :: !live;
  let deadline = now () +. 60.0 in
  let rec wait () =
    match connect () with
    | Some c -> { pid; first = c }
    | None ->
      if now () > deadline then failwith "daemon never listened";
      Unix.sleepf 0.001;
      wait ()
  in
  wait ()

let stop d c =
  ignore (rpc c ~id:0 Protocol.Shutdown);
  close c;
  ignore (Unix.waitpid [] d.pid);
  live := List.filter (( <> ) d.pid) !live

(* Spawn-until-listening repeatedly (at least nine times, for a second
   in all) and keep the last daemon; the set-up time is the median. *)
let setup ~logged =
  let times = ref [] and last = ref None and t0 = now () in
  while List.length !times < 9 || (now () -. t0 < 1.0 && List.length !times < 200) do
    Option.iter (fun d -> stop d d.first) !last;
    let d, ms = timed (fun () -> spawn ~logged) in
    times := ms :: !times;
    last := Some d
  done;
  (median !times /. 1000.0, Option.get !last)

(* ---- one session ---------------------------------------------------------- *)

type reply = {
  id : int;
  cold : bool;
  ms : float;
  ok : bool;
}

type session = {
  replies : reply list; (* connection A, in order *)
  measured : reply list; (* those after the warm-up block *)
  ping_ms : float list;
  pings_ok : bool;
  elapsed : float; (* of the measured part *)
  peak_mb : float;
  hits_ratio : float;
  evictions : int;
  reference : (string * string) list; (* daemon body, in-process body *)
}

let ping_base = 1_000_000

let json_int k j = match Ndp_obs.Render.Json.member k j with Some (Ndp_obs.Render.Json.Int i) -> i | _ -> 0

let session ~seed ~seconds d =
  let next = stream ~seed in
  let a = d.first in
  let b = Option.get (connect ()) in
  (* Pings are queued in B's channel buffer and pushed whenever the
     socket takes them: a flush on a non-blocking descriptor writes what
     fits and raises Sys_blocked_io for the rest. The socket itself holds
     only a few hundred pings before the daemon accepts B; the 64 KiB
     channel buffer holds over a minute's worth. *)
  Unix.set_nonblock b.fd;
  let queued = ref false in
  let push () = match flush b.oc with () -> queued := false | exception Sys_blocked_io -> () in
  let rb = { pending = ""; frames = [] } in
  let bodies = Hashtbl.create 256 in
  let replies = ref [] and ping_ms = ref [] and pings_ok = ref true in
  let due = Hashtbl.create 512 in
  let t0 = now () in
  let deadline = t0 +. seconds in
  let period = 1.0 /. ping_rate in
  let pings = ref 0 in
  let inflight = ref None and next_id = ref 1 in
  let take_pings () =
    let rec go () =
      match take_response rb with
      | Some (e, body) ->
        let t = now () in
        (match Hashtbl.find_opt due e.Protocol.id with
        | Some due_t -> ping_ms := ((t -. due_t) *. 1000.0) :: !ping_ms
        | None -> ());
        if not (e.Protocol.ok && body = "{\"pong\":true}") then pings_ok := false;
        go ()
      | None -> ()
    in
    go ()
  in
  let serve_b r w =
    if List.mem b.fd w then push ();
    if List.mem b.fd r then begin
      (match fill rb b.fd with
      | true -> ()
      | false -> failwith "daemon closed connection B"
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ());
      take_pings ()
    end
  in
  let select r w timeout =
    try Unix.select r (if !queued then w else []) [] timeout
    with Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
  in
  (* Block 0 warms the daemon up (first touches of every kernel, heap
     growth) and is not measured; the loop runs at least one more block. *)
  let finished () =
    !next_id > 1 + block_requests && (!next_id - 1) mod block_requests = 0 && !inflight = None
  in
  let measured_from = ref t0 in
  while now () < deadline || not (finished ()) do
    let t = now () in
    while t0 +. (float_of_int !pings *. period) <= t do
      let id = ping_base + !pings in
      Hashtbl.replace due id (t0 +. (float_of_int !pings *. period));
      Protocol.write_request b.oc ~id Protocol.Ping;
      queued := true;
      incr pings
    done;
    if !inflight = None && not (t >= deadline && finished ()) then begin
      let req = next () in
      let id = !next_id in
      incr next_id;
      if id = block_requests + 1 then measured_from := now ();
      let key = Ndp_obs.Render.Json.to_string (Protocol.request_to_json ~id:0 req) in
      send a ~id req;
      inflight := Some (id, key, now ())
    end;
    let wait = Float.max 0.0 (t0 +. (float_of_int !pings *. period) -. t) in
    let r, w, _ = select [ a.fd; b.fd ] [ b.fd ] wait in
    serve_b r w;
    if List.mem a.fd r then begin
      (* One request is in flight on A, so its whole reply is on the way. *)
      let e, body = receive a in
      match !inflight with
      | Some (id, key, sent) ->
        let ms = (now () -. sent) *. 1000.0 in
        let same =
          match Hashtbl.find_opt bodies key with
          | Some first -> first = body
          | None ->
            Hashtbl.replace bodies key body;
            true
        in
        replies :=
          { id; cold = not e.Protocol.cached; ms; ok = e.Protocol.ok && e.Protocol.id = id && same }
          :: !replies;
        inflight := None
      | None -> failwith "reply on connection A with no request in flight"
    end
  done;
  let elapsed = now () -. !measured_from in
  (* Closing A lets the daemon accept B and answer the queued pings. *)
  close a;
  let give_up = now () +. 60.0 in
  while List.length !ping_ms < !pings do
    if now () > give_up then failwith "pings unanswered";
    let r, w, _ = select [ b.fd ] [ b.fd ] 1.0 in
    serve_b r w
  done;
  (* Every ping is sent and answered and nothing else was asked, so B's
     channels take over from here. *)
  Unix.clear_nonblock b.fd;
  if rb.pending <> "" || rb.frames <> [] then failwith "unexpected bytes on connection B";
  let _, stats = rpc b ~id:(ping_base * 2) Protocol.Cache_stats in
  let stats = Result.get_ok (Ndp_obs.Render.Json.parse stats) in
  let results = Option.get (Ndp_obs.Render.Json.member "results" stats) in
  let schedules = Option.get (Ndp_obs.Render.Json.member "schedules" stats) in
  let hits = json_int "hits" results and misses = json_int "misses" results in
  let reference =
    List.mapi
      (fun i spec ->
        let _, body = rpc b ~id:((ping_base * 2) + 1 + i) (Protocol.Run { spec; metrics = false }) in
        let job = Result.get_ok (Ndp_serve.Service.job_of_spec spec) in
        (body, Ndp_obs.Render.Json.to_string (Ndp_serve.Service.run job).Ndp_serve.Service.doc))
      reference
  in
  let peak_mb = peak_rss_mb (Some d.pid) in
  stop d b;
  {
    replies = List.rev !replies;
    measured = List.filter (fun r -> r.id > block_requests) (List.rev !replies);
    ping_ms = !ping_ms;
    pings_ok = !pings_ok;
    elapsed;
    peak_mb;
    hits_ratio = float_of_int hits /. float_of_int (max 1 (hits + misses));
    evictions = json_int "evictions" results + json_int "evictions" schedules;
    reference;
  }

(* ---- traced accounting from the daemon's access log ---------------------- *)

let absorb_access_log layers (s : session) =
  let module J = Ndp_obs.Render.Json in
  let by_id = Hashtbl.create 256 in
  List.iter (fun (r : reply) -> Hashtbl.replace by_id r.id r) s.replies;
  let ic = open_in access_log in
  let num k j = match J.member k j with Some (J.Float f) -> f | Some (J.Int i) -> float_of_int i | _ -> 0.0 in
  (try
     while true do
       let line = Result.get_ok (J.parse (input_line ic)) in
       match Hashtbl.find_opt by_id (json_int "id" line) with
       | Some r when json_int "id" line < ping_base ->
         let server_ms = num "ms" line in
         Layers.add_ms layers "serve.handle_ms" server_ms;
         Layers.add_ms layers "serve.io_ms" (r.ms -. server_ms);
         Layers.add_ms layers "serve.bytes_out" (num "bytes_out" line);
         let phases = match J.member "phases" line with Some (J.Obj kv) -> kv | _ -> [] in
         let phase_ms =
           List.fold_left
             (fun acc (name, p) ->
               let ms = num "ms" p in
               (match Layers.span_metric name with
               | Some metric ->
                 Layers.add_ms layers metric ms;
                 Layers.add_self layers metric ms
               | None -> Layers.add_self layers "other" ms);
               acc +. ms)
             0.0 phases
         in
         Layers.add_self layers "serve.handle_ms" (server_ms -. phase_ms);
         Layers.add_self layers "serve.io_ms" (r.ms -. server_ms);
         if r.cold && phases <> [] then
           Layers.reconcile layers ~enforced:false
             ~kind:("serve " ^ match J.member "op" line with Some (J.Str op) -> op | _ -> "?")
             ~phase_ms ~wall_ms:server_ms
       | _ -> ()
     done
   with End_of_file -> ());
  close_in ic;
  let n = List.length s.replies in
  layers.Layers.ops <- n;
  Layers.set layers "serve.cache_hit_ratio" s.hits_ratio;
  Layers.set layers "serve.evictions" (float_of_int s.evictions)

(* ---- workload ------------------------------------------------------------ *)

let sum xs = List.fold_left ( +. ) 0.0 xs

let run ~seed ~seconds ~trace =
  let layers = Layers.create () in
  let setup_s, d = setup ~logged:false in
  let s, traced =
    if not trace then (session ~seed ~seconds d, None)
    else begin
      (* Half the time untraced, half with the access log, same stream. *)
      let plain = session ~seed ~seconds:(seconds /. 2.0) d in
      let traced = session ~seed ~seconds:(seconds /. 2.0) (spawn ~logged:true) in
      (plain, Some traced)
    end
  in
  (match traced with
  | None -> ()
  | Some t ->
    absorb_access_log layers t;
    let m = min (List.length s.replies) (List.length t.replies) in
    let prefix (x : session) = List.filteri (fun i _ -> i < m) (List.map (fun r -> r.ms) x.replies) in
    Layers.pair layers ~plain_ms:(sum (prefix s)) ~traced_ms:(sum (prefix t)));
  let all = s :: Option.to_list traced in
  let replies = List.concat_map (fun x -> x.replies) all in
  let attempted = List.length replies + List.length s.ping_ms in
  let failed = List.length (List.filter (fun r -> not r.ok) replies) in
  let cold = List.filter_map (fun r -> if r.cold then Some r.ms else None) s.measured in
  let warm = List.filter_map (fun r -> if r.cold then None else Some r.ms) s.measured in
  let reference_bodies = List.map (fun (body, _) -> Result.get_ok (Ndp_obs.Render.Json.parse body)) s.reference in
  let stats j = Option.get (Ndp_obs.Render.Json.member "stats" j) in
  let flit_hops = List.fold_left (fun acc j -> acc + json_int "hops" (stats j)) 0 reference_bodies in
  let exec_cycles = List.map (json_int "exec_time") reference_bodies in
  let loop =
    {
      attempted;
      failed;
      elapsed_s = s.elapsed;
      samples_ms = cold;
      layers;
      counts_repeat = true;
    }
  in
  {
    setup_s;
    loop;
    ops_per_s = float_of_int (List.length s.measured) /. s.elapsed;
    tail = ("p90", percentile 0.9 cold);
    flit_hops;
    exec_cycles;
    peak_mem_mb = s.peak_mb;
    named =
      [
        ("serve_cold_ms_p50", median cold, "ms");
        ("serve_cold_ms_tail", percentile 0.9 cold, "ms");
        ("serve_warm_ms_p50", median warm, "ms");
        ("serve_warm_ms_tail", percentile 0.97 warm, "ms");
        ("serve_ping_ms_tail", percentile 0.96 s.ping_ms, "ms");
        ("requests_per_s", float_of_int (List.length s.measured) /. s.elapsed, "1/s");
        ("cold_requests", float_of_int (List.length cold), "count");
        ("warm_requests", float_of_int (List.length warm), "count");
        ("flit_hops", float_of_int flit_hops, "flit-hops");
        ("exec_cycles_geomean", geomean exec_cycles, "cycles");
      ];
    checks =
      List.concat_map
        (fun x ->
          ("pings answered pong", x.pings_ok)
          :: List.mapi
               (fun i (daemon, local) ->
                 (Printf.sprintf "reference run %d matches in-process" i, daemon = local))
               x.reference)
        all;
  }
