type t = {
  jobs : int;
  mutex : Mutex.t;
  work_available : Condition.t;
  queue : (unit -> unit) Queue.t;
  mutable live : bool;
  mutable workers : unit Domain.t list;
}

(* Marks a domain as currently executing pool work: a nested
   [parallel_map] from such a domain must not enqueue-and-wait on the
   same pool (the workers it would wait for are busy running it), so it
   degrades to serial. *)
let in_worker : bool ref Domain.DLS.key = Domain.DLS.new_key (fun () -> ref false)

let inside_pool () = !(Domain.DLS.get in_worker)

let default_jobs () =
  match Sys.getenv_opt "NDP_JOBS" with
  | Some s -> (
    match int_of_string_opt (String.trim s) with
    | Some n when n >= 1 -> n
    | Some _ | None -> Domain.recommended_domain_count ())
  | None -> Domain.recommended_domain_count ()

let worker_loop t =
  Domain.DLS.get in_worker := true;
  let running = ref true in
  while !running do
    Mutex.lock t.mutex;
    while t.live && Queue.is_empty t.queue do
      Condition.wait t.work_available t.mutex
    done;
    match Queue.take_opt t.queue with
    | Some task ->
      Mutex.unlock t.mutex;
      task ()
    | None ->
      (* Queue drained and the pool is shutting down. *)
      running := false;
      Mutex.unlock t.mutex
  done

let shutdown t =
  Mutex.lock t.mutex;
  t.live <- false;
  Condition.broadcast t.work_available;
  Mutex.unlock t.mutex;
  let workers = t.workers in
  t.workers <- [];
  List.iter Domain.join workers

let create ?jobs () =
  let jobs = max 1 (Option.value jobs ~default:(default_jobs ())) in
  let t =
    {
      jobs;
      mutex = Mutex.create ();
      work_available = Condition.create ();
      queue = Queue.create ();
      live = true;
      workers = [];
    }
  in
  if jobs > 1 then begin
    t.workers <- List.init (jobs - 1) (fun _ -> Domain.spawn (fun () -> worker_loop t));
    (* A leaked pool must not block process exit on blocked workers. *)
    at_exit (fun () -> shutdown t)
  end;
  t

let size t = t.jobs

(* Tasks enqueued on the pool never raise: [parallel_map] wraps each
   application in a [result] and re-raises on the calling domain. *)
let parallel_map t f xs =
  if t.jobs <= 1 || t.workers = [] || inside_pool () then List.map f xs
  else begin
    let arr = Array.of_list xs in
    let n = Array.length arr in
    if n = 0 then []
    else begin
      let results = Array.make n None in
      let remaining = ref n in
      let call_done = Condition.create () in
      let run i () =
        let r =
          try Ok (f arr.(i)) with e -> Error (e, Printexc.get_raw_backtrace ())
        in
        Mutex.lock t.mutex;
        results.(i) <- Some r;
        decr remaining;
        if !remaining = 0 then Condition.broadcast call_done;
        Mutex.unlock t.mutex
      in
      Mutex.lock t.mutex;
      for i = 0 to n - 1 do
        Queue.push (run i) t.queue
      done;
      Condition.broadcast t.work_available;
      (* Help drain the queue while waiting: the caller is the pool's
         jobs-th lane, and helping also prevents deadlock when a helped
         task issues a nested map. *)
      let rec wait () =
        if !remaining > 0 then
          match Queue.take_opt t.queue with
          | Some task ->
            Mutex.unlock t.mutex;
            task ();
            Mutex.lock t.mutex;
            wait ()
          | None ->
            Condition.wait call_done t.mutex;
            wait ()
      in
      wait ();
      Mutex.unlock t.mutex;
      let first_error = ref None in
      Array.iter
        (fun r ->
          match (r, !first_error) with
          | Some (Error e), None -> first_error := Some e
          | _ -> ())
        results;
      match !first_error with
      | Some (e, bt) -> Printexc.raise_with_backtrace e bt
      | None ->
        Array.to_list
          (Array.map
             (function Some (Ok v) -> v | Some (Error _) | None -> assert false)
             results)
    end
  end

let with_pool ?jobs f =
  let t = create ?jobs () in
  Fun.protect ~finally:(fun () -> shutdown t) (fun () -> f t)
