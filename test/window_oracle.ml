(* Reference window sizer for the tests: compile the nest sample under
   every candidate size, re-analyzing dependences per chunk, and keep the
   size with the least estimated movement plus synchronization (the
   smallest on ties). This is the preprocessing loop of Section 4.4 in
   its most literal form; [Window.choose_size] prices the same objective
   analytically and must pick the same size. *)

module Window = Ndp_core.Window

(* Total estimated movement plus synchronization when compiling the stream
   under a fixed window size, each chunk analyzed on its own (no
   simulation), on a forked context. *)
let movement_estimate ctx metas ~window =
  let ctx = Ndp_core.Context.fork_for_estimate ctx in
  let sync_links = Window.sync_links_of ctx in
  List.fold_left
    (fun acc w ->
      let c = Window.compile ctx w in
      acc + c.Window.est_movement + (sync_links * c.Window.sync_count))
    0 (Window.chunk metas window)

let choose_size ctx metas ~max =
  let sample = List.filteri (fun i _ -> i < Window.preprocessing_sample) metas in
  let rec best w best_w best_m =
    if w > max then best_w
    else begin
      let m = movement_estimate ctx sample ~window:w in
      if m < best_m then best (w + 1) w m else best (w + 1) best_w best_m
    end
  in
  best 1 1 max_int
