type instance = { stmt_idx : int; stmt : Stmt.t; env : Env.t }

type kind = Flow | Anti | Output

type dep = { src : int; dst : int; kind : kind; may : bool }

type resolver = Reference.t -> Env.t -> int option

type accesses = { first : int array; ids : int array; addrs : int array }

let unresolved = min_int

(* Resolve every instance once through [resolver], interning array names
   to dense ids for this call only. *)
let resolve resolver instances =
  let names = Hashtbl.create 16 in
  let id name =
    match Hashtbl.find_opt names name with
    | Some id -> id
    | None ->
      Hashtbl.add names name (Hashtbl.length names);
      Hashtbl.length names - 1
  in
  let per = List.map (fun i -> (i.env, Stmt.output i.stmt :: Stmt.inputs i.stmt)) instances in
  let all = List.concat_map (fun (env, rs) -> List.map (fun r -> (r, env)) rs) per in
  let first = Array.make (List.length per + 1) 0 in
  List.iteri (fun i (_, rs) -> first.(i + 1) <- first.(i) + List.length rs) per;
  let addr ((r : Reference.t), env) = Option.value (resolver r env) ~default:unresolved in
  {
    first;
    ids = Array.of_list (List.map (fun ((r : Reference.t), _) -> id r.Reference.array) all);
    addrs = Array.of_list (List.map addr all);
  }

(* Two accesses conflict when they certainly touch the same element, or when
   either is unresolvable and the arrays match (a may-dependence): [-1] for
   no conflict, [0] for a must-, [1] for a may-dependence. *)
let conflict acc a b =
  if acc.ids.(a) <> acc.ids.(b) then -1
  else
    let x = acc.addrs.(a) and y = acc.addrs.(b) in
    if x = unresolved || y = unresolved then 1 else if x = y then 0 else -1

(* The per-pair check shared by both analyses: all dependences between the
   accesses of instance [i] and the later instance [j], output write first,
   then flow into j's reads, then anti from i's reads. *)
let pair_deps add acc i j =
  let wi = acc.first.(i) and wj = acc.first.(j) in
  let check kind a b =
    let c = conflict acc a b in
    if c >= 0 then add i j kind (c = 1)
  in
  check Output wi wj;
  for r = wj + 1 to acc.first.(j + 1) - 1 do
    check Flow wi r
  done;
  for r = wi + 1 to acc.first.(i + 1) - 1 do
    check Anti r wj
  done

let count acc = Array.length acc.first - 1

(* The all-pairs scan: every (i, j) with i < j, in list order. *)
let all_pairs acc =
  let deps = ref [] in
  let add src dst kind may = deps := { src; dst; kind; may } :: !deps in
  let n = count acc in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      pair_deps add acc i j
    done
  done;
  List.rev !deps

module Int_tbl = Hashtbl.Make (Int)

(* A pair can only carry a dependence when some access pair shares an
   array AND the addresses match or a side is unresolvable. So bucket
   resolved accesses by address and unresolvable ones by array: instance j
   partners instance i when they share an address bucket, or either holds
   an unresolvable reference to an array the other touches. Array ids are
   dense, so the per-array buckets are arrays and the address table hashes
   a bare int. Keying on the address alone can only add candidates (two
   arrays whose ranges overlap); [pair_deps] re-checks the array, so the
   output is unchanged. Affine streams then cost O(n * chain length)
   instead of O(n^2). *)
let bucketed acc =
  let n = count acc in
  let arrays = Array.fold_left (fun m id -> max m (id + 1)) 0 acc.ids in
  let by_array = Array.make arrays [] in
  let by_unresolved = Array.make arrays [] in
  let by_addr = Int_tbl.create 64 in
  (* Bucket lists are descending (consed over increasing i); an instance
     enters each bucket once. *)
  let cons i = function j :: _ as l when j = i -> l | l -> i :: l in
  for i = 0 to n - 1 do
    for k = acc.first.(i) to acc.first.(i + 1) - 1 do
      let id = acc.ids.(k) and addr = acc.addrs.(k) in
      by_array.(id) <- cons i by_array.(id);
      if addr = unresolved then by_unresolved.(id) <- cons i by_unresolved.(id)
      else
        Int_tbl.replace by_addr addr
          (cons i (Option.value (Int_tbl.find_opt by_addr addr) ~default:[]))
    done
  done;
  (* [mark.(j) = i] stamps j as a partner of i exactly once; sorting the
     stamped partners ascending reproduces the all-pairs j order, so the
     output — order and duplicates included — is identical to
     [all_pairs]. *)
  let mark = Array.make n (-1) in
  let deps = ref [] in
  let add src dst kind may = deps := { src; dst; kind; may } :: !deps in
  for i = 0 to n - 1 do
    let js = ref [] in
    let rec stamp = function
      | j :: rest when j > i ->
        if mark.(j) <> i then begin
          mark.(j) <- i;
          js := j :: !js
        end;
        stamp rest
      | _ -> ()
    in
    for k = acc.first.(i) to acc.first.(i + 1) - 1 do
      let id = acc.ids.(k) and addr = acc.addrs.(k) in
      if addr = unresolved then
        (* Unresolvable: may-conflicts with every access to the array. *)
        stamp by_array.(id)
      else Option.iter stamp (Int_tbl.find_opt by_addr addr);
      stamp by_unresolved.(id)
    done;
    List.iter (fun j -> pair_deps add acc i j) (List.sort Int.compare !js)
  done;
  List.rev !deps

(* Compilation windows are a handful of instances; the all-pairs scan
   beats building the buckets, and the bucketed path reproduces its
   output exactly, so the dispatch is invisible. *)
let analyze_accesses acc = if count acc <= 12 then all_pairs acc else bucketed acc

let analyze resolver instances = analyze_accesses (resolve resolver instances)

let slice ~chunk ~n deps =
  if chunk <= 0 then invalid_arg "Dependence.slice: chunk must be positive";
  let pieces = Array.make ((n + chunk - 1) / chunk) [] in
  List.iter
    (fun d ->
      let c = d.src / chunk in
      if d.dst / chunk = c then begin
        let lo = c * chunk in
        pieces.(c) <- { d with src = d.src - lo; dst = d.dst - lo } :: pieces.(c)
      end)
    deps;
  Array.map List.rev pieces

let kind_to_string = function Flow -> "flow" | Anti -> "anti" | Output -> "output"

type index = (int * int, unit) Hashtbl.t

let index_deps deps =
  let tbl = Hashtbl.create (max 16 (List.length deps)) in
  List.iter (fun d -> Hashtbl.replace tbl (d.src, d.dst) ()) deps;
  tbl

let serialized index ~src ~dst = Hashtbl.mem index (src, dst)
