type instance = { stmt_idx : int; stmt : Stmt.t; env : Env.t }

type kind = Flow | Anti | Output

type dep = { src : int; dst : int; kind : kind; may : bool }

type resolver = Reference.t -> Env.t -> int option

type access = { ref_ : Reference.t; addr : int option }

let accesses resolver inst =
  let resolve r = { ref_ = r; addr = resolver r inst.env } in
  (resolve (Stmt.output inst.stmt), List.map resolve (Stmt.inputs inst.stmt))

(* Two accesses conflict when they certainly touch the same element, or when
   either is unresolvable and the arrays match (a may-dependence). *)
let conflict a b =
  if not (String.equal a.ref_.Reference.array b.ref_.Reference.array) then None
  else
    match (a.addr, b.addr) with
    | Some x, Some y -> if x = y then Some false else None
    | None, _ | _, None -> Some true

(* The per-pair check shared by both analyses: all dependences between the
   accesses of instance [i] and the later instance [j]. *)
let pair_deps add (wi, ri) (wj, rj) i j =
  (match conflict wi wj with
  | Some may -> add i j Output may
  | None -> ());
  List.iter
    (fun r -> match conflict wi r with Some may -> add i j Flow may | None -> ())
    rj;
  List.iter
    (fun r -> match conflict r wj with Some may -> add i j Anti may | None -> ())
    ri

(* Every instance's accesses, resolved once and shared by both analyses. *)
let resolve_all resolver instances = Array.map (accesses resolver) (Array.of_list instances)

(* The all-pairs scan: every (i, j) with i < j, in list order. *)
let all_pairs resolved =
  let deps = ref [] in
  let add src dst kind may = deps := { src; dst; kind; may } :: !deps in
  let n = Array.length resolved in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      pair_deps add resolved.(i) resolved.(j) i j
    done
  done;
  List.rev !deps

module Int_tbl = Hashtbl.Make (Int)

(* A pair can only carry a dependence when some access pair shares an
   array AND the addresses match or a side is unresolvable. So bucket
   resolved accesses by address and unresolvable ones by array: instance j
   partners instance i when they share an address bucket, or either holds
   an unresolvable reference to an array the other touches. Array names
   are interned to dense ids once, so the per-array buckets are arrays and
   the address table hashes a bare int. Keying on the address alone can
   only add candidates (two arrays whose ranges overlap); [pair_deps]
   re-checks the array, so the output is unchanged. Affine streams then
   cost O(n * chain length) instead of O(n^2). *)
let bucketed resolved =
  let n = Array.length resolved in
  let ids = Hashtbl.create 16 in
  let id_of name =
    match Hashtbl.find_opt ids name with
    | Some k -> k
    | None ->
      let k = Hashtbl.length ids in
      Hashtbl.add ids name k;
      k
  in
  (* Instance i's accesses, flattened: positions [start.(i), start.(i+1)). *)
  let start = Array.make (n + 1) 0 in
  Array.iteri (fun i (_, rs) -> start.(i + 1) <- start.(i) + 1 + List.length rs) resolved;
  let acc_id = Array.make start.(n) 0 in
  let acc_addr = Array.make start.(n) None in
  Array.iteri
    (fun i (w, rs) ->
      List.iteri
        (fun k a ->
          acc_id.(start.(i) + k) <- id_of a.ref_.Reference.array;
          acc_addr.(start.(i) + k) <- a.addr)
        (w :: rs))
    resolved;
  let arrays = Hashtbl.length ids in
  let by_array = Array.make arrays [] in
  let by_unresolved = Array.make arrays [] in
  let by_addr = Int_tbl.create 64 in
  (* Bucket lists are descending (consed over increasing i); an instance
     enters each bucket once. *)
  let cons i = function j :: _ as l when j = i -> l | l -> i :: l in
  for i = 0 to n - 1 do
    for k = start.(i) to start.(i + 1) - 1 do
      let id = acc_id.(k) in
      by_array.(id) <- cons i by_array.(id);
      match acc_addr.(k) with
      | Some addr ->
        Int_tbl.replace by_addr addr
          (cons i (Option.value (Int_tbl.find_opt by_addr addr) ~default:[]))
      | None -> by_unresolved.(id) <- cons i by_unresolved.(id)
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
    for k = start.(i) to start.(i + 1) - 1 do
      let id = acc_id.(k) in
      (match acc_addr.(k) with
      | Some addr -> Option.iter stamp (Int_tbl.find_opt by_addr addr)
      | None ->
        (* Unresolvable: may-conflicts with every access to the array. *)
        stamp by_array.(id));
      stamp by_unresolved.(id)
    done;
    List.iter (fun j -> pair_deps add resolved.(i) resolved.(j) i j) (List.sort Int.compare !js)
  done;
  List.rev !deps

let analyze_naive resolver instances = all_pairs (resolve_all resolver instances)

let analyze resolver instances =
  let resolved = resolve_all resolver instances in
  (* Compilation windows are a handful of instances; the all-pairs scan
     beats building the buckets, and the bucketed path reproduces its
     output exactly, so the dispatch is invisible. *)
  if Array.length resolved <= 12 then all_pairs resolved else bucketed resolved

let kind_to_string = function Flow -> "flow" | Anti -> "anti" | Output -> "output"

type index = (int * int, unit) Hashtbl.t

let index_deps deps =
  let tbl = Hashtbl.create (max 16 (List.length deps)) in
  List.iter (fun d -> Hashtbl.replace tbl (d.src, d.dst) ()) deps;
  tbl

let serialized index ~src ~dst = Hashtbl.mem index (src, dst)

let must_serialize deps ~src ~dst = serialized (index_deps deps) ~src ~dst
