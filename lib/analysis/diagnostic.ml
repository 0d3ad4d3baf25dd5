type severity = Error | Warning | Info

type location = {
  kernel : string;
  nest : string option;
  stmt : int option;
  reference : string option;
}

type t = { code : string; severity : severity; loc : location; message : string }

let location ?nest ?stmt ?reference kernel = { kernel; nest; stmt; reference }

let make ~code ~severity ~loc message = { code; severity; loc; message }

let makef ~code ~severity ~loc fmt =
  Printf.ksprintf (fun message -> make ~code ~severity ~loc message) fmt

let severity_to_string = function Error -> "error" | Warning -> "warning" | Info -> "info"

let severity_rank = function Error -> 0 | Warning -> 1 | Info -> 2

let is_error d = d.severity = Error

let count severity diags = List.length (List.filter (fun d -> d.severity = severity) diags)

let compare_diag a b =
  let c = compare (severity_rank a.severity) (severity_rank b.severity) in
  if c <> 0 then c
  else
    let c = compare a.code b.code in
    if c <> 0 then c else compare (a.loc, a.message) (b.loc, b.message)

let loc_to_string loc =
  String.concat ""
    [
      loc.kernel;
      (match loc.nest with Some n -> "/" ^ n | None -> "");
      (match loc.stmt with Some i -> Printf.sprintf " stmt %d" i | None -> "");
      (match loc.reference with Some r -> Printf.sprintf " ref %s" r | None -> "");
    ]

let to_string d =
  Printf.sprintf "%s[%s] %s: %s" (severity_to_string d.severity) d.code (loc_to_string d.loc)
    d.message

module Json = Ndp_obs.Render.Json

let to_sexp d =
  let field name value = Printf.sprintf "(%s %s)" name (Ndp_obs.Render.sexp_atom value) in
  let opt name = function Some v -> [ field name v ] | None -> [] in
  String.concat " "
    ([
       "(diagnostic";
       field "code" d.code;
       field "severity" (severity_to_string d.severity);
       field "kernel" d.loc.kernel;
     ]
    @ opt "nest" d.loc.nest
    @ opt "stmt" (Option.map string_of_int d.loc.stmt)
    @ opt "ref" d.loc.reference
    @ [ field "message" d.message ^ ")" ])

let json d =
  let opt name f = function Some v -> [ (name, f v) ] | None -> [] in
  let str s = Json.Str s in
  Json.Obj
    ([
       ("code", str d.code);
       ("severity", str (severity_to_string d.severity));
       ("kernel", str d.loc.kernel);
     ]
    @ opt "nest" str d.loc.nest
    @ opt "stmt" (fun i -> Json.Int i) d.loc.stmt
    @ opt "ref" str d.loc.reference
    @ [ ("message", str d.message) ])

let to_json d = Json.to_string (json d)

type format = Ndp_obs.Render.format = Human | Sexp | Json | Jsonl

let render format d =
  match format with
  | Human -> to_string d
  | Sexp -> to_sexp d
  | Json | Jsonl -> to_json d

let summary diags =
  Printf.sprintf "%d error(s), %d warning(s), %d info" (count Error diags) (count Warning diags)
    (count Info diags)
