type format = Human | Sexp | Json | Jsonl

let all_formats = [ ("human", Human); ("sexp", Sexp); ("json", Json); ("jsonl", Jsonl) ]

module Json = struct
  type t =
    | Null
    | Bool of bool
    | Int of int
    | Float of float
    | Str of string
    | List of t list
    | Obj of (string * t) list

  let escape s =
    let buf = Buffer.create (String.length s + 2) in
    Buffer.add_char buf '"';
    String.iter
      (fun c ->
        match c with
        | '"' -> Buffer.add_string buf "\\\""
        | '\\' -> Buffer.add_string buf "\\\\"
        | '\n' -> Buffer.add_string buf "\\n"
        | '\r' -> Buffer.add_string buf "\\r"
        | '\t' -> Buffer.add_string buf "\\t"
        | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char buf c)
      s;
    Buffer.add_char buf '"';
    Buffer.contents buf

  let float_repr f =
    if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.1f" f
    else Printf.sprintf "%.12g" f

  let rec write buf = function
    | Null -> Buffer.add_string buf "null"
    | Bool b -> Buffer.add_string buf (if b then "true" else "false")
    | Int i -> Buffer.add_string buf (string_of_int i)
    | Float f ->
      if not (Float.is_finite f) then Buffer.add_string buf "null"
      else Buffer.add_string buf (float_repr f)
    | Str s -> Buffer.add_string buf (escape s)
    | List xs ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i x ->
          if i > 0 then Buffer.add_char buf ',';
          write buf x)
        xs;
      Buffer.add_char buf ']'
    | Obj fields ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char buf ',';
          Buffer.add_string buf (escape k);
          Buffer.add_char buf ':';
          write buf v)
        fields;
      Buffer.add_char buf '}'

  let to_string j =
    let buf = Buffer.create 256 in
    write buf j;
    Buffer.contents buf

  (* A reader for the same dialect [to_string] writes (RFC 8259 minus
     nothing we emit): numbers without '.', 'e' or 'E' that fit in an
     OCaml int parse as [Int], everything else as [Float]; \uXXXX escapes
     decode to UTF-8. The serve wire protocol and the tests parse with
     this, so a [to_string]/[parse] round trip is the identity on every
     document the renderer can produce (non-finite floats excepted — they
     serialize as [null]). *)
  let parse (s : string) : (t, string) result =
    let n = String.length s in
    let pos = ref 0 in
    let exception Bad of string in
    let fail msg = raise (Bad (Printf.sprintf "%s at offset %d" msg !pos)) in
    let peek () = if !pos < n then s.[!pos] else '\000' in
    let advance () = incr pos in
    let rec skip_ws () =
      match peek () with ' ' | '\t' | '\n' | '\r' -> advance (); skip_ws () | _ -> ()
    in
    let expect c =
      if peek () = c then advance () else fail (Printf.sprintf "expected '%c'" c)
    in
    let add_utf8 b cp =
      if cp < 0x80 then Buffer.add_char b (Char.chr cp)
      else if cp < 0x800 then begin
        Buffer.add_char b (Char.chr (0xC0 lor (cp lsr 6)));
        Buffer.add_char b (Char.chr (0x80 lor (cp land 0x3F)))
      end
      else begin
        Buffer.add_char b (Char.chr (0xE0 lor (cp lsr 12)));
        Buffer.add_char b (Char.chr (0x80 lor ((cp lsr 6) land 0x3F)));
        Buffer.add_char b (Char.chr (0x80 lor (cp land 0x3F)))
      end
    in
    let parse_string () =
      expect '"';
      let b = Buffer.create 16 in
      let rec go () =
        match peek () with
        | '\000' when !pos >= n -> fail "unterminated string"
        | '"' -> advance ()
        | '\\' ->
          advance ();
          (match peek () with
          | 'n' -> Buffer.add_char b '\n'; advance ()
          | 't' -> Buffer.add_char b '\t'; advance ()
          | 'r' -> Buffer.add_char b '\r'; advance ()
          | 'b' -> Buffer.add_char b '\b'; advance ()
          | 'f' -> Buffer.add_char b '\012'; advance ()
          | '/' -> Buffer.add_char b '/'; advance ()
          | '"' -> Buffer.add_char b '"'; advance ()
          | '\\' -> Buffer.add_char b '\\'; advance ()
          | 'u' ->
            advance ();
            if !pos + 4 > n then fail "truncated \\u escape";
            let hex = String.sub s !pos 4 in
            (match int_of_string_opt ("0x" ^ hex) with
            | Some cp -> add_utf8 b cp
            | None -> fail "bad \\u escape");
            pos := !pos + 4
          | _ -> fail "bad escape");
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
      let text = String.sub s start (!pos - start) in
      let integral = String.for_all (function '0' .. '9' | '-' -> true | _ -> false) text in
      match (integral, int_of_string_opt text) with
      | true, Some i -> Int i
      | _ -> (
        match float_of_string_opt text with
        | Some f -> Float f
        | None -> fail "bad number")
    in
    let literal word v =
      String.iter expect word;
      v
    in
    let rec parse_value depth =
      if depth > 512 then fail "nesting too deep";
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
            let v = parse_value (depth + 1) in
            skip_ws ();
            match peek () with
            | ',' -> advance (); members ((key, v) :: acc)
            | '}' -> advance (); Obj (List.rev ((key, v) :: acc))
            | _ -> fail "expected ',' or '}'"
          in
          members []
      | '[' ->
        advance ();
        skip_ws ();
        if peek () = ']' then (advance (); List [])
        else
          let rec elements acc =
            let v = parse_value (depth + 1) in
            skip_ws ();
            match peek () with
            | ',' -> advance (); elements (v :: acc)
            | ']' -> advance (); List (List.rev (v :: acc))
            | _ -> fail "expected ',' or ']'"
          in
          elements []
      | '"' -> Str (parse_string ())
      | 't' -> literal "true" (Bool true)
      | 'f' -> literal "false" (Bool false)
      | 'n' -> literal "null" Null
      | _ -> parse_number ()
    in
    match
      let v = parse_value 0 in
      skip_ws ();
      if !pos <> n then fail "trailing garbage";
      v
    with
    | v -> Ok v
    | exception Bad msg -> Error msg

  let member key = function Obj kvs -> List.assoc_opt key kvs | _ -> None
end

let sexp_atom s =
  let bare c =
    (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9')
    || c = '-' || c = '_' || c = '.' || c = '/'
  in
  if s <> "" && String.for_all bare s then s
  else begin
    let buf = Buffer.create (String.length s + 2) in
    Buffer.add_char buf '"';
    String.iter
      (fun c ->
        if c = '"' || c = '\\' then Buffer.add_char buf '\\';
        Buffer.add_char buf c)
      s;
    Buffer.add_char buf '"';
    Buffer.contents buf
  end

let rec json_to_sexp (j : Json.t) =
  match j with
  | Json.Null -> "()"
  | Json.Bool b -> if b then "true" else "false"
  | Json.Int i -> string_of_int i
  | Json.Float f -> Json.float_repr f
  | Json.Str s -> sexp_atom s
  | Json.List xs -> "(" ^ String.concat " " (List.map json_to_sexp xs) ^ ")"
  | Json.Obj fields ->
    "("
    ^ String.concat " "
        (List.map (fun (k, v) -> "(" ^ sexp_atom k ^ " " ^ json_to_sexp v ^ ")") fields)
    ^ ")"

(* Prometheus text-exposition lexical helpers. The semantic assembly
   (families, bucket cumulation) lives in [Metrics.to_prometheus] —
   [Metrics] already depends on [Render], so only the format vocabulary
   can live here. *)
module Prom = struct
  let mangle name =
    let mangled =
      String.map
        (fun c ->
          match c with
          | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | ':' -> c
          | _ -> '_')
        name
    in
    if mangled = "" then "_"
    else
      match mangled.[0] with '0' .. '9' -> "_" ^ mangled | _ -> mangled

  (* Registry sample names are [base] or [base{label}] (the exploded-vec
     form). A label of shape [k=v] becomes the pair; anything else (e.g. a
     NoC link like "1,0->2,0") is kept whole under the key "label". *)
  let split_series name =
    match String.index_opt name '{' with
    | Some i when String.length name > 0 && name.[String.length name - 1] = '}' ->
      let base = String.sub name 0 i in
      let label = String.sub name (i + 1) (String.length name - i - 2) in
      let pair =
        match String.index_opt label '=' with
        | Some j ->
          (String.sub label 0 j, String.sub label (j + 1) (String.length label - j - 1))
        | None -> ("label", label)
      in
      (base, [ pair ])
    | _ -> (name, [])

  let escape_label_value v =
    let buf = Buffer.create (String.length v) in
    String.iter
      (fun c ->
        match c with
        | '\\' -> Buffer.add_string buf "\\\\"
        | '"' -> Buffer.add_string buf "\\\""
        | '\n' -> Buffer.add_string buf "\\n"
        | c -> Buffer.add_char buf c)
      v;
    Buffer.contents buf

  let labels_to_string = function
    | [] -> ""
    | kvs ->
      "{"
      ^ String.concat ","
          (List.map (fun (k, v) -> Printf.sprintf "%s=\"%s\"" (mangle k) (escape_label_value v)) kvs)
      ^ "}"

  let float_repr f =
    if Float.is_nan f then "NaN"
    else if f = Float.infinity then "+Inf"
    else if f = Float.neg_infinity then "-Inf"
    else if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.0f" f
    else Printf.sprintf "%.12g" f

  let sample_line name labels value =
    Printf.sprintf "%s%s %s" name (labels_to_string labels) value
end

let output fmt ~human (doc : Json.t) =
  match fmt with
  | Human -> human ()
  | Json -> Json.to_string doc
  | Sexp -> json_to_sexp doc
  | Jsonl -> (
    match doc with
    | Json.List xs -> String.concat "\n" (List.map Json.to_string xs)
    | Json.Obj fields ->
      String.concat "\n"
        (List.map
           (fun (k, v) -> Json.to_string (Json.Obj [ ("key", Json.Str k); ("value", v) ]))
           fields)
    | other -> Json.to_string other)
