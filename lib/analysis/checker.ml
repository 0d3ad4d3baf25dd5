module Pipeline = Ndp_core.Pipeline
module D = Diagnostic

type report = {
  kernel : string;
  scheme : string option;
  diagnostics : D.t list;
}

let lint_kernel ?window kernel =
  {
    kernel = kernel.Ndp_core.Kernel.name;
    scheme = None;
    diagnostics = Lint.check_kernel ?window kernel;
  }

let validate_kernel ?config scheme kernel =
  {
    kernel = kernel.Ndp_core.Kernel.name;
    scheme = Some (Pipeline.scheme_name scheme);
    diagnostics = Validate.check_kernel ?config scheme kernel;
  }

let check_kernel ?config ?window ~schemes kernel =
  lint_kernel ?window kernel :: List.map (fun s -> validate_kernel ?config s kernel) schemes

let check_suite ?config ?window ?(jobs = 1) ~schemes kernels =
  (* One cell per (kernel, pass): flattened in the exact order the serial
     concat_map produced, so the report list — and thus the rendered
     output — is identical at any job count. *)
  let cells =
    List.concat_map
      (fun kernel ->
        (fun () -> lint_kernel ?window kernel)
        :: List.map (fun s () -> validate_kernel ?config s kernel) schemes)
      kernels
  in
  if jobs <= 1 then List.map (fun cell -> cell ()) cells
  else
    Ndp_prelude.Pool.with_pool ~jobs (fun pool ->
        Ndp_prelude.Pool.parallel_map pool (fun cell -> cell ()) cells)

let all_diagnostics reports = List.concat_map (fun r -> r.diagnostics) reports

let has_errors reports = List.exists D.is_error (all_diagnostics reports)

let render_report format r =
  let pass = if r.scheme = None then "lint" else "validate" in
  let target =
    match r.scheme with None -> r.kernel | Some s -> Printf.sprintf "%s under %s" r.kernel s
  in
  match format with
  | D.Human ->
    let header =
      if r.diagnostics = [] then Printf.sprintf "%-8s %-40s ok" pass target
      else Printf.sprintf "%-8s %-40s %s" pass target (D.summary r.diagnostics)
    in
    String.concat "\n" (header :: List.map (fun d -> "  " ^ D.to_string d) r.diagnostics)
  | D.Sexp | D.Json | D.Jsonl ->
    String.concat "\n" (List.map (D.render format) r.diagnostics)

let render ?(format = D.Human) reports =
  match format with
  | D.Json ->
    (* One JSON array holding every diagnostic, parseable as a whole. *)
    Ndp_obs.Render.Json.(to_string (List (List.map D.json (all_diagnostics reports))))
  | _ ->
    let lines = List.filter (fun s -> s <> "") (List.map (render_report format) reports) in
    (match format with
    | D.Human -> String.concat "\n" (lines @ [ D.summary (all_diagnostics reports) ])
    | _ -> String.concat "\n" lines)
