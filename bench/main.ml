(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (Section 6) on the simulated manycore, plus the DESIGN.md
   ablations. The performance of the stack itself is measured by
   perfbench/ (see BENCHMARK.json), not here.

   Subcommands live in the declarative [commands] table at the bottom
   (name, summary, run function); usage is generated from it.

   Usage:
     main.exe            run all tables + figures
     main.exe all        tables + figures + ablations
     main.exe table1     one artifact (table1..table3, fig13..fig24,
                         heatmap, summary)
     main.exe ablation   the DESIGN.md ablations
     main.exe equiv      the run-digest table consumed by test_equiv.ml *)

module E = Ndp_experiments

(* The declarative subcommand table: name, one-line summary, run function
   over the remaining argv words. Usage is generated from the table. *)
type command = { name : string; summary : string; run : string list -> unit }

let () =
  let common = E.Common.create () in
  let artifacts =
    [
      ("table1", fun () -> E.Tables.table1 common);
      ("table2", fun () -> E.Tables.table2 common);
      ("table3", fun () -> E.Tables.table3 common);
      ("fig13", fun () -> E.Figures.fig13 common);
      ("fig14", fun () -> E.Figures.fig14 common);
      ("fig15", fun () -> E.Figures.fig15 common);
      ("fig16", fun () -> E.Figures.fig16 common);
      ("fig17", fun () -> E.Figures.fig17 common);
      ("fig18", fun () -> E.Figures.fig18 common);
      ("fig19", fun () -> E.Figures.fig19 common);
      ("heatmap", fun () -> E.Figures.link_heatmap common);
      ("attribution", fun () -> E.Figures.attribution common);
      ("degradation", fun () -> E.Figures.degradation common);
      ("fig20", fun () -> E.Figures.fig20 common);
      ("fig21", fun () -> E.Figures.fig21 common);
      ("fig22", fun () -> E.Figures.fig22 common);
      ("fig23", fun () -> E.Figures.fig23 common);
      ("fig24", fun () -> E.Figures.fig24 common);
      ("summary", fun () -> E.Figures.summary common);
    ]
  in
  let run_paper () = List.iter (fun (_, f) -> f ()) artifacts in
  let commands =
    [
      { name = "paper"; summary = "every table and figure (the default)"; run = (fun _ -> run_paper ()) };
      {
        name = "all";
        summary = "tables + figures + ablations";
        run =
          (fun _ ->
            run_paper ();
            E.Ablation.all common);
      };
      { name = "ablation"; summary = "the DESIGN.md ablations"; run = (fun _ -> E.Ablation.all common) };
      {
        name = "equiv";
        summary = "print the run-digest table consumed by test_equiv.ml";
        run =
          (fun _ ->
            List.iter
              (fun (name, scheme, mode) ->
                let kernel = Ndp_workloads.Suite.find name in
                let d = E.Equiv.run ~mode ~scheme kernel in
                Printf.printf "    (%S, %S);\n%!"
                  (E.Equiv.combo_key name scheme mode) d)
              (E.Equiv.all_combos ()));
      };
    ]
    @ List.map
        (fun (n, f) -> { name = n; summary = "the " ^ n ^ " artifact only"; run = (fun _ -> f ()) })
        artifacts
  in
  let usage oc =
    Printf.fprintf oc "usage: main.exe [COMMAND]\n\ncommands:\n";
    List.iter (fun c -> Printf.fprintf oc "  %-10s %s\n" c.name c.summary) commands
  in
  match Array.to_list Sys.argv with
  | [] | [ _ ] -> run_paper ()
  | _ :: ("help" | "--help" | "-h") :: _ -> usage stdout
  | _ :: name :: rest -> (
    match List.find_opt (fun c -> c.name = name) commands with
    | Some c -> c.run rest
    | None ->
      Printf.eprintf "unknown command %s\n\n" name;
      usage stderr;
      exit 1)
