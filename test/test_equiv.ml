(* Frozen seed digests: every observable output of all 14 workloads x
   both schemes x {plain, faulted, profiled} runs — the original 12
   captured before the flat-engine rewrite (PR 7), the DNN chain
   workloads on their introduction alongside the fusion pass.
   `bench/main.exe equiv` regenerates the table; any intentional
   behaviour change must update it explicitly. *)

module E = Ndp_experiments.Equiv
module P = Ndp_core.Pipeline

let expected =
  [
    ("barnes/default/plain", "36773bac4175bf27");
    ("barnes/default/faulted", "c8fd0103c0af88a");
    ("barnes/default/profiled", "1a5176d0c09a84ea");
    ("barnes/partitioned(adaptive)/plain", "26dd1532e7d3f9ea");
    ("barnes/partitioned(adaptive)/faulted", "21d4c7905dba9bf7");
    ("barnes/partitioned(adaptive)/profiled", "2e08fd84970abc56");
    ("cholesky/default/plain", "3d0330442379bf2d");
    ("cholesky/default/faulted", "2c3a9e438b1ca8b8");
    ("cholesky/default/profiled", "14861b8ed76385fe");
    ("cholesky/partitioned(adaptive)/plain", "3933285fd2b34ea1");
    ("cholesky/partitioned(adaptive)/faulted", "11394cf7e07baceb");
    ("cholesky/partitioned(adaptive)/profiled", "287128a604821181");
    ("fft/default/plain", "1d11019861a0b4ba");
    ("fft/default/faulted", "32e09d7ff5435870");
    ("fft/default/profiled", "157c4da9fe96911b");
    ("fft/partitioned(adaptive)/plain", "270e834825bb677a");
    ("fft/partitioned(adaptive)/faulted", "2db92d6c1ec55ef7");
    ("fft/partitioned(adaptive)/profiled", "934a92dad9ccf4d");
    ("fmm/default/plain", "224178efdcdca73d");
    ("fmm/default/faulted", "24cbf7b2c72b63be");
    ("fmm/default/profiled", "29c6c37300caac71");
    ("fmm/partitioned(adaptive)/plain", "1d44ae97926bb613");
    ("fmm/partitioned(adaptive)/faulted", "38644a9930ee0f49");
    ("fmm/partitioned(adaptive)/profiled", "20e3aa1df41d9d22");
    ("lu/default/plain", "3529a234422a225a");
    ("lu/default/faulted", "1d1995b16d190d34");
    ("lu/default/profiled", "3b4c5166519724cc");
    ("lu/partitioned(adaptive)/plain", "2514f19a0908f166");
    ("lu/partitioned(adaptive)/faulted", "177faff9c7773a3d");
    ("lu/partitioned(adaptive)/profiled", "2a5d72ac1190010b");
    ("ocean/default/plain", "1254c3e5f34d5b4");
    ("ocean/default/faulted", "1a3f94223d2879af");
    ("ocean/default/profiled", "2fa055b04729af67");
    ("ocean/partitioned(adaptive)/plain", "1bda0ff36c2ab483");
    ("ocean/partitioned(adaptive)/faulted", "f493efb166c2b78");
    ("ocean/partitioned(adaptive)/profiled", "2ce9cfd0272a851");
    ("radiosity/default/plain", "1927d4deb4d69748");
    ("radiosity/default/faulted", "368edff667249927");
    ("radiosity/default/profiled", "25fab618fbd4ba9f");
    ("radiosity/partitioned(adaptive)/plain", "1d06e7dbe67e7e75");
    ("radiosity/partitioned(adaptive)/faulted", "379ae7b151f07372");
    ("radiosity/partitioned(adaptive)/profiled", "10411d5b27ca5b82");
    ("radix/default/plain", "a782dd7a80264cc");
    ("radix/default/faulted", "2f972ea0de99db9b");
    ("radix/default/profiled", "e2b3702189bc7fb");
    ("radix/partitioned(adaptive)/plain", "3aff875b6e842689");
    ("radix/partitioned(adaptive)/faulted", "33730fa59b2178ab");
    ("radix/partitioned(adaptive)/profiled", "1079409a4cb7dec6");
    ("raytrace/default/plain", "13c68cd0995d449e");
    ("raytrace/default/faulted", "3bb612eb9df02105");
    ("raytrace/default/profiled", "0502d5e01249d51");
    ("raytrace/partitioned(adaptive)/plain", "3ec639a832f4a7b9");
    ("raytrace/partitioned(adaptive)/faulted", "22cf456948d9634e");
    ("raytrace/partitioned(adaptive)/profiled", "362b9096687791a5");
    ("water/default/plain", "1ff7151f49941637");
    ("water/default/faulted", "150642662e666985");
    ("water/default/profiled", "362210aea267afa5");
    ("water/partitioned(adaptive)/plain", "3d7963c00352df7d");
    ("water/partitioned(adaptive)/faulted", "1bb07fea284bfcad");
    ("water/partitioned(adaptive)/profiled", "1f0a0f701b16d3de");
    ("minimd/default/plain", "25c7e639f53f22ab");
    ("minimd/default/faulted", "2f483e3f8dd009d7");
    ("minimd/default/profiled", "3a9e13cc70109a22");
    ("minimd/partitioned(adaptive)/plain", "186573821391049");
    ("minimd/partitioned(adaptive)/faulted", "3aaa3ec102206033");
    ("minimd/partitioned(adaptive)/profiled", "2c09fb51c9236e7f");
    ("minixyce/default/plain", "1eaa75bde1c9e56c");
    ("minixyce/default/faulted", "3b8e597b90d011ae");
    ("minixyce/default/profiled", "338a9a23a1a592eb");
    ("minixyce/partitioned(adaptive)/plain", "1edb0530e1f85006");
    ("minixyce/partitioned(adaptive)/faulted", "36e161051c5a1cc");
    ("minixyce/partitioned(adaptive)/profiled", "35abd2fedcd119b0");
    ("resnet_block/default/plain", "3699321dfdb40334");
    ("resnet_block/default/faulted", "defc3d3f81bed96");
    ("resnet_block/default/profiled", "2a03febce1c60823");
    ("resnet_block/partitioned(adaptive)/plain", "1bf1e0c1e6f1ca3c");
    ("resnet_block/partitioned(adaptive)/faulted", "3d906a6df6894831");
    ("resnet_block/partitioned(adaptive)/profiled", "2efc6fc155f25719");
    ("mobilenet_block/default/plain", "98f28fd5abde6a6");
    ("mobilenet_block/default/faulted", "24aa729b5d8cb5b");
    ("mobilenet_block/default/profiled", "284a78c5f8c622a5");
    ("mobilenet_block/partitioned(adaptive)/plain", "bc22c694a3d8a6e");
    ("mobilenet_block/partitioned(adaptive)/faulted", "16bb27b286823011");
    ("mobilenet_block/partitioned(adaptive)/profiled", "1e5b4af69402f81f");
  ]

let combos = E.all_combos ()

let check_combo (name, scheme, mode) () =
  let key = E.combo_key name scheme mode in
  let want =
    match List.assoc_opt key expected with
    | Some d -> d
    | None -> Alcotest.failf "no frozen digest for %s" key
  in
  let got = E.run ~mode ~scheme (Ndp_workloads.Suite.find name) in
  Alcotest.(check string) key want got

let table_covers_all_combos () =
  Alcotest.(check int) "combo count" (List.length combos) (List.length expected);
  List.iter
    (fun (name, scheme, mode) ->
      let key = E.combo_key name scheme mode in
      Alcotest.(check bool) (key ^ " frozen") true (List.mem_assoc key expected))
    combos

(* perfbench's compile_suite checks every Plain-mode run against its own
   frozen copy of these digests, and that copy changes only together with
   the benchmark. A change that moves a Plain digest here must refresh
   perfbench/expected_digests.txt with it, or the benchmark reads the new
   outputs as incorrect. *)
let perfbench_digests_match () =
  let path =
    Filename.concat (Filename.dirname Sys.executable_name) "../perfbench/expected_digests.txt"
  in
  let lines =
    In_channel.with_open_text path In_channel.input_lines |> List.filter (fun l -> l <> "")
  in
  let plain = List.filter (fun (k, _) -> Filename.basename k = "plain") expected in
  Alcotest.(check int) "one perfbench line per Plain digest" (List.length plain) (List.length lines);
  List.iter
    (fun line ->
      match String.split_on_char ' ' line with
      | [ key; digest ] -> (
        match List.assoc_opt key expected with
        | Some want when want = digest -> ()
        | Some want ->
          Alcotest.failf
            "%s: perfbench/expected_digests.txt has %s, the tier-1 table %s; a moved Plain \
             digest needs perfbench/expected_digests.txt refreshed in a change to the benchmark"
            key digest want
        | None -> Alcotest.failf "%s: perfbench digest has no tier-1 entry" key)
      | _ -> Alcotest.failf "malformed perfbench digest line %S" line)
    lines

let tests =
  [
    ( "equiv",
      Alcotest.test_case "table-covers-all-combos" `Quick table_covers_all_combos
      :: Alcotest.test_case "perfbench's frozen digests are the tier-1 table's" `Quick
           perfbench_digests_match
      :: List.map
           (fun ((name, scheme, mode) as combo) ->
             Alcotest.test_case
               (E.combo_key name scheme mode)
               `Slow (check_combo combo))
           combos );
  ]
