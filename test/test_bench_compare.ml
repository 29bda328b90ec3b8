(* The benchmark-regression layer: the kp-bench/1 run-file parser and the
   tolerance-band comparison compare.exe applies, including the acceptance
   case — a synthetically degraded run must be flagged as a regression. *)

module B = Kp_bench_lib.Baseline
module J = Kp_bench_lib.Json_min

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* ---- JSON reader ---- *)

let test_json_scalars () =
  check_bool "number" true (J.parse "42.5" = J.Num 42.5);
  check_bool "negative int" true (J.parse "-7" = J.Num (-7.));
  check_bool "exponent" true (J.parse "1e3" = J.Num 1000.);
  check_bool "string" true (J.parse {|"hi"|} = J.Str "hi");
  check_bool "escapes" true (J.parse {|"a\n\"b\""|} = J.Str "a\n\"b\"");
  check_bool "true" true (J.parse "true" = J.Bool true);
  check_bool "null" true (J.parse " null " = J.Null)

let test_json_structures () =
  let v = J.parse {|{"a":[1,2,{"b":"c"}],"d":{}}|} in
  (match J.member "a" v with
  | Some (J.Arr [ J.Num 1.; J.Num 2.; inner ]) ->
    check_bool "nested member" true (J.member "b" inner = Some (J.Str "c"))
  | _ -> Alcotest.fail "array member shape");
  check_bool "empty object" true (J.member "d" v = Some (J.Obj []));
  check_bool "missing member" true (J.member "zzz" v = None)

let test_json_errors () =
  let fails s =
    match J.parse s with
    | exception J.Parse_error _ -> true
    | _ -> false
  in
  check_bool "trailing garbage" true (fails "{} x");
  check_bool "unterminated string" true (fails {|"abc|});
  check_bool "bad literal" true (fails "trve");
  check_bool "unclosed object" true (fails {|{"a":1|})

(* ---- run files ---- *)

let run_file ~fast tables =
  Printf.sprintf "{\"schema\":\"kp-bench/1\",\"fast\":%b,\"tables\":[%s]}" fast
    (String.concat "," tables)

let table ?(label = "E5") ?(seconds = 1.0) counters =
  Printf.sprintf "{\"label\":%S,\"seconds\":%f,\"counters\":{%s},\"spans\":[]}"
    label seconds
    (String.concat ","
       (List.map (fun (k, v) -> Printf.sprintf "%S:%d" k v) counters))

let parse_ok text =
  match B.run_of_string text with
  | Ok run -> run
  | Error m -> Alcotest.failf "expected run file to parse, got: %s" m

let test_run_parse () =
  let run =
    parse_ok
      (run_file ~fast:true
         [ table ~label:"E5" [ ("field.ops", 1000) ];
           table ~label:"E6" ~seconds:2.5 [ ("field.ops", 50) ] ])
  in
  check_bool "fast flag" true run.B.fast;
  check_int "tables" 2 (List.length run.B.tables);
  let t6 = List.nth run.B.tables 1 in
  check_bool "seconds" true (t6.B.seconds = Some 2.5);
  check_bool "counter" true (List.assoc "field.ops" t6.B.counters = 50.)

let test_run_parse_rejects () =
  let rejects text =
    match B.run_of_string text with Error _ -> true | Ok _ -> false
  in
  check_bool "wrong schema" true
    (rejects {|{"schema":"other/9","tables":[]}|});
  check_bool "no schema" true (rejects {|{"tables":[]}|});
  check_bool "unlabelled table" true
    (rejects {|{"schema":"kp-bench/1","tables":[{"seconds":1}]}|});
  check_bool "not json" true (rejects "STATS {")

(* ---- comparison ---- *)

let compare_strings ?seconds_ratio ?counter_rel_tol b c =
  B.compare_runs ?seconds_ratio ?counter_rel_tol ~baseline:(parse_ok b)
    ~current:(parse_ok c) ()

let test_identical_runs_pass () =
  let r =
    run_file ~fast:true
      [ table [ ("field.ops", 123456); ("solver.attempts", 3) ] ]
  in
  check_int "no regressions" 0 (List.length (B.regressions (compare_strings r r)))

let test_degraded_counters_fail () =
  (* the acceptance case: a synthetically degraded run — 2x the field ops —
     must be flagged *)
  let base = run_file ~fast:true [ table [ ("field.ops", 100000) ] ] in
  let degraded = run_file ~fast:true [ table [ ("field.ops", 200000) ] ] in
  let issues = compare_strings base degraded in
  check_bool "degraded run is a regression" true (B.regressions issues <> []);
  (* and within the 10% band nothing fires *)
  let ok = run_file ~fast:true [ table [ ("field.ops", 105000) ] ] in
  check_int "5% drift is inside the band" 0
    (List.length (B.regressions (compare_strings base ok)))

let test_small_counter_slack () =
  (* tiny counts get ±2 absolute slack: 1 -> 3 passes, 1 -> 4 fails *)
  let base = run_file ~fast:true [ table [ ("solver.attempts", 1) ] ] in
  let near = run_file ~fast:true [ table [ ("solver.attempts", 3) ] ] in
  let far = run_file ~fast:true [ table [ ("solver.attempts", 4) ] ] in
  check_int "within slack" 0
    (List.length (B.regressions (compare_strings base near)));
  check_bool "outside slack" true
    (B.regressions (compare_strings base far) <> [])

let test_seconds_band () =
  let base = run_file ~fast:true [ table ~seconds:2.0 [] ] in
  let slow = run_file ~fast:true [ table ~seconds:20.0 [] ] in
  let ok = run_file ~fast:true [ table ~seconds:7.0 [] ] in
  check_bool "10x wall-clock blowup flagged" true
    (B.regressions (compare_strings base slow) <> []);
  check_int "3.5x is inside the default 4x band" 0
    (List.length (B.regressions (compare_strings base ok)));
  check_int "wider ratio accepted" 0
    (List.length
       (B.regressions (compare_strings ~seconds_ratio:15.0 base slow)))

let test_timing_metrics_ignored () =
  (* schedule-dependent metrics never fire, even at huge drift *)
  let base =
    run_file ~fast:true
      [ table
          [ ("pool.region_wait_ns", 1000); ("pool.tasks.helper", 10);
            ("pool.tasks.worker", 90) ] ]
  in
  let drifted =
    run_file ~fast:true
      [ table
          [ ("pool.region_wait_ns", 999999999); ("pool.tasks.helper", 95);
            ("pool.tasks.worker", 5) ] ]
  in
  check_int "no regression from timing metrics" 0
    (List.length (B.regressions (compare_strings base drifted)))

let test_iteration_scaled_table_ignored () =
  (* E9's counters scale with bechamel iterations: ignored wholesale *)
  let base =
    run_file ~fast:true [ table ~label:"E9" [ ("solver.attempts", 3) ] ]
  in
  let drifted =
    run_file ~fast:true [ table ~label:"E9" [ ("solver.attempts", 300) ] ]
  in
  check_int "E9 counters ignored" 0
    (List.length (B.regressions (compare_strings base drifted)))

let test_missing_table_and_counter () =
  let base =
    run_file ~fast:true
      [ table ~label:"E5" [ ("field.ops", 10) ]; table ~label:"E6" [] ]
  in
  let missing_table = run_file ~fast:true [ table ~label:"E5" [ ("field.ops", 10) ] ] in
  check_bool "missing table flagged" true
    (B.regressions (compare_strings base missing_table) <> []);
  let missing_counter =
    run_file ~fast:true [ table ~label:"E5" []; table ~label:"E6" [] ]
  in
  check_bool "missing counter flagged" true
    (B.regressions (compare_strings base missing_counter) <> []);
  (* new tables / counters in the current run are info, not regressions *)
  let extra =
    run_file ~fast:true
      [ table ~label:"E5" [ ("field.ops", 10); ("new.counter", 7) ];
        table ~label:"E6" []; table ~label:"E13" [] ]
  in
  let issues = compare_strings base extra in
  check_int "extras are not regressions" 0 (List.length (B.regressions issues));
  check_bool "extras are reported as info" true (issues <> [])

let test_fast_flag_mismatch () =
  let base = run_file ~fast:true [ table [] ] in
  let full = run_file ~fast:false [ table [] ] in
  check_bool "fast/full runs are not comparable" true
    (B.regressions (compare_strings base full) <> [])

let find_committed name =
  List.find_opt Sys.file_exists [ name; "../" ^ name; "../../" ^ name ]

let baseline_file = "BENCH.json"

let test_committed_baseline_parses () =
  (* the baseline committed at the repo root must stay loadable; skip
     silently if the test runs outside the source tree *)
  match find_committed baseline_file with
  | None -> ()
  | Some path -> (
    match B.load path with
    | Error m -> Alcotest.failf "%s failed to parse: %s" baseline_file m
    | Ok run ->
      check_bool (baseline_file ^ " has tables") true (run.B.tables <> []);
      check_int (baseline_file ^ " self-compare is clean") 0
        (List.length
           (B.regressions (B.compare_runs ~baseline:run ~current:run ()))))

(* The single baseline must carry every table CI gates, with the counters
   that prove the recorded run exercised that table's engine — otherwise a
   path could silently stop running under the bands.  One case per table;
   each case name records the change that introduced the table. *)
let covers label check () =
  match find_committed baseline_file with
  | None -> ()
  | Some path -> (
    match B.load path with
    | Error m -> Alcotest.failf "%s failed to parse: %s" baseline_file m
    | Ok run -> (
      match List.find_opt (fun t -> t.B.label = label) run.B.tables with
      | None -> Alcotest.failf "%s has no %s table" baseline_file label
      | Some t ->
        let positive name =
          match List.assoc_opt name t.B.counters with
          | Some v -> v > 0.
          | None -> false
        in
        check t.B.counters positive))

let succeeded_all counters prefix =
  match
    ( List.assoc_opt (prefix ^ ".successes") counters,
      List.assoc_opt (prefix ^ ".failures") counters )
  with
  | Some s, Some f -> s > 0. && f = 0.
  | _ -> false

let test_pr4_baseline_covers_sessions =
  (* E13 and its cache counters, or the session regression band is vacuous *)
  covers "E13" (fun counters _ ->
      check_bool "E13 records the session cache counters" true
        (List.mem_assoc "session.cache.hit" counters
        && List.mem_assoc "session.cache.miss" counters
        && List.mem_assoc "session.cache.evict" counters))

let test_pr5_baseline_covers_kernels =
  (* E14 and the kernel.* hit counters, with the fast path taken *)
  covers "E14" (fun counters positive ->
      check_bool "E14 records kernel hit counters" true
        (List.mem_assoc "kernel.gfp_cstub" counters
        && List.mem_assoc "kernel.bulk_ops" counters);
      check_bool "E14 kernel fast path was taken" true
        (positive "kernel.gfp_cstub"))

let test_pr6_baseline_covers_block =
  (* E16 with the block engine exercised and every block solve certified *)
  covers "E16" (fun counters _ ->
      check_bool "E16 records the block engine counters" true
        (List.mem_assoc "block.attempts" counters
        && List.mem_assoc "block.krylov.blocks" counters
        && List.mem_assoc "block.successes" counters);
      check_bool "E16 block solves all succeeded" true
        (succeeded_all counters "block"))

let test_pr7_baseline_covers_serve =
  (* E15 counters are schedule-dependent (only its wall-clock is banded),
     but the recorded run must still show admission, shedding and the
     breaker demotion/re-promotion cycle *)
  covers "E15" (fun _ positive ->
      check_bool "E15 admitted traffic" true (positive "serve.admitted");
      check_bool "E15 shed traffic with typed rejections" true
        (positive "serve.shed");
      check_bool "E15 opened and re-closed the block breaker" true
        (positive "serve.breaker.block.open"
        && positive "serve.breaker.block.close");
      check_bool "E15 walked the degradation ladder" true
        (positive "serve.engine.block.fail"
        && positive "serve.engine.scalar.ok"
        && positive "serve.engine.block.ok"))

let test_pr9_baseline_covers_cstub =
  (* E18: the C-stub backends, their derived reference and the
     kernel.cstub.* meters advanced (E18 asserts bit-identity in-bench) *)
  covers "E18" (fun _ positive ->
      check_bool "E18 took the GF(p) C-stub path" true
        (positive "kernel.gfp_cstub");
      check_bool "E18 took the GF(2) C-stub path" true
        (positive "kernel.gf2_cstub");
      check_bool "E18 exercised the derived reference" true
        (positive "kernel.derived");
      check_bool "E18 advanced the kernel.cstub.* meters" true
        (positive "kernel.cstub.calls" && positive "kernel.cstub.bulk_ops"))

let test_pr10_baseline_covers_precond =
  (* E19: every preconditioner kind really built *)
  covers "E19" (fun _ positive ->
      check_bool "E19 built the dense Hankel·Diagonal kind" true
        (positive "precond.build.dense");
      check_bool "E19 built the sparse butterfly kind" true
        (positive "precond.build.sparse");
      check_bool "E19 built the extension-field kind" true
        (positive "precond.build.ext"))

let () =
  Alcotest.run "bench_compare"
    [
      ( "json",
        [
          Alcotest.test_case "scalars" `Quick test_json_scalars;
          Alcotest.test_case "structures" `Quick test_json_structures;
          Alcotest.test_case "errors" `Quick test_json_errors;
        ] );
      ( "run files",
        [
          Alcotest.test_case "parse" `Quick test_run_parse;
          Alcotest.test_case "rejects" `Quick test_run_parse_rejects;
          Alcotest.test_case "committed baseline" `Quick
            test_committed_baseline_parses;
          Alcotest.test_case "PR4 baseline covers sessions" `Quick
            test_pr4_baseline_covers_sessions;
          Alcotest.test_case "PR5 baseline covers kernels" `Quick
            test_pr5_baseline_covers_kernels;
          Alcotest.test_case "PR6 baseline covers block engine" `Quick
            test_pr6_baseline_covers_block;
          Alcotest.test_case "PR7 baseline covers serving" `Quick
            test_pr7_baseline_covers_serve;
          Alcotest.test_case "PR9 baseline covers C-stub kernels" `Quick
            test_pr9_baseline_covers_cstub;
          Alcotest.test_case "PR10 baseline covers preconditioners" `Quick
            test_pr10_baseline_covers_precond;
        ] );
      ( "compare",
        [
          Alcotest.test_case "identical runs" `Quick test_identical_runs_pass;
          Alcotest.test_case "degraded counters" `Quick
            test_degraded_counters_fail;
          Alcotest.test_case "small-counter slack" `Quick
            test_small_counter_slack;
          Alcotest.test_case "seconds band" `Quick test_seconds_band;
          Alcotest.test_case "timing metrics ignored" `Quick
            test_timing_metrics_ignored;
          Alcotest.test_case "iteration-scaled table ignored" `Quick
            test_iteration_scaled_table_ignored;
          Alcotest.test_case "missing table/counter" `Quick
            test_missing_table_and_counter;
          Alcotest.test_case "fast flag mismatch" `Quick
            test_fast_flag_mismatch;
        ] );
    ]
