(* Diff a fresh benchmark run against the committed baseline.

     dune exec bench/compare.exe -- --baseline BENCH.json --current fresh.json

   Exit codes: 0 = no regression (info lines may still print), 1 = at
   least one metric outside its tolerance band, 2 = usage/parse error.
   Tolerances can be widened for noisy environments with
   --seconds-ratio R and --counter-tol F (see bench/baseline.ml for the
   metric classification).  --only LABEL restricts the diff to one table
   (both sides are filtered; the label must exist in the baseline) — the
   CI serve-smoke job uses it to gate E15 from a run that produced only
   E15. *)

let usage_error fmt =
  Printf.ksprintf
    (fun m ->
      Printf.eprintf "compare: %s\n" m;
      Printf.eprintf
        "usage: compare.exe --baseline FILE --current FILE \
         [--seconds-ratio R] [--counter-tol F] [--only LABEL]\n";
      exit 2)
    fmt

let () =
  let baseline = ref None
  and current = ref None
  and seconds_ratio = ref 4.0
  and counter_tol = ref 0.10
  and only = ref None in
  let rec parse = function
    | [] -> ()
    | "--baseline" :: path :: rest ->
      baseline := Some path;
      parse rest
    | "--current" :: path :: rest ->
      current := Some path;
      parse rest
    | "--seconds-ratio" :: v :: rest -> (
      match float_of_string_opt v with
      | Some f when f > 0. ->
        seconds_ratio := f;
        parse rest
      | _ -> usage_error "--seconds-ratio needs a positive number, got %S" v)
    | "--counter-tol" :: v :: rest -> (
      match float_of_string_opt v with
      | Some f when f >= 0. ->
        counter_tol := f;
        parse rest
      | _ -> usage_error "--counter-tol needs a non-negative number, got %S" v)
    | "--only" :: label :: rest ->
      only := Some (String.uppercase_ascii label);
      parse rest
    | [ ("--baseline" | "--current" | "--seconds-ratio" | "--counter-tol"
        | "--only") as a ] ->
      usage_error "%s needs a value" a
    | unknown :: _ -> usage_error "unknown argument %S" unknown
  in
  parse (List.tl (Array.to_list Sys.argv));
  let need what = function
    | Some v -> v
    | None -> usage_error "missing required %s" what
  in
  let load what path =
    match Kp_bench_lib.Baseline.load path with
    | Ok run -> run
    | Error m -> usage_error "%s %s: %s" what path m
  in
  let baseline = load "baseline" (need "--baseline FILE" !baseline) in
  let current = load "current" (need "--current FILE" !current) in
  let baseline, current =
    match !only with
    | None -> (baseline, current)
    | Some label ->
      let restrict (run : Kp_bench_lib.Baseline.run) =
        {
          run with
          Kp_bench_lib.Baseline.tables =
            List.filter
              (fun (t : Kp_bench_lib.Baseline.table) ->
                t.Kp_bench_lib.Baseline.label = label)
              run.Kp_bench_lib.Baseline.tables;
        }
      in
      let baseline = restrict baseline in
      if baseline.Kp_bench_lib.Baseline.tables = [] then
        usage_error "--only %s: no such table in the baseline" label;
      (baseline, restrict current)
  in
  let issues =
    Kp_bench_lib.Baseline.compare_runs ~seconds_ratio:!seconds_ratio
      ~counter_rel_tol:!counter_tol ~baseline ~current ()
  in
  print_string (Kp_bench_lib.Baseline.render issues);
  let regressions = Kp_bench_lib.Baseline.regressions issues in
  if regressions = [] then begin
    Printf.printf "compare: OK — %d table(s) within tolerance\n"
      (List.length baseline.Kp_bench_lib.Baseline.tables);
    exit 0
  end
  else begin
    Printf.printf "compare: %d regression(s)\n" (List.length regressions);
    exit 1
  end
