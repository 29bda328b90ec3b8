(* Benchmark-regression baselines: the model of a kp-bench/1 run file
   (written by main.exe --json) and the tolerance-band comparison that
   bench/compare.exe applies between a fresh run and the committed
   baseline (BENCH.json).

   Metrics fall into three classes:
   - deterministic counters (field-op tallies, solver attempt/success
     counts, pool.* fan-out counts): fixed seeds make these functions of
     the code alone, so they must match the baseline within a small
     relative band — drift here is an algorithmic regression, not noise;
   - wall-clock ("seconds" per table): machine-dependent, compared only
     against a generous ratio so a CI smoke run still catches order-of-
     magnitude blowups;
   - schedule/timing-dependent counters (queue-wait nanoseconds, the
     worker/helper task split, and every counter of an iteration-scaled
     bechamel table): ignored. *)

type table = {
  label : string;
  seconds : float option;
  counters : (string * float) list;
}

type run = { fast : bool; tables : table list }

(* tables whose counters scale with however many timed iterations the
   benchmark harness chose to run — not comparable across machines.  E15
   is here for a different reason with the same consequence: its load
   phase runs concurrent client threads, so per-run counter totals are
   schedule-dependent; only its wall-clock is gated. *)
let iteration_scaled_labels = [ "E9"; "E15" ]

let table_of_json j =
  match Option.bind (Json_min.member "label" j) Json_min.to_string with
  | None -> Error "table record without a \"label\""
  | Some label ->
    let seconds = Option.bind (Json_min.member "seconds" j) Json_min.to_float in
    let counters =
      match Json_min.member "counters" j with
      | Some (Json_min.Obj fields) ->
        List.filter_map
          (fun (k, v) -> Option.map (fun f -> (k, f)) (Json_min.to_float v))
          fields
      | _ -> []
    in
    Ok { label; seconds; counters }

let run_of_string text =
  match Json_min.parse text with
  | exception Json_min.Parse_error m -> Error ("parse error: " ^ m)
  | j -> (
    match Option.bind (Json_min.member "schema" j) Json_min.to_string with
    | Some "kp-bench/1" -> (
      let fast =
        match Json_min.member "fast" j with
        | Some (Json_min.Bool b) -> b
        | _ -> false
      in
      match Option.bind (Json_min.member "tables" j) Json_min.to_list with
      | None -> Error "run file without a \"tables\" array"
      | Some tables ->
        let rec collect acc = function
          | [] -> Ok { fast; tables = List.rev acc }
          | t :: rest -> (
            match table_of_json t with
            | Ok t -> collect (t :: acc) rest
            | Error _ as e -> e)
        in
        collect [] tables)
    | Some other -> Error (Printf.sprintf "unsupported schema %S" other)
    | None -> Error "not a kp-bench run file (missing \"schema\")")

let load path =
  match open_in path with
  | exception Sys_error m -> Error m
  | ic ->
    let len = in_channel_length ic in
    let text = really_input_string ic len in
    close_in ic;
    run_of_string text

(* ---- comparison ---- *)

type severity = Info | Regression

type issue = {
  severity : severity;
  table : string;
  metric : string;
  message : string;
}

type metric_class = Deterministic | Ignored

let classify ~label metric =
  let has_suffix suf s =
    let ls = String.length s and lf = String.length suf in
    ls >= lf && String.sub s (ls - lf) lf = suf
  in
  let has_prefix pre s =
    let ls = String.length s and lp = String.length pre in
    ls >= lp && String.sub s 0 lp = pre
  in
  if List.mem label iteration_scaled_labels then Ignored
  else if has_suffix "_ns" metric then Ignored
  else if has_prefix "pool.tasks." metric then Ignored
  else Deterministic

let info table metric fmt =
  Printf.ksprintf
    (fun message -> { severity = Info; table; metric; message })
    fmt

let regression table metric fmt =
  Printf.ksprintf
    (fun message -> { severity = Regression; table; metric; message })
    fmt

(* [seconds_ratio]: a table may take up to baseline*ratio + 0.5s (absolute
   slack covers near-zero baselines) before it counts as a regression.
   [counter_rel_tol]: deterministic counters may drift by this relative
   fraction (against the larger magnitude), with an absolute slack of 2
   for tiny counts. *)
let compare_runs ?(seconds_ratio = 4.0) ?(counter_rel_tol = 0.10) ~baseline
    ~current () =
  let issues = ref [] in
  let push i = issues := i :: !issues in
  if baseline.fast <> current.fast then
    push
      (regression "(run)" "fast"
         "baseline and current runs use different --fast settings; \
          deterministic counters are not comparable");
  List.iter
    (fun (bt : table) ->
      match
        List.find_opt (fun (ct : table) -> ct.label = bt.label) current.tables
      with
      | None ->
        push
          (regression bt.label "(table)"
             "table present in baseline but missing from current run")
      | Some ct ->
        (match (bt.seconds, ct.seconds) with
        | Some bs, Some cs when cs > (bs *. seconds_ratio) +. 0.5 ->
          push
            (regression bt.label "seconds"
               "wall-clock %.3fs exceeds %.1fx baseline %.3fs" cs
               seconds_ratio bs)
        | _ -> ());
        List.iter
          (fun (name, bv) ->
            match classify ~label:bt.label name with
            | Ignored -> ()
            | Deterministic -> (
              match List.assoc_opt name ct.counters with
              | None ->
                if bv > 0. then
                  push
                    (regression bt.label name
                       "counter missing from current run (baseline %.0f)" bv)
              | Some cv ->
                let tol =
                  Float.max (counter_rel_tol *. Float.max (Float.abs bv) (Float.abs cv)) 2.0
                in
                if Float.abs (cv -. bv) > tol then
                  push
                    (regression bt.label name
                       "counter %.0f drifted from baseline %.0f (tolerance \
                        ±%.0f)" cv bv tol)))
          bt.counters;
        List.iter
          (fun (name, cv) ->
            if
              classify ~label:bt.label name = Deterministic
              && not (List.mem_assoc name bt.counters)
              && cv > 0.
            then
              push
                (info bt.label name
                   "new counter (%.0f), absent from baseline — refresh the \
                    baseline to track it" cv))
          ct.counters)
    baseline.tables;
  List.iter
    (fun (ct : table) ->
      if
        not
          (List.exists (fun (bt : table) -> bt.label = ct.label)
             baseline.tables)
      then
        push
          (info ct.label "(table)"
             "table absent from baseline — refresh the baseline to track it"))
    current.tables;
  List.rev !issues

let regressions issues =
  List.filter (fun i -> i.severity = Regression) issues

let render issues =
  let buf = Buffer.create 256 in
  List.iter
    (fun i ->
      Buffer.add_string buf
        (Printf.sprintf "%s %s/%s: %s\n"
           (match i.severity with
           | Regression -> "REGRESSION"
           | Info -> "info      ")
           i.table i.metric i.message))
    issues;
  Buffer.contents buf
