type reason =
  | Low_degree
  | Zero_constant_term
  | Residual_mismatch
  | Singular_preconditioner
  | Division_error
  | Rank_mismatch
  | Fault of string
  | Stale_cache of string

type rejection = {
  attempt : int;
  card_s : int;
  reason : reason;
}

type report = {
  attempts : int;
  card_s_final : int;
  rejections : rejection list;
}

type 'k error =
  | Singular of { kernel : 'k; report : report }
  | Retries_exhausted of report
  | Deadline_exceeded of { elapsed_ns : int64; report : report }
  | Fault_detected of { op : string; detail : string }
  | Overloaded of { queue_depth : int; retry_after_ms : int }

let empty_report = { attempts = 0; card_s_final = 0; rejections = [] }

let merge_reports a b =
  {
    attempts = a.attempts + b.attempts;
    card_s_final = (if b.card_s_final > 0 then b.card_s_final else a.card_s_final);
    rejections = a.rejections @ b.rejections;
  }

let with_report f = function
  | Singular { kernel; report } -> Singular { kernel; report = f report }
  | Retries_exhausted report -> Retries_exhausted (f report)
  | Deadline_exceeded { elapsed_ns; report } ->
    Deadline_exceeded { elapsed_ns; report = f report }
  | (Fault_detected _ | Overloaded _) as e -> e

let attempts_of_error = function
  | Singular { report; _ } | Retries_exhausted report
  | Deadline_exceeded { report; _ } ->
    report.attempts
  | Fault_detected _ | Overloaded _ -> 0

let reason_slug = function
  | Low_degree -> "low_degree"
  | Zero_constant_term -> "zero_constant_term"
  | Residual_mismatch -> "residual_mismatch"
  | Singular_preconditioner -> "singular_preconditioner"
  | Division_error -> "division_error"
  | Rank_mismatch -> "rank_mismatch"
  | Fault _ -> "fault"
  | Stale_cache _ -> "stale_cache"

let reason_to_string = function
  | Fault detail -> "fault: " ^ detail
  | Stale_cache detail -> "stale_cache: " ^ detail
  | r -> reason_slug r

let report_to_string r =
  Printf.sprintf "%d attempt%s, final |S| = %d%s" r.attempts
    (if r.attempts = 1 then "" else "s")
    r.card_s_final
    (match r.rejections with
    | [] -> ""
    | rs ->
      "; rejections: "
      ^ String.concat ", "
          (List.map
             (fun { attempt; card_s; reason } ->
               Printf.sprintf "#%d[|S|=%d] %s" attempt card_s
                 (reason_to_string reason))
             rs))

let error_to_string = function
  | Singular { report; _ } ->
    Printf.sprintf "singular (checked kernel vector; %s)"
      (report_to_string report)
  | Retries_exhausted report ->
    Printf.sprintf "retries exhausted (%s)" (report_to_string report)
  | Deadline_exceeded { elapsed_ns; report } ->
    Printf.sprintf "deadline exceeded after %.3f ms (%s)"
      (Int64.to_float elapsed_ns /. 1e6)
      (report_to_string report)
  | Fault_detected { op; detail } ->
    Printf.sprintf "fault detected in %s: %s" op detail
  | Overloaded { queue_depth; retry_after_ms } ->
    Printf.sprintf "overloaded (queue depth %d); retry after %d ms" queue_depth
      retry_after_ms

let json_escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let jstr s = "\"" ^ json_escape s ^ "\""

let report_json r =
  Printf.sprintf "{\"attempts\":%d,\"card_s_final\":%d,\"rejections\":[%s]}"
    r.attempts r.card_s_final
    (String.concat ","
       (List.map
          (fun { attempt; card_s; reason } ->
            Printf.sprintf "{\"attempt\":%d,\"card_s\":%d,\"reason\":%s}"
              attempt card_s
              (jstr (reason_to_string reason)))
          r.rejections))

let error_to_json ~kernel = function
  | Singular { kernel = w; report } ->
    Printf.sprintf "{\"error\":\"singular\",\"kernel\":%s,\"report\":%s}"
      (kernel w) (report_json report)
  | Retries_exhausted report ->
    Printf.sprintf "{\"error\":\"retries_exhausted\",\"report\":%s}"
      (report_json report)
  | Deadline_exceeded { elapsed_ns; report } ->
    Printf.sprintf
      "{\"error\":\"deadline_exceeded\",\"elapsed_ns\":%Ld,\"report\":%s}"
      elapsed_ns (report_json report)
  | Fault_detected { op; detail } ->
    Printf.sprintf "{\"error\":\"fault_detected\",\"op\":%s,\"detail\":%s}"
      (jstr op) (jstr detail)
  | Overloaded { queue_depth; retry_after_ms } ->
    Printf.sprintf
      "{\"error\":\"overloaded\",\"queue_depth\":%d,\"retry_after_ms\":%d}"
      queue_depth retry_after_ms
