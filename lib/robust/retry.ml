module Counter = Kp_obs.Counter
module Events = Kp_obs.Events
module Clock = Kp_obs.Clock
module O = Outcome

type policy = {
  retries : int;
  max_card_s : int option;
  deadline_ns : int64 option;
}

let policy ?(retries = 10) ?(max_card_s = None) ?deadline_ns () =
  { retries; max_card_s; deadline_ns }

let deadline_after_ms ms =
  Int64.add (Clock.now_ns ()) (Int64.mul (Int64.of_int ms) 1_000_000L)

let remaining_ns ~deadline_ns =
  let r = Int64.sub deadline_ns (Clock.now_ns ()) in
  if Int64.compare r 0L > 0 then r else 0L

let remaining_ms ~deadline_ns =
  Int64.to_int (Int64.div (remaining_ns ~deadline_ns) 1_000_000L)

let split_deadline ~deadline_ns ~ways =
  if ways <= 1 then deadline_ns
  else
    Int64.add (Clock.now_ns ())
      (Int64.div (remaining_ns ~deadline_ns) (Int64.of_int ways))

type ('a, 'k) attempt =
  | Accept of 'a
  | Reject of O.reason
  | Error_now of 'k O.error

let c_escalations = Counter.make "robust.escalations"
let c_deadline = Counter.make "robust.deadline_exceeded"

let run ~ns ~op ~policy ~card_s f =
  let c_attempts = Counter.make (ns ^ ".attempts") in
  let c_successes = Counter.make (ns ^ ".successes") in
  let c_failures = Counter.make (ns ^ ".failures") in
  let c_singular = Counter.make (ns ^ ".singular") in
  let start_ns = Clock.now_ns () in
  let rejections = ref [] in
  let attempt_event ~attempt outcome =
    Events.emit (ns ^ ".attempt")
      [ ("op", op); ("attempt", string_of_int attempt); ("outcome", outcome) ]
  in
  let failure_event err =
    Events.emit "robust.failure"
      [ ("op", ns ^ "." ^ op); ("error", O.error_to_string err) ]
  in
  let clamp c =
    match policy.max_card_s with Some m -> min c m | None -> c
  in
  let report ~attempts ~card_s =
    { O.attempts; card_s_final = card_s; rejections = List.rev !rejections }
  in
  let exhausted ~attempts ~card_s =
    Counter.incr c_failures;
    let err = O.Retries_exhausted (report ~attempts ~card_s) in
    failure_event err;
    Error err
  in
  let rec go k card_s =
    if k > policy.retries then exhausted ~attempts:(k - 1) ~card_s
    else begin
      let now = Clock.now_ns () in
      match policy.deadline_ns with
      | Some dl when now > dl ->
        Counter.incr c_deadline;
        let err =
          O.Deadline_exceeded
            {
              elapsed_ns = Int64.sub now start_ns;
              report = report ~attempts:(k - 1) ~card_s;
            }
        in
        failure_event err;
        Error err
      | _ -> (
        Counter.incr c_attempts;
        let res =
          match f ~attempt:k ~card_s with
          | r -> r
          | exception Division_by_zero -> Reject O.Division_error
          | exception Fault.Injected msg -> Reject (O.Fault msg)
        in
        match res with
        | Accept v ->
          Counter.incr c_successes;
          attempt_event ~attempt:k "success";
          Ok (v, report ~attempts:k ~card_s)
        | Error_now err ->
          let singular = match err with O.Singular _ -> true | _ -> false in
          Counter.incr (if singular then c_singular else c_failures);
          attempt_event ~attempt:k (if singular then "singular" else "error");
          let err =
            O.with_report
              (fun inner -> O.merge_reports (report ~attempts:k ~card_s) inner)
              err
          in
          (* a singular verdict is an answer, recorded by the attempt
             event and the counter above: only failures are failures *)
          if not singular then failure_event err;
          Error err
        | Reject reason ->
          Counter.incr (Counter.make (ns ^ ".rejections." ^ O.reason_slug reason));
          rejections := { O.attempt = k; card_s; reason } :: !rejections;
          attempt_event ~attempt:k (O.reason_slug reason);
          let card_s' = clamp (2 * card_s) in
          if card_s' <> card_s then begin
            Counter.incr c_escalations;
            Events.emit "robust.escalate"
              [ ("op", ns ^ "." ^ op); ("card_s", string_of_int card_s') ]
          end;
          go (k + 1) card_s')
    end
  in
  go 1 (clamp card_s)
