(** The one retry engine behind every randomized routine ([kp_core]
    reaches it through [Kp_core.Las_vegas], which supplies the sample
    set, the |S| ceiling and the singularity check):

    - {b attempt budget}: at most [retries] attempts, each with fresh
      randomness;
    - {b sample-set escalation}: after each rejected attempt |S| doubles
      (clamped to [max_card_s], normally the field cardinality).  By
      estimate (2) the per-attempt failure probability is ≤ 3n²/|S|, so
      doubling halves the bound on every retry — this is what makes
      retries converge on small fields, where a fixed |S| ≥ |K| would
      fail forever at constant rate;
    - {b deadline}: an optional absolute monotonic deadline
      ({!Kp_obs.Clock}) checked before each attempt;
    - {b terminal verdicts}: an attempt ends the run with [Error_now] —
      a checked [Singular], an inner deadline, a detected fault; the
      engine knows nothing about singularity, and exhaustion is always
      [Retries_exhausted];
    - {b fault containment}: [Division_by_zero] and {!Fault.Injected}
      escaping the attempt body are converted into typed rejections and
      retried — a transient fault costs one attempt, never the process;
    - {b telemetry}: per-attempt counters ([<ns>.attempts],
      [<ns>.successes], [<ns>.failures], [<ns>.singular],
      [<ns>.rejections.<reason>]), one
      [<ns>.attempt] event per attempt, [robust.escalate] events on each
      |S| doubling, and a [robust.failure] event carrying the error
      taxonomy for every error but [Singular] (a checked verdict about
      the input, which the [singular] attempt outcome and the
      [<ns>.singular] counter record) — all through {!Kp_obs}, so
      [--stats=json] reports them. *)

type policy = {
  retries : int;  (** maximum number of attempts *)
  max_card_s : int option;
      (** ceiling for |S|, which doubles after every rejection ([None]:
          unclamped) *)
  deadline_ns : int64 option;  (** absolute monotonic deadline *)
}

val policy :
  ?retries:int -> ?max_card_s:int option -> ?deadline_ns:int64 -> unit -> policy
(** Defaults: [retries = 10], no clamp, no deadline.  [max_card_s] takes
    the [int option] directly so call sites can pass [F.cardinality]
    through. *)

val deadline_after_ms : int -> int64
(** Monotonic deadline [ms] milliseconds from now. *)

val remaining_ns : deadline_ns:int64 -> int64
(** Budget left until the monotonic deadline, clamped at 0. *)

val remaining_ms : deadline_ns:int64 -> int
(** [remaining_ns] in whole milliseconds (0 once the deadline passed). *)

val split_deadline : deadline_ns:int64 -> ways:int -> int64
(** Sub-deadline granting [1/ways] of the budget still left {e now} — the
    serving layer's budget splitter: a request admitted with one absolute
    deadline that may cascade through [ways] fallback engines gives each
    stage an equal share of whatever time the earlier stages (and queue
    wait) left over, so the whole cascade still lands inside the caller's
    deadline.  [ways <= 1] returns the deadline unchanged.  Time already
    burnt is gone: splitting an expired deadline yields an expired
    sub-deadline, which the retry engine turns into a typed
    [Deadline_exceeded] before any attempt starts. *)

type ('a, 'k) attempt =
  | Accept of 'a  (** certified answer: stop *)
  | Reject of Outcome.reason  (** bad randomness: retry, escalated *)
  | Error_now of 'k Outcome.error
      (** a terminal verdict (a checked [Singular], an inner deadline, a
          detected fault): stop immediately, merging this loop's report
          into the error *)

val run :
  ns:string ->
  op:string ->
  policy:policy ->
  card_s:int ->
  (attempt:int -> card_s:int -> ('a, 'k) attempt) ->
  ('a * Outcome.report, 'k Outcome.error) result
(** [run ~ns ~op ~policy ~card_s f] drives [f] until acceptance,
    exhaustion, or deadline.  [ns] prefixes counters/events (e.g.
    ["solver"]), [op] labels the operation within the namespace (e.g.
    ["solve"]).  [f] receives the 1-based attempt index and the |S| in
    force for that attempt. *)
