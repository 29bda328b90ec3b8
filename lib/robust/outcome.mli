(** Structured outcomes for the randomized Las Vegas core.

    Every retried routine in the repository classifies each failed attempt
    with a {!reason}, accumulates them into a {!report}, and surfaces
    terminal failures as a typed {!error} — replacing the stringly-typed
    [(_, string) result] that each module used to hand-roll.

    The taxonomy mirrors the paper's failure discipline: an attempt is
    {e rejected} (bad randomness, estimate (2)) and retried with a larger
    sample set, a {e singular} verdict is a checked kernel vector, and
    anything that contradicts a certificate that should have held
    deterministically is a detected {e fault}. *)

type reason =
  | Low_degree
      (** The minimal generator did not reach full degree (singular
          Toeplitz system / division by zero inside the straight-line
          pipeline). *)
  | Zero_constant_term
      (** f(0) = 0, but the kernel vector built from f failed its check
          (w = 0 or A·w ≠ 0). *)
  | Residual_mismatch
      (** The candidate answer failed its certificate (A·x ≠ b,
          A·A⁻¹ ≠ I, inexact division, …). *)
  | Singular_preconditioner  (** det(H·D) = 0: the random draw was bad. *)
  | Division_error
      (** An uncaught [Division_by_zero] escaped the attempt body. *)
  | Rank_mismatch
      (** A Monte Carlo rank/nullity guess was contradicted downstream. *)
  | Fault of string
      (** An injected or detected fault: a certificate that holds
          deterministically failed, or {!Fault.Injected} was raised. *)
  | Stale_cache of string
      (** A cached precomputation (session layer) failed re-verification
          against the live input: the entry is poisoned — it must be
          evicted and rebuilt, never silently reused. *)

type rejection = {
  attempt : int;  (** 1-based attempt index *)
  card_s : int;  (** |S| in force for this attempt *)
  reason : reason;
}

type report = {
  attempts : int;  (** attempts consumed (including the successful one) *)
  card_s_final : int;  (** |S| in force on the last attempt *)
  rejections : rejection list;  (** chronological *)
}

type 'k error =
  | Singular of { kernel : 'k; report : report }
      (** A proof: [kernel] is a w ≠ 0 with A·w = 0, checked against the
          input A by the engine (the core's ['k] is [F.t array]). *)
  | Retries_exhausted of report
      (** The attempt budget ran out without a certified answer. *)
  | Deadline_exceeded of { elapsed_ns : int64; report : report }
      (** The monotonic deadline passed before an attempt could start. *)
  | Fault_detected of { op : string; detail : string }
      (** A deterministic invariant failed outside any retry loop. *)
  | Overloaded of { queue_depth : int; retry_after_ms : int }
      (** Admission control rejected the request before any work started:
          the serving queue is at or past its load-shedding threshold.
          [retry_after_ms] is the server's backoff hint (queue depth times
          its recent per-request service estimate).  Carries no report —
          zero attempts were spent. *)

val empty_report : report

val merge_reports : report -> report -> report
(** Accumulate two reports from consecutive sub-computations: attempts
    add, rejections concatenate, [card_s_final] is the later one's. *)

val with_report : (report -> report) -> 'k error -> 'k error
(** Map over the report carried by an error ([Fault_detected] and
    [Overloaded] untouched). *)

val attempts_of_error : 'k error -> int

val reason_slug : reason -> string
(** Snake-case label used in counter names and events
    (e.g. [residual_mismatch], [fault]). *)

val reason_to_string : reason -> string
val report_to_string : report -> string
val error_to_string : 'k error -> string

val error_to_json : kernel:('k -> string) -> 'k error -> string
(** One-line JSON rendering of the taxonomy, [kernel] rendering a
    [Singular]'s w: [{"error":"singular","kernel":[...],"report":{...}}]. *)
